"""The benchmark's workloads: seeded inputs, the timed call, the output check.

Every workload is a stream of rounds.  A round has a fixed composition
of input shapes and the seed changes only the inputs drawn inside each
shape, so runs with different seeds see the same mix of work and differ
only in its details.  Runs stop on a round boundary.

The generators here belong to the benchmark.  They take their seed as
an argument and never call the library's own random helpers, so a
change to those helpers cannot change what the benchmark measures.

The library is reached through ``deltacalc.<name>`` at call time, never
through names bound at import, so that the traced run sees the wrapped
functions installed by ``tracing.Tracer.install``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import deltacalc
import deltacalc.cli

# ---------------------------------------------------------------- degree

# One op per (dimension, top degree) pair in every round.
DEGREE_SHAPES = [(dim, top) for dim in (1, 2, 3) for top in range(6)]


@dataclass(frozen=True)
class DegreeOp:
    dim: int
    top: int
    expression: str

    @property
    def label(self) -> str:
        return f"dim{self.dim}.count{self.top}"


def _exponents(rng: random.Random, dim: int, norm: int) -> tuple[int, ...]:
    exps = [0] * dim
    for _ in range(norm):
        exps[rng.randrange(dim)] += 1
    return tuple(exps)


def _term(rng: random.Random, exps: tuple[int, ...]) -> str:
    coeff = rng.choice([c for c in range(-9, 10) if c])
    factors = []
    for axis, e in enumerate(exps, start=1):
        if e == 0:
            continue
        if rng.random() < 0.5:
            factors.append(f"C(x{axis},{e})")
        else:
            factors.append(f"x{axis}" if e == 1 else f"x{axis}^{e}")
    if not factors:
        return str(coeff)
    sign = "-" if coeff < 0 else ""
    head = [] if abs(coeff) == 1 else [str(abs(coeff))]
    return sign + "*".join(head + factors)


def expression(rng: random.Random, dim: int, top: int) -> str:
    """A polynomial in x1..x<dim> of total degree exactly ``top``.

    Terms have distinct exponent tuples, so a term of largest norm keeps
    its leading power-basis monomial: no other term can reach it, and the
    expression is never the zero polynomial.
    """
    tuples = {_exponents(rng, dim, top)}
    for _ in range(rng.randint(0, 3)):
        tuples.add(_exponents(rng, dim, rng.randint(0, top)))
    order = sorted(tuples)
    rng.shuffle(order)
    text = ""
    for term in (_term(rng, exps) for exps in order):
        if not text:
            text = term
        elif term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


def degree_rounds(seed: int):
    rng = random.Random(f"degree-{seed}")
    while True:
        shapes = list(DEGREE_SHAPES)
        rng.shuffle(shapes)
        yield [DegreeOp(dim, top, expression(rng, dim, top)) for dim, top in shapes]


def degree_run(op: DegreeOp):
    # The expression goes after "--": many start with "-", which argparse
    # would otherwise read as an option and reject with exit code 2.
    argv = ["fdeg", "--dim", str(op.dim), "--json", "--", op.expression]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = deltacalc.cli.run(argv)
    return code, out.getvalue()


def degree_check(op: DegreeOp, result) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    record = json.loads(text)
    report = record["report"]
    witness = [tuple(a) for a in report["witness"]]
    terms = {tuple(t["n"]): t["b"] for t in record["polyfract"]}
    count = max(sum(n) for n in terms)
    if not report["fdeg"] == len(witness) == count == op.top:
        return f"fdeg {report['fdeg']}, witness length {len(witness)}, count {count}, expected {op.top}"
    reduced = deltacalc.Polyfract(op.dim, terms)
    for a in witness:
        reduced = reduced.delta_direction(a)
    if not reduced:
        return f"witness {witness} annihilates the polynomial"
    return None


# ---------------------------------------------------------------- expand

# Word shapes (dimension, length), cheapest first, and their copies per
# round.  Times within one shape vary by a factor of two or three with
# the word, so a quantile is steady only if many ops of similar cost sit
# around it.  Three copies each of (2, 9) and (3, 6), whose times overlap
# at about 20-50 ms, put p50 among 6 of the 16 ops of a round; three
# copies of (3, 7) put p90 among the 4 ops of (2, 10) and (3, 7), at
# about 100-300 ms.  The one (3, 8), at about 1 s, still takes half the
# time of a round.
EXPAND_SHAPES = [
    (2, 6), (3, 4), (2, 7), (3, 5), (2, 8),
    (2, 9), (2, 9), (2, 9), (3, 6), (3, 6), (3, 6),
    (2, 10), (3, 7), (3, 7), (3, 7),
    (3, 8),
]


def word(rng: random.Random, dim: int, length: int) -> tuple[tuple[int, ...], ...]:
    """A word of ``length`` steps in [-3, 3]^dim with a fixed make-up.

    About one coordinate in seven is zero, as for uniform steps, but at
    most one per letter, and the nonzero magnitudes 1, 2 and 3 come in
    equal shares.  The seed decides their positions and signs.  Zero
    coordinates prune whole branches of the expansion, so leaving their
    number to chance would make one seed's run several times costlier
    than another's.
    """
    size = dim * length
    zeros = round(size / 7)
    magnitudes = [1 + i % 3 for i in range(size - zeros)]
    rng.shuffle(magnitudes)
    zero_letters = set(rng.sample(range(length), zeros))
    letters = []
    for position in range(length):
        has_zero = position in zero_letters
        letter = [magnitudes.pop() * rng.choice((-1, 1)) for _ in range(dim - has_zero)]
        if has_zero:
            letter.insert(rng.randrange(dim), 0)
        letters.append(tuple(letter))
    return tuple(letters)


@dataclass(frozen=True)
class ExpandOp:
    word: tuple[tuple[int, ...], ...]

    @property
    def label(self) -> str:
        return f"dim{len(self.word[0])}.length{len(self.word)}"


def expand_rounds(seed: int):
    rng = random.Random(f"expand-{seed}")
    while True:
        shapes = list(EXPAND_SHAPES)
        rng.shuffle(shapes)
        yield [ExpandOp(word(rng, dim, length)) for dim, length in shapes]


def expand_run(op: ExpandOp):
    return deltacalc.expand_word_grouped(op.word)


def _standard_sum(terms: dict, dimension: int, axis: int = 0):
    """Sum over q of terms[q] * delta(e_axis)^q[0] * delta(e_axis+1)^q[1] * ...

    By Horner's rule in one direction after another, which multiplies
    only by the two-term delta(e_axis).
    """
    if not terms:
        return deltacalc.zero(dimension)
    if axis == dimension:
        return terms[()]
    by_power: dict[int, dict] = {}
    for q, coeff in terms.items():
        by_power.setdefault(q[0], {})[q[1:]] = coeff
    step = deltacalc.delta(tuple(int(i == axis) for i in range(dimension)))
    total = deltacalc.zero(dimension)
    for k in range(max(by_power), -1, -1):
        total = total * step + _standard_sum(by_power.get(k, {}), dimension, axis + 1)
    return total


def expand_check(op: ExpandOp, grouped) -> str | None:
    total = _standard_sum(grouped.terms, len(op.word[0]))
    if total != deltacalc.word_operator(op.word):
        return f"grouped expansion of {op.word} does not sum to the word operator"
    return None


# ---------------------------------------------------------------- verify

# Trial counts of the acceptance criteria, except thm_7_3: at 100 000
# trials it weighs about as much as thm_6_4 and thm_6_9, so the
# criterion-10 hot spot (alt_sum_multivariate) carries equal weight.
VERIFY_TRIALS = {
    "ring_laws": 500,
    "thm_3_1_a": 500,
    "thm_3_1_b": 500,
    "thm_3_1_c": 500,
    "thm_3_1_f": 500,
    "thm_3_2": 500,
    "thm_3_4": 100,
    "thm_4_1": 200,
    "thm_4_2": 200,
    "thm_5_1": 1,
    "thm_5_1_printed": 1,
    "thm_6_4": 200,
    "thm_6_5": 300,
    "thm_6_7": 300,
    "thm_6_8": 300,
    "thm_6_9": 100,
    "thm_7_1": 1,
    "thm_7_2": 100,
    "thm_7_3": 100_000,
    "thm_7_3_uncorrected": 1,
}

# The known-bad variants fail with these pinned first counterexamples.
EXPECTED_FAILURES = {
    "thm_5_1_printed": (None, "2", "1"),
    "thm_7_3_uncorrected": ({"m": [3], "n": [2], "x": [2]}, "3", "2"),
}


@dataclass(frozen=True)
class VerifyOp:
    identity: str
    trials: int
    seed: int

    @property
    def label(self) -> str:
        return self.identity


# Runs of thm_6_7 per sweep; every other id runs once.  The ids' times
# come in clusters far apart (about 0.1 ms, 5-120 ms, 2-4 s); with one
# run each, p50 would fall on the edge between two ids' times.  With seven runs
# of thm_6_7, a mid-cost id, p50 falls inside its cluster, and the three
# 2-4 s ids make up 3 of the 26 ops, so p90 falls a few ranks inside
# their cluster, among the fastest of thm_7_3 and thm_6_9.
VERIFY_COPIES = {"thm_6_7": 7}


def verify_rounds(seed: int):
    """One sweep over every id per round.  An id run c times a sweep runs
    at seeds seed + c*r .. seed + c*r + c - 1 in sweep r, so each id sees
    consecutive seeds from the workload seed on."""
    for sweep in itertools.count():
        ops = []
        for name, trials in VERIFY_TRIALS.items():
            copies = VERIFY_COPIES.get(name, 1)
            ops += [VerifyOp(name, trials, seed + copies * sweep + k) for k in range(copies)]
        yield ops


def verify_run(op: VerifyOp):
    return deltacalc.verify_identity(op.identity, op.trials, op.seed)


def verify_check(op: VerifyOp, report) -> str | None:
    if report.instances_checked < 1:
        return "no instances checked"
    if op.identity not in EXPECTED_FAILURES:
        if report.verdict != "pass":
            return f"verdict {report.verdict}, first failure {report.failures[0]}"
        return None
    inputs, lhs, rhs = EXPECTED_FAILURES[op.identity]
    if report.verdict != "fail":
        return "the known-bad variant passed"
    first = report.failures[0]
    if (first["lhs"], first["rhs"]) != (lhs, rhs) or (
        inputs is not None and first["inputs"] != inputs
    ):
        return f"unexpected first counterexample {first}"
    return None


# ---------------------------------------------------------------- registry


# Traced names each op must reach; an op that reaches none of its
# layer's names means a wrapper was bypassed or the layer did no work.
DEGREE_EXPECTS = frozenset(
    {
        "cli.run",
        "cli.parse",
        "cli.lower",
        "polyfract.from_samples",
        "fdeg.fdeg_general",
        "polyfract.delta_direction",
    }
)
EXPAND_EXPECTS = frozenset(
    {"expansion.expand_word_grouped", "expansion.expand_word_sequence", "group_ring.mul"}
)
VERIFY_EXPECTS = {
    "ring_laws": {"group_ring.mul"},
    "thm_3_1_a": {"group_ring.mul"},
    "thm_3_1_b": {"group_ring.mul"},
    "thm_3_1_c": {"group_ring.mul"},
    "thm_3_1_f": {"group_ring.mul"},
    "thm_3_2": {"group_ring.mul"},
    "thm_3_4": {"group_ring.mul"},
    "thm_4_1": {"expansion.expand_word_grouped"},
    "thm_4_2": {"expansion.expand_word_sequence"},
    "thm_5_1": {"group_ring.word_operator"},
    "thm_5_1_printed": {"group_ring.apply"},
    "thm_6_4": {"group_ring.apply", "polyfract.eval"},
    "thm_6_5": {"polyfract.from_samples"},
    "thm_6_7": {"fdeg.fdeg_standard_by_search"},
    "thm_6_8": {"fdeg.fdeg_standard_by_search"},
    "thm_6_9": {"fdeg.fdeg_general", "polyfract.delta_direction"},
    "thm_7_1": set(),
    "thm_7_2": {"group_ring.apply"},
    "thm_7_3": {"identities.alt_sum_multivariate", "polyfract.eval"},
    "thm_7_3_uncorrected": {"identities.alt_sum_multivariate"},
}


@dataclass(frozen=True)
class Workload:
    rounds: Callable[[int], Iterator[list]]
    run: Callable
    check: Callable[..., str | None]
    expects: Callable[..., frozenset]


WORKLOADS = {
    "degree": Workload(degree_rounds, degree_run, degree_check, lambda op: DEGREE_EXPECTS),
    "expand": Workload(expand_rounds, expand_run, expand_check, lambda op: EXPAND_EXPECTS),
    "verify": Workload(
        verify_rounds,
        verify_run,
        verify_check,
        lambda op: frozenset({"identities.verify_identity"} | VERIFY_EXPECTS[op.identity]),
    ),
}
