"""End-to-end acceptance checks.

Each test prints exactly one ``criterion NN <label>: PASS`` line (visible
under ``pytest -s``) and then asserts, so the criterion verdicts read out
in order. Seeded randomness only; every comparison is exact integer
equality.
"""

import contextlib
import io
import itertools
import random
import time

from deltacalc import alt_sum_multivariate, fdeg_general, verify_identity
from deltacalc.cli import run
from support import nonzero_polyfract

VERIFY_SEED = 42


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail or label


def _passes(identity_id: str, trials: int) -> bool:
    return verify_identity(identity_id, trials, VERIFY_SEED).verdict == "pass"


def test_criterion_01_operator_algebra():
    started = time.perf_counter()
    suites = ["ring_laws", "thm_3_1_a", "thm_3_1_b", "thm_3_1_c", "thm_3_1_f", "thm_3_2"]
    clean = all(_passes(name, 500) for name in suites)
    elapsed = time.perf_counter() - started
    _report(1, "operator algebra", clean and elapsed < 5.0, f"elapsed {elapsed:.2f}s")


def test_criterion_02_product_enumeration():
    _report(2, "product enumeration", _passes("thm_3_4", 100))


def test_criterion_03_expansion_round_trips():
    started = time.perf_counter()
    clean = _passes("thm_4_1", 200) and _passes("thm_4_2", 200)
    elapsed = time.perf_counter() - started
    _report(3, "expansion round-trips", clean and elapsed < 30.0, f"elapsed {elapsed:.2f}s")


def test_criterion_04_cyclic_factorization():
    corrected = verify_identity("thm_5_1", 1, VERIFY_SEED)
    printed = verify_identity("thm_5_1_printed", 1, VERIFY_SEED)
    ok = (
        corrected.verdict == "pass"
        and printed.verdict == "fail"
        and printed.failures[0]["lhs"] == "2"
        and printed.failures[0]["rhs"] == "1"
        and printed.failures[0]["inputs"]["multipliers"] == [2]
        and printed.failures[0]["inputs"]["f"] == "x1"
    )
    _report(4, "cyclic factorization", ok)


def test_criterion_05_standard_differences():
    _report(5, "standard differences", _passes("thm_6_4", 200))


def test_criterion_06_reconstruction():
    _report(6, "reconstruction round-trip", _passes("thm_6_5", 300))


def test_criterion_07_degree_by_search():
    _report(7, "degree by search", _passes("thm_6_8", 300) and _passes("thm_6_7", 300))


def test_criterion_08_arbitrary_direction_degree():
    started = time.perf_counter()
    rng = random.Random(VERIFY_SEED)
    ok = _passes("thm_6_9", 100)
    for _ in range(100):
        poly = nonzero_polyfract(rng, rng.randint(1, 3))
        report = fdeg_general(poly, direction_box=2, max_extra=500)
        ok = ok and (
            len(report.witness_word) == poly.count()
            and report.fdeg_general_lower == poly.count()
            and (report.exhaustive or report.words_refuted >= 500)
        )
        if not ok:
            break
    elapsed = time.perf_counter() - started
    _report(8, "arbitrary-direction degree", ok and elapsed < 60.0, f"elapsed {elapsed:.2f}s")


def test_criterion_09_binomial_identities():
    _report(9, "binomial identities", _passes("thm_7_1", 1) and _passes("thm_7_2", 100))


def test_criterion_10_alternating_sums():
    checked = 0
    clean = True
    for dimension in (1, 2, 3):
        axis_pairs = [(m, n) for m in range(5) for n in range(m + 1)]
        for pairs in itertools.product(axis_pairs, repeat=dimension):
            m = tuple(pair[0] for pair in pairs)
            n = tuple(pair[1] for pair in pairs)
            for x in itertools.product(range(-4, 5), repeat=dimension):
                lhs, rhs = alt_sum_multivariate(m, n, x)
                checked += 1
                if lhs != rhs:
                    clean = False
                    break
    uncorrected = alt_sum_multivariate((3,), (2,), (2,), corrected=False) == (3, 2)
    suite = verify_identity("thm_7_3_uncorrected", 1, VERIFY_SEED)
    flagged = (
        suite.verdict == "fail"
        and suite.failures[0]["inputs"] == {"m": [3], "n": [2], "x": [2]}
        and suite.failures[0]["lhs"] == "3"
        and suite.failures[0]["rhs"] == "2"
    )
    ok = clean and checked == 2_478_735 and uncorrected and flagged
    _report(10, "alternating sums", ok, f"checked {checked}")


GOLDEN_EXPAND = """{
  "command": "expand",
  "dim": 2,
  "mode": "grouped",
  "terms": [
    {
      "coeff": [
        {
          "coeff": 1,
          "coords": [
            2,
            0
          ]
        }
      ],
      "q": [
        0,
        1
      ]
    },
    {
      "coeff": [
        {
          "coeff": 1,
          "coords": [
            0,
            0
          ]
        },
        {
          "coeff": 1,
          "coords": [
            1,
            0
          ]
        }
      ],
      "q": [
        1,
        0
      ]
    }
  ],
  "word": [
    [
      2,
      1
    ]
  ],
  "word_length": 1
}
"""

GOLDEN_FDEG = """{
  "box": 2,
  "budget": 500,
  "command": "fdeg",
  "dim": 2,
  "expression": "x1*x2",
  "polyfract": [
    {
      "b": 1,
      "n": [
        1,
        1
      ]
    }
  ],
  "report": {
    "exhaustive": true,
    "fdeg": 2,
    "refuted_length": 3,
    "witness": [
      [
        -2,
        -2
      ],
      [
        -2,
        -2
      ]
    ]
  }
}
"""

GOLDEN_VERIFY = """{
  "failures": [],
  "id": "thm_7_3",
  "notes": "the weighted multivariate alternating sum equals the exponent-shifted product",
  "trials": 100,
  "verdict": "pass"
}
"""


def _run_capture(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    return code, buffer.getvalue()


def test_criterion_11_cli_goldens():
    cases = [
        (["expand", "--dim", "2", "--word", "(2,1)", "--json"], GOLDEN_EXPAND),
        (["fdeg", "--dim", "2", "x1*x2", "--json"], GOLDEN_FDEG),
        (["verify", "thm_7_3", "--trials", "100", "--seed", "42", "--json"], GOLDEN_VERIFY),
    ]
    ok = True
    for argv, golden in cases:
        first = _run_capture(argv)
        second = _run_capture(argv)
        ok = ok and first == second == (0, golden)
        if not ok:
            break
    _report(11, "cli goldens", ok)
