"""Integer polynomials in the binomial basis.

A polyfract is a finite integer combination of products
C(x_1, n_1) * ... * C(x_N, n_N), stored sparsely as a mapping from the
exponent tuple n to its integer coefficient.  Every integer-valued
polynomial function on Z^N has exactly one such form, and the basis is
the natural home for difference calculus: the standard forward
differences act by shifting exponent tuples down, so degrees, kernels
and reconstructions all become exact bookkeeping.

count() is the largest |n| over the support, the degree in this basis;
the zero polynomial gets NEG_INFINITY so that degree arithmetic stays
monotone under differences.

Inputs are validated at the public boundary: the constructors check
every exponent tuple, and the methods check the vectors they are given.
Results computed from a polynomial that is canonical already (sums,
negations, multiples, shifts, differences, reconstructions) are
trusted and built without a second check.

Evaluation follows the same split: ``eval`` checks its point and calls
the trusted ``_eval``, which IntegerFunction.from_polyfract and
from_monomial wrap, so apply evaluates shifted points unchecked.
Likewise ``delta_standard`` checks its multiplicities and calls the
trusted ``_delta_standard``, which the standard-degree search uses.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import sub
from typing import Iterable, Iterator, Mapping

from ._sparse import SparseMap, checked_tuple, prune
from .group_ring import IntegerFunction, LatticePoint

ExponentTuple = tuple[int, ...]

NEG_INFINITY = float("-inf")


# Both memo caches are bounded, at three to four times the
# largest working sets measured: 269 binomials and 5,777 shifted bases
# after the whole test suite, 187 and 5,121 over five identity sweeps,
# 48 and 5,255 over 240 rounds of the degree benchmark.
@lru_cache(maxsize=1024)
def binom(x: int, k: int) -> int:
    """Exact C(x, k) for arbitrary integer x: zero when k < 0, else the
    falling factorial x(x-1)...(x-k+1) over k!."""
    if k < 0:
        return 0
    numerator = 1
    for i in range(k):
        numerator *= x - i
    return numerator // math.factorial(k)


def exponent_tuples(dimension: int, max_norm: int | float) -> Iterator[ExponentTuple]:
    """All tuples n in N^dimension with |n| <= max_norm, in lexicographic order."""
    if max_norm < 0:
        return
    # A tuple with one more part for the slack max_norm - |n| sums to
    # max_norm exactly; the slack is fixed by n, so dropping it keeps
    # the lexicographic order.
    for padded in _compositions(int(max_norm), dimension + 1):
        yield padded[:-1]


def _compositions(norm: int, parts: int) -> Iterator[ExponentTuple]:
    """The tuples of ``parts`` nonnegative integers summing to ``norm``,
    in lexicographic order.

    Each tuple is read off its cut points 0 <= c_1 <= ... <= c_{parts-1}
    <= norm as the gaps between consecutive cuts, from 0 up to norm;
    the cuts come in lexicographic order, and so do their gap tuples.
    """
    for cuts in itertools.combinations_with_replacement(range(norm + 1), parts - 1):
        yield tuple(map(sub, cuts + (norm,), (0,) + cuts))


@lru_cache(maxsize=16384)
def _shifted_basis(
    n: ExponentTuple, a: LatticePoint
) -> tuple[tuple[ExponentTuple, ...], tuple[int, ...]]:
    # The forward difference C(x + a, n) - C(x, n) re-expanded over the
    # basis, as its exponent tuples and their weights.  Per axis,
    # C(x + a, n) is the sum over j <= n of C(a, j) * C(x, n - j); the
    # j = 0 term is C(x, n) itself and cancels, so it is skipped.  Adding
    # C(x, n) back gives the shift.  Two flat tuples per row, with the
    # exponent tuples interned, keep this, the largest cache, small.
    targets = []
    weights = []
    terms = itertools.product(*(range(nl + 1) for nl in n))
    next(terms)
    for j in terms:
        weight = 1
        for al, jl in zip(a, j):
            weight *= binom(al, jl)
            if not weight:
                break
        if weight:
            targets.append(_interned(tuple(map(sub, n, j))))
            weights.append(weight)
    return tuple(targets), tuple(weights)


@lru_cache(maxsize=4096)
def _interned(target: ExponentTuple) -> ExponentTuple:
    # The first copy of each exponent tuple, shared by every cached row
    # that targets it: over the degree benchmark some 7,500 rows repeat
    # about 60 distinct tuples.
    return target


def _checked_exponents(exps: Iterable[int], dimension: int) -> ExponentTuple:
    exps = checked_tuple(exps, dimension, "exponent tuple")
    if any(e < 0 for e in exps):
        raise ValueError(f"exponents must be nonnegative, got {exps}")
    return exps


class Polyfract(SparseMap):
    """A canonical binomial-basis polynomial with integer coefficients."""

    __slots__ = ()

    _noun = "polynomials"

    def __init__(
        self,
        dimension: int,
        coeffs: Mapping[ExponentTuple, int] | Iterable[tuple[ExponentTuple, int]] = (),
    ):
        self._validate(dimension, coeffs, _checked_exponents)

    def to_records(self) -> list[dict]:
        return [{"n": list(n), "b": b} for n, b in self.terms()]

    def eval(self, x: Iterable[int]) -> int:
        return self._eval(checked_tuple(x, self.dimension))

    def _eval(self, x: LatticePoint) -> int:
        # Trusted: x is a tuple of the polynomial's dimension.
        total = 0
        for n, b in self._coeffs.items():
            total += b * math.prod(map(binom, x, n))
        return total

    def count(self) -> int | float:
        """Largest |n| over the support; NEG_INFINITY for the zero polynomial."""
        return max((sum(n) for n in self._coeffs), default=NEG_INFINITY)

    def delta_standard(self, m: Iterable[int]) -> Polyfract:
        """Apply the mixed standard difference with multiplicities ``m``.

        Exponent tuples drop by m componentwise; terms that would go
        negative vanish, so m may exceed the support without harm.
        """
        m = checked_tuple(m, self.dimension, "multiplicity tuple")
        if any(ml < 0 for ml in m):
            raise ValueError(f"multiplicities must be nonnegative, got {m}")
        return self._delta_standard(m)

    def _delta_standard(self, m: ExponentTuple) -> Polyfract:
        # Trusted: m is a nonnegative tuple of the polynomial's dimension.
        out = {}
        for n, b in self._coeffs.items():
            shifted = tuple(map(sub, n, m))
            if min(shifted) >= 0:
                out[shifted] = b
        return Polyfract._from_clean(self.dimension, out)

    def shift_by(self, a: Iterable[int]) -> Polyfract:
        """The translate x |-> self(x + a), exactly, in the same basis."""
        a = checked_tuple(a, self.dimension, "shift vector")
        if not any(a):
            return self
        return self._plus_difference(dict(self._coeffs), a)

    def delta_direction(self, a: Iterable[int]) -> Polyfract:
        """The forward difference along an arbitrary lattice vector ``a``,
        self(x + a) - self(x), in one pass over the support."""
        return self._plus_difference({}, checked_tuple(a, self.dimension, "shift vector"))

    def _plus_difference(self, out: dict, a: LatticePoint) -> Polyfract:
        # out + (the difference of self along a); takes ownership of out.
        get = out.get
        for n, b in self._coeffs.items():
            targets, weights = _shifted_basis(n, a)
            for target, weight in zip(targets, weights):
                out[target] = get(target, 0) + b * weight
        return Polyfract._from_clean(self.dimension, prune(out))

    def __mul__(self, other: int) -> Polyfract:
        if not isinstance(other, int):
            return NotImplemented
        return self._scaled(other)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for n, b in self.terms():
            factors = [f"C(x{l + 1},{nl})" for l, nl in enumerate(n) if nl]
            parts.append("*".join([str(b)] + factors))
        return " + ".join(parts)


class MonomialPolynomial(SparseMap):
    """An ordinary power-basis polynomial with integer coefficients."""

    __slots__ = ()

    _noun = "polynomials"

    def __init__(
        self,
        dimension: int,
        coeffs: Mapping[ExponentTuple, int] | Iterable[tuple[ExponentTuple, int]] = (),
    ):
        self._validate(dimension, coeffs, _checked_exponents)

    def to_records(self) -> list[dict]:
        return [{"n": list(n), "c": c} for n, c in self.terms()]

    def eval(self, x: Iterable[int]) -> int:
        return self._eval(checked_tuple(x, self.dimension))

    def _eval(self, x: LatticePoint) -> int:
        # Trusted: x is a tuple of the polynomial's dimension.
        total = 0
        for n, c in self._coeffs.items():
            total += c * math.prod(map(pow, x, n))
        return total

    def total_degree(self) -> int | float:
        return max((sum(n) for n in self._coeffs), default=NEG_INFINITY)


def from_samples(func: IntegerFunction, degree_bound: int | float) -> Polyfract:
    """Reconstruct the unique polyfract of count <= degree_bound matching
    ``func`` pointwise.

    Coefficients are iterated differences at the origin, so only the
    values of ``func`` on the simplex |j| <= degree_bound are touched:
    Newton's forward differences run in place there, one axis at a
    time.  The caller vouches that ``func`` really is a polynomial
    function within the bound; nothing here can detect a lie outside
    the sampled simplex.
    """
    dimension = func.dimension
    if degree_bound < 0:
        return Polyfract._from_clean(dimension, {})
    bound = int(degree_bound)
    points = list(exponent_tuples(dimension, bound))
    values = dict(zip(points, map(func._at, points)))
    for axis in range(dimension):
        # After pass k a point with j_axis >= k holds the k-th difference
        # along the axis taken at j - k*e_axis.  Descending j_axis reads
        # each point below before it is overwritten, and j - e_axis stays
        # in the simplex.
        steps = sorted(
            ((j[axis], j, j[:axis] + (j[axis] - 1,) + j[axis + 1 :]) for j in points if j[axis]),
            reverse=True,
        )
        for k in range(1, bound + 1):
            for height, j, below in steps:
                if height < k:
                    break
                values[j] -= values[below]
    return Polyfract._from_clean(dimension, prune(values))


def from_monomial(poly: MonomialPolynomial) -> Polyfract:
    """Convert a power-basis polynomial to its binomial-basis form."""
    return from_samples(IntegerFunction.from_monomial(poly), poly.total_degree())
