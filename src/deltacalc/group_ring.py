"""Exact arithmetic in the algebra of lattice shift operators.

A shift by a vector ``a`` in Z^N sends an integer function f to the
function x |-> f(x + a).  Finite integer combinations of shifts, with
composition as the product, form a commutative ring: the Laurent
polynomial ring in N variables in disguise, with one monomial per
lattice vector.  Every forward-difference operator lives inside it,

    delta(a) == shift(a) - shift(0),

so identities between difference operators become exact coefficient
identities that this module can decide structurally.

Elements are stored sparsely as a mapping from coordinate tuples to
nonzero integer coefficients; the zero element has no terms.  All
coefficients are arbitrary-precision, equality is structural equality
of the canonical zero-pruned form, and elements are never mutated
after construction.

Inputs are validated at the public boundary: the constructor, shift,
delta, word_operator and apply check every point they are given.
Sums, negations and products of elements are computed from operands
that are canonical already, so their results are trusted and built
without a second check.

Evaluation has the same boundary.  Calling an IntegerFunction checks
its argument; apply checks ``x`` and the dimensions once, and then
hands each shifted point x + c, a tuple of the right dimension by
construction, to the function's trusted evaluator unchecked.  A
tabulated function still refuses a point outside its window there.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Callable, Iterable, Mapping

from ._sparse import DimensionMismatchError, SparseMap, checked_tuple, prune

LatticePoint = tuple[int, ...]
DifferenceWord = tuple[LatticePoint, ...]


class WindowError(ValueError):
    """A tabulated function was asked for a value outside its window."""


class GroupRingElement(SparseMap):
    """A finite integer combination of lattice shifts.

    The element ``2*[(1,0)] - [(0,2)]`` maps f to the function
    x |-> 2*f(x + (1,0)) - f(x + (0,2)).  Construction accepts either a
    mapping from coordinate tuples to coefficients or an iterable of
    (point, coefficient) pairs; duplicate points are summed and zero
    coefficients dropped, so equal operators always compare equal.
    """

    __slots__ = ()

    def __init__(
        self,
        dimension: int,
        terms: Mapping[LatticePoint, int] | Iterable[tuple[LatticePoint, int]] = (),
    ):
        self._validate(dimension, terms, checked_tuple)

    def to_records(self) -> list[dict]:
        return [{"coords": list(p), "coeff": c} for p, c in self.terms()]

    def __mul__(self, other: GroupRingElement | int) -> GroupRingElement:
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._require_same_dimension(other)
        out: dict[LatticePoint, int] = {}
        get = out.get
        right = other._coeffs.items()
        for p, c in self._coeffs.items():
            for q, d in right:
                point = tuple(map(add, p, q))
                out[point] = get(point, 0) + c * d
        return GroupRingElement._from_clean(self.dimension, prune(out))

    def __rmul__(self, other: int) -> GroupRingElement:
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> GroupRingElement:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"operator powers need a nonnegative integer, got {exponent}")
        out = identity(self.dimension)
        for _ in range(exponent):
            out = out * self
        return out

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join(
            f"{c}*[{','.join(map(str, p))}]" for p, c in self.terms()
        )


def zero(dimension: int) -> GroupRingElement:
    return GroupRingElement(dimension)


def identity(dimension: int) -> GroupRingElement:
    """The do-nothing operator, the shift by the origin."""
    return GroupRingElement(dimension, {(0,) * dimension: 1})


def shift(a: Iterable[int]) -> GroupRingElement:
    a = tuple(a)
    return GroupRingElement(len(a), {a: 1})


def delta(a: Iterable[int]) -> GroupRingElement:
    """The forward difference along ``a``: f |-> f(. + a) - f."""
    a = tuple(a)
    return GroupRingElement(len(a), [(a, 1), ((0,) * len(a), -1)])


def word_operator(word: Iterable[Iterable[int]]) -> GroupRingElement:
    """The product of forward differences along the letters of ``word``."""
    letters = tuple(tuple(a) for a in word)
    if not letters:
        raise ValueError("a difference word needs at least one letter")
    dimension = len(letters[0])
    out = identity(dimension)
    for a in letters:
        out = out * delta(checked_tuple(a, dimension))
    return out


def apply(element: GroupRingElement, func: Callable[[LatticePoint], int], x: Iterable[int]) -> int:
    """Evaluate (element . func) at the point ``x``.

    ``func`` may be an :class:`IntegerFunction` or any callable on
    coordinate tuples; tabulated functions raise :class:`WindowError`
    when a shifted argument x + c escapes their window.
    """
    x = checked_tuple(x, element.dimension)
    func_dimension = getattr(func, "dimension", None)
    if func_dimension is not None and func_dimension != element.dimension:
        raise DimensionMismatchError(
            f"operator of dimension {element.dimension} applied to function of dimension {func_dimension}"
        )
    evaluate = func
    if isinstance(func, IntegerFunction):
        # Every shifted point is a tuple of the checked dimension.
        evaluate = func._evaluate if func.window is None else func._at
    total = 0
    for point, coeff in element._coeffs.items():
        total += coeff * evaluate(tuple(map(add, x, point)))
    return total


class IntegerFunction:
    """An evaluatable integer-valued function on Z^N.

    Exact kinds ("polyfract", "monomial", and the CLI's parsed
    "expression") wrap a closed form and evaluate anywhere.  The
    "tabulated" kind wraps a finite table over a cube window [lo, hi]^N
    and refuses to extrapolate: evaluation outside the window raises
    :class:`WindowError` instead of guessing.

    ``evaluate`` is trusted: it is only ever given a tuple of the
    function's dimension, inside the window when there is one.
    """

    __slots__ = ("dimension", "kind", "exact", "window", "_evaluate")

    def __init__(
        self,
        dimension: int,
        evaluate: Callable[[LatticePoint], int],
        kind: str,
        window: tuple[int, int] | None = None,
    ):
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self.dimension = dimension
        self._evaluate = evaluate
        self.kind = kind
        self.window = window
        self.exact = kind != "tabulated"

    @classmethod
    def from_polyfract(cls, poly) -> IntegerFunction:
        return cls(poly.dimension, poly._eval, "polyfract")

    @classmethod
    def from_monomial(cls, poly) -> IntegerFunction:
        return cls(poly.dimension, poly._eval, "monomial")

    @classmethod
    def from_table(
        cls,
        values: Mapping[LatticePoint, int],
        dimension: int,
        lo: int,
        hi: int,
    ) -> IntegerFunction:
        """Wrap an explicit table covering every point of [lo, hi]^N."""
        if lo > hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        table = {checked_tuple(p, dimension): v for p, v in values.items()}
        expected = (hi - lo + 1) ** dimension
        inside = all(lo <= c <= hi for p in table for c in p)
        if len(table) != expected or not inside:
            raise ValueError(
                f"table must cover [{lo}, {hi}]^{dimension} exactly ({expected} points)"
            )
        return cls(dimension, table.__getitem__, "tabulated", window=(lo, hi))

    @classmethod
    def tabulate(
        cls,
        func: Callable[[LatticePoint], int],
        dimension: int,
        lo: int,
        hi: int,
    ) -> IntegerFunction:
        """Sample ``func`` on [lo, hi]^N and wrap the resulting table."""
        points = itertools.product(range(lo, hi + 1), repeat=dimension)
        return cls.from_table({p: func(p) for p in points}, dimension, lo, hi)

    def __call__(self, x: Iterable[int]) -> int:
        return self._at(checked_tuple(x, self.dimension))

    def _at(self, x: LatticePoint) -> int:
        # Trusted: x is a tuple of the function's dimension.
        if self.window is not None:
            lo, hi = self.window
            if min(x) < lo or max(x) > hi:
                raise WindowError(
                    f"point {x} lies outside the window [{lo}, {hi}]^{self.dimension}"
                )
        return self._evaluate(x)

    def __repr__(self) -> str:
        window = f", window={self.window}" if self.window is not None else ""
        return f"IntegerFunction(dim={self.dimension}, kind={self.kind!r}{window})"
