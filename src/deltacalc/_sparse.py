"""The sparse canonical integer map: the storage of the shift ring and
of both polynomial bases, a dict from integer tuples to nonzero ints.

Trust boundary: public constructors check every key and drop zero
coefficients.  ``_from_clean`` checks nothing; it is only given dicts
computed from canonical operands, which are canonical themselves.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

Key = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Operands live on lattices of different dimension."""


def checked_tuple(values: Iterable[int], dimension: int, what: str = "point") -> Key:
    values = tuple(values)
    if len(values) != dimension:
        raise DimensionMismatchError(
            f"{what} {values} has dimension {len(values)}, expected {dimension}"
        )
    return values


def prune(coeffs: dict) -> dict:
    """Delete the zero values of ``coeffs`` in place and return it."""
    for key in [key for key, value in coeffs.items() if not value]:
        del coeffs[key]
    return coeffs


class SparseMap:
    """Immutable sparse map from integer tuples to nonzero integers."""

    __slots__ = ("dimension", "_coeffs")

    _noun = "elements"  # what error messages call two operands

    def _validate(
        self,
        dimension: int,
        coeffs: Mapping[Key, int] | Iterable[tuple[Key, int]],
        check_key: Callable[[Iterable[int], int], Key],
    ) -> None:
        """Check each key, sum duplicate keys and drop zero coefficients."""
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        items = coeffs.items() if isinstance(coeffs, (dict, Mapping)) else coeffs
        clean: dict[Key, int] = {}
        for key, coeff in items:
            key = check_key(key, dimension)
            total = clean.get(key, 0) + coeff
            if total:
                clean[key] = total
            else:
                clean.pop(key, None)
        self.dimension = dimension
        self._coeffs = clean

    @classmethod
    def _from_clean(cls, dimension: int, clean: dict[Key, int]):
        out = object.__new__(cls)
        out.dimension = dimension
        out._coeffs = clean
        return out

    def _require_same_dimension(self, other: SparseMap) -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"cannot combine {self._noun} of dimension {self.dimension} and {other.dimension}"
            )

    def terms(self) -> list[tuple[Key, int]]:
        """The (key, coefficient) pairs in lexicographic key order."""
        return sorted(self._coeffs.items())

    def coefficient(self, key: Iterable[int]) -> int:
        return self._coeffs.get(tuple(key), 0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.dimension == other.dimension
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.dimension, frozenset(self._coeffs.items())))

    def _scaled(self, factor: int):
        scaled = {key: coeff * factor for key, coeff in self._coeffs.items()} if factor else {}
        return self._from_clean(self.dimension, scaled)

    def __neg__(self):
        return self._scaled(-1)

    def _plus(self, other: SparseMap, sign: int):
        self._require_same_dimension(other)
        out = dict(self._coeffs)
        for key, coeff in other._coeffs.items():
            total = out.get(key, 0) + sign * coeff
            if total:
                out[key] = total
            else:
                del out[key]
        return self._from_clean(self.dimension, out)

    def __add__(self, other):
        return self._plus(other, 1) if type(other) is type(self) else NotImplemented

    def __sub__(self, other):
        return self._plus(other, -1) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.dimension}, {dict(self.terms())})"
