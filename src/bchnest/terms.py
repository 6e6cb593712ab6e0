"""Core term algebra: associative words and right-nested commutators.

Generators are small integers (0 = X, 1 = Y in the two-variable case).  A word
is a tuple of generators; an ``AssocPoly`` maps words to exact ``Fraction``
coefficients and represents an element of the free associative algebra.  A
right-nested commutator [a1,[a2,...,[a_{k-1},ak]...]] is identified with its
leaf tuple (a1,...,ak), and a ``LieExpr`` maps leaf tuples to coefficients.

Canonical form, enforced on every stored bracket: the innermost pair must be
strictly ascending.  A bracket whose innermost pair is equal is zero and is
never stored; one with a descending innermost pair equals minus the swapped
bracket.  Deeper linear relations (Jacobi and its consequences) are
deliberately *not* normalized away here -- discovering them is the identity
engine's job.

A single-leaf "bracket" is allowed as a degenerate grade-1 case so that the
grade-1 series term X + Y lives in ``LieExpr``; it is exempt from the
innermost-pair rule.

All coefficients are ``fractions.Fraction``; nothing in this package ever
touches floats.  Instances are treated as immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, TypeVar, Union

Generator = int
Word = tuple[int, ...]
Leaves = tuple[int, ...]
Scalar = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)


K = TypeVar("K")


def accumulate(
    target: dict[K, Fraction],
    pairs: Iterable[tuple[K, Scalar]],
    factor: Scalar | None = None,
) -> dict[K, Fraction]:
    """Add each (key, c) of pairs, times factor if given, into target.

    Exact zeros are dropped as they arise, so a key that cancels and comes
    back moves to the end of the insertion order.  A new key stores c as
    given, so pairs must carry Fractions.  Returns target.
    """
    for key, c in pairs:
        if factor is not None:
            c = factor * c
        old = target.get(key)
        if old is not None:
            c = old + c
        if c:
            target[key] = c
        else:
            target.pop(key, None)
    return target


class _TermMap:
    """A finite map key -> nonzero Fraction with exact linear arithmetic.

    The zero element is the empty map; zero coefficients are never stored.
    Subclasses fix what a key is and may validate it in ``_key``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                key = self._key(key)
                c = Fraction(coeff)
                if c:
                    clean[key] = c
        self.terms = clean

    @staticmethod
    def _key(key: Iterable[int]) -> tuple[int, ...]:
        return tuple(key)

    @classmethod
    def _from_clean(cls, terms: dict[tuple[int, ...], Fraction]):
        # Trusted constructor: keys already valid tuples, no zero values.
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls):
        return cls._from_clean({})

    def coeff(self, key: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(key), ZERO)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._from_clean(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        negated = ((key, -c) for key, c in other.terms.items())
        return self._from_clean(accumulate(dict(self.terms), negated))

    def __neg__(self):
        return self._from_clean({key: -c for key, c in self.terms.items()})

    def __mul__(self, scalar: Scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s = Fraction(scalar)
        if not s:
            return self._from_clean({})
        return self._from_clean({key: c * s for key, c in self.terms.items()})

    __rmul__ = __mul__

    def grade(self) -> int:
        """Common key length; raises on zero or inhomogeneous maps."""
        grades = {len(key) for key in self.terms}
        if len(grades) != 1:
            raise ValueError(f"not homogeneous: grades {sorted(grades)}")
        return grades.pop()

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical output order: by grade, then lexicographically."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}: {c}" for key, c in self.sorted_terms())
        return f"{type(self).__name__}({{{inner}}})"


class AssocPoly(_TermMap):
    """Polynomial in non-commuting generators: a finite map word -> Fraction.

    The empty word () acts as the multiplicative unit and appears only in
    inhomogeneous intermediates such as truncated exponential series.
    """

    __slots__ = ()

    @classmethod
    def unit(cls) -> "AssocPoly":
        return cls._from_clean({(): ONE})

    def concat(self, other: "AssocPoly", max_grade: int | None = None) -> "AssocPoly":
        """Bilinear word concatenation, dropping words longer than max_grade."""
        out: dict[Word, Fraction] = {}
        for u, cu in self.terms.items():
            accumulate(
                out,
                (
                    (u + v, cv)
                    for v, cv in other.terms.items()
                    if max_grade is None or len(u) + len(v) <= max_grade
                ),
                cu,
            )
        return AssocPoly._from_clean(out)

    def homogeneous_part(self, grade: int) -> "AssocPoly":
        return AssocPoly._from_clean(
            {w: c for w, c in self.terms.items() if len(w) == grade}
        )

    def is_homogeneous(self) -> bool:
        grades = {len(w) for w in self.terms}
        return len(grades) <= 1 and grades != {0}


def canonicalize(leaves: Leaves, coeff: Scalar) -> tuple[Leaves, Fraction] | None:
    """Normalize a raw right-nested bracket to canonical form.

    Only the innermost pair is inspected: equal pair -> None (the bracket is
    zero), descending pair -> swapped leaves with negated coefficient,
    ascending pair -> unchanged.  Requires at least two leaves; degenerate
    single-leaf terms never participate in canonicalization.
    """
    if len(leaves) < 2:
        raise ValueError("canonicalize needs a bracket with >= 2 leaves")
    a, b = leaves[-2], leaves[-1]
    if a == b:
        return None
    c = Fraction(coeff)
    if a > b:
        return leaves[:-2] + (b, a), -c
    return leaves, c


class LieExpr(_TermMap):
    """Linear combination of canonical right-nested commutators.

    Keys are leaf tuples; every stored key must already be canonical (strictly
    ascending innermost pair, or a degenerate single leaf).  Use ``from_raw``
    to build from brackets that may need normalization.
    """

    __slots__ = ()

    @staticmethod
    def _key(leaves: Iterable[int]) -> Leaves:
        key = tuple(leaves)
        if not key:
            raise ValueError("empty leaf tuple")
        if len(key) > 1 and key[-2] >= key[-1]:
            raise ValueError(f"non-canonical bracket {key}; use from_raw")
        return key

    @classmethod
    def from_raw(cls, pairs: Iterable[tuple[Leaves, Scalar]]) -> "LieExpr":
        """Canonicalize and merge raw (leaves, coeff) pairs."""

        def canonical() -> Iterator[tuple[Leaves, Fraction]]:
            for leaves, coeff in pairs:
                key = tuple(leaves)
                if len(key) == 1:
                    norm: tuple[Leaves, Fraction] | None = (key, Fraction(coeff))
                else:
                    norm = canonicalize(key, coeff)
                if norm is not None:
                    yield norm

        return cls._from_clean(accumulate({}, canonical()))

    def is_homogeneous(self) -> bool:
        return len({len(k) for k in self.terms}) <= 1


def expand_nested(leaves: Leaves) -> AssocPoly:
    """Word expansion of one right-nested commutator.

    Works inside out: [g, P] expands to g*P - P*g, so a k-leaf bracket yields
    at most 2^(k-1) words, all of length k.
    """
    leaves = tuple(leaves)
    if not leaves:
        raise ValueError("empty leaf tuple")
    poly: dict[Word, Fraction] = {(leaves[-1],): ONE}
    for g in reversed(leaves[:-1]):
        poly = accumulate(
            {},
            (
                pair
                for w, c in poly.items()
                for pair in (((g,) + w, c), (w + (g,), -c))
            ),
        )
    return AssocPoly._from_clean(poly)


def expand_lie(expr: LieExpr) -> AssocPoly:
    """Word expansion of a LieExpr (linear in the terms)."""
    out: dict[Word, Fraction] = {}
    for leaves, coeff in expr.terms.items():
        accumulate(out, expand_nested(leaves).terms.items(), coeff)
    return AssocPoly._from_clean(out)


def right_bracketing(poly: AssocPoly) -> LieExpr:
    """Replace each word a1...ak by the bracket [a1,[a2,...[a_{k-1},ak]...]].

    For a homogeneous Lie element P of grade m this returns an expression
    whose word expansion is m*P (the Dynkin-Specht-Wever projection, up to
    the factor m).  Grade-1 words map to degenerate single-leaf terms.
    """
    if not poly.is_homogeneous():
        raise ValueError("right_bracketing needs a homogeneous polynomial")
    return LieExpr.from_raw(poly.terms.items())
