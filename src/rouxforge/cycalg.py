"""Exact group algebra of the cyclic group C_r.

Group elements are exponents mod r (the element with exponent e stands
for the root of unity exp(2*pi*i*e/r)).  Algebra elements are length-r
integer coefficient vectors; multiplication is cyclic convolution, and
the adjoint is exponent negation plus transpose, so the whole roux layer
stays in integer arithmetic.  Complex numbers appear only when a
character is applied.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class CyclicElement:
    """An element of C_r, reduced mod r."""

    r: int
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % self.r)

    def __mul__(self, other: "CyclicElement") -> "CyclicElement":
        if other.r != self.r:
            raise AlgebraError("mismatched cyclic orders")
        return CyclicElement(self.r, self.exponent + other.exponent)

    def inverse(self) -> "CyclicElement":
        return CyclicElement(self.r, -self.exponent)

    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.exponent / self.r)


class GroupAlgebraElement:
    """Element of Z[C_r] (rationals permitted), as a coefficient vector."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs: Sequence):
        if len(coeffs) != r:
            raise AlgebraError(f"coefficient vector must have length {r}")
        self.r = r
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, r: int) -> "GroupAlgebraElement":
        return cls(r, [0] * r)

    @classmethod
    def delta(cls, r: int, exponent: int, scale=1) -> "GroupAlgebraElement":
        c = [0] * r
        c[exponent % r] = scale
        return cls(r, c)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        return GroupAlgebraElement(self.r, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        return GroupAlgebraElement(self.r, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return algebra_mul(self, other)
        return GroupAlgebraElement(self.r, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def conjugate(self) -> "GroupAlgebraElement":
        """Adjoint in the *-algebra: coefficient at g moves to g^{-1}."""
        return GroupAlgebraElement(self.r, [self.coeffs[(-i) % self.r] for i in range(self.r)])

    def is_symmetric(self) -> bool:
        return self.coeffs == self.conjugate().coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self.r == other.r
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.r, self.coeffs))

    def __repr__(self) -> str:
        return f"C{self.r}-alg{list(self.coeffs)}"

    def _check(self, other):
        if not isinstance(other, GroupAlgebraElement) or other.r != self.r:
            raise AlgebraError("mismatched cyclic orders")


def algebra_mul(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Cyclic convolution of coefficient vectors, exact."""
    if a.r != b.r:
        raise AlgebraError("mismatched cyclic orders")
    r = a.r
    out = [0] * r
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(b.coeffs):
                if bj:
                    out[(i + j) % r] += ai * bj
    return GroupAlgebraElement(r, out)


@dataclass(frozen=True)
class CyclicCharacter:
    """The character of C_r sending exponent e to exp(2*pi*i*k*e/r)."""

    r: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k % self.r)

    def value_at_exponent(self, e: int) -> complex:
        return cmath.exp(2j * cmath.pi * ((self.k * e) % self.r) / self.r)

    def is_real_at_exponent(self, e: int) -> bool:
        return (2 * self.k * e) % self.r == 0

    def __call__(self, g: CyclicElement) -> complex:
        if g.r != self.r:
            raise AlgebraError("mismatched cyclic orders")
        return self.value_at_exponent(g.exponent)


def characters(r: int) -> list[CyclicCharacter]:
    return [CyclicCharacter(r, k) for k in range(r)]


def fourier_transform(c: GroupAlgebraElement, alpha: CyclicCharacter) -> complex:
    """sum_h c_h * conj(alpha(h)); real whenever c is symmetric."""
    if alpha.r != c.r:
        raise AlgebraError("mismatched cyclic orders")
    total = 0j
    for e, coeff in enumerate(c.coeffs):
        if coeff:
            total += coeff * alpha.value_at_exponent(e).conjugate()
    return total


def apply_character(entries, alpha: CyclicCharacter) -> np.ndarray:
    """Entrywise linear extension of a character to a matrix over Z[C_r]."""
    n = len(entries)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            cell = entries[i][j]
            coeffs = cell.coeffs if isinstance(cell, GroupAlgebraElement) else cell
            val = 0j
            for e, coeff in enumerate(coeffs):
                if coeff:
                    val += coeff * alpha.value_at_exponent(e)
            out[i, j] = val
    return out
