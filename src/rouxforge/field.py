"""Exact arithmetic in finite fields F_q, q = p^k.

The field of order q = p^k is realized as F_p[x]/(f) for a monic
irreducible f of degree k.  An element sum_i c_i x^i (0 <= c_i < p) is
encoded as the integer sum_i c_i p^i, so elements are canonical and
hashable.  Arithmetic is table-driven for small q and falls back to
polynomial arithmetic above ``TABLE_LIMIT``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

TABLE_LIMIT = 256  # F_256's tables take 0.05 s to build, F_4096's 29 s and 1.25 GB
MAX_ORDER = 2**20
# Largest numpy temporary of ``FieldSpec._build_tables``: glibc's default
# mmap threshold, above which each temporary is a fresh mapping.
TABLE_BLOCK_BYTES = 2**17

# Monic irreducible polynomials (coefficients low-degree-first) for the
# built-in extension fields.  Anything else must be user-supplied.
IRREDUCIBLE_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),            # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),         # x^3 + x + 1
    (3, 2): (1, 0, 1),            # x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),      # x^4 + x + 1
    (5, 2): (2, 0, 1),            # x^2 + 2
    (3, 3): (1, 2, 0, 1),         # x^3 + 2x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),   # x^5 + x^2 + 1
    (7, 2): (4, 0, 1),            # x^2 - 3
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    (3, 4): (2, 0, 0, 2, 1),      # x^4 + 2x^3 + 2
    (11, 2): (9, 0, 1),           # x^2 - 2
    (13, 2): (11, 0, 1),          # x^2 - 2
}


class FieldError(ValueError):
    exit_code = 2  # bad input


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], mod_poly: Sequence[int], p: int) -> list[int]:
    k = len(mod_poly) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce modulo the monic mod_poly
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(k):
                prod[d - k + j] = (prod[d - k + j] - c * mod_poly[j]) % p
    return [c % p for c in prod[:k]] + [0] * max(0, k - len(prod))


def _poly_pow_mod(a: Sequence[int], e: int, mod_poly: Sequence[int], p: int) -> list[int]:
    k = len(mod_poly) - 1
    result = [1] + [0] * (k - 1)
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, mod_poly, p)
        base = _poly_mul_mod(base, base, mod_poly, p)
        e >>= 1
    return result


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) over F_p (coefficients low-degree-first, a != 0)."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        lead_inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * lead_inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            _poly_trim(a)
        a, b = b, a
    return len(a) - 1


class FieldSpec:
    """A finite field F_{p^k} with a fixed polynomial basis."""

    def __init__(self, p: int, k: int = 1, irreducible: Optional[Sequence[int]] = None):
        # before p^k or is_prime's sqrt(p) trial division is computed:
        # p > 1 has p^k >= 2^k, above MAX_ORDER once k >= 21
        if p > MAX_ORDER or (p > 1 and k >= MAX_ORDER.bit_length()):
            raise FieldError("fields beyond order 2^20 are out of scope")
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        if k < 1:
            raise FieldError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if self.q > MAX_ORDER:
            raise FieldError("fields beyond order 2^20 are out of scope")
        if irreducible is None:
            if k == 1:
                irreducible = (0, 1)
            elif (p, k) in IRREDUCIBLE_TABLE:
                irreducible = IRREDUCIBLE_TABLE[(p, k)]
            else:
                raise FieldError(
                    f"no built-in irreducible polynomial for p={p}, k={k}; supply one"
                )
        poly = tuple(c % p for c in irreducible)
        if len(poly) != k + 1 or poly[-1] != 1:
            raise FieldError("irreducible polynomial must be monic of degree k")
        self.irreducible = poly
        if k > 1:
            self._check_irreducible()
        self.powers = p ** np.arange(k, dtype=np.int64)  # p^t, the place value of coefficient t in a code
        if self.q <= TABLE_LIMIT:
            self._build_tables()

    def _check_irreducible(self) -> None:
        """Rabin's test: monic f of degree k is irreducible over F_p iff
        x^(p^k) = x mod f and gcd(f, x^(p^(k/l)) - x) = 1 for every prime
        l dividing k."""
        p, k, poly = self.p, self.k, self.irreducible
        x = [0, 1] + [0] * (k - 2)
        frobenius_powers = [x]  # x^(p^j) mod f
        for _ in range(k):
            frobenius_powers.append(_poly_pow_mod(frobenius_powers[-1], p, poly, p))
        if frobenius_powers[k] != x:
            raise FieldError(f"{poly} is not irreducible mod {p}")
        for l in range(2, k + 1):
            if k % l or not is_prime(l):
                continue
            h = list(frobenius_powers[k // l])
            h[1] = (h[1] - 1) % p
            if _poly_gcd_degree(list(poly), h, p) > 0:
                raise FieldError(f"{poly} has a factor of degree dividing {k // l}: not irreducible")

    # -- encoding ---------------------------------------------------------

    def encode(self, coeffs: Sequence[int]) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    # -- code-level arithmetic (hot path) ---------------------------------

    @cached_property
    def shift(self) -> np.ndarray:
        """[s, t, u]: coefficient u of x^(s+t) mod f, for s, t < k."""
        k, basis = self.k, np.eye(self.k, dtype=np.int64).tolist()
        shift = [_poly_mul_mod(x_s, x_t, self.irreducible, self.p) for x_s in basis for x_t in basis]
        return np.array(shift, dtype=np.int64).reshape(k, k, k)

    def _build_tables(self) -> None:
        """The flat q x q add and mul tables, entry a * q + b, and the
        inverse table, from numpy arithmetic on coefficient vectors.

        The pairs (a, b) are taken in row-major blocks.  A sum is the
        coefficientwise sum mod p; a product contracts the outer product
        of the coefficients with ``shift``.  Each of its k^2 terms is below
        p^3 <= 2^24 (q is at most ``TABLE_LIMIT`` = 2^8), so int64 holds it
        exactly.  The inverse of a is the b where row a of the mul table
        holds 1, unique when it exists.
        """
        p, k, q, powers = self.p, self.k, self.q, self.powers
        shift = self.shift.reshape(k * k, k)
        block = max(1, TABLE_BLOCK_BYTES // (8 * k * k))
        add, mul = [], []
        inv = [0] * q
        for start in range(0, q * q, block):
            pair = np.arange(start, min(start + block, q * q))
            a = pair[:, None] // q // powers % p
            b = pair[:, None] % q // powers % p
            add += ((a + b) % p @ powers).tolist()
            prod = (a[:, :, None] * b[:, None, :]).reshape(-1, k * k) @ shift % p @ powers
            mul += prod.tolist()
            for one in pair[prod == 1].tolist():
                inv[one // q] = one % q
        for a in range(1, q):
            if not inv[a]:
                raise FieldError(f"{self.decode(a)} has no inverse: {self.irreducible} is not irreducible")
        self._add_table = add
        self._mul_table = mul
        self._inv_table = inv

    def add(self, a: int, b: int) -> int:
        if self.q <= TABLE_LIMIT:
            return self._add_table[a * self.q + b]
        return self.encode([(x + y) % self.p for x, y in zip(self.decode(a), self.decode(b))])

    def dots(self, u: Sequence[int], vs: Iterable[Sequence[int]]) -> tuple[int, ...]:
        """The dot products sum_i u_i v_i of u with each v in vs.  At or
        below ``TABLE_LIMIT`` each nonzero term is two reads of the flat
        tables held in locals, with no method call."""
        out = []
        if self.q <= TABLE_LIMIT:
            q, add, mul = self.q, self._add_table, self._mul_table
            for v in vs:
                acc = 0
                for x, y in zip(u, v):
                    if x and y:
                        acc = add[acc * q + mul[x * q + y]]
                out.append(acc)
            return tuple(out)
        for v in vs:
            acc = 0
            for x, y in zip(u, v):
                if x and y:
                    acc = self.add(acc, self.mul(x, y))
            out.append(acc)
        return tuple(out)

    def neg(self, a: int) -> int:
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.q <= TABLE_LIMIT:
            return self._mul_table[a * self.q + b]
        return self.encode(_poly_mul_mod(self.decode(a), self.decode(b), self.irreducible, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in finite field")
        if self.q <= TABLE_LIMIT:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- identity / serialization ------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.irreducible) == (other.p, other.k, other.irreducible)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.irreducible))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k})"

    @classmethod
    def from_json(cls, data: dict) -> FieldSpec:
        if not isinstance(data, dict):
            raise FieldError(f"field: expected an object, got {type(data).__name__}")
        irreducible = data.get("irreducible")
        if irreducible is not None:
            irreducible = [json_int(c, "irreducible") for c in irreducible]
        return cls(json_int(data["p"], "p"), json_int(data["k"], "k"), irreducible)


def json_int(value, key: str, error: type = FieldError) -> int:
    """A value read from JSON under ``key``, which must be an integer:
    a float or a bool raises ``error`` instead of being truncated."""
    if type(value) is not int:
        raise error(f"{key}: expected an integer, got {value!r}")
    return value


def primitive_element(spec: FieldSpec) -> int:
    """Smallest code of multiplicative order q-1 (exhaustive search)."""
    for code in range(1, spec.q):
        order, acc = 1, code
        while acc != 1:
            acc = spec.mul(acc, code)
            order += 1
        if order == spec.q - 1:
            return code
    raise FieldError("no primitive element found")  # unreachable for a field
