"""Roux matrices: axiom verification, parameters, switching, idempotent
data, signature matrices, and the real-lines detector.

A roux over C_r is an n x n matrix with zero diagonal, off-diagonal
entries in C_r, inverse-symmetry across the diagonal, and
B^2 = (n-1) I + sum_g c_g g B for nonnegative integers {c_g} summing to
n-2 with c_{g^{-1}} = c_g.  Verification of that identity is exact:
its float32 products of 0/1 matrices only ever hold integers of at most
n (see ``verify_roux``).  Inexact floating point enters only through
characters, eigenproblems, and ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

IDEMPOTENT_TOL = 1e-9
# Rows of B^2 computed per block of verify_roux; bounds its temporaries.
VERIFY_ROW_BLOCK = 64
# float32 holds every integer up to 2^24 exactly.
FLOAT32_EXACT_MAX = 2**24
# Largest float32 indicator array, 4 n^2 r bytes, that verify_roux may
# allocate for a roux read from a file.
VERIFY_BYTES_MAX = 2**30


class RouxFormatError(ValueError):
    """A roux file that does not describe an n x n exponent grid."""

    exit_code = 2  # bad input


class RouxAxiomError(ValueError):
    """R1-R3 failure; carries the first offending cell."""

    exit_code = 1  # a failed certificate

    def __init__(self, message: str, cell: Optional[tuple] = None):
        super().__init__(message)
        self.cell = cell


class RouxIdentityError(ValueError):
    """B^2 identity failure; carries the offending cell."""

    exit_code = 1  # a failed certificate

    def __init__(self, message: str, cell: Optional[tuple] = None):
        super().__init__(message)
        self.cell = cell


class RouxMatrix:
    """n x n matrix over {0} union C_r, stored as an exponent grid.

    ``exps[i][j]`` is the exponent of the entry in C_r for i != j; the
    diagonal is the zero of the group algebra (not the identity of C_r).
    """

    def __init__(self, n: int, r: int, exps: Sequence[Sequence[int]]):
        if r < 1:
            raise RouxAxiomError("cyclic order must be positive")
        self.n = n
        self.r = r
        grid = np.asarray(exps, dtype=np.int64) % r
        if grid.shape != (n, n):
            raise RouxAxiomError(f"exponent grid must be {n}x{n}")
        np.fill_diagonal(grid, 0)
        self.exps = grid
        self.exps.setflags(write=False)
        self._check_r3()

    def _check_r3(self) -> None:
        bad = np.triu((self.exps + self.exps.T) % self.r != 0, 1)
        if bad.any():
            i, j = (int(x) for x in np.argwhere(bad)[0])
            raise RouxAxiomError(f"inverse-symmetry fails at cell ({i},{j})", cell=(i, j))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RouxMatrix)
            and self.n == other.n
            and self.r == other.r
            and (self.exps == other.exps).all()
        )

    @classmethod
    def from_json(cls, data: dict) -> "RouxMatrix":
        """Parse ``{"n": n, "r": r, "entries": n rows of n cells}``, each
        cell null or an integer exponent.

        A file that is not such a grid, or whose verification would take
        more than ``VERIFY_BYTES_MAX`` bytes, raises ``RouxFormatError``.  A
        non-zero diagonal cell or a missing off-diagonal cell raises
        ``RouxAxiomError`` at the first such cell in row-major order.
        """
        n, r = data["n"], data["r"]
        for name, value in (("n", n), ("r", r)):
            if type(value) is not int or value < 1:
                raise RouxFormatError(f"{name} must be a positive integer, got {value!r}")
        if 4 * n * n * r > VERIFY_BYTES_MAX:
            raise RouxFormatError(
                f"n = {n} and r = {r} need {4 * n * n * r} bytes to verify, above {VERIFY_BYTES_MAX}"
            )
        cells = np.array(data["entries"], dtype=object)
        if cells.shape != (n, n):
            raise RouxFormatError(f"entries must be {n} rows of {n} cells")
        if set(map(type, cells.ravel().tolist())) - {int, type(None)}:
            (i, j), v = next(
                (cell, v) for cell, v in np.ndenumerate(cells) if v is not None and type(v) is not int
            )
            raise RouxFormatError(f"cell ({i},{j}) must be null or an integer, got {v!r}")
        missing = np.equal(cells, None)
        fault = missing.copy()
        np.fill_diagonal(fault, ~missing.diagonal() & (cells.diagonal() != 0))
        if fault.any():
            i, j = (int(x) for x in np.argwhere(fault)[0])
            if i == j:
                raise RouxAxiomError(f"diagonal cell ({i},{i}) must be zero", cell=(i, i))
            raise RouxAxiomError(f"off-diagonal cell ({i},{j}) missing", cell=(i, j))
        cells[missing] = 0
        try:
            exps = cells.astype(np.int64)
        except OverflowError as exc:
            raise RouxFormatError("exponents must lie in the 64-bit integer range") from exc
        return cls(n, r, exps)


@dataclass(frozen=True)
class RouxParameters:
    """The integers {c_g} in B^2 = (n-1)I + sum c_g gB; ``coeffs[e]`` is
    the coefficient of the element of C_r with exponent e."""

    n: int
    r: int
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(int(x) for x in self.coeffs)
        if len(coeffs) != self.r:
            raise RouxIdentityError("parameter vector has wrong length")
        if coeffs != tuple(self.coeffs) or any(x < 0 for x in coeffs):
            raise RouxIdentityError("roux parameters must be nonnegative integers")
        if sum(coeffs) != self.n - 2:
            raise RouxIdentityError(
                f"roux parameters sum to {sum(coeffs)}, expected n-2 = {self.n - 2}"
            )
        if any(coeffs[e] != coeffs[-e % self.r] for e in range(self.r)):
            raise RouxIdentityError("roux parameters must satisfy c_g = c_{g^{-1}}")
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def _terms(self) -> tuple:
        """The (e, c_e) with c_e != 0, e ascending: a report reads them r
        times, and over a large C_r most coefficients are 0."""
        return tuple((e, coeff) for e, coeff in enumerate(self.coeffs) if coeff)

    def fourier(self, k: int) -> float:
        """Fourier transform at the k-th character (real by symmetry)."""
        val = 0.0
        for e, coeff in self._terms:
            val += coeff * math.cos(2 * math.pi * k * e / self.r)
        return val

    def support(self) -> list[int]:
        return [e for e, _ in self._terms]

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "c": list(self.coeffs)}


def verify_roux(B: RouxMatrix) -> RouxParameters:
    """Exact check of the quadratic identity; returns the parameters.

    Let U be the exponents that occur in the grid.  Column block a of
    the n x |U|n matrix ``stacked`` is the indicator H_u of exponent
    u = U[a] off the diagonal, so one product of rows of H_u with
    ``stacked`` gives H_u H_v for every v in U, and the coefficient of
    exponent s in (B^2)_{ij} is the sum of (H_u H_v)_{ij} over u + v = s
    mod r.  That is |U|^2 n^3 work, not r^2 n^3: a grid over a large C_r
    that uses few exponents costs no more than a small one.  Every entry
    and partial sum of these products is an integer of at most n, which
    float32 holds exactly for n <= 2^24, so the BLAS products are exact.
    The parameter vector is read off cell (0,1) and every off-diagonal
    cell is checked against it; the first failing cell in row-major order
    is reported.  Zero tolerance.

    The diagonal needs no check: (B^2)_{ii} = sum_{k != i} B_ik B_ki, and
    R3, which ``RouxMatrix`` enforces on its read-only grid, makes every
    term the identity of C_r, so (B^2)_{ii} = (n-1) * identity.
    """
    n, r = B.n, B.r
    if n < 2:
        raise RouxIdentityError("roux needs n >= 2")
    if n > FLOAT32_EXACT_MAX:
        raise RouxIdentityError(f"n = {n} exceeds 2^24, beyond exact float32 integers")
    idx = np.arange(n)
    # U, ascending; it holds 0 through the diagonal, which is no entry of
    # B, so H_0 is cleared there
    mark = np.zeros(r, dtype=bool)
    mark[B.exps] = True
    used = np.flatnonzero(mark)
    hot = np.zeros((n, len(used), n), dtype=np.float32)
    hot[idx[:, None], np.searchsorted(used, B.exps), idx[None, :]] = 1
    hot[idx, 0, idx] = 0
    stacked = hot.reshape(n, len(used) * n)
    c = None
    for start in range(0, n, VERIFY_ROW_BLOCK):
        rows = slice(start, min(start + VERIFY_ROW_BLOCK, n))
        # square[i, s, j] = coefficient of exponent s in (B^2)_{start+i, j}
        square = np.zeros((rows.stop - start, r, n), dtype=np.float32)
        for a, u in enumerate(used):
            products = (stacked[rows, a * n : (a + 1) * n] @ stacked).reshape(-1, len(used), n)
            square[:, (u + used) % r] += products  # distinct slots: no index repeats
        # (B^2)_{ij} must equal sum_w c_w (w + B_ij): shifted[i, w, j] is
        # the coefficient of w + B_ij, to be compared with c_w
        shifts = (np.arange(r)[:, None] + B.exps[rows, None, :]) % r
        shifted = np.take_along_axis(square, shifts, axis=1)
        if c is None:
            c = shifted[0, :, 1]
        bad = (shifted != c[:, None]).any(axis=1)
        bad[idx[rows] - start, idx[rows]] = False
        if bad.any():
            i, j = (int(x) for x in np.argwhere(bad)[0])
            i += start
            raise RouxIdentityError(f"B^2 identity fails at cell ({i},{j})", cell=(i, j))
    return RouxParameters(n, r, c)


def switch(B: RouxMatrix, diagonal: Sequence[int]) -> RouxMatrix:
    """Conjugate by a diagonal of C_r elements: entry picks up d_i - d_j.
    The parameters do not change, so the result is not re-verified."""
    n, r = B.n, B.r
    d = [int(x) % r for x in diagonal]
    if len(d) != n:
        raise RouxAxiomError("switching diagonal has wrong length")
    col = np.array(d, dtype=np.int64)
    new = (B.exps + col[:, None] - col[None, :]) % r
    return RouxMatrix(n, r, new)


def compress_to_subgroup(B: RouxMatrix, r_new: int, params: RouxParameters) -> RouxMatrix:
    """Rewrite a roux over C_r as one over a subgroup C_{r'}, r' | r.

    Requires the parameters of B to be supported on the subgroup (exponents
    divisible by r/r').  Switches so that row 0 becomes the identity;
    after that every off-diagonal exponent lies in the subgroup, and the
    grid reinterprets with exponents divided by r/r'.

    When ``params`` are B's verified parameters c, the result's are
    ``params.coeffs[::r // r']``, and need no second ``verify_roux``.
    Switching by a diagonal D conjugates B^2 = (n-1)I + sum c_g gB into
    the same identity for DBD^{-1}, so c is unchanged.  Every entry of
    the switched grid and every g with c_g != 0 lies in the subgroup of
    exponents divisible by step = r/r', and dividing exponents by step
    maps that subgroup isomorphically onto C_{r'}.  The identity holds
    in the group algebra of the subgroup, so its image holds over C_{r'}
    with c_{step e} as the coefficient of exponent e.
    """
    n, r = B.n, B.r
    if r % r_new != 0:
        raise RouxAxiomError(f"{r_new} does not divide {r}")
    step = r // r_new
    if any(e % step for e in params.support()):
        raise RouxAxiomError(
            f"parameters supported outside the subgroup of order {r_new}"
        )
    normalized = switch(B, B.exps[0])
    if (normalized.exps % step).any():
        # With row 0 the identity, (B^2)_{0j} is the sum of the B_kj over
        # k != 0, j, so column j holds the exponents the parameters
        # count: this fires only when ``params`` are not B's parameters
        bad = np.argwhere(normalized.exps % step != 0)[0]
        raise RouxAxiomError(
            "first-row normalization left an exponent outside the subgroup",
            cell=(int(bad[0]), int(bad[1])),
        )
    return RouxMatrix(n, r_new, normalized.exps // step)


def idempotent_data(params: RouxParameters, k: int) -> tuple[dict, dict]:
    """The + and the - row of the idempotent table at character index k:
    ``{"k", "eps", "mu", "d"}``, mu and rank for each sign branch.

    When the Fourier transform equals n-2 (the trivial-line case) the
    values collapse to mu in {1, -1/(n-1)} and d in {1, n-1}; those are
    produced exactly rather than through the quadratic formula.
    """
    n = params.n
    c_hat = params.fourier(k)
    if abs(c_hat - (n - 2)) < IDEMPOTENT_TOL:
        branches = ((1.0, 1.0), (-1.0 / (n - 1), float(n - 1)))
    elif abs(c_hat + (n - 2)) < IDEMPOTENT_TOL:
        branches = ((1.0 / (n - 1), float(n - 1)), (-1.0, 1.0))
    else:
        disc = math.sqrt(c_hat * c_hat + 4 * (n - 1))
        mus = ((c_hat + disc) / (2 * (n - 1)), (c_hat - disc) / (2 * (n - 1)))
        branches = tuple((mu, n / (1 + (n - 1) * mu * mu)) for mu in mus)
    return tuple({"k": k, "eps": eps, "mu": mu, "d": d} for eps, (mu, d) in zip("+-", branches))


def signature_matrix(B: RouxMatrix, k: int) -> np.ndarray:
    """Entrywise image of a roux under the k-th character of C_r: a
    signature matrix (``RouxMatrix`` guarantees R1-R3)."""
    r = B.r
    phases = np.exp(2j * np.pi * (np.arange(r) * k % r) / r)
    S = phases[B.exps]
    np.fill_diagonal(S, 0)
    return S


def is_real_lines(params: RouxParameters, k: int) -> bool:
    """True iff the character is real on the parameter support."""
    return all((2 * k * e) % params.r == 0 for e in params.support())


def idempotent_report(params: RouxParameters) -> list[dict]:
    """Per-character report rows: {k, eps, mu, d, real}."""
    rows = []
    for k in range(params.r):
        real = is_real_lines(params, k)
        for row in idempotent_data(params, k):
            row["real"] = real
            rows.append(row)
    return rows
