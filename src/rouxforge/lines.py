"""Numeric line-packing layer: signature matrices, Grams, ETF
certification, Welch bound, Naimark complements, and two-graphs.

Everything here is floating point; the exact layers live upstream.
The two tolerances a run may set, ``--tol-etf`` and ``--tol-eig`` (read by
``verify`` alone: a family's line sets compute no eigenvalues), form one
frozen ``Tolerances`` value that the caller passes to each function that
reads them (the defaults when omitted); a certificate fixes its verdict
when it is built.  The other bounds are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .field import MAX_ORDER

SIG_TOL = 1e-12
PSD_TOL = 1e-9
REAL_TOL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """``etf`` bounds the unit diagonal, tightness, equiangularity and
    Welch residuals; eigenvalues above ``eig`` times the largest count
    towards the rank d."""

    etf: float = 1e-9
    eig: float = 1e-6


class LinesError(ValueError):
    exit_code = 1  # a failed certificate


class TwoGraphFormatError(LinesError):
    """A two-graph that does not list 3-subsets of range(n)."""

    exit_code = 2  # bad input


class SignatureAxiomError(LinesError):
    def __init__(self, message: str, cell: Optional[tuple] = None):
        super().__init__(message)
        self.cell = cell


def check_signature(S: np.ndarray) -> np.ndarray:
    """Validate S1 (zero diagonal), S2 (unimodular off-diagonal), S3 (Hermitian).

    The first failure is reported: any diagonal cell first, then cells in
    row-major order, unimodularity before Hermitian symmetry in one cell.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    if S.shape != (n, n):
        raise SignatureAxiomError("signature matrix must be square")
    bad_diag = np.abs(np.diagonal(S)) > SIG_TOL
    if bad_diag.any():
        i = int(np.argmax(bad_diag))
        raise SignatureAxiomError(f"nonzero diagonal at ({i},{i})", cell=(i, i))
    bad_mod = np.abs(np.abs(S) - 1) > SIG_TOL
    np.fill_diagonal(bad_mod, False)
    bad_herm = np.abs(S - S.conj().T) > SIG_TOL
    bad = bad_mod | bad_herm
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n)
        if bad_mod[i, j]:
            raise SignatureAxiomError(f"non-unimodular entry at ({i},{j})", cell=(i, j))
        raise SignatureAxiomError(f"not Hermitian at ({i},{j})", cell=(i, j))
    return S


@dataclass
class LineGram:
    """Unit-diagonal PSD Gram of n unit vectors spanning dimension d; eigenvalues ascending."""

    n: int
    d: int
    matrix: np.ndarray
    eigenvalues: np.ndarray

    @classmethod
    def from_matrix(cls, G: np.ndarray, tol: Tolerances = Tolerances()) -> "LineGram":
        G = np.asarray(G, dtype=complex)
        return cls.from_spectrum(G, np.linalg.eigvalsh(G), tol)

    @classmethod
    def from_spectrum(cls, G: np.ndarray, w: np.ndarray, tol: Tolerances = Tolerances()) -> "LineGram":
        """The Gram ``G`` given its eigenvalues ``w`` in ascending order."""
        if w[0] < -PSD_TOL * max(1.0, w[-1]):
            raise LinesError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
        if np.max(np.abs(np.diag(G) - 1)) > tol.etf:
            raise LinesError("Gram diagonal is not all ones")
        d = int((w > tol.eig * w[-1]).sum())
        return cls(G.shape[0], d, G, w)

    @cached_property
    def tightness_residual(self) -> float:
        """|G^2 - (n/d) G|_max, zero exactly when the frame operator is (n/d) I."""
        G = self.matrix
        return float(np.max(np.abs(G @ G - (self.n / self.d) * G)))


def gram_from_signature(S: np.ndarray, tol: Tolerances = Tolerances(), spectrum: Optional[tuple] = None) -> LineGram:
    """Scale by the least eigenvalue: G = -S/lambda_min + I is a unit
    diagonal PSD Gram.  Its eigenvalues are 1 - w/lambda_min for the
    eigenvalues w of S, in the same ascending order since lambda_min < 0,
    so S's one eigendecomposition serves both.

    With ``spectrum`` = (mu, d), the + row of the idempotent table of a
    roux B with S = chi_k(B), no eigensolver runs.  ``verify_roux`` has
    proved B^2 = (n-1)I + sum c_g gB and chi_k is a ring homomorphism, so
    S^2 = (n-1)I + cS, c the Fourier coefficient at k: S has eigenvalues
    (n-1)mu and -1/mu, the first d times by trace 0, and G = I + mu S has
    0 and n/d (d times).  At c = n - 2, every k = 0 set, mu = d = 1
    exactly, so G = J and its tightness residual is exactly 0.  That
    residual is still measured on G: G^2 - (n/d)G is a combination of I
    and S whose coefficients both vanish only at the + or the - row's
    (mu, d), each its branch's true Gram: any other leaves a residual of
    order 1 and cannot pass."""
    S = check_signature(S)
    n = S.shape[0]
    if spectrum is not None:
        mu, d = spectrum
        return LineGram.from_spectrum(np.eye(n) + mu * S, np.repeat([0.0, n / d], [n - d, d]), tol)
    w = np.linalg.eigvalsh(S)
    lam = w[0]
    if lam >= 0:
        raise LinesError("least eigenvalue must be negative (trace is zero)")
    return LineGram.from_spectrum(np.eye(n) - S / lam, 1 - w / lam, tol)


@dataclass(frozen=True)
class ETFCertificate:
    """Numeric report for a candidate equiangular tight frame, its
    verdict fixed by ``verify_etf`` under the tolerances of that call."""

    n: int
    d: int
    mu: float
    tightness_residual: float
    equiangularity_residual: float
    welch_equality: bool
    real: bool
    degenerate: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "mu": self.mu,
            "tightness_residual": self.tightness_residual,
            "equiangularity_residual": self.equiangularity_residual,
            "welch_equality": self.welch_equality,
            "real": self.real,
            "degenerate": self.degenerate,
            "passed": self.passed,
        }


def welch_bound(n: int, d: int) -> float:
    return math.sqrt((n - d) / (d * (n - 1)))


def verify_etf(data, tol: Tolerances = Tolerances()) -> ETFCertificate:
    """Certify an ETF from a LineGram or a square Gram matrix.

    Residuals: tightness is measured on the Gram as |G^2 - (n/d) G|_max
    (equivalently the frame operator being (n/d) I), equiangularity as
    the spread of off-diagonal moduli.  The lines are real when (G - I)/mu
    is a signature matrix whose normalized form is real.  It passes when
    it is not degenerate (n > d), meets the Welch bound and both
    residuals are below ``tol.etf``.
    """
    gram = data if isinstance(data, LineGram) else LineGram.from_matrix(data, tol)
    n, d, G = gram.n, gram.d, gram.matrix
    off = ~np.eye(n, dtype=bool)
    mods = np.abs(G[off])
    mu = float(np.max(mods)) if n > 1 else 0.0
    equiang = float(np.max(mods) - np.min(mods)) if n > 1 else 0.0
    tight = gram.tightness_residual
    if n == d:
        return ETFCertificate(n, d, mu, tight, equiang, False, True, degenerate=True, passed=False)
    welch_eq = abs(mu - welch_bound(n, d)) < tol.etf
    real = False
    if mu > 0 and equiang < tol.etf:
        try:
            real = is_real_line_sequence(check_signature((G - np.eye(n)) / mu))
        except SignatureAxiomError:
            pass
    passed = welch_eq and tight < tol.etf and equiang < tol.etf
    return ETFCertificate(n, d, mu, tight, equiang, welch_eq, real, degenerate=False, passed=passed)


def naimark_complement(gram: LineGram, tol: Tolerances = Tolerances()) -> LineGram:
    """The (n-d)-dimensional partner Gram n/(n-d) (I - (d/n) G), whose
    eigenvalues n/(n-d) (1 - (d/n) w) are G's, w, mapped and reversed."""
    n, d, G = gram.n, gram.d, gram.matrix
    if n == d:
        raise LinesError("no complement when n = d")
    tight = gram.tightness_residual
    if tight > tol.etf:
        raise LinesError(f"input Gram is not tight (residual {tight:.3e})")
    comp = (n / (n - d)) * (np.eye(n) - (d / n) * G)
    out = LineGram.from_spectrum(comp, (n / (n - d)) * (1 - (d / n) * gram.eigenvalues[::-1]), tol)
    if out.d != n - d:
        raise LinesError("complement rank mismatch")
    return out


def normalized_signature(S: np.ndarray) -> np.ndarray:
    """The switching-equivalent signature with first row and column all
    ones, of a signature matrix that ``check_signature`` has passed."""
    d = S[0].conjugate().copy()
    d[0] = 1.0
    return S * (d[None, :] / d[:, None])


def is_real_line_sequence(S: np.ndarray) -> bool:
    """Real lines iff the normalized signature matrix is real-valued (S
    as ``check_signature`` returned it)."""
    return bool(np.max(np.abs(normalized_signature(S).imag)) < REAL_TOL)


@dataclass(frozen=True)
class TwoGraph:
    """A set of 3-subsets of [n] in which every 4-subset holds an even count."""

    n: int
    triples: frozenset

    def __post_init__(self):
        for t in self.triples:
            if len(t) != 3 or not all(0 <= v < self.n for v in t):
                raise TwoGraphFormatError(f"bad triple {sorted(t)}")

    def check_parity(self) -> None:
        """Every 4-subset must contain an even number of triples.

        With f(i,j,k) = [ijk in T] and g(i,j) = f(0,i,j), the 4-subset
        {0,i,j,k} holds f(i,j,k) + g(i,j) + g(i,k) + g(j,k) triples.  If
        all of those are even then f is the coboundary of g and every
        4-subset is even, so the lexicographically first odd 4-subset
        contains 0: scanning the 4-subsets through 0 is exact, in O(n^3).
        """
        n = self.n
        T = np.array([sorted(t) for t in self.triples], dtype=np.intp).reshape(-1, 3)
        g = np.zeros((n, n), dtype=bool)
        through0 = T[:, 0] == 0
        g[T[through0, 1], T[through0, 2]] = True
        g |= g.T
        # the triples without 0, grouped by their least vertex
        rest = T[~through0]
        rest = rest[np.argsort(rest[:, 0], kind="stable")]
        bounds = np.searchsorted(rest[:, 0], np.arange(n + 1))
        for i in range(1, n - 2):
            f = np.zeros((n, n), dtype=bool)
            block = rest[bounds[i] : bounds[i + 1]]
            f[block[:, 1], block[:, 2]] = True
            odd = f ^ g ^ g[i][:, None] ^ g[i][None, :]
            odd = np.triu(odd[i + 1 :, i + 1 :], k=1)
            if odd.any():
                a, b = divmod(int(np.argmax(odd)), n - i - 1)
                j, k = i + 1 + a, i + 1 + b
                count = int(f[j, k]) + int(g[i, j]) + int(g[i, k]) + int(g[j, k])
                raise LinesError(f"4-subset {(0, i, j, k)} contains {count} triples")

    @classmethod
    def from_json(cls, data: dict) -> "TwoGraph":
        """Parse ``{"n": n, "triples": [[i, j, k], ...]}``, each triple
        three distinct integer vertices in range(n); anything else raises
        ``TwoGraphFormatError``.  The checks build n x n arrays, so n^2 is
        checked against ``MAX_ORDER`` first, as a matrix group's dim is."""
        n, triples = data["n"], data["triples"]
        if type(n) is not int or n < 1:
            raise TwoGraphFormatError(f"n must be a positive integer, got {n!r}")
        if n * n > MAX_ORDER:
            raise TwoGraphFormatError(f"n: at most {math.isqrt(MAX_ORDER)} vertices, got {n}")
        if not isinstance(triples, list) or not all(
            isinstance(t, list) and all(type(v) is int for v in t) for t in triples
        ):
            raise TwoGraphFormatError("triples must be a list of lists of integer vertices")
        return cls(n, frozenset(frozenset(t) for t in triples))


def signature_from_two_graph(tg: TwoGraph) -> np.ndarray:
    """The normalized signature: row/column 0 all ones, S_ij = -1 iff
    {0,i,j} is a triple."""
    tg.check_parity()
    n = tg.n
    S = np.ones((n, n), dtype=complex)
    np.fill_diagonal(S, 0)
    for i in range(1, n):
        for j in range(1, n):
            if i != j and frozenset((0, i, j)) in tg.triples:
                S[i, j] = -1
    return S


def two_graph_regularity(tg: TwoGraph, tol: Tolerances = Tolerances()) -> dict:
    """Eigenvalue test: regular iff the signature has two distinct values.

    When regular, ``d`` is the dimension spanned by the associated lines
    under the least-eigenvalue Gram convention, i.e. the multiplicity
    n*(-l2)/(l1 - l2) of the positive eigenvalue (the other multiplicity
    is the Naimark-complement dimension).
    """
    S = signature_from_two_graph(tg)
    w = np.linalg.eigvalsh(S)
    scale = max(1.0, float(np.max(np.abs(w))))
    clusters: list[list[float]] = []
    for val in w:
        if clusters and abs(val - clusters[-1][-1]) < tol.eig * scale:
            clusters[-1].append(float(val))
        else:
            clusters.append([float(val)])
    values = [float(np.mean(c)) for c in clusters]
    regular = len(values) == 2 and values[0] < 0 < values[1]
    out = {"regular": regular, "eigenvalues": values}
    if regular:
        l2, l1 = values
        out["d"] = tg.n * (-l2) / (l1 - l2)
        out["lambda1"] = l1
        out["lambda2"] = l2
    return out

