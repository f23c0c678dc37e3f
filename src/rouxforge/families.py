"""Built-in families: special linear and special unitary pipelines with
closed-form parameter cross-checks, plus the negative-case witnesses for
Suzuki, Ree, and symplectic groups.

The positive pipelines never materialize the full cover group: the
stabilizer is enumerated structurally, coset representatives come from
orbit search, and detection/key-finding/parameter extraction are all
stabilizer-local.

The line sets of a roux B over C_r are its images under the characters
k of C_r, and ``signature_matrix(B, k)`` computes entry (i, j) from the
integer m = (B.exps[i, j] k) mod r and from r alone.  Line sets with
equal n, r and phase grid m therefore have bit-equal signature matrices,
and so bit-equal Grams, certificates and numeric realness; a zero grid,
J - I, has the same matrix for every r.  Many line sets of one family
share a grid: every k = 0 set, whatever its r; in the
unitary family, the sets of a character alpha and of alpha^{-1} (the
``radical`` module docstring proves it); and, observed at q <= 8 but not
proved, those of Galois-conjugate characters (62 line sets but 13
distinct grids at q = 8).  One ``LineCertificates`` per family run
certifies each grid once; its key rests on the zero grid's matrix and on
none of the other facts.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .field import MAX_ORDER, FieldSpec, primitive_element
from .group import (
    TABLE_CHUNK,
    GeneratedGroup,
    GroupAction,
    MatOps,
    closure,
    derived_subgroup,
    enumerate_linear_characters,
    projective_line_action,
    projective_point,
)
from .lines import (
    ETFCertificate,
    LinesError,
    Tolerances,
    gram_from_signature,
    is_real_line_sequence,
    naimark_complement,
    verify_etf,
    welch_bound,
)
from .radical import CoverData, HigmanDecompositionTable, higman_roux
from .roux import (
    RouxMatrix,
    RouxParameters,
    compress_to_subgroup,
    idempotent_report,
    signature_matrix,
)

SL2_MAX_Q = 31
SU3_DEFAULT_MAX_Q = 4
# The sp witness loops over all 2^(2m) vectors: m = 8 takes 0.2 s, each step up about 4x.
SP_MAX_M = 8
# Relation checks in the Suzuki and Ree witnesses: how many cases, and
# the seed that draws them where the full sweep is too large.
WITNESS_SAMPLES = 100
WITNESS_RNG_SEED = 0


class FamilyError(ValueError):
    exit_code = 2  # bad input


class UnsupportedFamilyError(FamilyError):
    """Family input outside the supported desk-scale range."""


class LineSetError(ValueError):
    """A line set failed its numeric certificate: a failed certificate,
    not an input error."""

    exit_code = 1


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k.  Trial division costs sqrt(q) steps, so q
    above the largest field order, which no family can build, is refused
    first."""
    if q > MAX_ORDER:
        raise UnsupportedFamilyError(f"q = {q} exceeds the largest field order 2^20")
    if q < 2:
        raise FamilyError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            k = 0
            qq = q
            while qq % p == 0:
                qq //= p
                k += 1
            if qq != 1:
                raise FamilyError(f"{q} is not a prime power")
            return p, k
        p += 1
    return q, 1


# ---------------------------------------------------------------------------
# report structures


@dataclass
class LineSetRecord:
    """Per-character-index line data on the working roux."""

    k: int
    d_plus: float
    d_minus: float
    signature_rank: int
    real_algebraic: bool
    real_numeric: bool
    etf: ETFCertificate
    complement: Optional[ETFCertificate]

    def dims(self) -> set[int]:
        dims = {self.etf.d}
        if self.complement is not None:
            dims.add(self.complement.d)
        return dims

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "d_plus": self.d_plus,
            "d_minus": self.d_minus,
            "signature_rank": self.signature_rank,
            "real_algebraic": self.real_algebraic,
            "real_numeric": self.real_numeric,
            "etf": self.etf.to_json(),
            "complement": self.complement.to_json() if self.complement else None,
        }


@dataclass
class CharacterBlock:
    """Everything the pipeline derives from one linear character."""

    index: int
    image_order: int
    exponents_on_generators: list
    higman: bool
    key_z_exponent: Optional[int] = None
    r: Optional[int] = None
    params: Optional[list] = None
    working_r: Optional[int] = None
    working_params: Optional[list] = None
    idempotents: list = dataclass_field(default_factory=list)
    line_sets: list = dataclass_field(default_factory=list)
    # raw matrices, kept for downstream verification (not serialized)
    roux_matrix: Optional[RouxMatrix] = None
    working_roux: Optional[RouxMatrix] = None

    def to_json(self) -> dict:
        return {
            "character": {"index": self.index, "image_order": self.image_order,
                          "exponents_on_generators": self.exponents_on_generators},
            "higman": self.higman,
            "key": None if self.key_z_exponent is None else {"z_exponent": self.key_z_exponent},
            "r": self.r,
            "params": self.params,
            "working_r": self.working_r,
            "working_params": self.working_params,
            "idempotents": self.idempotents,
            "line_sets": [ls.to_json() for ls in self.line_sets],
        }


class CheckedReport:
    """A report's named checks: it passes when every one of them does."""

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})


@dataclass
class FamilyReport(CheckedReport):
    family: str
    q: int
    n: int
    characters: list
    checks: list
    schema: int = 1

    @property
    def higman_count(self) -> int:
        return sum(1 for c in self.characters if c.higman)

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "family": self.family,
            "q": self.q,
            "n": self.n,
            "character_count": len(self.characters),
            "higman_count": self.higman_count,
            "characters": [c.to_json() for c in self.characters],
            "checks": self.checks,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# covers


def sl2_cover(q: int) -> tuple[CoverData, tuple]:
    """SL(2,q) acting on the projective line, with its Borel stabilizer.

    Returns the cover data and the antidiagonal involution-like element
    x = [[0,1],[-1,0]] used for detection.
    """
    p, k = prime_power(q)
    spec = FieldSpec(p, k)
    ops = MatOps(spec, 2)
    lam = primitive_element(spec)
    gens = []
    t = 1
    for _ in range(k):
        gens.append(((1, t), (0, 1)))
        t = spec.mul(t, lam)
    x = ((0, 1), (spec.neg(1), 0))
    gens.append(x)
    action = projective_line_action(GeneratedGroup(ops, gens, name=f"SL(2,{q})"))
    base = projective_point(spec, (1, 0))
    borel = [
        ((a, b), (0, spec.inv(a)))
        for a in range(1, spec.q)
        for b in range(spec.q)
    ]
    stab = closure(sorted(borel), ops, order=len(borel), name=f"Borel(SL(2,{q}))")
    return CoverData(action, stab, base), x


def isotropic_pairs(spec2: FieldSpec, q: int) -> list[tuple[int, int]]:
    """The pairs (a, b) over F_{q^2} with a^(q+1) + b + b^q = 0, a-major
    and b ascending: the zeros of the Hermitian form
    (u, v) = u1 v3^q + u2 v2^q + u3 v1^q at u = v = (1, a, b).  They give
    the isotropic points (1, a, b) and the unipotent elements xi(a, b)
    of the unitary family.  The b are grouped by their trace b + b^q, so
    the pairs cost O(q^3).  The q^3 + 1 isotropic points are refused
    above ``MAX_ORDER`` before anything of size q^2 is built."""
    if q**3 + 1 > MAX_ORDER:
        raise FamilyError(f"isotropic lines: at most {MAX_ORDER} points, got q^3 + 1 for q = {q}")
    by_trace: dict = {}
    for b in range(spec2.q):
        by_trace.setdefault(spec2.add(b, spec2.pow(b, q)), []).append(b)
    return [(a, b) for a in range(spec2.q) for b in by_trace.get(spec2.neg(spec2.pow(a, q + 1)), ())]


def isotropic_line_action(G, pairs: Optional[list] = None) -> GroupAction:
    """Action of a 3x3 matrix group over F_{q^2} on the q^3 + 1 isotropic
    lines (1, a, b), one per pair of ``isotropic_pairs`` (or ``pairs``),
    and (0, 0, 1).  A point (0, 1, b) has form value 1."""
    ops = G.ops
    if not (isinstance(ops, MatOps) and ops.dim == 3):
        raise FamilyError("isotropic actions need 3x3 matrices")
    spec2 = ops.spec
    q = math.isqrt(spec2.q)
    if q * q != spec2.q:
        raise FamilyError("isotropic actions need a field of square order")
    points = [(1, a, b) for a, b in pairs or isotropic_pairs(spec2, q)] + [(0, 0, 1)]
    return GroupAction(G, points, lambda g, pt: projective_point(spec2, ops.apply(g, pt)))


def su3_cover(q: int) -> tuple[CoverData, tuple, tuple]:
    """SU(3,q) acting on the isotropic lines of its Hermitian form.

    Returns the cover data, the antidiagonal involution x, and the
    stabilizer element eta(b0) whose character value fixes the key sign
    (b0 a nonzero element of zero trace: b0 + b0^q = 0).

    The stabilizer is the unipotent group U = {xi(a, b)} extended by the
    torus {eta(e)}, listed as the disjoint cosets U eta(e), one batched
    product each.  The torus normalizes U: eta(e)^-1 xi(a, b) eta(e) =
    xi(a e^(q-2), b e^(-q-1)), and a^(q+1) + b + b^q = 0 carries over
    because every term is multiplied by e^(-q-1) (e^(q^2-1) = 1), so
    eta(e) U = U eta(e).
    """
    p, k = prime_power(q)
    spec2 = FieldSpec(p, 2 * k)
    ops = MatOps(spec2, 3)

    def conj(a):  # the order-2 field automorphism a -> a^q
        return spec2.pow(a, q)

    def eta(e):
        # diag(e, e^(q-1), e^(-q)): the determinant-1 torus of the form
        return ((e, 0, 0), (0, spec2.mul(conj(e), spec2.inv(e)), 0), (0, 0, spec2.inv(conj(e))))

    def xi(a, b):
        return ((1, a, b), (0, 1, spec2.neg(conj(a))), (0, 0, 1))

    pairs = isotropic_pairs(spec2, q)
    if len(pairs) != q**3:
        raise FamilyError("wrong unipotent count in unitary stabilizer")
    U = [xi(a, b) for a, b in pairs]
    chunks = [ops.batch(U[i : i + TABLE_CHUNK]) for i in range(0, len(U), TABLE_CHUNK)]
    stab_elements = [h for e in range(1, spec2.q) for c in chunks for h in ops.batch_mul(c, eta(e))]
    stab = closure(sorted(stab_elements), ops, order=len(stab_elements), name=f"Stab(SU(3,{q}))")
    x = ((0, 0, 1), (0, spec2.neg(1), 0), (1, 0, 0))
    G = GeneratedGroup(ops, list(stab.generators) + [x], name=f"SU(3,{q})")
    action = isotropic_line_action(G, pairs)
    base = projective_point(spec2, (1, 0, 0))

    if q % 2:
        lam = primitive_element(spec2)
        b0 = spec2.pow(lam, (q + 1) // 2)
        if spec2.pow(b0, q - 1) != spec2.neg(1):
            raise FamilyError("trace-zero witness is wrong")
    else:
        b0 = 1
    return CoverData(action, stab, base), x, eta(b0)


# ---------------------------------------------------------------------------
# closed-form parameters


def psl2_parameters_closed_form(q: int) -> RouxParameters:
    """Quadratic-residue-character roux parameters over C_4."""
    half = (q - 1) // 2
    c = (half, 0, half, 0) if q % 4 == 1 else (0, half, 0, half)
    return RouxParameters(q + 1, 4, c)


def psu3_parameters_closed_form(q: int, r_prime: int) -> RouxParameters:
    """Unitary-family roux parameters over C_{r'} for r' != 1 dividing q+1."""
    if r_prime == 1 or (q + 1) % r_prime:
        raise FamilyError(f"r' = {r_prime} must be a nontrivial divisor of q+1 = {q + 1}")
    bulk = (q + 1) // r_prime * (q * q - 1)
    c = [bulk + q - q * q] + [bulk] * (r_prime - 1)
    return RouxParameters(q**3 + 1, r_prime, c)


def trivial_parameters_closed_form(n: int) -> RouxParameters:
    return RouxParameters(n, 2, (n - 2, 0))


# ---------------------------------------------------------------------------
# shared pipeline pieces


class LineCertificates:
    """The line-set certificates of one family run, one per phase grid.

    A set of roux B at character k is keyed on n and the bytes of the
    grid m = (B.exps k) mod r before anything is built: equal keys give
    bit-equal signature matrices (see the module docstring).  r is left
    out, and the key stays exact.  A zero grid gives J - I whatever r is.
    A nonzero grid fixes r: B is inverse-symmetric, so m_ij + m_ji = r
    wherever m_ij != 0.  Grids of different dtype widths have bytes of
    different lengths.  Only d, the two
    certificates and the numeric realness are stored.  A set that fails
    raises before it is stored, so the first failing character and k are
    named as without the cache.  Each family call builds its own, so no
    verdict outlives the ``tol`` it was fixed under.
    """

    def __init__(self, tol: Tolerances):
        self.tol = tol
        self._certified: dict[tuple, tuple] = {}

    def certify(self, B: RouxMatrix, k: int, index: int) -> tuple:
        """(d, certificate, complement certificate, numeric realness) of
        the lines of B at character k; a set the lines layer refuses
        raises LineSetError naming character ``index`` and k."""
        n, r = B.n, B.r
        # (B.exps k) mod r read off a table of (e k) mod r for e in C_r, as
        # signature_matrix reads its phases, in the least dtype that holds r - 1
        grid = (np.arange(r) * k % r).astype(np.min_scalar_type(r - 1))[B.exps]
        key = (n, grid.tobytes())
        found = self._certified.get(key)
        if found is None:
            tol = self.tol
            S = signature_matrix(B, k)
            try:
                gram = gram_from_signature(S, tol)
                cert = verify_etf(gram, tol)
                comp_cert = verify_etf(naimark_complement(gram, tol), tol) if gram.d < n else None
            except LinesError as exc:
                raise LineSetError(f"character {index}, k = {k}: {exc}") from exc
            # gram_from_signature has checked S; at k = 0 it is J - I
            found = self._certified[key] = (gram.d, cert, comp_cert, is_real_line_sequence(S) if k else True)
        return found


def _line_set_records(
    B: RouxMatrix, idempotents: list[dict], index: int, certs: LineCertificates
) -> list[LineSetRecord]:
    """The line set of every character k of a (working) roux built from
    character ``index``.  d_plus, d_minus and the algebraic realness are
    read off B's idempotent report rows, the + and the - row of each k in
    turn; the rest comes from ``certs``."""
    records = []
    for k, (plus, minus) in enumerate(zip(idempotents[::2], idempotents[1::2])):
        d, cert, comp_cert, real_numeric = certs.certify(B, k, index)
        records.append(
            LineSetRecord(
                k=k,
                d_plus=plus["d"],
                d_minus=minus["d"],
                signature_rank=d,
                real_algebraic=plus["real"],
                real_numeric=real_numeric,
                etf=cert,
                complement=comp_cert,
            )
        )
    return records


def _process_character(
    table: HigmanDecompositionTable,
    alpha,
    index: int,
    certs: LineCertificates,
    compress_to: Optional[int] = None,
    prefer_exponent: Optional[int] = None,
) -> CharacterBlock:
    """Run detection and, on success, the full roux pipeline for one character."""
    found = higman_roux(table, alpha, prefer_exponent)
    block = CharacterBlock(
        index=index,
        image_order=alpha.modulus,
        exponents_on_generators=[alpha.exponent(g) for g in table.cover.stab.generators],
        higman=found is not None,
    )
    if found is None:
        return block
    rad, key, params, B = found.rad, found.key, found.params, found.roux
    block.key_z_exponent = key.z_exponent
    block.r = rad.r
    block.params = list(params.coeffs)
    working, working_params = B, params
    if compress_to is not None and compress_to != rad.r:
        working = compress_to_subgroup(B, compress_to, params)
        # read off, not verified again: see compress_to_subgroup
        working_params = RouxParameters(B.n, compress_to, params.coeffs[:: rad.r // compress_to])
    block.roux_matrix = B
    block.working_roux = working
    block.working_r = working.r
    block.working_params = list(working_params.coeffs)
    block.idempotents = idempotent_report(working_params)
    block.line_sets = _line_set_records(working, block.idempotents, index, certs)
    return block


# ---------------------------------------------------------------------------
# positive families


def sl2_family(q: int, tol: Tolerances = Tolerances()) -> FamilyReport:
    """Full pipeline for SL(2,q) on the projective line (q odd, q != 9).

    Enumerates all linear characters of the Borel stabilizer, detects the
    two that radicalize to Higman pairs (trivial and quadratic-residue),
    builds the C_4 roux for the latter, and certifies the resulting
    (q+1, (q+1)/2) line sets, real exactly when q = 1 mod 4.
    """
    if q > SL2_MAX_Q:
        raise UnsupportedFamilyError(f"q = {q} exceeds the desk-scale cap {SL2_MAX_Q}")
    p, _ = prime_power(q)
    if p == 2:
        raise UnsupportedFamilyError(
            f"q = {q} is even: no nontrivial doubly transitive lines exist for this family"
        )
    if q == 9:
        raise UnsupportedFamilyError(
            "q = 9 is unsupported: the projective group has an exceptional sixfold "
            "covering group, not SL(2,9); supply explicit cover data instead"
        )
    cover, x = sl2_cover(q)
    n = q + 1
    report = FamilyReport(family="psl2", q=q, n=n, characters=[], checks=[])
    chars = enumerate_linear_characters(cover.stab)
    report.check("character_count", len(chars) == q - 1, f"{len(chars)} characters, expected q-1")

    table = HigmanDecompositionTable(cover, x)
    certs = LineCertificates(tol)
    for idx, alpha in enumerate(chars):
        block = _process_character(table, alpha, idx, certs)
        report.characters.append(block)

    passing = [b for b in report.characters if b.higman]
    report.check(
        "detector_census",
        len(passing) == 2 and sorted(b.image_order for b in passing) == [1, 2],
        "trivial and quadratic-residue characters pass, no others",
    )

    trivial = next(b for b in passing if b.image_order == 1)
    report.check(
        "trivial_parameters",
        tuple(b for b in trivial.params) == trivial_parameters_closed_form(n).coeffs,
        "trivial character gives c = (n-2, 0)",
    )
    report.check(
        "trivial_dims",
        all(ls.dims() <= {1, n - 1} for ls in trivial.line_sets),
        "trivial-character lines span dimension 1 or n-1",
    )

    quad = next(b for b in passing if b.image_order == 2)
    expected = psl2_parameters_closed_form(q)
    report.check(
        "quadratic_parameters",
        tuple(quad.params) == expected.coeffs,
        f"C_4 parameters equal {expected.coeffs} exactly",
    )
    d = (q + 1) // 2
    for ls in quad.line_sets:
        if ls.k % 2 == 1:
            # a passed certificate meets the Welch bound at its own d
            report.check(
                f"etf_k{ls.k}",
                ls.etf.passed and ls.etf.d == d,
                f"k={ls.k}: ({n},{d}) frame at the Welch bound",
            )
            report.check(
                f"real_k{ls.k}",
                ls.real_algebraic == ls.real_numeric == (q % 4 == 1),
                f"k={ls.k}: realness matches q mod 4",
            )
    report.check(
        "real_cross_validation",
        all(ls.real_algebraic == ls.real_numeric for b in passing for ls in b.line_sets),
        "algebraic and numeric realness agree on every line set",
    )
    return report


def su3_family(q: int, allow_large: bool = False, tol: Tolerances = Tolerances()) -> FamilyReport:
    """Full pipeline for SU(3,q) on its q^3 + 1 isotropic lines (q > 2).

    Detector passes exactly for the q+1 characters whose image order
    divides q+1; each nontrivial one yields a C_{2r'} roux compressing to
    C_{r'} with the closed-form parameters, and (q^3+1, q^2-q+1) line
    sets, real exactly on the order-2 branch (q odd).
    """
    if q <= 2:
        raise UnsupportedFamilyError("q = 2 is outside the unitary family's range (q > 2)")
    if q > SU3_DEFAULT_MAX_Q and not allow_large:
        raise UnsupportedFamilyError(
            f"q = {q} exceeds the default cap {SU3_DEFAULT_MAX_Q}; pass allow_large=True"
        )
    prime_power(q)
    cover, x, eta_b0 = su3_cover(q)
    n = q**3 + 1
    report = FamilyReport(family="psu3", q=q, n=n, characters=[], checks=[])
    report.check("stabilizer_order", cover.stab.order == q**3 * (q * q - 1), f"|G0| = {cover.stab.order}")
    chars = enumerate_linear_characters(cover.stab)
    report.check(
        "character_count", len(chars) == q * q - 1, f"{len(chars)} characters, expected q^2 - 1"
    )

    table = HigmanDecompositionTable(cover, x)
    certs = LineCertificates(tol)
    for idx, alpha in enumerate(chars):
        prefer = None
        if alpha.modulus > 1:
            prefer = (2 * alpha.exponent(eta_b0)) % (2 * alpha.modulus)
        block = _process_character(
            table,
            alpha,
            idx,
            certs,
            compress_to=alpha.modulus if alpha.modulus > 1 else None,
            prefer_exponent=prefer,
        )
        report.characters.append(block)

    passing = [b for b in report.characters if b.higman]
    report.check(
        "detector_census",
        len(passing) == q + 1
        and all((q + 1) % b.image_order == 0 for b in passing)
        and all((q + 1) % b.image_order != 0 or b.higman for b in report.characters),
        "exactly the characters with image order dividing q+1 pass",
    )

    d = q * q - q + 1
    mu = welch_bound(n, d)
    for block in passing:
        r_prime = block.image_order
        if r_prime == 1:
            report.check(
                "trivial_dims",
                all(ls.dims() <= {1, n - 1} for ls in block.line_sets),
                "trivial-character lines span dimension 1 or n-1",
            )
            continue
        expected = psu3_parameters_closed_form(q, r_prime)
        report.check(
            f"parameters_rprime{r_prime}_idx{block.index}",
            tuple(block.working_params) == expected.coeffs,
            f"compressed C_{r_prime} parameters equal {expected.coeffs} exactly",
        )
        for ls in block.line_sets:
            if ls.k == 0:
                continue
            dims = ls.dims()
            cert = ls.etf if ls.etf.d == d else ls.complement
            report.check(
                f"etf_rprime{r_prime}_idx{block.index}_k{ls.k}",
                d in dims and cert is not None and cert.passed,
                f"({n},{d}) frame at the Welch bound, mu = {mu:.6f}",
            )
            expected_real = (2 * ls.k) % r_prime == 0
            report.check(
                f"real_rprime{r_prime}_idx{block.index}_k{ls.k}",
                ls.real_algebraic == ls.real_numeric == expected_real,
                "real exactly on the order-2 character branch",
            )
    report.check(
        "realness_requires_odd_q",
        (q % 2 == 1) == any(ls.real_algebraic for b in passing if b.image_order > 1 for ls in b.line_sets if ls.k),
        "a real nontrivial branch exists iff q is odd",
    )
    return report


# ---------------------------------------------------------------------------
# negative witnesses


@dataclass
class WitnessReport(CheckedReport):
    family: str
    label: str
    checks: list
    notes: list

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "family": self.family,
            "label": self.label,
            "checks": self.checks,
            "notes": self.notes,
            "passed": self.passed,
        }


def suzuki_refutation(q: int) -> WitnessReport:
    """Witness computation showing the Suzuki stabilizer's characters all
    fail the Higman detector.

    Verifies the defining relations of the one-point stabilizer and the
    conjugation identity x eta_h x^{-1} = eta_{h^{-1}} for every h; since
    q - 1 is odd, every nontrivial character of F_q^x takes distinct
    values on some h and h^{-1}, so no nontrivial character can pass.
    """
    p, k = prime_power(q)
    if p != 2 or k % 2 == 0 or k < 3:
        raise FamilyError(f"q = {q} is not an odd power 2^(2m+1) > 2")
    m = (k - 1) // 2
    t = 2 ** (m + 1)
    spec = FieldSpec(2, k)
    ops = MatOps(spec, 4)

    def xi(a, b):
        at = spec.pow(a, t)
        row3 = (
            spec.add(spec.add(spec.pow(a, 2 + t), spec.mul(a, b)), spec.pow(b, t)),
            spec.add(spec.pow(a, t + 1), b),
            a,
            1,
        )
        return ((1, 0, 0, 0), (a, 1, 0, 0), (b, at, 1, 0), row3)

    def eta(e):
        h = 2**m
        return (
            (spec.pow(e, 1 + h), 0, 0, 0),
            (0, spec.pow(e, h), 0, 0),
            (0, 0, spec.inv(spec.pow(e, h)), 0),
            (0, 0, 0, spec.inv(spec.pow(e, 1 + h))),
        )

    x = tuple(tuple(1 if i + j == 3 else 0 for j in range(4)) for i in range(4))

    report = WitnessReport("suzuki", f"Sz({q})", [], [])
    rng = random.Random(WITNESS_RNG_SEED)
    if q <= 8:
        cases = [(a, b, f, g) for a in range(q) for b in range(q) for f in range(q) for g in range(q)]
        # full sweep at this scale would be q^4 = 4096 pairs; sample evenly
        cases = cases[:: max(1, len(cases) // WITNESS_SAMPLES)]
    else:
        cases = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(WITNESS_SAMPLES)]
    ok = all(
        ops.mul(xi(a, b), xi(f, g))
        == xi(spec.add(a, f), spec.add(spec.add(b, g), spec.mul(spec.pow(a, t), f)))
        for (a, b, f, g) in cases
    )
    report.check("unipotent_product_rule", ok, f"checked {len(cases)} pairs exactly")

    conj_cases = [
        (e, a, b)
        for e in range(1, q)
        for (a, b) in [(rng.randrange(q), rng.randrange(q)) for _ in range(3)]
    ]
    ok = all(
        ops.mul(ops.mul(ops.inv(eta(e)), xi(a, b)), eta(e))
        == xi(spec.mul(e, a), spec.mul(spec.pow(e, t + 1), b))
        for (e, a, b) in conj_cases
    )
    report.check("torus_conjugation_rule", ok, f"checked {len(conj_cases)} triples exactly")

    xinv = ops.inv(x)
    ok = all(ops.mul(ops.mul(x, eta(h)), xinv) == eta(spec.inv(h)) for h in range(1, q))
    report.check("inversion_identity", ok, f"x eta_h x^-1 = eta_(h^-1) for all {q - 1} values of h")

    # q-1 odd: every nontrivial exponent-l character separates some h from h^-1
    modulus = q - 1
    ok = all(
        any((2 * level * j) % modulus for j in range(1, modulus))
        for level in range(1, modulus)
    )
    report.check(
        "no_symmetric_nontrivial_character",
        ok and modulus % 2 == 1,
        "q-1 odd: every nontrivial character of F_q^x separates some h from h^-1",
    )
    if q == 8:
        report.notes.append(
            "q = 8 has a nontrivial covering group; this witness covers only the "
            "identity-cover computation, and the full conclusion needs external cover data"
        )
    else:
        report.notes.append(
            "covering group assumed equal to the group itself (trivial multiplier for q > 8); "
            "with that input, no nontrivial character passes the detector"
        )
    return report


def ree_refutation(q: int) -> WitnessReport:
    """Witness computation for the Ree family: every detector-passing
    character is real-valued, and a self-inverse x outside the stabilizer
    forces the corresponding lines to be real."""
    p, k = prime_power(q)
    if p != 3 or k % 2 == 0:
        raise FamilyError(f"q = {q} is not an odd power 3^(2m+1)")
    m = (k - 1) // 2
    t = 3**m
    spec = FieldSpec(3, k)
    ops = MatOps(spec, 7)

    def P(a, e):
        return spec.pow(a, e)

    def N(a):
        return spec.neg(a)

    def xi_a(a):
        return (
            (1, P(a, t), 0, 0, N(P(a, 3 * t + 1)), N(P(a, 3 * t + 2)), P(a, 4 * t + 2)),
            (0, 1, a, P(a, t + 1), N(P(a, 2 * t + 1)), 0, N(P(a, 3 * t + 2))),
            (0, 0, 1, P(a, t), N(P(a, 2 * t)), 0, P(a, 3 * t + 1)),
            (0, 0, 0, 1, P(a, t), 0, 0),
            (0, 0, 0, 0, 1, N(a), P(a, t + 1)),
            (0, 0, 0, 0, 0, 1, N(P(a, t))),
            (0, 0, 0, 0, 0, 0, 1),
        )

    def xi_b(b):
        bt = P(b, t)
        return (
            (1, 0, N(bt), 0, N(b), 0, N(spec.mul(bt, b))),
            (0, 1, 0, bt, 0, N(P(b, 2 * t)), 0),
            (0, 0, 1, 0, 0, 0, b),
            (0, 0, 0, 1, 0, bt, 0),
            (0, 0, 0, 0, 1, 0, bt),
            (0, 0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 0, 1),
        )

    def xi_c(c):
        ct = P(c, t)
        return (
            (1, 0, 0, N(ct), 0, N(c), N(P(c, 2 * t))),
            (0, 1, 0, 0, N(ct), 0, c),
            (0, 0, 1, 0, 0, ct, 0),
            (0, 0, 0, 1, 0, 0, N(ct)),
            (0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 0, 1),
        )

    def xi(a, b, c):
        return ops.mul(ops.mul(xi_a(a), xi_b(b)), xi_c(c))

    def eta(e):
        d = [P(e, t), spec.mul(e, spec.inv(P(e, t))), 0, 1, 0, 0, 0]
        d[2] = spec.mul(P(e, 2 * t), spec.inv(e))  # e^(2t-1)
        d[4] = spec.inv(d[2])
        d[5] = spec.inv(d[1])
        d[6] = spec.inv(d[0])
        out = [[0] * 7 for _ in range(7)]
        for i in range(7):
            out[i][i] = d[i]
        return tuple(tuple(row) for row in out)

    x = tuple(tuple(N(1) if i + j == 6 else 0 for j in range(7)) for i in range(7))

    report = WitnessReport("ree", f"2G2({q})", [], [])
    rng = random.Random(WITNESS_RNG_SEED)
    if q == 3:
        prods = [(a, b, c, f, g, h) for a in range(3) for b in range(3) for c in range(3)
                 for f in range(3) for g in range(3) for h in range(3)]
        prods = prods[:: max(1, len(prods) // WITNESS_SAMPLES)]
    else:
        prods = [tuple(rng.randrange(q) for _ in range(6)) for _ in range(WITNESS_SAMPLES)]

    def expected_product(a, b, c, f, g, h):
        a2 = spec.add(a, f)
        b2 = spec.add(spec.add(b, g), N(spec.mul(a, P(f, 3 * t))))
        c2 = spec.add(
            spec.add(c, h),
            spec.add(
                N(spec.mul(f, b)),
                spec.add(spec.mul(a, P(f, 3 * t + 1)), N(spec.mul(spec.mul(a, a), P(f, 3 * t)))),
            ),
        )
        return xi(a2, b2, c2)

    ok = all(
        ops.mul(xi(a, b, c), xi(f, g, h)) == expected_product(a, b, c, f, g, h)
        for (a, b, c, f, g, h) in prods
    )
    report.check("unipotent_product_rule", ok, f"checked {len(prods)} products exactly")

    inv_cases = prods[: max(1, len(prods) // 2)]
    ok = all(
        ops.inv(xi(a, b, c))
        == xi(N(a), spec.add(N(b), N(P(a, 3 * t + 1))), spec.add(N(c), spec.add(N(spec.mul(a, b)), P(a, 3 * t + 2))))
        for (a, b, c, _, _, _) in inv_cases
    )
    report.check("unipotent_inverse_rule", ok, f"checked {len(inv_cases)} inverses exactly")

    conj_cases = [(e, *rng.choices(range(q), k=3)) for e in range(1, q) for _ in range(2)]
    ok = all(
        ops.mul(ops.mul(ops.inv(eta(e)), xi(a, b, c)), eta(e))
        == xi(
            spec.mul(spec.mul(P(e, 3 * t), spec.inv(spec.mul(e, e))), a),  # e^(3t-2) a
            spec.mul(spec.mul(e, spec.inv(P(e, 3 * t))), b),  # e^(1-3t) b
            spec.mul(spec.inv(e), c),
        )
        for (e, a, b, c) in conj_cases
    )
    report.check("torus_conjugation_rule", ok, f"checked {len(conj_cases)} conjugations exactly")

    xinv = ops.inv(x)
    ok = all(ops.mul(ops.mul(x, eta(e)), xinv) == eta(spec.inv(e)) for e in range(1, q))
    report.check("inversion_identity", ok, f"x eta_e x^-1 = eta_(e^-1) for all {q - 1} values of e")
    report.check("x_is_involution", ops.mul(x, x) == ops.identity, "x = x^-1")

    report.notes.append(
        "the inversion identity forces any detector-passing character to be real-valued, "
        "and the self-inverse x then makes every surviving line set real"
    )
    if q == 3:
        report.notes.append(
            "q = 3 has a nontrivial covering group; the identity-cover computation here "
            "does not decide that case without external cover data"
        )
    else:
        report.notes.append(
            "covering group assumed equal to the group itself (trivial multiplier for q > 3)"
        )
    return report


class BitMatOps:
    """Square matrices over F_2 as tuples of row bitmasks.

    Row i is the image of basis vector e_i; vectors are bitmask ints and
    apply(M, u) expands u over the basis.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.identity = tuple(1 << i for i in range(dim))
        self._dtype = np.min_scalar_type((1 << dim) - 1)

    def apply(self, M, u: int) -> int:
        acc = 0
        i = 0
        while u:
            if u & 1:
                acc ^= M[i]
            u >>= 1
            i += 1
        return acc

    def mul(self, A, B):
        # composition: apply (A then nothing) after B's basis images
        return tuple(self.apply(A, B[i]) for i in range(self.dim))

    def inv(self, A):
        n = self.dim
        rows = [A[i] | (1 << (n + i)) for i in range(n)]
        for col in range(n):
            pivot = next(r for r in range(col, n) if rows[r] >> col & 1)
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(n):
                if r != col and rows[r] >> col & 1:
                    rows[r] ^= rows[col]
        return tuple(row >> n for row in rows)

    def batch(self, H):
        # row j holds row j of every matrix in H
        return np.array(H, dtype=self._dtype).reshape(len(H), self.dim).T.copy()

    def batch_mul(self, batch, B):
        # row i of h B is the XOR of the rows of h that the bits of B[i] pick
        rows = [
            np.bitwise_xor.reduce(batch[[j for j in range(self.dim) if u >> j & 1]], axis=0).tolist()
            for u in B
        ]
        return list(zip(*rows))


def symplectic_witness(m: int, epsilon: int) -> WitnessReport:
    """Witness that the symplectic two-transitive actions only yield real
    lines: a symplectic transvection outside the orthogonal stabilizer
    squares to the identity, and (for m = 3, verified; m = 4, recorded)
    the stabilizer's linear characters are all real-valued.
    """
    if m < 3:
        raise FamilyError("m must be at least 3")
    if m > SP_MAX_M:
        raise UnsupportedFamilyError(f"m = {m} exceeds the desk-scale cap {SP_MAX_M}")
    if epsilon not in (+1, -1):
        raise FamilyError("epsilon must be +1 or -1")
    dim = 2 * m
    ops = BitMatOps(dim)
    mask = (1 << m) - 1

    def swap_halves(u: int) -> int:
        return (u >> m) | ((u & mask) << m)

    def sform(u: int, v: int) -> int:
        return bin(u & swap_halves(v)).count("1") & 1

    def Q(u: int) -> int:
        val = bin((u & mask) & (u >> m)).count("1") & 1
        if epsilon < 0:
            val ^= ((u ^ (u >> m)) & 1)
        return val

    label = f"Sp({dim},2) / O{'+' if epsilon > 0 else '-'}({dim},2)"
    report = WitnessReport("symplectic", label, [], [])
    n = 2 ** (2 * m - 1) + epsilon * 2 ** (m - 1)
    report.notes.append(f"doubly transitive action on {n} points")

    def transvection(w: int):
        return tuple((1 << j) ^ (w if sform(1 << j, w) else 0) for j in range(dim))

    # witness vector: first nonzero singular vector in canonical order
    w = next(u for u in range(1, 1 << dim) if Q(u) == 0)
    tau = transvection(w)
    report.check(
        "tau_symplectic",
        all(
            sform(ops.apply(tau, 1 << i), ops.apply(tau, 1 << j)) == sform(1 << i, 1 << j)
            for i in range(dim)
            for j in range(dim)
        ),
        "tau preserves the symplectic form",
    )
    report.check("tau_involution", ops.mul(tau, tau) == ops.identity, "tau^2 = 1")
    breaks = [u for u in range(1 << dim) if Q(ops.apply(tau, u)) != Q(u)]
    report.check(
        "tau_outside_stabilizer",
        len(breaks) > 0,
        f"tau moves the quadratic form ({len(breaks)} witnesses)",
    )

    if m == 3:
        singular_units = [u for u in range(1, 1 << dim) if Q(u) == 1]
        O = closure(sorted(transvection(v) for v in singular_units), ops)
        sp_order = 2 ** (m * m)
        for i in range(1, m + 1):
            sp_order *= 4**i - 1
        report.check(
            "stabilizer_order",
            O.order == sp_order // n,
            f"|O| = {O.order} matches the point count {n}",
        )
        ok = all(Q(ops.apply(g, u)) == Q(u) for g in O.generators for u in range(1 << dim))
        report.check("stabilizer_preserves_form", ok, "generators preserve the quadratic form")
        D = derived_subgroup(O)
        report.check(
            "derived_index_two",
            O.order == 2 * D.order,
            f"[O : O'] = {O.order // D.order}",
        )
        report.notes.append(
            "index-2 derived subgroup: every linear character of the stabilizer is real-valued; "
            "with the self-inverse tau, every line set admitting this symmetry is real"
        )
    else:
        report.notes.append(
            "index-2 derived subgroup recorded as a known input for m > 3 (not enumerated); "
            "the same real-lines conclusion follows"
        )
    return report
