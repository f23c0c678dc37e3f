"""Brute-force reference checks, kept apart from the production path.

Each function here recomputes, straight from a definition, something the
library computes faster elsewhere or only proves: matrix products over a
finite field from polynomial arithmetic alone, the closure of a
generating set, the action axioms on generator products, the point
stabilizer and the covering kernel by acting with every element, double
transitivity, double cosets and their decompositions, the per-cell
roux, the parameter count over all of G0* and the Higman-pair test on
all of G01*, the groups of a radicalization and the normalizer of H,
the Higman-pair test and axioms, the roux identity and inverse-symmetry
checked cell by cell, the idempotent Gram of a roux, a family's line-set
records with every set certified from its own signature matrix, and the
two-graph of a real line sequence read off its triple products.
Tests compare the fast paths against them on small cases, and
``gram_vectors`` builds their frame inputs.
No other rouxforge module imports this one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import LineSetError, LineSetRecord
from .field import FieldSpec, _poly_mul_mod
from .group import (
    FiniteGroup,
    GroupAction,
    GroupError,
    direct_product_with_cyclic,
    is_doubly_transitive,
    stabilizer,
)
from .lines import (
    LineGram,
    LinesError,
    TwoGraph,
    check_signature,
    gram_from_signature,
    is_real_line_sequence,
    naimark_complement,
    verify_etf,
)
from .radical import CoverData, HigmanDecompositionTable, Key, RadicalError, Radicalization
from .roux import (
    RouxIdentityError,
    RouxMatrix,
    RouxParameters,
    idempotent_data,
    is_real_lines,
    signature_matrix,
    verify_roux,
)

RANK_RTOL = 1e-6


# ---------------------------------------------------------------------------
# groups


def matrix_product_poly(spec: FieldSpec, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple:
    """The product a b of matrices of field codes, each entry summed from
    the polynomial products of the decoded entries, reduced mod f and p:
    no field table and no FieldSpec arithmetic."""
    p, k = spec.p, spec.k
    out = []
    for row in a:
        entries = []
        for col in zip(*b):
            acc = [0] * k
            for x, y in zip(row, col):
                prod = _poly_mul_mod(spec.decode(x), spec.decode(y), spec.irreducible, p)
                acc = [(s + t) % p for s, t in zip(acc, prod)]
            entries.append(spec.encode(acc))
        out.append(tuple(entries))
    return tuple(out)


def closure_bfs(generators: Sequence, ops) -> FiniteGroup:
    """Breadth-first closure: every element times every generator."""
    els = {ops.identity}
    frontier = [ops.identity]
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                c = ops.mul(a, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return FiniteGroup(ops, els, generators)


def check_action_axioms(action: GroupAction) -> None:
    """The action axioms that ``GroupAction`` proves, checked on the points:
    the identity fixes each, and g h acts as g after h for every pair of
    generators (their point permutations composed)."""
    ops, points = action.group.ops, action.points
    for p in points:
        if action.act(ops.identity, p) != p:
            raise GroupError("identity does not act trivially")
    gens, perms = action.group.generators, action.generator_perms
    for g, g_perm in zip(gens, perms):
        for h, h_perm in zip(gens, perms):
            gh = ops.mul(g, h)
            if [action.act(gh, p) for p in points] != [points[i] for i in g_perm[h_perm]]:
                raise GroupError("action incompatible with multiplication")


def stabilizer_scan(action: GroupAction, point) -> FiniteGroup:
    """Point stabilizer by definition: act with every element on the point."""
    G = action.group
    return G.subgroup([g for g in G.elements if action.act(g, point) == point])


def covering_kernel_scan(cover: CoverData) -> list:
    """The stabilizer elements that fix every point, by acting with each
    on each point."""
    act, points = cover.action.act, cover.action.points
    return [s for s in cover.stab.elements if all(act(s, p) == p for p in points)]


def is_doubly_transitive_bruteforce(action: GroupAction) -> bool:
    """Definition-level oracle: every ordered pair maps to every other."""
    G = action.group
    pts = action.points
    pairs = {(p, q) for p in pts for q in pts if p != q}
    if not pairs:
        return False
    base = next(iter(sorted(pairs)))
    reached = {(action.act(g, base[0]), action.act(g, base[1])) for g in G.elements}
    return reached == pairs


def double_coset_decomposition(G: FiniteGroup, H: FiniteGroup) -> list[list]:
    """Partition of G into double cosets HxH, cells sorted by min element."""
    assigned: dict = {}
    cells = []
    for g in G.elements:
        if g in assigned:
            continue
        members = sorted({G.mul(G.mul(h1, g), h2) for h1 in H.elements for h2 in H.elements})
        cells.append(members)
        for m in members:
            assigned[m] = True
    cells.sort(key=lambda cell: cell[0])
    return cells


def coset_action(G: FiniteGroup, K: FiniteGroup) -> GroupAction:
    """Left multiplication action of G on left cosets xK (keyed by min element)."""
    rep_of: dict = {}
    reps = []
    for g in G.elements:
        if g in rep_of:
            continue
        members = sorted(G.mul(g, k) for k in K.elements)
        r = members[0]
        reps.append(r)
        for m in members:
            rep_of[m] = r
    return GroupAction(G, reps, lambda g, p: rep_of[G.mul(g, p)])


def normalizer(G: FiniteGroup, H: FiniteGroup) -> list:
    """The g in G with g h g^{-1} in H for every h in H, in G's order."""
    hset = set(H.elements)
    return [g for g in G.elements if all(G.mul(G.mul(g, h), G.inv(g)) in hset for h in H.elements)]


# ---------------------------------------------------------------------------
# Higman pairs


def radicalization_groups(rad: Radicalization) -> tuple:
    """The explicit (G~*, H, G~0*) of a radicalization of a materialized
    cover: G* x C_r, H = {(xi, alpha(xi)^{-1})} and G0* x C_r."""
    G = rad.cover.group
    if G is None:
        raise RadicalError("cover group not materialized")
    r = rad.r
    Gt = direct_product_with_cyclic(G, r)
    stab = rad.cover.stab.elements
    H = Gt.subgroup([(xi, -rad.alpha_exp_r(xi) % r) for xi in stab])
    Gt0 = Gt.subgroup([(xi, z) for xi in stab for z in range(r)])
    return Gt, H, Gt0


def double_coset_scan(cover: CoverData, x, y) -> list[tuple]:
    """Every decomposition y = xi x eta with xi, eta in the stabilizer,
    found by trying each xi in turn."""
    ops = cover.ops
    xinv = ops.inv(x)
    found = []
    for xi in cover.stab.elements:
        eta = ops.mul(ops.mul(xinv, ops.inv(xi)), y)
        if eta in cover.stab:
            found.append((xi, eta))
    return found


def detect_higman_scan(cover: CoverData, alpha, x) -> bool:
    """The Higman-pair test by scanning the stabilizer: alpha(x xi x^{-1})
    = alpha(xi) for every xi in G0* whose x-conjugate stays in G0*."""
    if x in cover.stab:
        raise RadicalError("x lies in the stabilizer")
    ops = cover.ops
    xinv = ops.inv(x)
    for xi in cover.stab.elements:
        y = ops.mul(ops.mul(x, xi), xinv)
        if y in cover.stab and alpha.exponent(y) != alpha.exponent(xi):
            return False
    return True


class PerCellTable:
    """The double-coset data the monomial construction replaced: one
    decomposition of x_i^{-1} x_j per roux cell (``cells``), the pairs
    (s, x^{-1} s x) for every s in G0* fixing x.b (``g01``, a scan of
    G0*), and (zeta, xi, eta) with x zeta x^{-1} = xi x eta for every
    zeta in G0* whose conjugate leaves G0* (``zeta_decomps``).
    Decompositions and transversal come from ``table``."""

    def __init__(self, table: HigmanDecompositionTable):
        cover, x, xinv = table.cover, table.x, table.xinv
        ops, action = cover.ops, cover.action
        self.table = table
        self.reps = reps = table.reps
        n = len(reps)
        self.cells = {
            (i, j): table.decompose(ops.mul(ops.inv(reps[i]), reps[j]))
            for i in range(n)
            for j in range(n)
            if i != j
        }
        xb = action.act(x, cover.base_point)
        self.g01 = []
        self.zeta_decomps = []
        for s in cover.stab.elements:
            if action.act(s, xb) == xb:
                t = ops.mul(ops.mul(xinv, s), x)
                if t not in cover.stab:
                    raise RadicalError("stabilizer list is incomplete: x^-1 s x fixes b but is not listed")
                self.g01.append((s, t))
            y = ops.mul(ops.mul(x, s), xinv)
            if y not in cover.stab:
                self.zeta_decomps.append((s,) + table.decompose(y))


def detect_higman_g01_scan(old: PerCellTable, alpha) -> bool:
    """alpha(s) = alpha(x^{-1} s x) on every element of G01*."""
    return all(alpha.exponent(s) == alpha.exponent(t) for s, t in old.g01)


def roux_from_cells(rad: Radicalization, key: Key, old: PerCellTable) -> RouxMatrix:
    """The roux filled cell by cell, each from its stored decomposition."""
    if not detect_higman_g01_scan(old, rad.alpha):
        raise RadicalError("double-coset lookup is ambiguous")
    n, r = rad.n, rad.r
    exps = [[0] * n for _ in range(n)]
    for (i, j), (xi, eta) in old.cells.items():
        exps[i][j] = (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta) - key.z_exponent) % r
    return RouxMatrix(n, r, exps)


def params_from_stabilizer_scan(rad: Radicalization, key: Key, old: PerCellTable) -> RouxParameters:
    """c_w = (n-1)/|G0*| * #{zeta : x zeta x^{-1} = xi x eta and
    alpha(xi eta zeta^{-1}) z^{-1} = w}, counted over G0*."""
    if not detect_higman_g01_scan(old, rad.alpha):
        raise RadicalError("double-coset lookup is ambiguous")
    r = rad.r
    counts = [0] * r
    for zeta, xi, eta in old.zeta_decomps:
        w = (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta) - rad.alpha_exp_r(zeta) - key.z_exponent) % r
        counts[w] += 1
    size = rad.cover.stab.order
    if any((rad.n - 1) * c % size for c in counts):
        raise RadicalError("parameter count is not integral")
    return RouxParameters(rad.n, r, [(rad.n - 1) * c // size for c in counts])


@dataclass
class HigmanAxiomReport:
    """Outcome of the literal H1-H5 check."""

    axioms: dict
    first_failure: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(self.axioms.values())


def verify_higman_axioms(G: FiniteGroup, H: FiniteGroup, b) -> HigmanAxiomReport:
    """Brute-force check of the Higman pair axioms for (G, H) with key b.

    K is the normalizer of H.  Checks, literally: double transitivity of
    G on G/K, K/H abelian, HbH = Hb^{-1}H, conjugation-stability of HbH
    under K, and the cancellation axiom.  Stops recording at the first
    failing axiom but evaluates all five.
    """
    hset = set(H.elements)
    K_members = normalizer(G, H)
    K = G.subgroup(K_members)
    kset = set(K_members)
    if b in kset:
        raise RadicalError("key must lie outside the normalizer of H")

    axioms = {}
    first_failure = None

    def record(name: str, ok: bool):
        nonlocal first_failure
        axioms[name] = ok
        if not ok and first_failure is None:
            first_failure = name

    act = coset_action(G, K)
    record("H1", is_doubly_transitive(act, CoverData(act, stabilizer(act, act.points[0])).stab_action))
    record(
        "H2",
        all(
            G.mul(G.inv(G.mul(bb, a)), G.mul(a, bb)) in hset
            for a in K_members
            for bb in K_members
        ),
    )

    def double_coset(el):
        return {G.mul(G.mul(h1, el), h2) for h1 in H.elements for h2 in H.elements}

    HbH = double_coset(b)
    record("H3", HbH == double_coset(G.inv(b)))
    record("H4", all(G.mul(G.mul(a, b), G.inv(a)) in HbH for a in K_members))
    record("H5", all(a in hset for a in K_members if G.mul(a, b) in HbH))
    return HigmanAxiomReport(axioms, first_failure)


# ---------------------------------------------------------------------------
# roux


def first_r3_failure_loop(exps: np.ndarray, r: int) -> Optional[tuple]:
    """First cell (i, j), i < j, in row-major order whose exponents do not
    add up to 0 mod r; None if inverse-symmetry holds."""
    n = len(exps)
    for i in range(n):
        for j in range(i + 1, n):
            if (exps[i][j] + exps[j][i]) % r != 0:
                return (i, j)
    return None


def verify_roux_loop(B: RouxMatrix) -> RouxParameters:
    """The roux identity checked with r^2 integer matmuls and a loop over
    every cell, diagonal cells first."""
    n, r = B.n, B.r
    off = ~np.eye(n, dtype=bool)
    hot = [((B.exps == s) & off).astype(np.int64) for s in range(r)]
    # square[s][i,j] = coefficient of exponent s in (B^2)_{ij}
    square = [np.zeros((n, n), dtype=np.int64) for _ in range(r)]
    for u in range(r):
        for v in range(r):
            square[(u + v) % r] += hot[u] @ hot[v]
    # diagonal must be (n-1) * identity of the algebra
    for i in range(n):
        for s in range(r):
            expected = n - 1 if s == 0 else 0
            if square[s][i, i] != expected:
                raise RouxIdentityError(
                    f"(B^2) diagonal cell ({i},{i}) is not (n-1)*identity", cell=(i, i)
                )
    if n < 2:
        raise RouxIdentityError("roux needs n >= 2")
    # read parameters off cell (0,1): (B^2)_{ij} must equal sum_w c_w (w + B_ij)
    base = int(B.exps[0, 1])
    c = [int(square[(w + base) % r][0, 1]) for w in range(r)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = int(B.exps[i, j])
            for w in range(r):
                if square[(w + e) % r][i, j] != c[w]:
                    raise RouxIdentityError(
                        f"B^2 identity fails at cell ({i},{j})", cell=(i, j)
                    )
    return RouxParameters(n, r, c)


# ---------------------------------------------------------------------------
# idempotent Grams


def gram_from_idempotent(
    B: RouxMatrix, k: int, eps: int, params: Optional[RouxParameters] = None
) -> np.ndarray:
    """The rn x rn idempotent Gram at character k and sign branch eps.

    Columns are indexed (line, exponent) with the line index major; rank
    equals the d of ``idempotent_data`` (each line appears r times).
    """
    if params is None:
        params = verify_roux(B)
    n, r = B.n, B.r
    plus, minus = idempotent_data(params, k)
    mu = plus.mu if eps > 0 else minus.mu
    inner = np.eye(n, dtype=complex) + mu * signature_matrix(B, (-k) % r)
    w = np.exp(2j * np.pi * (np.arange(r) * k % r) / r)
    F = np.outer(w, w.conj())
    return np.kron(inner, F)


def matrix_rank_by_threshold(M: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank with singular values below rtol * sigma_max counted as zero."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > rtol * s[0]).sum())


def idempotency_residual(G: np.ndarray) -> float:
    """max |G^2 - cG| for the scale c that makes G/c a projection."""
    tr = np.trace(G).real
    tr2 = np.trace(G @ G).real
    if abs(tr) < 1e-12:
        return float("inf")
    c = tr2 / tr
    return float(np.max(np.abs(G @ G - c * G)))


# ---------------------------------------------------------------------------
# lines and two-graphs


def line_set_records_uncached(B: RouxMatrix, params: RouxParameters, index: int) -> list[LineSetRecord]:
    """The line-set records of a family's (working) roux B with parameters
    ``params``, built from character ``index`` at the default tolerances:
    every k certified from its own ``signature_matrix(B, k)``, with no
    certificate shared between sets, and the idempotent ranks and
    algebraic realness computed per k."""
    records = []
    n, r = B.n, B.r
    for k in range(r):
        plus, minus = idempotent_data(params, k)
        S = signature_matrix(B, k)
        try:
            gram = gram_from_signature(S)
            cert = verify_etf(gram)
            comp_cert = verify_etf(naimark_complement(gram)) if gram.d < n else None
        except LinesError as exc:
            raise LineSetError(f"character {index}, k = {k}: {exc}") from exc
        records.append(
            LineSetRecord(
                k=k,
                d_plus=plus.d,
                d_minus=minus.d,
                signature_rank=gram.d,
                real_algebraic=is_real_lines(params, k),
                real_numeric=is_real_line_sequence(S) if k else True,
                etf=cert,
                complement=comp_cert,
            )
        )
    return records


def gram_vectors(gram: LineGram) -> np.ndarray:
    """A d x n matrix Phi with Phi* Phi equal to the Gram: unit-norm
    vectors spanning the lines, from its d largest eigenvalues."""
    w, V = np.linalg.eigh(gram.matrix)
    keep = slice(gram.n - gram.d, None)
    return np.sqrt(w[keep])[:, None] * V[:, keep].conj().T


def two_graph_from_lines(S: np.ndarray) -> TwoGraph:
    """Triples with signature triple product -1 (real lines only).

    Triple products are independent of the choice of representatives, so
    they are read off the signature matrix directly.
    """
    S = check_signature(S)
    if not is_real_line_sequence(S):
        raise LinesError("two-graphs require a real line sequence")
    n = S.shape[0]
    triples = set()
    for i, j, k in itertools.combinations(range(n), 3):
        prod = (S[i, j] * S[j, k] * S[k, i]).real
        if abs(abs(prod) - 1) > 1e-6:
            raise LinesError("triple product is not unimodular")
        if prod < 0:
            triples.add(frozenset((i, j, k)))
    tg = TwoGraph(n, frozenset(triples))
    tg.check_parity()
    return tg
