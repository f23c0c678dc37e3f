"""Radicalization of a covered doubly transitive action, Higman-pair
detection, key finding, and roux construction.

The setting: a group G acting doubly transitively on n points, a cover
G* whose action on the points has central kernel, the stabilizer G0* of
a base point, and a linear character alpha on G0* with image C_{r'}.
Setting r = 2r', the product G* x C_r together with
H = {(xi, alpha(xi)^{-1})} is the radicalization; when it is a Higman
pair, its Schurian scheme is a roux scheme over C_r and the machinery
here extracts the roux and its parameters without ever materializing
the product group.

Exponent bookkeeping: characters store exponents mod r' (so alpha(xi)
is the root of unity with exponent 2*alpha_exp mod r inside C_r), and
all C_r elements are integers mod r.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from .cycalg import GroupAlgebraElement
from .group import (
    FiniteGroup,
    GroupAction,
    LinearCharacter,
    direct_product_with_cyclic,
    stabilizer,
)
from .roux import RouxMatrix, RouxParameters, verify_roux

NORMALIZER_VERIFY_CAP = 10**4


class RadicalError(ValueError):
    pass


class CoverData:
    """A cover G* of a permutation group G, presented through its action.

    ``action`` is the action of G* on the base point set (its kernel is
    the kernel of the covering projection, required central), and
    ``stab`` is the full stabilizer of ``base_point`` in G*.  The
    projection onto G is recovered as the induced point permutation.
    """

    def __init__(self, action: GroupAction, stab: FiniteGroup, base_point=None):
        action.check_compatibility()
        self.action = action
        self.stab = stab
        self.stab_set = set(stab.elements)
        self.base_point = action.points[0] if base_point is None else base_point
        self.ops = stab.ops

    @property
    def group(self) -> Optional[FiniteGroup]:
        G = self.action.group
        return G if isinstance(G, FiniteGroup) else None

    @property
    def n(self) -> int:
        return self.action.degree

    def projection(self, gkey) -> tuple:
        """The permutation of point indices induced by a cover element."""
        return self.action.permutation_of(gkey)

    def in_stabilizer(self, gkey) -> bool:
        return gkey in self.stab_set

    def first_outside_stabilizer(self):
        G = self.group
        if G is None:
            raise RadicalError("cover group not materialized; pass x explicitly")
        for g in G.elements:
            if g not in self.stab_set:
                return g
        raise RadicalError("group equals its stabilizer")

    def verify(self) -> None:
        """Check the covering invariants (materialized covers only)."""
        for s in self.stab.elements:
            if self.action.act(s, self.base_point) != self.base_point:
                raise RadicalError("stabilizer element moves the base point")
        G = self.group
        if G is None:
            return
        for g in G.elements:
            if g not in self.stab_set and self.action.act(g, self.base_point) == self.base_point:
                raise RadicalError("stabilizer list is incomplete")
        # projection is a homomorphism (spot check on generators)
        for a in G.generators:
            for b in G.generators:
                pa, pb = self.projection(a), self.projection(b)
                if self.projection(G.mul(a, b)) != tuple(pa[pb[i]] for i in range(len(pa))):
                    raise RadicalError("projection is not a homomorphism")
        # central kernel
        identity_perm = tuple(range(self.n))
        kernel = [g for g in G.elements if self.projection(g) == identity_perm]
        for z in kernel:
            for g in G.generators:
                if G.mul(z, g) != G.mul(g, z):
                    raise RadicalError("covering kernel is not central")


def cover_from_group(G: FiniteGroup, action: GroupAction, base_point=None) -> CoverData:
    """Cover data for a materialized group, stabilizer found by enumeration."""
    base = action.points[0] if base_point is None else base_point
    return CoverData(action, stabilizer(action, base), base)


@dataclass(frozen=True)
class Key:
    """A key (x, z) for a radicalization; z is an exponent in C_r."""

    x: object
    z_exponent: int
    r: int


@dataclass
class Radicalization:
    """The pair (G* x C_r, ker alpha~) for a cover and character.

    Stored symbolically: the product group is only materialized on
    demand.  ``alpha`` must be in reduced form (modulus = image order).
    """

    cover: CoverData
    alpha: LinearCharacter
    r: int = dataclass_field(init=False)

    def __post_init__(self):
        self.r = 2 * self.alpha.modulus

    @property
    def r_prime(self) -> int:
        return self.alpha.modulus

    @property
    def n(self) -> int:
        return self.cover.n

    def alpha_exp_r(self, gkey) -> int:
        """Exponent of alpha(g) inside C_r (always even)."""
        return (2 * self.alpha.exponent(gkey)) % self.r

    def h_elements(self) -> list:
        """ker alpha~ = {(xi, alpha(xi)^{-1})} as product-group keys."""
        return [(xi, (-self.alpha_exp_r(xi)) % self.r) for xi in self.cover.stab.elements]

    def order(self) -> int:
        G = self.cover.group
        if G is None:
            raise RadicalError("cover group not materialized")
        return G.order * self.r

    def materialize(self, cap: int = 10**6):
        """Explicit (G~*, H, G~0*) for brute-force work."""
        G = self.cover.group
        if G is None:
            raise RadicalError("cover group not materialized")
        Gt = direct_product_with_cyclic(G, self.r, cap)
        H = Gt.subgroup(self.h_elements())
        Gt0 = Gt.subgroup(
            [(xi, z) for xi in self.cover.stab.elements for z in range(self.r)]
        )
        return Gt, H, Gt0


def radicalize(cover: CoverData, alpha: LinearCharacter, verify: bool = True) -> Radicalization:
    """Build the radicalization, verifying the character and (when the
    product group is small enough) the normalizer identity N(H) = G~0*."""
    if verify:
        alpha.verify_homomorphism(cover.stab)
        missing = [g for g in cover.stab.elements if g not in alpha.exponents]
        if missing:
            raise RadicalError("character not defined on the whole stabilizer")
    rad = Radicalization(cover, alpha)
    G = cover.group
    if verify and G is not None and G.order * rad.r <= NORMALIZER_VERIFY_CAP and cover.n >= 3:
        Gt, H, Gt0 = rad.materialize()
        hset = set(H.elements)
        normalizer = [
            g
            for g in Gt.elements
            if all(Gt.mul(Gt.mul(g, h), Gt.inv(g)) in hset for h in H.elements)
        ]
        if sorted(normalizer) != Gt0.elements:
            raise RadicalError("normalizer of H is not the extended stabilizer")
    return rad


def detect_higman(cover: CoverData, alpha: LinearCharacter, x=None) -> bool:
    """Higman-pair test: conjugation by x (any element outside the
    stabilizer) must preserve the character wherever it returns to the
    stabilizer.  The verdict does not depend on the choice of x."""
    if x is None:
        x = cover.first_outside_stabilizer()
    if cover.in_stabilizer(x):
        raise RadicalError("x lies in the stabilizer")
    ops = cover.ops
    xinv = ops.inv(x)
    for xi in cover.stab.elements:
        y = ops.mul(ops.mul(x, xi), xinv)
        if y in cover.stab_set and alpha.exponent(y) != alpha.exponent(xi):
            return False
    return True


def find_key(rad: Radicalization, x=None, prefer_exponent: Optional[int] = None) -> Key:
    """A key (x, z) with z^2 = alpha(xi*eta) for a decomposition
    x^{-1} = xi x eta.

    The square alpha(xi*eta) does not depend on the decomposition, so the
    only freedom is the sign of z; the smaller exponent is chosen unless
    the caller prefers the other square root.
    """
    cover = rad.cover
    if x is None:
        x = cover.first_outside_stabilizer()
    if cover.in_stabilizer(x):
        raise RadicalError("x lies in the stabilizer")
    ops = cover.ops
    xinv = ops.inv(x)
    r = rad.r
    for xi in cover.stab.elements:
        eta = ops.mul(ops.mul(xinv, ops.inv(xi)), xinv)
        if eta in cover.stab_set:
            a2 = (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta)) % r
            if a2 % 2:
                raise RadicalError("alpha(xi*eta) has an odd exponent in C_r")
            roots = sorted(((a2 // 2) % r, (a2 // 2 + rad.r_prime) % r))
            if prefer_exponent is not None:
                pe = prefer_exponent % r
                if pe not in roots:
                    raise RadicalError("preferred exponent is not a square root")
                return Key(x, pe, r)
            return Key(x, roots[0], r)
    raise RadicalError("no decomposition x^{-1} = xi x eta: action is not doubly transitive")


class HigmanDecompositionTable:
    """Cached double-coset decompositions for one cover and one x.

    Every quantity depending only on the group geometry (and not on the
    character) is computed here once: the coset transversal, the
    decompositions x_i^{-1} x_j = xi x eta per roux cell, and the
    decompositions x zeta x^{-1} = xi x eta behind the parameter count.
    A character sweep over the same cover shares one table.

    ``max_per_cell`` limits how many decompositions are kept per cell
    (None keeps all, enabling full uniqueness verification downstream).
    """

    def __init__(self, cover: CoverData, x, max_per_cell: Optional[int] = None):
        if cover.in_stabilizer(x):
            raise RadicalError("x lies in the stabilizer")
        self.cover = cover
        self.x = x
        self.max_per_cell = max_per_cell
        ops = cover.ops
        xinv = ops.inv(x)
        pre = [(ops.mul(xinv, ops.inv(xi)), xi) for xi in cover.stab.elements]

        action = cover.action
        transversal = action.transversal(cover.base_point)
        if len(transversal) != action.degree:
            raise RadicalError("transversal size does not match point count")
        self.reps = [transversal[p] for p in action.points]
        inv_reps = [ops.inv(g) for g in self.reps]
        n = action.degree

        def decompose(y, limit):
            found = []
            for u, xi in pre:
                eta = ops.mul(u, y)
                if eta in cover.stab_set:
                    found.append((xi, eta))
                    if limit is not None and len(found) >= limit:
                        break
            return found

        self.cells: dict[tuple[int, int], list] = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                y = ops.mul(inv_reps[i], self.reps[j])
                if y in cover.stab_set:
                    raise RadicalError("transversal elements share a coset")
                found = decompose(y, max_per_cell)
                if not found:
                    raise RadicalError(f"no decomposition at cell ({i},{j})")
                self.cells[(i, j)] = found

        self.zeta_decomps: list[tuple] = []
        for zeta in cover.stab.elements:
            y = ops.mul(ops.mul(x, zeta), xinv)
            if y in cover.stab_set:
                continue
            found = decompose(y, 1)
            if not found:
                raise RadicalError("conjugate fell outside both double cosets")
            self.zeta_decomps.append((zeta,) + found[0])


def roux_params_from_radicalization(
    rad: Radicalization, key: Key, table: Optional[HigmanDecompositionTable] = None
) -> RouxParameters:
    """Roux parameters by counting stabilizer elements whose conjugate by
    the key decomposes with a prescribed character defect.

    c_w = (n-1)/|G0*| * #{zeta : exists xi, eta with
          x zeta x^{-1} = xi x eta and alpha(xi eta zeta^{-1}) z^{-1} = w}.
    """
    cover = rad.cover
    if table is None:
        table = HigmanDecompositionTable(cover, key.x, max_per_cell=1)
    if table.x != key.x:
        raise RadicalError("decomposition table was built for a different x")
    ze, r = key.z_exponent, key.r
    counts = [0] * r
    for zeta, xi, eta in table.zeta_decomps:
        w = (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta) - rad.alpha_exp_r(zeta) - ze) % r
        counts[w] += 1
    n = rad.n
    size = cover.stab.order
    c = []
    for w in range(r):
        num = (n - 1) * counts[w]
        if num % size:
            raise RadicalError("parameter count is not integral")
        c.append(num // size)
    return RouxParameters(n, r, GroupAlgebraElement(r, c))


def roux_from_higman_pair(
    rad: Radicalization,
    key: Key,
    table: Optional[HigmanDecompositionTable] = None,
    verify_uniqueness: bool = True,
) -> RouxMatrix:
    """The roux of the Higman pair: entry (i, j) is the unique w in C_r
    with x_i^{-1} x_j in H (1,w) (x,z) H.

    The transversal is the lift (x_i, 1) of base-action coset
    representatives found by orbit search.  With ``verify_uniqueness``
    every cached decomposition of every cell is checked to give the same
    w (all of them when the table is unlimited, otherwise two per cell).
    """
    cover = rad.cover
    if table is None:
        table = HigmanDecompositionTable(
            cover, key.x, max_per_cell=None if verify_uniqueness else 2
        )
    if table.x != key.x:
        raise RadicalError("decomposition table was built for a different x")
    ze, r = key.z_exponent, key.r
    n = rad.n
    exps = [[0] * n for _ in range(n)]
    for (i, j), decomps in table.cells.items():
        values = {
            (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta) - ze) % r for xi, eta in decomps
        }
        if len(values) > 1:
            raise RadicalError(f"double-coset lookup ambiguous at cell ({i},{j})")
        exps[i][j] = values.pop()
    return RouxMatrix(n, r, exps)


@dataclass
class HigmanRoux:
    """The roux of a detected Higman pair, with its key and parameters."""

    rad: Radicalization
    key: Key
    params: RouxParameters
    roux: RouxMatrix


def higman_roux(
    cover: CoverData,
    alpha: LinearCharacter,
    x,
    table: HigmanDecompositionTable,
    prefer_exponent: Optional[int] = None,
) -> Optional[HigmanRoux]:
    """The pipeline for one character: detect, radicalize, find the key,
    count the parameters, build the roux and verify it exactly.

    Returns None when alpha fails the Higman-pair test.  Raises
    RadicalError when the counted and the verified parameters disagree.
    """
    if not detect_higman(cover, alpha, x):
        return None
    rad = radicalize(cover, alpha)
    key = find_key(rad, x, prefer_exponent=prefer_exponent)
    params = roux_params_from_radicalization(rad, key, table)
    B = roux_from_higman_pair(rad, key, table)
    if verify_roux(B).coeffs != params.coeffs:
        raise RadicalError("roux parameters disagree with the counting formula")
    return HigmanRoux(rad, key, params, B)
