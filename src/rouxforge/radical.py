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
        """Check the covering invariants (materialized covers only).

        The listed stabilizer lies in the stabilizer of b in G; by
        orbit-stabilizer it is all of it exactly when
        |stab| * |orbit(b)| = |G|.  The covering kernel fixes b, so it is
        found among the stabilizer elements.
        """
        b = self.base_point
        act = self.action.act
        for s in self.stab.elements:
            if act(s, b) != b:
                raise RadicalError("stabilizer element moves the base point")
        G = self.group
        if G is None:
            return
        for s in self.stab.elements:
            if s not in G:
                raise RadicalError("stabilizer element lies outside the group")
        if len(self.stab_set) * len(self.action.orbit(b)) != G.order:
            raise RadicalError("stabilizer list is incomplete")
        # projection is a homomorphism (spot check on generators)
        for a in G.generators:
            for c in G.generators:
                pa, pc = self.projection(a), self.projection(c)
                if self.projection(G.mul(a, c)) != tuple(pa[pc[i]] for i in range(len(pa))):
                    raise RadicalError("projection is not a homomorphism")
        # central kernel
        points = self.action.points
        kernel = [s for s in self.stab.elements if all(act(s, p) == p for p in points)]
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
        missing = [g for g in cover.stab.elements if g not in alpha.exponents]
        if missing:
            raise RadicalError("character not defined on the whole stabilizer")
        alpha.verify_homomorphism(cover.stab)
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
    """Double-coset decompositions for one cover and one x, read off an
    orbit transversal of the stabilizer.

    y = xi x eta with xi, eta in G0* means xi carries x.b to y.b (b the
    base point).  A breadth-first search of G0* from x.b gives, for every
    point p != b, an element xi_p of G0* with xi_p (x.b) = p, carried
    together with u_p = x^{-1} xi_p^{-1}; then y = xi_p x (u_p y) with
    p = y.b, two products per y.  Every other decomposition of y is
    (xi s, x^{-1} s^{-1} x eta) for s in the two-point stabilizer G01* of
    b and x.b, stored in ``g01`` as the pairs (s, x^{-1} s x).

    ``cells`` maps each roux cell (i, j) to one decomposition of
    x_i^{-1} x_j, and ``zeta_decomps`` holds (zeta, xi, eta) with
    x zeta x^{-1} = xi x eta for every zeta whose conjugate leaves G0*.
    None of it depends on a character, so a character sweep over the same
    cover shares one table.
    """

    def __init__(self, cover: CoverData, x):
        if cover.in_stabilizer(x):
            raise RadicalError("x lies in the stabilizer")
        self.cover = cover
        self.x = x
        ops = cover.ops
        action = cover.action
        base = cover.base_point
        xinv = ops.inv(x)
        xb = action.act(x, base)

        # Schreier transversal of G0* on the points other than b
        orbit = {xb: (ops.identity, xinv)}
        frontier = [xb]
        gens = [(g, ops.inv(g)) for g in cover.stab.generators]
        while frontier:
            new = []
            for p in frontier:
                xi, u = orbit[p]
                for g, ginv in gens:
                    q = action.act(g, p)
                    if q not in orbit:
                        orbit[q] = (ops.mul(g, xi), ops.mul(u, ginv))
                        new.append(q)
            frontier = new
        if len(orbit) != action.degree - 1:
            raise RadicalError("stabilizer is not transitive on the other points")

        def decompose(y):
            p = action.act(y, base)
            if p == base:
                raise RadicalError("no decomposition: the element fixes the base point")
            xi, u = orbit[p]
            eta = ops.mul(u, y)
            if eta not in cover.stab_set:
                raise RadicalError("stabilizer list is incomplete: eta fixes b but is not listed")
            return xi, eta

        transversal = action.transversal(base)
        if len(transversal) != action.degree:
            raise RadicalError("transversal size does not match point count")
        self.reps = [transversal[p] for p in action.points]
        inv_reps = [ops.inv(g) for g in self.reps]
        n = action.degree
        self.cells: dict[tuple[int, int], tuple] = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    self.cells[(i, j)] = decompose(ops.mul(inv_reps[i], self.reps[j]))

        self.g01: list[tuple] = []
        self.zeta_decomps: list[tuple] = []
        for s in cover.stab.elements:
            if action.act(s, xb) == xb:
                t = ops.mul(ops.mul(xinv, s), x)
                if t not in cover.stab_set:
                    raise RadicalError("stabilizer list is incomplete: x^-1 s x fixes b but is not listed")
                self.g01.append((s, t))
        for zeta in cover.stab.elements:
            y = ops.mul(ops.mul(x, zeta), xinv)
            if y not in cover.stab_set:
                self.zeta_decomps.append((zeta,) + decompose(y))


def _checked_table(
    rad: Radicalization, key: Key, table: Optional[HigmanDecompositionTable]
) -> HigmanDecompositionTable:
    """The decomposition table for the key's x, once alpha is known to
    agree on the two-point stabilizer.

    The decompositions of one double coset differ by (xi s, x^{-1} s^{-1} x eta)
    with s in G01*, which changes alpha(xi eta) by alpha(s) - alpha(x^{-1} s x).
    So the roux entries and the parameter count are well defined exactly
    when that difference vanishes on G01*.
    """
    if table is None:
        table = HigmanDecompositionTable(rad.cover, key.x)
    if table.x != key.x:
        raise RadicalError("decomposition table was built for a different x")
    for s, t in table.g01:
        if rad.alpha_exp_r(s) != rad.alpha_exp_r(t):
            raise RadicalError(
                f"double-coset lookup is ambiguous: alpha(s) != alpha(x^-1 s x) at s = {s}"
            )
    return table


def roux_params_from_radicalization(
    rad: Radicalization, key: Key, table: Optional[HigmanDecompositionTable] = None
) -> RouxParameters:
    """Roux parameters by counting stabilizer elements whose conjugate by
    the key decomposes with a prescribed character defect.

    c_w = (n-1)/|G0*| * #{zeta : exists xi, eta with
          x zeta x^{-1} = xi x eta and alpha(xi eta zeta^{-1}) z^{-1} = w}.
    """
    table = _checked_table(rad, key, table)
    ze, r = key.z_exponent, key.r
    counts = [0] * r
    for zeta, xi, eta in table.zeta_decomps:
        w = (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta) - rad.alpha_exp_r(zeta) - ze) % r
        counts[w] += 1
    n = rad.n
    size = rad.cover.stab.order
    c = []
    for w in range(r):
        num = (n - 1) * counts[w]
        if num % size:
            raise RadicalError("parameter count is not integral")
        c.append(num // size)
    return RouxParameters(n, r, GroupAlgebraElement(r, c))


def roux_from_higman_pair(
    rad: Radicalization, key: Key, table: Optional[HigmanDecompositionTable] = None
) -> RouxMatrix:
    """The roux of the Higman pair: entry (i, j) is the unique w in C_r
    with x_i^{-1} x_j in H (1,w) (x,z) H.

    The transversal is the lift (x_i, 1) of base-action coset
    representatives found by orbit search.  Each cell is read off one
    decomposition; the check on G01* proves every other decomposition
    gives the same w.
    """
    table = _checked_table(rad, key, table)
    ze, r = key.z_exponent, key.r
    n = rad.n
    exps = [[0] * n for _ in range(n)]
    for (i, j), (xi, eta) in table.cells.items():
        exps[i][j] = (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta) - ze) % r
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
