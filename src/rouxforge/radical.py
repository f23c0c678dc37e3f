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

from .group import FiniteGroup, GroupAction, LinearCharacter
from .roux import RouxMatrix, RouxParameters, verify_roux


class RadicalError(ValueError):
    pass


class CoverData:
    """A cover G* of a permutation group G, presented through its action.

    ``action`` is the action of G* on the base point set (its kernel is
    the kernel of the covering projection, required central), and
    ``stab`` is the full stabilizer of ``base_point`` in G*.  The action
    axioms are checked on the generators when the cover is built.
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

    def in_stabilizer(self, gkey) -> bool:
        return gkey in self.stab_set

    def first_outside_stabilizer(self):
        G = self.group
        if G is None:
            raise RadicalError("cover group not materialized")
        for g in G.elements:
            if g not in self.stab_set:
                return g
        raise RadicalError("group equals its stabilizer")

    def verify(self) -> None:
        """Check the covering invariants (materialized covers only).

        The listed stabilizer lies in the stabilizer of b in G; by
        orbit-stabilizer it is all of it exactly when
        |stab| * |orbit(b)| = |G|.  The covering kernel fixes b, so it is
        found among the stabilizer elements.  That the induced point
        permutations multiply like the group is the action check that
        ``__init__`` already ran on the generators.
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
        # central kernel
        points = self.action.points
        kernel = [s for s in self.stab.elements if all(act(s, p) == p for p in points)]
        for z in kernel:
            for g in G.generators:
                if G.mul(z, g) != G.mul(g, z):
                    raise RadicalError("covering kernel is not central")


@dataclass(frozen=True)
class Key:
    """A key (x, z) for a radicalization; z is an exponent in C_r."""

    x: object
    z_exponent: int
    r: int


@dataclass
class Radicalization:
    """The pair (G* x C_r, ker alpha~) for a cover and character.

    Stored symbolically: the product group is never built.  ``alpha``
    must be in reduced form (modulus = image order).
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


def radicalize(cover: CoverData, alpha: LinearCharacter) -> Radicalization:
    """Build the radicalization after checking that alpha is a character
    of the whole stabilizer.

    Its normalizer identity N(H) = G~0* = G0* x C_r, for n >= 3, needs no
    check: it follows from the premises that ``detect`` proves first (a
    doubly transitive action, a full stabilizer G0* of b, and alpha a
    homomorphism on G0*) and that the families hold by construction.
    G~0* normalizes H, because H is the kernel of the homomorphism
    (xi, z) -> alpha(xi) z on G~0*.  Conversely, if (g, z) normalizes H,
    then g normalizes G0*, the projection of H, so
    G0* = g G0* g^{-1} = Stab(g.b) fixes g.b.  G0* is transitive on the
    n - 1 >= 2 other points, so it fixes none of them: g.b = b, and
    (g, z) lies in G~0*.
    """
    missing = [g for g in cover.stab.elements if g not in alpha.exponents]
    if missing:
        raise RadicalError("character not defined on the whole stabilizer")
    alpha.verify_homomorphism(cover.stab)
    return Radicalization(cover, alpha)


class HigmanDecompositionTable:
    """Double-coset decompositions for one cover and one x, read off an
    orbit transversal of the stabilizer.

    y = xi x eta with xi, eta in G0* means xi carries x.b to y.b (b the
    base point).  A breadth-first search of G0* from x.b gives, for every
    point p != b, an element xi_p of G0* with xi_p (x.b) = p, carried
    together with u_p = x^{-1} xi_p^{-1}; then ``decompose`` returns
    y = xi_p x (u_p y) with p = y.b, one product per y.  Every other
    decomposition of y is (xi s, x^{-1} s^{-1} x eta) for s in the
    two-point stabilizer G01* of b and x.b, stored in ``g01`` as the
    pairs (s, x^{-1} s x).

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
        self.xinv = xinv = ops.inv(x)
        xb = action.act(x, base)

        # Schreier transversal of G0* on the points other than b
        self._orbit = orbit = {xb: (ops.identity, xinv)}
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
                    self.cells[(i, j)] = self.decompose(ops.mul(inv_reps[i], self.reps[j]))

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
                self.zeta_decomps.append((zeta,) + self.decompose(y))

    def decompose(self, y) -> tuple:
        """One decomposition y = xi x eta with xi, eta in G0*."""
        cover = self.cover
        p = cover.action.act(y, cover.base_point)
        if p == cover.base_point:
            raise RadicalError("no decomposition: the element fixes the base point")
        xi, u = self._orbit[p]
        eta = cover.ops.mul(u, y)
        if eta not in cover.stab_set:
            raise RadicalError("stabilizer list is incomplete: eta fixes b but is not listed")
        return xi, eta


def _g01_mismatch(table: HigmanDecompositionTable, alpha: LinearCharacter):
    """The first s in G01* with alpha(s) != alpha(x^-1 s x), or None."""
    return next((s for s, t in table.g01 if alpha.exponent(s) != alpha.exponent(t)), None)


def detect_higman(table: HigmanDecompositionTable, alpha: LinearCharacter) -> bool:
    """Higman-pair test: conjugation by x must preserve the character
    wherever it returns to the stabilizer, that is on the pairs
    (s, x^{-1} s x) of ``table.g01``.  The verdict does not depend on
    the choice of x."""
    return _g01_mismatch(table, alpha) is None


def find_key(
    rad: Radicalization, table: HigmanDecompositionTable, prefer_exponent: Optional[int] = None
) -> Key:
    """A key (x, z) with z^2 = alpha(xi*eta) for a decomposition
    x^{-1} = xi x eta, x the table's.

    For a Higman pair the square alpha(xi*eta) does not depend on the
    decomposition, so the only freedom is the sign of z; the smaller
    exponent is chosen unless the caller prefers the other square root.
    """
    xi, eta = table.decompose(table.xinv)
    r = rad.r
    # alpha(xi*eta) has an even exponent in [0, r); its roots are half and half + r'
    half = ((rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta)) % r) // 2
    if prefer_exponent is None:
        return Key(table.x, half, r)
    if prefer_exponent % r not in (half, half + rad.r_prime):
        raise RadicalError("preferred exponent is not a square root")
    return Key(table.x, prefer_exponent % r, r)


def _check_table(rad: Radicalization, key: Key, table: HigmanDecompositionTable) -> None:
    """Refuse a table built for another x, or a character that disagrees
    on the two-point stabilizer.

    The decompositions of one double coset differ by (xi s, x^{-1} s^{-1} x eta)
    with s in G01*, which changes alpha(xi eta) by alpha(s) - alpha(x^{-1} s x).
    So the roux entries and the parameter count are well defined exactly
    when that difference vanishes on G01*.
    """
    if table.x != key.x:
        raise RadicalError("decomposition table was built for a different x")
    s = _g01_mismatch(table, rad.alpha)
    if s is not None:
        raise RadicalError(
            f"double-coset lookup is ambiguous: alpha(s) != alpha(x^-1 s x) at s = {s}"
        )


def roux_params_from_radicalization(
    rad: Radicalization, key: Key, table: HigmanDecompositionTable
) -> RouxParameters:
    """Roux parameters by counting stabilizer elements whose conjugate by
    the key decomposes with a prescribed character defect.

    c_w = (n-1)/|G0*| * #{zeta : exists xi, eta with
          x zeta x^{-1} = xi x eta and alpha(xi eta zeta^{-1}) z^{-1} = w}.
    """
    _check_table(rad, key, table)
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
    return RouxParameters(n, r, c)


def roux_from_higman_pair(
    rad: Radicalization, key: Key, table: HigmanDecompositionTable
) -> RouxMatrix:
    """The roux of the Higman pair: entry (i, j) is the unique w in C_r
    with x_i^{-1} x_j in H (1,w) (x,z) H.

    The transversal is the lift (x_i, 1) of base-action coset
    representatives found by orbit search.  Each cell is read off one
    decomposition; the check on G01* proves every other decomposition
    gives the same w.
    """
    _check_table(rad, key, table)
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
    table: HigmanDecompositionTable,
    alpha: LinearCharacter,
    prefer_exponent: Optional[int] = None,
) -> Optional[HigmanRoux]:
    """The pipeline for one character on the table's cover and x: detect,
    radicalize, find the key, count the parameters, build the roux and
    verify it exactly.

    Returns None when alpha fails the Higman-pair test.  Raises
    RadicalError when the counted and the verified parameters disagree.
    """
    if not detect_higman(table, alpha):
        return None
    rad = radicalize(table.cover, alpha)
    key = find_key(rad, table, prefer_exponent=prefer_exponent)
    params = roux_params_from_radicalization(rad, key, table)
    B = roux_from_higman_pair(rad, key, table)
    if verify_roux(B).coeffs != params.coeffs:
        raise RadicalError("roux parameters disagree with the counting formula")
    return HigmanRoux(rad, key, params, B)
