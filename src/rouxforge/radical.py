"""Radicalization of a covered doubly transitive action, Higman-pair
detection, key finding, and roux construction.

The setting: a group G acting doubly transitively on n points, a cover
G* whose action on the points has central kernel, the stabilizer G0* of
a base point b, and a linear character alpha on G0* with image C_{r'}.
Setting r = 2r', the product G* x C_r together with
H = {(xi, alpha(xi)^{-1})} is the radicalization; when it is a Higman
pair, its Schurian scheme is a roux scheme over C_r and the machinery
here extracts the roux and its parameters without ever materializing
G* or the product group: G* is known by its generators and its action,
G0* by the closure of the Schreier products of the action's transversal
(``group.stabilizer``), and x is found coset by coset
(``CoverData.first_outside_stabilizer``).

The construction, for a key (x, z) and the transversal x_j of the
action (x_j.b = point j):

* Double cosets.  y = xi x eta with xi, eta in G0* means xi carries x.b
  to y.b, so a Schreier transversal xi_p of G0* from x.b decomposes any
  y with one product.  Two decompositions differ by
  (xi s, x^{-1} s^{-1} x eta) with s in the two-point stabilizer G01*,
  so alpha(xi eta) is well defined exactly when alpha(s) =
  alpha(x^{-1} s x) on G01*.  Both sides are homomorphisms on G01*, so
  the Schreier generators xi_q^{-1} s xi_p (q = s.p) of G01* suffice.
* Cocycle.  For a generator g of G*, g x_j = x_{pi j} h_j(g) with
  h_j(g) in G0*, hence x_{pi i}^{-1} x_{pi j} = h_i (x_i^{-1} x_j) h_j^{-1}
  and B[pi i, pi j] = B[i, j] + alpha(h_i(g)) - alpha(h_j(g)) in C_r.
  Row b is read off n - 1 decompositions (x_b = 1); every other row
  follows from its parent in the transversal's breadth-first tree,
  where h = 1.  The identity is then checked on every generator and cell:
  G* acts on the lines by monomial matrices preserving B, and with
  row b and transitivity that proves every entry.
* Parameters.  c_w = (n-1)/|G0*| #{zeta in G0* : x zeta x^{-1} =
  xi x eta, alpha(xi eta zeta^{-1}) z^{-1} = w} runs over the zeta
  outside K = Stab_{G0*}(x^{-1}.b), whose conjugates leave G0*.  For k
  in K, s = x k x^{-1} lies in G01*, so x zeta k x^{-1} = xi x (eta s)
  changes the defect by alpha(s) - alpha(k) = 0: the defect is constant
  on each coset zeta K.  K has index n - 1, so each coset contributes
  |K| (n-1)/|G0*| = 1, and c_w counts the n - 2 cosets other than K.
* Inverse characters.  phi(g, z) = (g, z^{-1}) is an automorphism of
  G* x C_r that fixes G* x 1 and carries H = {(xi, alpha(xi)^{-1})} to
  H' = {(xi, alpha(xi))}, the subgroup of alpha^{-1}: the radicalization
  of alpha^{-1} is the image of alpha's.  alpha^{-1} passes the G01*
  test exactly when alpha does, and with the same x.  Applying phi to
  x_i^{-1} x_j in H (1, w) (x, z) H gives x_i^{-1} x_j in
  H' (1, w^{-1}) (x, z^{-1}) H', and (x, z^{-1}) is a key for alpha^{-1},
  since z^{-2} = alpha^{-1}(xi eta).  So the roux of alpha^{-1} with key
  exponent -z is -B(alpha) mod r, entry by entry, over the same x and
  transversal, and its parameters are c_{-w} = c_w.  ``su3_family``
  prefers the key exponent 2 alpha(eta(b0)) mod r, which is minus
  alpha's for alpha^{-1}, so it takes that key.  Its working roux over
  C_{r'} (r = 2r') is -B(alpha) mod r' as well: switching by row 0 gives
  B[i, j] + B[0, i] - B[0, j], which changes sign with B, and an even
  exponent 2e mod r negated is 2(-e mod r') mod r, so halving negates
  mod r'.  The k-th signature matrix of alpha^{-1} therefore has the
  phase grid of alpha's (r' - k)-th.

Exponent bookkeeping: characters store exponents mod r' (so alpha(xi)
is the root of unity with exponent 2*alpha_exp mod r inside C_r), and
all C_r elements are integers mod r.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Optional

import numpy as np

from .group import FiniteGroup, GroupAction, LinearCharacter, TransitivityError
from .roux import RouxMatrix, RouxParameters, verify_roux


class RadicalError(ValueError):
    exit_code = 2  # bad input


class CertificateError(RadicalError):
    """An exact certificate failed on a well-formed input: the counted
    and the verified roux parameters disagree, or the roux is not
    invariant under G*."""

    exit_code = 1


class CoverData:
    """A cover G* of a permutation group G, presented through its action.

    ``action`` is the action of G* on the base point set (its kernel is
    the kernel of the covering projection, required central), and
    ``stab`` is the full stabilizer G0* of ``base_point`` in G*.  The
    action axioms hold by construction (see ``GroupAction``).  G* itself
    is never enumerated: its order is n |G0*| by orbit-stabilizer, and
    the elements outside G0* are walked coset by coset.
    """

    def __init__(self, action: GroupAction, stab: FiniteGroup, base_point=None):
        action.generator_perms  # refuses a generator that moves a point off the set
        self.action = action
        self.stab = stab
        self.base_point = action.points[0] if base_point is None else base_point
        self.ops = stab.ops

    @property
    def n(self) -> int:
        return self.action.degree

    @cached_property
    def stab_action(self) -> GroupAction:
        """The stabilizer's action on the points, built once: the double
        transitivity test, ``verify`` and the table's G01* transversal read
        its point permutations."""
        return GroupAction(self.stab, self.action.points, self.action.act)

    def first_outside_stabilizer(self):
        """The least element of G* outside G0*, without enumerating G*.

        With t_j from b's cached transversal (t_j.b = j), the right coset
        G0* t_j^{-1} is {g : g^{-1}.b = j}, so G* minus G0* is the union of
        these cosets over the orbit points j != b.  Each coset is one
        batched product of the stabilizer, whose least row in
        ``batch_codes`` is found column by column and made a key.
        """
        ops, least = self.ops, []
        transversal = self.action.transversal(self.action.point_index[self.base_point])
        batch = ops.batch(self.stab.elements)
        for t in list(transversal.inv_reps.values())[1:]:  # the base point's comes first
            codes = ops.batch_codes(batch, t)
            for column in range(codes.shape[1]):
                codes = codes[codes[:, column] == codes[:, column].min()]
            least.append(ops.keys(codes[:1])[0])
        if not least:
            raise RadicalError("group equals its stabilizer")
        return min(least)

    def covering_kernel(self) -> list:
        """The stabilizer elements that fix every point, in sorted order.

        Each element's point permutation is read along the stabilizer's
        Cayley tree: perm(e g_k) = perm(e)[pi_k], since (e g_k).p =
        e.(g_k.p), one gather per tree edge and no element applied.  The
        array has |stab| n entries, |G*| for a transitive action.
        """
        stab, n = self.stab, self.n
        pi = self.stab_action.generator_perms
        perms = np.empty((stab.order, n), dtype=np.intp)
        perms[stab.index[stab.identity]] = np.arange(n)
        for children, parents, gens in stab.cayley_tree:
            perms[children] = perms[parents[:, None], pi[gens]]
        return [stab.elements[i] for i in np.flatnonzero((perms == np.arange(n)).all(axis=1))]

    def verify(self) -> None:
        """Check the covering invariants.

        ``stab.cayley_tree`` (cached; the characters read it next) proves
        that the listed elements are closed under right products by the
        generators and reached from the identity by them: the list is
        exactly the subgroup the generators generate, without repeats.
        If every generator fixes b, every word in them does, so the list
        is a subgroup of G0*.  It is all of G0* by Schreier's lemma, with
        no order to compare: the Schreier products of b's transversal
        generate G0* (see ``group.Transversal``), and a subgroup that
        holds them holds G0*.  ``stabilizer`` lists exactly their closure,
        and the decomposition table looks each of them up in the list, as
        its h_j(g), and refuses a list that lacks one.  The covering
        kernel fixes b, so it is found among the stabilizer elements and
        checked to commute with every generator of G*.
        """
        b = self.action.point_index[self.base_point]
        self.stab.cayley_tree
        if (self.stab_action.generator_perms[:, b] != b).any():
            raise RadicalError("stabilizer element moves the base point")
        mul, gens = self.ops.mul, self.action.group.generators
        for z in self.covering_kernel():
            for g in gens:
                if mul(z, g) != mul(g, z):
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
    _require_stabilizer_character(cover, alpha)
    alpha.verify_homomorphism()
    return Radicalization(cover, alpha)


def _require_stabilizer_character(cover: CoverData, alpha: LinearCharacter) -> None:
    if alpha.group is not cover.stab:
        raise RadicalError("character not defined on the whole stabilizer")


class HigmanDecompositionTable:
    """The character-free data of the roux for one cover and one x: index
    arrays into the cover's ``stab.elements`` (each element checked to be
    listed).  Rows: ``schreier`` s, xi_p, xi_q, x^{-1} xi_q^{-1} s xi_p x;
    ``perms``, ``h`` pi_g, h_j(g) per generator g of G*; ``row_b`` xi, eta
    of x_j; ``cosets`` xi_p, xi, eta with x zeta_p x^{-1} = xi x eta,
    zeta_p = xi_p xi_{q0}^{-1} (q0 = x^{-1}.b), one per coset of K other
    than K.  A character sweep over one cover shares one table.  Without
    an x, the table takes the least element of G* outside G0*
    (``CoverData.first_outside_stabilizer``); the families pass their own.

    Two cached transversals (see ``Transversal``) hold the products.  G*'s
    from b gives x_j and, as its Schreier products (1 on the tree),
    h_j(g) = x_{pi j}^{-1} g x_j, the products ``stabilizer`` closes.  G0*'s
    from x.b with root x gives t_p = xi_p x, t_p^{-1} = x^{-1} xi_p^{-1} and
    the conjugates x^{-1} s x of the Schreier generators s of G01*."""

    def __init__(self, cover: CoverData, x=None):
        if x is None:
            x = cover.first_outside_stabilizer()
        if x in cover.stab:
            raise RadicalError("x lies in the stabilizer")
        self.cover, self.x = cover, x
        ops, action, n = cover.ops, cover.action, cover.n
        index = cover.stab.index

        def ref(g) -> int:
            if g not in index:
                raise RadicalError("stabilizer list is incomplete: an element fixing b is not listed")
            return index[g]

        self.base_index = b = action.point_index[cover.base_point]
        g01 = cover.stab_action.transversal(action.point_index[action.act(x, cover.base_point)], root=x)
        if len(g01.reps) != n - 1:
            raise TransitivityError("stabilizer is not transitive on the other points")
        self.xinv = xinv = g01.inv_reps[g01.base]
        self._u = g01.inv_reps
        # xi_p = t_p x^-1 for every point: one batched product
        t_batch = ops.batch(list(g01.reps.values()))
        self._xi = xi = dict(zip(g01.reps, ops.batch_mul(t_batch, xinv)))
        gens01, perms01 = cover.stab.generators, cover.stab_action.generator_perms.tolist()
        self.schreier = np.array([
            (ref(gens01[k]), ref(xi[p]), ref(xi[perms01[k][p]]), ref(s))
            for (p, k), s in zip(g01.off_tree, g01.schreier)
        ], dtype=np.intp).T

        transversal = action.transversal(b)
        if len(transversal.reps) != n:
            raise TransitivityError("the action is not transitive")
        self.layers = transversal.layers
        self.reps = [transversal.reps[j] for j in range(n)]
        self.perms = action.generator_perms
        one = ref(ops.identity)
        self.h = np.full(self.perms.shape, one, dtype=np.intp)
        for (j, k), s in zip(transversal.off_tree, transversal.schreier):
            self.h[k, j] = ref(s)
        self.row_b = np.array(
            [tuple(map(ref, self._split(j, y))) if j != b else (one, one) for j, y in enumerate(self.reps)], dtype=np.intp
        ).T

        # zeta_p x^-1 = t_p (t_q0^-1 x^-1) for every point: one batched product
        q0 = action.point_index[action.act(xinv, cover.base_point)]
        self.coset_xi0 = ref(xi[q0])
        zeta_xinv = dict(zip(g01.reps, ops.batch_mul(t_batch, ops.mul(self._u[q0], xinv))))
        self.cosets = np.array([
            (ref(xi[p]),) + tuple(map(ref, self.decompose(ops.mul(x, zeta_xinv[p]))))
            for p in g01.reps
            if p != q0
        ], dtype=np.intp).reshape(-1, 3).T

    def decompose(self, y) -> tuple:
        """One decomposition y = xi x eta with xi, eta in G0*."""
        action = self.cover.action
        j = action.point_index[action.act(y, self.cover.base_point)]
        if j == self.base_index:
            raise RadicalError("no decomposition: the element fixes the base point")
        return self._split(j, y)

    def _split(self, j: int, y) -> tuple:
        """y = xi_j x eta for a y that carries b to point j."""
        eta = self.cover.ops.mul(self._u[j], y)
        if eta not in self.cover.stab:
            raise RadicalError("stabilizer list is incomplete: eta fixes b but is not listed")
        return self._xi[j], eta


def _g01_check(table: HigmanDecompositionTable, alpha: LinearCharacter):
    """alpha on the stabilizer, and the first Schreier generator s with
    alpha(s) != alpha(x^-1 s x) or None; alpha(s) is read as
    alpha(g) + alpha(xi_p) - alpha(xi_q)."""
    _require_stabilizer_character(table.cover, alpha)
    g, xi_p, xi_q, t = alpha.values[table.schreier]
    bad = np.flatnonzero((g + xi_p - xi_q - t) % alpha.modulus)
    if not bad.size:
        return alpha.values, None
    ops, elements = table.cover.ops, table.cover.stab.elements
    g, xi_p, xi_q, _ = (elements[i] for i in table.schreier[:, bad[0]])
    return alpha.values, ops.mul(ops.mul(ops.inv(xi_q), g), xi_p)


def detect_higman(table: HigmanDecompositionTable, alpha: LinearCharacter) -> bool:
    """Higman-pair test: alpha(s) = alpha(x^{-1} s x) on G01*, checked on
    its Schreier generators.  The verdict does not depend on x."""
    return _g01_check(table, alpha)[1] is None


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


def _checked_values(rad: Radicalization, key: Key, table: HigmanDecompositionTable) -> np.ndarray:
    """alpha on the stabilizer in C_r, refusing a table built for
    another x or a character that makes double-coset lookup ambiguous."""
    if table.x != key.x:
        raise RadicalError("decomposition table was built for a different x")
    values, s = _g01_check(table, rad.alpha)
    if s is not None:
        raise RadicalError(
            f"double-coset lookup is ambiguous: alpha(s) != alpha(x^-1 s x) at s = {s}"
        )
    return 2 * values % rad.r


def roux_params_from_radicalization(
    rad: Radicalization, key: Key, table: HigmanDecompositionTable
) -> RouxParameters:
    """Roux parameters counted over the n - 2 cosets of
    K = Stab_{G0*}(x^{-1}.b) other than K, each by the character defect
    alpha(xi eta zeta^{-1}) z^{-1} of x zeta x^{-1} = xi x eta (the module
    docstring proves each coset counts once)."""
    a = _checked_values(rad, key, table)
    xi_p, xi, eta = a[table.cosets]
    defects = (xi + eta - xi_p + a[table.coset_xi0] - key.z_exponent) % rad.r
    return RouxParameters(rad.n, rad.r, np.bincount(defects, minlength=rad.r).tolist())


def roux_from_higman_pair(
    rad: Radicalization, key: Key, table: HigmanDecompositionTable
) -> RouxMatrix:
    """The roux of the Higman pair: entry (i, j) is the unique w in C_r
    with x_i^{-1} x_j in H (1,w) (x,z) H, x_i the transversal.

    Row b is read off its decompositions and the other rows propagated
    along the breadth-first tree, one layer at a time; then the symmetry certificate checks
    B[pi i, pi j] = B[i, j] + alpha(h_i(g)) - alpha(h_j(g)) on every
    generator g of G* and every cell (see the module docstring).
    """
    a = _checked_values(rad, key, table)
    n, r = rad.n, rad.r
    B = np.zeros((n, n), dtype=np.int64)
    b = table.base_index
    B[b] = (a[table.row_b].sum(axis=0) - key.z_exponent) % r
    B[b, b] = 0
    A = a[table.h]
    for children, parents, gens in table.layers:  # a parent's row is filled in an earlier layer
        B[children[:, None], table.perms[gens]] = (B[parents] - A[gens]) % r
    for k, (perm, ak) in enumerate(zip(table.perms, A)):
        bad = B[np.ix_(perm, perm)] != (B + ak[:, None] - ak[None, :]) % r
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise CertificateError(f"symmetry certificate fails for generator {k} at cell ({i}, {j})")
    return RouxMatrix(n, r, B)


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
    CertificateError when the counted and the verified parameters disagree.
    """
    if not detect_higman(table, alpha):
        return None
    rad = radicalize(table.cover, alpha)
    key = find_key(rad, table, prefer_exponent=prefer_exponent)
    params = roux_params_from_radicalization(rad, key, table)
    B = roux_from_higman_pair(rad, key, table)
    if verify_roux(B).coeffs != params.coeffs:
        raise CertificateError("roux parameters disagree with the counting formula")
    return HigmanRoux(rad, key, params, B)
