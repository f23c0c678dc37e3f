"""Finite groups with enumerable, canonically keyed elements.

Three element backends are supported: permutations of n points (keys are
image tuples), invertible matrices over a FieldSpec (keys are row-major
tuples of element codes), and direct products with a cyclic group C_r
(keys are (base_key, exponent) pairs).  Canonical keys make every group
hashable/sortable, so enumeration order is deterministic everywhere.

Besides ``mul`` and ``inv``, every backend that ``closure`` reaches has a
batched right product: ``batch(H)`` packs a list of keys once, and
``batch_mul(batch, r)`` returns ``[mul(h, r) for h in H]``, in order, so
a whole coset H r costs one call (one numpy expression on the array
backends).  On ``PermOps`` and ``MatOps`` it is ``keys(batch_codes(...))``,
``batch_codes`` an integer array, one row per product, ordered as its key.

Groups are immutable once closed; all queries are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .field import MAX_ORDER, FieldError, FieldSpec, json_int

CLOSURE_CAP = 10**6
DERIVED_CAP = 10**5
CHARACTER_CAP = 10**4
# Elements per batch in generator_table, in the characters' relation basis and in the SU(3,q)
# stabilizer's cosets (families.su3_cover): temporaries
# stay small (73 KiB for the SU(3,4) stabilizer's table), under glibc's 128 KiB mmap
# threshold, so rebuilds do not ratchet up the heap.
TABLE_CHUNK = 256


class GroupError(ValueError):
    exit_code = 2  # bad input


class CapExceededError(GroupError):
    pass


class TransitivityError(GroupError):
    """The action is not doubly transitive on at least 3 points: the
    radical construction's hypothesis H1 fails."""

    exit_code = 3


# ---------------------------------------------------------------------------
# element backends


class PermOps:
    """Permutations of [n], keyed by 0-based image tuples: key[i] = g(i)."""

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = tuple(range(degree))

    def mul(self, a, b):
        # left action convention: (ab)(i) = a(b(i))
        return tuple(a[b[i]] for i in range(self.degree))

    def inv(self, a):
        out = [0] * self.degree
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def batch(self, H):
        # row i holds h(i) for every h in H
        return np.array(H, dtype=np.intp).reshape(len(H), self.degree).T.copy()

    def batch_codes(self, batch, b) -> np.ndarray:
        # (hb)(i) = h(b(i)): one gather of the rows, then row j is hb's key
        return batch[list(b)].T

    def keys(self, codes: np.ndarray) -> list:
        return list(zip(*codes.T.tolist()))

    def batch_mul(self, batch, b):
        return self.keys(self.batch_codes(batch, b))


class MatOps:
    """dim x dim invertible matrices over a FieldSpec, keyed row-major."""

    def __init__(self, spec: FieldSpec, dim: int):
        self.spec = spec
        self.dim = dim
        self.identity = tuple(
            tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
        )

    def mul(self, a, b):
        dots, cols = self.spec.dots, list(zip(*b))
        return tuple([dots(row, cols) for row in a])

    def inv(self, a):
        # Gaussian elimination over the field
        spec = self.spec
        n = self.dim
        aug = [list(a[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise GroupError("singular matrix in group backend")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pinv = spec.inv(aug[col][col])
            aug[col] = [spec.mul(pinv, v) for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [spec.sub(v, spec.mul(f, w)) for v, w in zip(aug[r], aug[col])]
        return tuple(tuple(row[n:]) for row in aug)

    def apply(self, a, v):
        """Matrix-vector product on a tuple of field codes."""
        return self.spec.dots(v, a)  # row . v for each row of a

    def batch(self, H):
        """H over F_p: row (h, i) holds the k coefficients of each entry
        h[i][l], l-major, so the array is (|H| dim) x (dim k)."""
        d, k = self.dim, self.spec.k
        codes = np.array(H, dtype=np.int64).reshape(len(H) * d, d, 1)
        return (codes // self.spec.powers % self.spec.p).reshape(len(H) * d, d * k)

    def batch_codes(self, batch, b) -> np.ndarray:
        """Row j: the entry codes of h_j b, row-major.  Multiplication by b
        is F_p-linear: block (l, j) of its dk x dk matrix maps the
        coefficients of a to those of a * b[l][j], column s being
        x^s * b[l][j], whose coefficients are b[l][j]'s contracted with the
        field's ``shift``.  One integer matmul, then mod p and re-encode.
        Each sum has dk terms below p^2 <= 2^40 (FieldSpec caps q at 2^20)."""
        spec, d, k = self.spec, self.dim, self.spec.k
        coeffs = np.array(b, dtype=np.int64).reshape(d, d, 1) // spec.powers % spec.p  # [l, j, t]
        block = np.einsum("ljt,stu->lsju", coeffs, spec.shift) % spec.p
        coeffs = batch @ block.reshape(d * k, d * k) % spec.p
        return coeffs.reshape(-1, d * d, k) @ spec.powers

    def keys(self, codes: np.ndarray) -> list:
        d = self.dim
        codes = codes.reshape(-1, d, d)
        rows = [zip(*codes[:, i].T.tolist()) for i in range(d)]  # row i of each key
        return list(zip(*rows))

    def batch_mul(self, batch, b):
        return self.keys(self.batch_codes(batch, b))


class ProductOps:
    """Direct product of a base backend with the cyclic group C_r.

    Keys are (base_key, z) with z an exponent mod r; multiplication is
    componentwise.
    """

    def __init__(self, base, r: int):
        self.base = base
        self.r = r
        self.identity = (base.identity, 0)

    def mul(self, a, b):
        return (self.base.mul(a[0], b[0]), (a[1] + b[1]) % self.r)

    def inv(self, a):
        return (self.base.inv(a[0]), (-a[1]) % self.r)

    def batch(self, H):
        return self.base.batch([h[0] for h in H]), [h[1] for h in H]

    def batch_mul(self, batch, b):
        base, zs = batch
        r, z = self.r, b[1]
        return [(k, (y + z) % r) for k, y in zip(self.base.batch_mul(base, b[0]), zs)]


# ---------------------------------------------------------------------------
# groups


class FiniteGroup:
    """An enumerated finite group: canonical keys, sorted on first read.

    The group keeps the list of keys it was given.  ``in`` and ``order``
    never sort it; ``elements`` sorts it in place the first time
    it is read, and ``index`` enumerates the sorted list.  Membership is
    answered by a set of the keys until the index exists, and by the index
    after that, so a group never holds both.
    """

    def __init__(self, ops, elements: Iterable, generators: Sequence, name: str = "", members: Optional[set] = None):
        self.ops = ops
        self._list = elements if isinstance(elements, list) else list(elements)
        self._set = members  # a set of the same keys, when the caller has one
        self.generators = list(generators)
        self.name = name

    @cached_property
    def elements(self) -> list:
        self._list.sort()
        return self._list

    @cached_property
    def index(self) -> dict:
        self._set = None  # the index answers membership from now on
        return {k: i for i, k in enumerate(self.elements)}

    @property
    def members(self):
        """The keys as a set-like view, for membership and set algebra
        without sorting: the index's keys once it exists, else a set."""
        if "index" in self.__dict__:
            return self.index.keys()
        if self._set is None:
            self._set = set(self._list)
        return self._set

    @property
    def order(self) -> int:
        return len(self._list)

    @property
    def identity(self):
        return self.ops.identity

    def __contains__(self, key) -> bool:
        return key in self.members

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<{label} of order {self.order}>"

    @cached_property
    def generator_table(self) -> np.ndarray:
        """Row i lists the index of b * generators[i] for each element b.

        Built once per group from batched right products by each generator,
        after checking that the elements are closed under right products by
        the generators; ``cayley_tree`` checks that these reach every element.
        """
        index = self.index
        if self.identity not in index:
            raise GroupError("the identity is not an element")
        chunks = [self.ops.batch(self.elements[i : i + TABLE_CHUNK]) for i in range(0, self.order, TABLE_CHUNK)]
        rows = [[index.get(k, -1) for c in chunks for k in self.ops.batch_mul(c, g)] for g in self.generators]
        table = np.array(rows, dtype=np.intp).reshape(len(rows), self.order)
        if (table < 0).any():
            raise GroupError("the elements are not closed under the generators")
        return table

    @cached_property
    def cayley_tree(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The ``breadth_first_tree`` of the Cayley graph (edges b -> b g_k)
        from the identity, read off ``generator_table``.  It must span
        every element: then the generators generate the list."""
        layers = breadth_first_tree(self.generator_table, self.index[self.identity])
        if 1 + sum(len(children) for children, _, _ in layers) != self.order:
            raise GroupError("the generators do not generate the group")
        return layers


def breadth_first_tree(table: np.ndarray, root: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A breadth-first spanning tree of what ``root`` reaches along the
    edges p -> table[k, p] of a (t x n) index table (``generator_perms``
    for an orbit, ``generator_table`` for a Cayley graph): per layer, the
    new nodes, their parents and the generators' indices.

    Flattened, the layers are the edges (child, parent, k) in the order a
    first-in first-out search reaches them: a layer's candidates are
    formed parent-major, an unseen child keeps its first occurrence, and
    the next frontier is ordered by that occurrence, not by node index.
    So Schreier transversals, off-tree edges and products, and the
    stabilizers, x and roux read from them are the search's.  No report
    reads a Cayley tree's shape: characters are homomorphisms whatever
    words the tree gives and are sorted by key, and ``covering_kernel``
    sorts its output.
    """
    t = len(table)
    seen = np.zeros(table.shape[1], dtype=bool)
    frontier, layers = np.array([root]), []
    while frontier.size:
        seen[frontier] = True
        parents, gens = np.repeat(frontier, t), np.tile(np.arange(t), frontier.size)
        children = table[gens, parents]
        _, first = np.unique(children, return_index=True)
        first = np.sort(first[~seen[children[first]]])
        frontier = children[first]
        layers.append((frontier, parents[first], gens[first]))
    return layers


class GeneratedGroup:
    """A group carrier that is never enumerated: backend plus generators.

    Enough for actions, orbit searches, transversals and point
    stabilizers on groups too large (or too unnecessary) to materialize:
    the families and ``detect`` build their covers on one.
    """

    def __init__(self, ops, generators: Sequence, name: str = ""):
        self.ops = ops
        self.generators = list(generators)
        self.name = name

    def __repr__(self) -> str:
        return f"<generated group {self.name or '?'}>"


def closure(generators: Sequence, ops, cap: int = CLOSURE_CAP, name: str = "", order: Optional[int] = None) -> FiniteGroup:
    """The group generated by ``generators``, by Dimino's algorithm; its
    generators are the candidates that extended it ([identity] if none).

    A generator g outside the group H closed so far appends the right
    coset H g, then the coset representatives are walked: for each
    representative r and each generator s so far, a new r s brings in
    the coset H (r s).  A coset is one batched product of H by r, and
    the walk costs one scalar product per representative and generator.
    After the walk for a kept g_k, H r g_i = H (r g_i) makes the list the
    group <g_1, ..., g_k>, so skipping a listed candidate is the greedy
    step "skip an element of the running closure": for every element of
    a group, sorted, the kept ones are its greedy generating set.

    ``order``, when given, must be the order of the group generated: the
    walk and the scan end once that many elements are listed, which are
    then the whole group.  Candidates that generate a larger group list
    ``order`` of its elements, which ``generator_table`` refuses.
    """
    if not generators:
        raise GroupError("need at least one generator")
    mul = ops.mul
    elements = [ops.identity]
    members = {ops.identity}
    gens: list = []

    for g in generators:
        if len(elements) == order:
            break
        if g in members:
            continue
        gens.append(g)
        H = ops.batch(elements[1:])  # the group closed so far, identity dropped
        coset_size = len(elements)

        def add_coset(r) -> None:
            if len(elements) + coset_size > cap:
                raise CapExceededError(f"closure exceeded cap {cap}")
            coset = [r] + ops.batch_mul(H, r)
            elements.extend(coset)
            members.update(coset)

        reps = [g]
        add_coset(g)
        for r in reps:
            for s in gens:
                if len(elements) == order:
                    break
                c = mul(r, s)
                if c not in members:
                    reps.append(c)
                    add_coset(c)
    return FiniteGroup(ops, elements, gens or [ops.identity], name=name, members=members)


# ---------------------------------------------------------------------------
# actions


class GroupAction:
    """A left action of a (possibly unenumerated) group on a finite point set.

    ``group`` may be a FiniteGroup or any object with .ops/.generators;
    ``apply`` maps (element key, point) -> point.  The point set is stored
    sorted, so point indices are deterministic.

    The action axioms hold by construction; tests re-check them with
    ``oracles.check_action_axioms``.  Natural: (gh)[p] = g[h[p]].
    Projective and isotropic: apply(g, p) = P(g p), P(v) the normalized
    vector on the line of v, and P(c v) = P(v) for c != 0; matrix
    generators are invertible (singular ones are refused), so h p != 0
    and apply(gh, p) = apply(g, apply(h, p)).  The identity fixes every
    normalized point.  An invertible g that maps the finite point set
    into itself permutes it, and ``generator_perms``, which every orbit
    walk reads, refuses a generator that moves a point off the set.
    """

    def __init__(self, group, points: Iterable, apply: Callable):
        self.group = group
        self.points = sorted(points)
        self._apply = apply
        self._transversals: dict = {}

    @property
    def degree(self) -> int:
        return len(self.points)

    def act(self, gkey, point):
        return self._apply(gkey, point)

    @cached_property
    def point_index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def generator_perms(self) -> np.ndarray:
        """Row k lists the index of generators[k].p for each point p."""
        index = self.point_index
        perms = [[index.get(self._apply(g, p), -1) for p in self.points] for g in self.group.generators]
        perms = np.array(perms, dtype=np.intp).reshape(len(perms), self.degree)
        if (perms < 0).any():
            raise GroupError("a generator moves a point off the point set")
        return perms

    def transversal(self, base: int, root=None) -> Transversal:
        """The Schreier transversal of point index ``base``'s orbit with
        t_base = ``root`` (default the identity), built once per action,
        base and root."""
        if (base, root) not in self._transversals:
            self._transversals[base, root] = Transversal(self, base, root)
        return self._transversals[base, root]

    def is_transitive(self) -> bool:
        """Read off point 0's cached transversal, which ``stabilizer`` builds."""
        return len(self.transversal(0).reps) == self.degree


class Transversal:
    """The Schreier transversal of one orbit, and its Schreier products.

    Let b be the base point's index, g_k the generators and pi_k their
    point permutations.  Along the pi_k's ``breadth_first_tree`` from b
    (``layers``), t_b = 1 and t_q = g_k t_p on a tree edge (q, p, k), so
    t_j.b = j; ``reps`` and ``inv_reps`` hold t_j and t_j^{-1} for each
    orbit point j in the order it is reached, at one product each per tree
    edge.  ``off_tree`` lists the other edges (j, k), point by point and
    then by generator, and ``schreier`` their products
    s_jk = t_{pi_k j}^{-1} g_k t_j.

    Schreier's lemma: the s_jk generate the stabilizer of b.  Each fixes
    b, since g_k t_j.b = pi_k j = t_{pi_k j}.b.  Conversely, an element s
    fixing b is a word g_{k_m} ... g_{k_1} (in a finite group every
    inverse is a word too).  With j_0 = b and j_i = pi_{k_i} j_{i-1},
    inserting t_{j_i} t_{j_i}^{-1} between the letters gives
    s = t_{j_m} s_{j_{m-1} k_m} ... s_{j_0 k_1} t_{j_0}^{-1}, and
    t_{j_0} = t_{j_m} = 1 because j_m = s.b = b.  On a tree edge,
    t_{pi_k j} = g_k t_j and s_jk = 1, so only the off-tree products are
    formed.

    With a root r, t_b = r and every t_j and s_jk above is multiplied by r
    on the right and r^{-1} on the left: the products are the conjugates
    r^{-1} s_jk r, which generate r^{-1} Stab(b) r, and t_j carries the
    point r^{-1}.b to j.
    """

    def __init__(self, action: GroupAction, base: int, root=None):
        ops, gens = action.group.ops, action.group.generators
        # no reference back to the action, which caches this object: a
        # cycle would keep both alive until the cyclic collector runs
        self.base, self._ops, self._gens, self._perms = base, ops, gens, action.generator_perms
        self.layers = breadth_first_tree(action.generator_perms, base)
        self.reps = {base: ops.identity if root is None else root}
        self.inv_reps = {base: ops.identity if root is None else ops.inv(root)}
        ginvs = [ops.inv(g) for g in gens]
        children, parents, ks = (np.concatenate(a).tolist() for a in zip(*self.layers))
        for q, p, k in zip(children, parents, ks):
            self.reps[q] = ops.mul(gens[k], self.reps[p])
            self.inv_reps[q] = ops.mul(self.inv_reps[p], ginvs[k])
        on_tree = set(zip(parents, ks))
        self.off_tree = [(j, k) for j in self.reps for k in range(len(gens)) if (j, k) not in on_tree]

    @cached_property
    def schreier(self) -> list:
        """s_jk for each off-tree edge, in ``off_tree`` order: t_q^{-1} g_k
        for every orbit point q is one batched product per generator, then
        one product per edge."""
        ops, gens, perms = self._ops, self._gens, self._perms.tolist()
        orbit = list(self.inv_reps)
        batch = ops.batch(list(self.inv_reps.values()))
        left = [dict(zip(orbit, ops.batch_mul(batch, g))) for g in gens]
        return [ops.mul(left[k][perms[k][j]], self.reps[j]) for j, k in self.off_tree]


def natural_permutation_action(G) -> GroupAction:
    if not isinstance(G.ops, PermOps):
        raise GroupError("the natural action needs a permutation group")
    return GroupAction(G, range(G.ops.degree), lambda g, p: g[p])


def projective_point(spec: FieldSpec, v: Sequence[int]) -> tuple:
    """Canonical representative of the line through v: first nonzero coord = 1."""
    lead = next((i for i, c in enumerate(v) if c), None)
    if lead is None:
        raise GroupError("zero vector spans no line")
    scale = spec.inv(v[lead])
    return tuple(spec.mul(scale, c) for c in v)


def projective_line_action(G) -> GroupAction:
    """Action of a 2x2 matrix group on the q+1 points of the projective line."""
    ops = G.ops
    if not (isinstance(ops, MatOps) and ops.dim == 2):
        raise GroupError("the projective action needs a 2x2 matrix group")
    spec = ops.spec
    points = [projective_point(spec, (1, t)) for t in range(spec.q)]
    points.append(projective_point(spec, (0, 1)))
    return GroupAction(G, points, lambda g, p: projective_point(spec, ops.apply(g, p)))


def stabilizer(action: GroupAction, point) -> FiniteGroup:
    """Point stabilizer {g : g.point = point} of any group with ``ops``
    and ``generators``, which is never enumerated.  By Schreier's lemma
    (see ``Transversal``) the Schreier products of the point's cached
    transversal generate the stabilizer, so their closure is all of it.
    Closing its sorted elements again keeps their greedy generating set.
    No element is applied to a point beyond the cached ``generator_perms``."""
    G = action.group
    transversal = action.transversal(action.point_index[point])
    # closed generator by generator: 59 products on the bench SU(3,3),
    # against 201 point by point
    by_generator = sorted(zip(transversal.off_tree, transversal.schreier), key=lambda edge: edge[0][1])
    elements = closure([s for _, s in by_generator], G.ops).elements
    return closure(elements, G.ops, order=len(elements), name=f"subgroup of {G.name}")


def is_doubly_transitive(action: GroupAction, stab_action: GroupAction) -> bool:
    """True iff the stabilizer of the first point, acting on the same
    points through ``stab_action``, is transitive on the rest; an
    intransitive action raises ``TransitivityError``."""
    if not action.is_transitive():
        raise TransitivityError("action is not transitive (H1 fails)")
    if action.degree < 2:
        return False
    return sum(len(c) for c, _, _ in breadth_first_tree(stab_action.generator_perms, 1)) == action.degree - 2


def derived_subgroup(G: FiniteGroup) -> FiniteGroup:
    """Commutator subgroup: normal closure of generator commutators."""
    if G.order > DERIVED_CAP:
        raise CapExceededError("derived subgroup cap exceeded")
    ops = G.ops
    gens = G.generators
    comms = set()
    for a in gens:
        for b in gens:
            comms.add(ops.mul(ops.mul(a, b), ops.inv(ops.mul(b, a))))
    comms.discard(ops.identity)
    seeds = sorted(comms)
    while True:
        D = closure(seeds or [ops.identity], ops, name=f"subgroup of {G.name}")
        new = []
        for g in gens:
            ginv = ops.inv(g)
            for s in seeds:
                c = ops.mul(ops.mul(g, s), ginv)
                if c not in D:
                    new.append(c)
        if not new:
            return D
        seeds = sorted(set(seeds) | set(new))


# ---------------------------------------------------------------------------
# linear characters


@dataclass(frozen=True)
class LinearCharacter:
    """A homomorphism from a finite group into C_m, stored as exponents.

    ``values[i]`` is the exponent mod ``modulus`` of ``group.elements[i]``;
    characters are stored in reduced form, so the image is all of C_m.
    """

    modulus: int
    group: FiniteGroup = dataclass_field(compare=False, hash=False, repr=False)
    values: np.ndarray = dataclass_field(compare=False, hash=False, repr=False)
    key: tuple = ()

    def exponent(self, gkey) -> int:
        return int(self.values[self.group.index[gkey]])

    def verify_homomorphism(self) -> None:
        """Verify chi(ab) = chi(a) + chi(b) for all a, b in the group.

        Checked as chi(b g) = chi(b) + chi(g), one array comparison per row
        of the generator table.  By induction on words w in the generators,
        chi(a w g) = chi(a w) + chi(g) = chi(a) + chi(w g) (1 * g = g forces chi(1) = 0);
        the Cayley tree makes every element such a word."""
        G, values = self.group, self.values
        G.cayley_tree
        for g, row in zip(G.generators, G.generator_table):
            if ((values + values[G.index[g]]) % self.modulus != values[row]).any():
                raise GroupError("character is not a homomorphism")


def _relation_basis(words: np.ndarray, table: np.ndarray) -> list[list[int]]:
    """An upper triangular basis, positive on the diagonal, of the lattice
    R spanned by the Schreier relators w(b) + e_k - w(b g_k).  R contains
    D Z^t, D the group order, so entries are kept mod D off the diagonal.

    The relators of a chunk of elements are reduced by the basis at once,
    and the first that does not vanish is merged into it by Euclid's
    algorithm on rows, until the chunk vanishes.  Each merge lowers a
    diagonal entry to a proper divisor, so after the first chunks most
    relators vanish in one pass.
    """
    D, t = words.shape
    H = [[D if i == j else 0 for j in range(t)] for i in range(t)]
    for start in range(0, D, TABLE_CHUNK):
        chunk = slice(start, start + TABLE_CHUNK)
        rows = (words[chunk, None, :] + np.eye(t, dtype=np.int64) - words[table[:, chunk].T]).reshape(-1, t) % D
        while True:
            for i in range(t):
                h = np.array(H[i][i:], dtype=np.int64)
                rows[:, i:] -= (rows[:, i] // h[0])[:, None] * h
                rows[:, i + 1 :] %= D
            rows = rows[rows.any(axis=1)]
            if not len(rows):
                break
            v = rows[0].tolist()
            for i in range(t):
                while v[i]:  # 0 < v[i] < D, so the pivot stays positive
                    q = H[i][i] // v[i]
                    H[i], v = v, [(h - q * u) % D for h, u in zip(H[i], v)]
    return H


def check_enumeration_cap(order: int, name: str = "group") -> None:
    """Refuse to list the characters of more than ``DERIVED_CAP`` elements: the one size bound."""
    if order > DERIVED_CAP:
        raise CapExceededError(f"{name} order {order} exceeds the enumeration cap {DERIVED_CAP}")


def enumerate_linear_characters(G: FiniteGroup) -> list[LinearCharacter]:
    """All homomorphisms G -> T, one per element of the dual of G/[G,G].

    The Cayley tree writes each element b as a word with generator counts
    w(b).  By Schreier's lemma the
    vectors w(b) + e_k - w(b g_k) span the relation lattice R with
    Z^t / R = G/[G,G], which contains |G| Z^t; its triangular basis H
    gives N = prod H_ii = |G/[G,G]|.  The characters are the N solutions f
    of H f = 0 (mod N), found by back substitution: chi(b) = w(b) . f mod N,
    divided by gcd(N, f) into reduced form.  Output is sorted by (modulus,
    exponents on the generators), trivial character first.
    """
    check_enumeration_cap(G.order)
    t = len(G.generators)
    words = np.zeros((G.order, t), dtype=np.int64)
    for children, parents, gens in G.cayley_tree:
        words[children] = words[parents]
        words[children, gens] += 1
    H = _relation_basis(words, G.generator_table)
    N = math.prod(H[i][i] for i in range(t))
    if N > CHARACTER_CAP:
        raise CapExceededError("abelianization exceeds character cap")
    # solutions on coordinates i..t-1, one per row, last coordinate first
    F = np.zeros((1, 0), dtype=np.int64)
    for i in reversed(range(t)):
        h = H[i][i]
        c = F @ np.array(H[i][i + 1 :], dtype=np.int64) % N
        if (c % h).any():
            raise GroupError("relation basis has an unsolvable row")
        base = -(c // h) % (N // h)
        column = (base[:, None] + np.arange(h) * (N // h)).reshape(-1, 1)
        F = np.hstack([column, np.repeat(F, h, axis=0)])
    out = []
    for f in F:
        g = math.gcd(N, *f.tolist())
        m = N // g
        values = words @ f % N // g
        key = (1, ()) if m == 1 else (m, tuple(int(values[G.index[s]]) for s in G.generators))
        out.append(LinearCharacter(m, G, values, key))
    out.sort(key=lambda c: c.key)
    return out


# ---------------------------------------------------------------------------
# JSON group specs


def _json_count(data: dict, key: str) -> int:
    """``data[key]`` as a JSON integer of at least 1."""
    value = json_int(data[key], key, GroupError)
    if value < 1:
        raise GroupError(f"{key}: expected at least 1, got {value}")
    return value


def parse_group_spec(data: dict) -> tuple:
    """Backend, generator keys, and name from a JSON group spec; nothing
    is closed or enumerated.

    Every count, image and entry must be a JSON integer, ``degree``,
    ``dim`` and ``r`` at least 1, ``generators`` a nonempty list, and
    every matrix invertible; anything else raises ``GroupError``
    (``FieldError`` inside the field spec).  Before anything of their
    size is built, ``degree`` and ``dim``^2, the sizes of the backend's
    identity, are checked against ``MAX_ORDER``, and a generator's length
    against ``degree``.  A ``product`` spec gives G x C_r on
    ``ProductOps``, generated by (g, 0) for each generator g of its
    ``base`` and (1, 1 mod r).
    """
    if not isinstance(data, dict):
        raise GroupError(f"group spec: expected an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "product":
        ops, gens, name = parse_group_spec(data["base"])
        r = _json_count(data, "r")
        return ProductOps(ops, r), [(g, 0) for g in gens] + [(ops.identity, 1 % r)], f"{name} x C_{r}"
    if kind == "permutation":
        degree = _json_count(data, "degree")
        if degree > MAX_ORDER:
            raise GroupError(f"degree: at most {MAX_ORDER} points, got {degree}")
        gens = [tuple(json_int(i, "generators", GroupError) for i in g) for g in _generators(data)]
        for g in gens:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise GroupError(f"not a permutation of [{degree}]: {g}")
        return PermOps(degree), gens, data.get("name", "permutation group")
    if kind == "matrix":
        spec = FieldSpec.from_json(data["field"])
        dim = _json_count(data, "dim")
        if dim * dim > MAX_ORDER:
            raise GroupError(f"dim: at most {MAX_ORDER} matrix entries, got {dim} x {dim}")
        ops = MatOps(spec, dim)
        gens = []
        for flat in _generators(data):
            if len(flat) != dim * dim:
                raise GroupError("generator has wrong number of entries")
            entries = []
            for e in flat:
                coeffs = [json_int(c, "generators", GroupError) for c in (e if isinstance(e, list) else [e])]
                if len(coeffs) > spec.k:
                    raise FieldError("too many coefficients")
                entries.append(spec.encode(coeffs))
            gens.append(tuple(tuple(entries[i * dim + j] for j in range(dim)) for i in range(dim)))
            try:
                ops.inv(gens[-1])
            except GroupError:
                raise GroupError(f"generator {len(gens) - 1} is a singular matrix") from None
        return ops, gens, data.get("name", "matrix group")
    raise GroupError(f"unknown group kind {kind!r}")


def _generators(data: dict) -> list:
    """``data["generators"]``, a nonempty list: the group they generate
    is never closed, so an empty one is refused here."""
    gens = data["generators"]
    if type(gens) is not list or not gens:
        raise GroupError("generators: expected a nonempty list")
    return gens
