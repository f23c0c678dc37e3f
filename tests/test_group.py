import bisect
import math
import random
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rouxforge import group
from rouxforge.field import TABLE_LIMIT, FieldSpec
from rouxforge.families import BitMatOps, isotropic_line_action, sl2_cover, su3_cover, symplectic_witness
from rouxforge.group import (
    CapExceededError,
    FiniteGroup,
    GeneratedGroup,
    GroupAction,
    GroupError,
    LinearCharacter,
    MatOps,
    PermOps,
    ProductOps,
    breadth_first_tree,
    closure,
    derived_subgroup,
    enumerate_linear_characters,
    is_doubly_transitive,
    natural_permutation_action,
    parse_group_spec,
    projective_line_action,
    stabilizer,
)
from rouxforge.oracles import (
    check_action_axioms,
    closure_bfs,
    direct_product_with_cyclic,
    double_coset_decomposition,
    is_doubly_transitive_bruteforce,
    isotropic_points_scan,
    matrix_product_poly,
    search_tree,
    stabilizer_scan,
    subgroup,
)
from rouxforge.radical import CoverData, RadicalError
from util import materialized, record_calls, su33_bench_generators, su33_bench_spec, tree_edges


def s3():
    ops = PermOps(3)
    return closure([(1, 0, 2), (1, 2, 0)], ops, name="S3")


def sl2(q):
    spec = FieldSpec(*(qk for qk in _pk(q)))
    ops = MatOps(spec, 2)
    gens = [((1, 1), (0, 1)), ((0, 1), (spec.neg(1), 0))]
    return closure(gens, ops, name=f"SL(2,{q})")


def _pk(q):
    for p in range(2, q + 1):
        k = 0
        qq = q
        while qq % p == 0:
            qq //= p
            k += 1
        if qq == 1:
            return (p, k)
        if q % p == 0:
            break
    raise ValueError(f"{q} is not a prime power")


def test_closure_s3():
    G = s3()
    assert G.order == 6


def test_closure_sl25():
    G = sl2(5)
    assert G.order == 120  # q(q^2-1)


def test_closure_cap():
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    with pytest.raises(CapExceededError):
        closure(gens, PermOps(5), cap=10)
    # the cap is exact: |G| passes, |G| - 1 raises
    assert closure(gens, PermOps(5), cap=120).order == 120
    with pytest.raises(CapExceededError):
        closure(gens, PermOps(5), cap=119)
    U = materialized(su3_cover(3)[0]).action.group
    assert closure(U.generators, U.ops, cap=6048).order == 6048
    with pytest.raises(CapExceededError):
        closure(U.generators, U.ops, cap=6047)


@st.composite
def permutation_generators(draw):
    n = draw(st.integers(2, 7))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return n, [tuple(g) for g in gens]


@settings(max_examples=150, deadline=None)
@given(permutation_generators())
def test_closure_matches_bfs_oracle_on_permutations(case):
    n, gens = case
    G = closure(gens, PermOps(n))
    assert G.elements == closure_bfs(gens, PermOps(n)).elements
    # the generators that extend the closure of the ones before them
    kept, reached = [], {PermOps(n).identity}
    for g in gens:
        if g not in reached:
            kept.append(g)
            reached = set(closure_bfs(kept, PermOps(n)).elements)
    assert G.generators == (kept or [PermOps(n).identity])


@settings(max_examples=150, deadline=None)
@given(permutation_generators(), st.data())
def test_breadth_first_tree_lists_the_fifo_search_edges_on_permutations(case, data):
    n, gens = case
    perms = np.array(gens, dtype=np.intp)  # row k: the images g_k(p), the natural action's point permutations
    root = data.draw(st.integers(0, n - 1))
    assert tree_edges(breadth_first_tree(perms, root)) == search_tree(perms, root)


@cache
def cover_tables(q: int) -> list:
    """G*'s and the stabilizer's point permutations and the stabilizer's
    generator table, for sl2_cover(q) or (q = 3) su3_cover(3) too."""
    covers = [sl2_cover(q)[0]] + ([su3_cover(3)[0]] if q == 3 else [])
    return [t for c in covers for t in (c.action.generator_perms, c.stab_action.generator_perms, c.stab.generator_table)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13]), st.data())
def test_breadth_first_tree_lists_the_fifo_search_edges_on_covers(q, data):
    for table in cover_tables(q):
        root = data.draw(st.integers(0, table.shape[1] - 1))
        assert tree_edges(breadth_first_tree(table, root)) == search_tree(table, root)


def test_closure_matches_bfs_oracle_on_matrices():
    G = sl2(5)
    assert G.elements == closure_bfs(G.generators, G.ops).elements
    U = materialized(su3_cover(3)[0]).action.group
    assert U.order == 6048
    assert U.elements == closure_bfs(U.generators, U.ops).elements
    ops, gens = su33_bench_generators()
    V = closure(gens, ops)
    assert V.order == 6048
    assert V.elements == closure_bfs(gens, ops).elements
    # GL(4,2), of order 20160: a transvection and the 4-cycle of the basis
    bit = BitMatOps(4)
    gens = [(0b0011, 0b0010, 0b0100, 0b1000), (0b0010, 0b0100, 0b1000, 0b0001)]
    L = closure(gens, bit)
    assert L.order == 20160
    assert L.elements == closure_bfs(gens, bit).elements


def _matrices(spec, dim):
    row = st.lists(st.integers(0, spec.q - 1), min_size=dim, max_size=dim).map(tuple)
    return st.lists(row, min_size=dim, max_size=dim).map(tuple)


def _bit_matrices(dim):
    return st.lists(st.integers(0, (1 << dim) - 1), min_size=dim, max_size=dim).map(tuple)


F9 = FieldSpec(3, 2)
BATCH_BACKENDS = {
    "perm": (PermOps(7), st.permutations(range(7)).map(tuple)),
    "F_7": (MatOps(FieldSpec(7), 3), _matrices(FieldSpec(7), 3)),
    "F_9": (MatOps(F9, 3), _matrices(F9, 3)),
    "F_64": (MatOps(FieldSpec(2, 6), 2), _matrices(FieldSpec(2, 6), 2)),
    "F_4099": (MatOps(FieldSpec(4099), 2), _matrices(FieldSpec(4099), 2)),
    "bits-6": (BitMatOps(6), _bit_matrices(6)),
    "bits-11": (BitMatOps(11), _bit_matrices(11)),
    "product": (ProductOps(MatOps(F9, 2), 4), st.tuples(_matrices(F9, 2), st.integers(0, 3))),
}


@pytest.mark.parametrize("backend", sorted(BATCH_BACKENDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_mul_matches_scalar_products(backend, data):
    assert FieldSpec(4099).q > TABLE_LIMIT  # the F_4099 case has no field tables
    ops, elements = BATCH_BACKENDS[backend]
    H = data.draw(st.lists(elements, max_size=12))
    b = data.draw(elements)
    assert ops.batch_mul(ops.batch(H), b) == [ops.mul(h, b) for h in H]


ORACLE_FIELDS = {
    "F_7": FieldSpec(7),
    "F_9": F9,
    "F_16": FieldSpec(2, 4),
    "F_31": FieldSpec(31),
    "F_64": FieldSpec(2, 6),
    "F_4099": FieldSpec(4099),
    "F_4489": FieldSpec(67, 2, (65, 0, 1)),  # x^2 - 2, above TABLE_LIMIT
    "F_8192": FieldSpec(2, 13, (1, 1, 0, 1, 1) + (0,) * 8 + (1,)),  # x^13 + x^4 + x^3 + x + 1
}


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_matrix_arithmetic_matches_the_polynomial_oracle(name, data):
    spec = ORACLE_FIELDS[name]
    dim = data.draw(st.integers(1, 3))
    ops = MatOps(spec, dim)
    a, b = data.draw(_matrices(spec, dim)), data.draw(_matrices(spec, dim))
    v = data.draw(st.lists(st.integers(0, spec.q - 1), min_size=dim, max_size=dim).map(tuple))
    H = data.draw(st.lists(_matrices(spec, dim), max_size=6))
    assert ops.mul(a, b) == matrix_product_poly(spec, a, b)
    assert ops.apply(a, v) == tuple(e for (e,) in matrix_product_poly(spec, a, [(x,) for x in v]))
    assert ops.batch_mul(ops.batch(H), b) == [matrix_product_poly(spec, h, b) for h in H]
    # an invertible matrix as (lower unitriangular) x (upper, nonzero diagonal)
    lower = tuple(tuple(1 if i == j else a[i][j] if j < i else 0 for j in range(dim)) for i in range(dim))
    upper = tuple(tuple((b[i][j] or 1) if i == j else b[i][j] if j > i else 0 for j in range(dim)) for i in range(dim))
    c = matrix_product_poly(spec, lower, upper)
    assert matrix_product_poly(spec, c, ops.inv(c)) == ops.identity


def test_three_oracle_fields_lie_above_the_table_limit():
    big = [spec for spec in ORACLE_FIELDS.values() if spec.q > TABLE_LIMIT]
    assert sorted((spec.q, spec.k) for spec in big) == [(4099, 1), (4489, 2), (8192, 13)]


@pytest.mark.parametrize("name", ["F_9", "F_16", "F_4489"])
def test_batch_mul_makes_no_field_products_after_its_first_call(name, monkeypatch):
    spec = ORACLE_FIELDS[name]
    ops = MatOps(spec, 3)
    rng = random.Random(5)
    H = ops.batch([tuple(tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3)) for _ in range(4)])
    ops.batch_mul(H, ops.identity)
    calls = []
    original = FieldSpec.mul
    monkeypatch.setattr(FieldSpec, "mul", lambda self, x, y: calls.append(1) or original(self, x, y))
    for _ in range(3):
        ops.batch_mul(H, tuple(tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3)))
    assert calls == []


class CountingOps:
    """A backend wrapper counting scalar products, inverses and batched cosets."""

    def __init__(self, ops):
        self.ops = ops
        self.identity = ops.identity
        self.mul_calls = 0
        self.inv_calls = 0
        self.cosets = 0

    def mul(self, a, b):
        self.mul_calls += 1
        return self.ops.mul(a, b)

    def inv(self, a):
        self.inv_calls += 1
        return self.ops.inv(a)

    def batch(self, H):
        return self.ops.batch(H)

    def batch_mul(self, batch, b):
        self.cosets += 1
        return self.ops.batch_mul(batch, b)


@pytest.mark.parametrize("which", ["su33-bench", "sp6-witness-stabilizer"])
def test_closure_makes_scalar_products_only_between_representatives_and_generators(which, monkeypatch):
    if which == "su33-bench":
        ops, gens = su33_bench_generators()
    else:
        closed = record_calls(monkeypatch, group, "closure")
        symplectic_witness(3, +1)
        monkeypatch.undo()
        O = next(G for G in closed if G.order == 40320)  # O+(6,2)
        ops, gens = O.ops, O.generators
    # Dimino's coset representatives: each generator that enlarges the
    # group K closed so far brings in the |new| / |K| - 1 cosets besides K
    reps, previous = 0, 1
    for k in range(1, len(gens) + 1):
        order = closure(gens[:k], ops).order
        reps += order // previous - 1
        previous = order
    counting = CountingOps(ops)
    G = closure(gens, counting)
    assert G.order == previous
    assert counting.cosets == reps
    assert counting.mul_calls <= reps * len(gens) < G.order // 4


def greedy_generators_bfs(ops, elements):
    """The greedy generating set, recomputing each closure by breadth-first search."""
    gens = []
    current = {ops.identity}
    for el in sorted(elements):
        if el not in current:
            gens.append(el)
            current = set(closure_bfs(gens, ops).elements)
            if len(current) == len(elements):
                break
    return gens or [ops.identity]


def greedy_set(G) -> list:
    """The greedy generating set of G's sorted elements, as ``closure``
    keeps it."""
    return closure(G.elements, G.ops, order=G.order).generators


@pytest.mark.parametrize("q", [5, 7, 13])
def test_small_generating_set_matches_greedy_oracle_borel(q):
    stab = sl2_cover(q)[0].stab
    assert greedy_set(stab) == stab.generators == greedy_generators_bfs(stab.ops, stab.elements)


def test_small_generating_set_matches_greedy_oracle_su33_stabilizer():
    stab = su3_cover(3)[0].stab
    assert stab.order == 216
    assert stab.generators == greedy_generators_bfs(stab.ops, stab.elements)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_keeps_the_greedy_generating_set_of_permutation_groups(data):
    G = data.draw(small_permutation_groups())
    assert greedy_set(G) == greedy_generators_bfs(G.ops, G.elements)


def test_generator_table_rejects_a_bad_presentation():
    ops = PermOps(3)
    S3 = s3()
    with pytest.raises(GroupError, match="not closed"):
        FiniteGroup(ops, [(0, 1, 2), (1, 0, 2)], [(1, 2, 0)]).generator_table
    # closed under the 3-cycle, which misses the transpositions: only the
    # Cayley tree finds that
    C3 = FiniteGroup(ops, S3.elements, [(1, 2, 0)])
    assert C3.generator_table.shape == (1, 6)
    with pytest.raises(GroupError, match="do not generate"):
        C3.cayley_tree


def test_generation_is_proved_by_the_cayley_tree_alone():
    # the character check and the cover check refuse generators that miss
    # an element, through the tree
    ops = PermOps(3)
    C3 = FiniteGroup(ops, s3().elements, [(1, 2, 0)])
    trivial = LinearCharacter(1, C3, np.zeros(6, dtype=np.int64))
    with pytest.raises(GroupError, match="do not generate"):
        trivial.verify_homomorphism()
    action = natural_permutation_action(s3())
    stab = FiniteGroup(ops, [(0, 1, 2), (0, 2, 1)], [(0, 1, 2)])  # the identity cannot reach (0 2 1)
    with pytest.raises(GroupError, match="do not generate"):
        CoverData(action, stab, 0).verify()


def test_stabilizer_s3():
    G = s3()
    act = natural_permutation_action(G)
    stab = stabilizer(act, 0)
    assert stab.order == 2


def test_stabilizer_sl25_projective():
    G = sl2(5)
    act = projective_line_action(G)
    assert act.degree == 6
    stab = stabilizer(act, act.points[0])
    assert stab.order == 20  # q(q-1)


def check_stabilizers_against_the_scan(action):
    """Every point's Schreier stabilizer against the element scan, and the
    detector's x (the least element outside it, found without sorting the
    group) and its index in the sorted group against their definitions."""
    G = action.group
    found = []
    for point in action.points:
        cover = CoverData(action, stabilizer(action, point), point)
        if cover.stab.order < G.order:
            found.append((point, cover.stab, cover.first_outside_stabilizer()))
        else:
            with pytest.raises(RadicalError, match="equals its stabilizer"):
                cover.first_outside_stabilizer()
            found.append((point, cover.stab, None))
    assert unsorted(G)
    for point, stab, x in found:
        scan = stabilizer_scan(action, point)
        assert stab.elements == scan.elements
        assert stab.generators == scan.generators
        if x is not None:
            assert x == next(g for g in G.elements if g not in scan)
            # the report's key index: G's elements below x all lie in the stabilizer
            assert bisect.bisect_left(stab.elements, x) == G.elements.index(x)


def su33_bench_action():
    ops, gens = su33_bench_generators()
    return isotropic_line_action(closure(gens, ops))


STABILIZER_ACTIONS = {
    **{f"sl2_q{q}_projective": (lambda q=q: projective_line_action(sl2(q))) for q in (5, 7, 9)},
    "su33_bench_isotropic": su33_bench_action,
    "A5_natural": lambda: natural_permutation_action(closure([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], PermOps(5))),
    "S4_natural": lambda: natural_permutation_action(closure([(1, 0, 2, 3), (1, 2, 3, 0)], PermOps(4))),
}


@pytest.mark.parametrize("case", sorted(STABILIZER_ACTIONS))
def test_stabilizer_matches_the_scan(case):
    check_stabilizers_against_the_scan(STABILIZER_ACTIONS[case]())


def generated_copy(action):
    """The same action through its group's generators alone, as ``detect``
    builds it: the group is never enumerated."""
    G = action.group
    return GroupAction(GeneratedGroup(G.ops, G.generators, name=G.name), action.points, action.act)


@pytest.mark.parametrize("case", sorted(STABILIZER_ACTIONS))
def test_stabilizer_of_a_generated_group_matches_the_scan_of_its_closure(case):
    closed = STABILIZER_ACTIONS[case]()
    action = generated_copy(closed)
    for point in closed.points:
        stab, scan = stabilizer(action, point), stabilizer_scan(closed, point)
        assert stab.elements == scan.elements
        assert stab.generators == scan.generators


@pytest.mark.parametrize("case", sorted(STABILIZER_ACTIONS))
def test_coset_search_finds_the_least_element_outside_the_stabilizer(case):
    # x is searched over the cosets G0* t_j^-1 of a group that is only
    # generated, against the set difference of the closed group
    closed = STABILIZER_ACTIONS[case]()
    action = generated_copy(closed)
    members = set(closed.group.elements)
    for point in closed.points:
        cover = CoverData(action, stabilizer(action, point), point)
        assert cover.first_outside_stabilizer() == min(members - set(cover.stab.elements))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_isotropic_points_match_the_scan_of_every_vector(q):
    p, k = _pk(q)
    ops = MatOps(FieldSpec(p, 2 * k), 3)
    action = isotropic_line_action(GeneratedGroup(ops, [ops.identity]))
    assert action.points == isotropic_points_scan(ops.spec, q)
    assert action.degree == q**3 + 1


def test_stabilizer_applies_no_element_once_the_point_permutations_are_cached():
    inner = su33_bench_action()
    calls = []

    def apply(g, p):
        calls.append((g, p))
        return inner.act(g, p)

    action = GroupAction(inner.group, inner.points, apply)
    action.generator_perms
    calls.clear()
    assert stabilizer(action, action.points[0]).order == 216
    assert calls == []


def unsorted(G) -> bool:
    return not {"elements", "index"} & vars(G).keys()


def test_stabilizer_closes_the_schreier_products_without_closing_the_group(monkeypatch):
    # the stabilizer's own closure (the first one it makes) walks every
    # coset of the Schreier products' closure, at 59 products; no closure
    # reaches the order 6048 of the group, which is only generated
    ops, gens = su33_bench_generators()
    action = isotropic_line_action(GeneratedGroup(ops, gens))
    action.transversal(0).schreier
    original, counts, orders = group.closure, [], []

    def counting_closure(generators, ops, *args, **kwargs):
        counting = CountingOps(ops)
        G = original(generators, counting, *args, **kwargs)
        counts.append(counting.mul_calls)
        orders.append(G.order)
        return G

    monkeypatch.setattr(group, "closure", counting_closure)
    stab = stabilizer(action, action.points[0])
    assert stab.order == 216
    assert counts[0] == 59
    assert max(orders) == 216


CLOSURE_COUNTS = {
    "su3_cover(4)": (lambda: su3_cover(4), 1),
    "sl2_cover(31)": (lambda: sl2_cover(31), 1),
    # what `family sp --m 3` closes: O+(6,2) and its derived subgroup
    "symplectic_witness(3)": (lambda: symplectic_witness(3, +1), 2),
}


@pytest.mark.parametrize("case", sorted(CLOSURE_COUNTS))
def test_a_listed_group_and_its_greedy_generating_set_take_one_closure(case, monkeypatch):
    build, count = CLOSURE_COUNTS[case]
    closed = record_calls(monkeypatch, group, "closure")
    build()
    assert len(closed) == count


def test_closure_stops_at_a_given_order():
    ops, gens = su33_bench_generators()
    walked, stopped = CountingOps(ops), CountingOps(ops)
    full = closure(gens, walked)
    assert closure(gens, stopped, order=full.order).elements == full.elements
    assert stopped.mul_calls < walked.mul_calls


def test_su3_cover_lists_its_stabilizer_by_cosets(monkeypatch):
    # q^3 (q^2 - 1) = 960 elements at q = 4: a scalar product per element
    # would make four times the bound
    q, calls = 4, []
    original = MatOps.mul
    monkeypatch.setattr(MatOps, "mul", lambda self, a, b: calls.append(1) or original(self, a, b))
    stab = su3_cover(q)[0].stab
    assert stab.order == q**3 * (q * q - 1)
    assert len(calls) < q**3 * (q * q - 1) // 4


def test_a_closed_group_sorts_on_first_read():
    G = sl2(7)
    assert unsorted(G)
    assert G.order == 336
    assert G.identity in G and ((1, 2), (0, 1)) in G and ((2, 0), (0, 2)) not in G
    assert unsorted(G)
    keys = list(G.members)
    assert G.elements == sorted(keys)
    assert not unsorted(G) and "index" not in vars(G)
    assert G.index == {k: i for i, k in enumerate(sorted(keys))}
    assert type(G.members) is type({}.keys())  # the index answers membership; no set is kept
    assert ((1, 2), (0, 1)) in G and ((2, 0), (0, 2)) not in G
    # the order counts the given list
    assert FiniteGroup(G.ops, [G.identity, G.identity], [G.identity]).order == 2


def test_the_symplectic_witness_leaves_its_groups_unsorted(monkeypatch):
    # the closures of O+(6,2) and of its derived subgroup: the
    # witness reads their orders only
    closed = record_calls(monkeypatch, group, "closure")
    symplectic_witness(3, +1)
    assert sorted({G.order for G in closed})[-2:] == [20160, 40320]
    assert all(unsorted(G) for G in closed)


def test_action_compatibility():
    # every kind of action production builds satisfies the axioms that
    # GroupAction proves instead of checking
    S4 = closure([(1, 0, 2, 3), (1, 2, 3, 0)], PermOps(4), name="S4")
    A5 = closure([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], PermOps(5), name="A5")
    actions = [natural_permutation_action(S4), natural_permutation_action(A5)]
    actions += [sl2_cover(q)[0].action for q in (5, 7, 13, 31)]
    actions += [su3_cover(q)[0].action for q in (3, 4)]
    actions.append(isotropic_line_action(GeneratedGroup(*parse_group_spec(su33_bench_spec()))))
    for action in actions:
        check_action_axioms(action)


def test_action_axioms_oracle_rejects_a_non_action():
    G = s3()
    square = GroupAction(G, range(3), lambda g, p: g[g[p]])  # g -> g^2 is no homomorphism of S3
    with pytest.raises(GroupError, match="incompatible"):
        check_action_axioms(square)


def test_orbit_walks_read_the_cached_point_permutations():
    # building the cover applies each generator to each point once;
    # after that the orbit walks apply nothing
    G = sl2(5)
    inner = projective_line_action(G)
    stab = stabilizer(inner, inner.points[0])
    calls = []

    def apply(g, p):
        calls.append((g, p))
        return inner.act(g, p)

    action = GroupAction(G, inner.points, apply)
    CoverData(action, stab)
    assert len(calls) == len(G.generators) * action.degree
    calls.clear()
    assert action.is_transitive()
    assert len(action.transversal(3).reps) == action.degree
    assert calls == []


def doubly_transitive(action):
    return is_doubly_transitive(action, CoverData(action, stabilizer(action, action.points[0])).stab_action)


def test_is_doubly_transitive():
    assert doubly_transitive(natural_permutation_action(s3()))
    # C4 acting on itself by translation: regular, not 2-transitive
    ops = PermOps(4)
    C4 = closure([(1, 2, 3, 0)], ops, name="C4")
    assert not doubly_transitive(natural_permutation_action(C4))
    assert doubly_transitive(projective_line_action(sl2(7)))


def test_doubly_transitive_matches_bruteforce():
    cases = [
        natural_permutation_action(s3()),
        natural_permutation_action(closure([(1, 2, 3, 0)], PermOps(4))),
        projective_line_action(sl2(5)),
        natural_permutation_action(
            closure([(1, 0, 2, 3), (1, 2, 3, 0)], PermOps(4), name="S4")
        ),
    ]
    for act in cases:
        assert doubly_transitive(act) == is_doubly_transitive_bruteforce(act)


def test_double_cosets_s3():
    G = s3()
    H = subgroup(G, [G.identity, (1, 0, 2)])
    cells = double_coset_decomposition(G, H)
    assert sorted(len(c) for c in cells) == [2, 4]


def test_double_cosets_two_transitive_stabilizer():
    G = sl2(5)
    act = projective_line_action(G)
    H = stabilizer(act, act.points[0])
    assert len(double_coset_decomposition(G, H)) == 2


def test_double_cosets_whole_group():
    G = s3()
    H = subgroup(G, G.elements)
    assert len(double_coset_decomposition(G, H)) == 1


def test_double_coset_size_formula():
    G = sl2(5)
    act = projective_line_action(G)
    H = stabilizer(act, act.points[0])
    hset = set(H.elements)
    for cell in double_coset_decomposition(G, H):
        x = cell[0]
        xinv = G.ops.inv(x)
        inter = sum(1 for h in H.elements if G.ops.mul(G.ops.mul(x, h), xinv) in hset)
        assert len(cell) == H.order**2 // inter


def test_characters_are_refused_above_the_enumeration_cap(monkeypatch):
    # the families refuse a q in the same words, from the stabilizer's
    # closed-form order; derived_subgroup keeps its own message
    monkeypatch.setattr(group, "DERIVED_CAP", 5)
    G = s3()
    with pytest.raises(CapExceededError, match="^group order 6 exceeds the enumeration cap 5$"):
        enumerate_linear_characters(G)
    with pytest.raises(CapExceededError, match="^derived subgroup cap exceeded$"):
        derived_subgroup(G)


def test_derived_subgroup():
    ops = PermOps(4)
    C4 = closure([(1, 2, 3, 0)], ops)
    assert derived_subgroup(C4).order == 1
    G = s3()
    D = derived_subgroup(G)
    assert D.order == 3
    # Borel subgroup of SL(2,5): derived subgroup of order 5, abelianization C4
    G = sl2(5)
    act = projective_line_action(G)
    B = stabilizer(act, act.points[0])
    D = derived_subgroup(B)
    assert D.order == 5
    assert B.order // D.order == 4


def test_character_counts():
    G = sl2(5)
    act = projective_line_action(G)
    B = stabilizer(act, act.points[0])
    chars = enumerate_linear_characters(B)
    assert len(chars) == 4
    orders = sorted(c.modulus for c in chars)
    assert orders == [1, 2, 4, 4]  # dual of C4
    for c in chars:
        c.verify_homomorphism()
    # pairwise distinct
    sigs = {(c.modulus,) + tuple(c.values.tolist()) for c in chars}
    assert len(sigs) == 4


def test_verify_homomorphism_rejects_one_corrupted_exponent():
    B = stabilizer(projective_line_action(sl2(5)), (1, 0))
    chi = next(c for c in enumerate_linear_characters(B) if c.modulus == 4)
    target = next(g for g in B.elements if g not in B.generators and g != B.identity)
    values = chi.values.copy()
    values[B.index[target]] = (values[B.index[target]] + 1) % 4
    with pytest.raises(GroupError, match="not a homomorphism"):
        LinearCharacter(4, B, values, chi.key).verify_homomorphism()


def test_verify_homomorphism_reads_every_generator_row():
    # f(t b) = f(t) + f(b) holds for the transposition t on every b, but
    # f is not the sign: it fails on the 3-cycle's row
    t, c = (1, 0, 2), (1, 2, 0)
    S3 = FiniteGroup(PermOps(3), s3().elements, [t, c])
    f = {S3.identity: 0, t: 1}
    for b in (c, S3.ops.mul(c, c)):
        f[b] = 1
        f[S3.ops.mul(t, b)] = 0
    assert all((f[t] + f[b]) % 2 == f[S3.ops.mul(t, b)] for b in S3.elements)
    values = np.array([f[b] for b in S3.elements])
    with pytest.raises(GroupError, match="not a homomorphism"):
        LinearCharacter(2, S3, values, (2, ())).verify_homomorphism()


def test_characters_trivial_abelianization():
    # A4 is perfect? no: A4' = V4, abelianization C3 -> use A5 (perfect)
    ops = PermOps(5)
    A5 = closure([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], ops, name="A5")
    assert A5.order == 60
    chars = enumerate_linear_characters(A5)
    assert len(chars) == 1 and chars[0].modulus == 1


def check_characters_against_the_derived_subgroup(G):
    """Count against |G / [G,G]|, each a reduced homomorphism, pairwise
    distinct, sorted with the trivial character first: then they are all
    of Hom(G, T)."""
    chars = enumerate_linear_characters(G)
    assert len(chars) == G.order // derived_subgroup(G).order
    for c in chars:
        c.verify_homomorphism()
        assert math.gcd(c.modulus, *c.values.tolist()) == 1
    assert len({(c.modulus,) + tuple(c.values.tolist()) for c in chars}) == len(chars)
    keys = [c.key for c in chars]
    assert keys == sorted(keys) and keys[0] == (1, ()) and not chars[0].values.any()


@st.composite
def small_permutation_groups(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return closure([tuple(g) for g in gens], PermOps(n))


@settings(max_examples=150, deadline=None)
@given(small_permutation_groups())
def test_characters_match_the_derived_subgroup_on_permutation_groups(G):
    check_characters_against_the_derived_subgroup(G)


@settings(max_examples=100, deadline=None)
@given(small_permutation_groups())
def test_stabilizer_matches_the_scan_on_permutation_groups(G):
    # every point is a base point, transitive action or not
    check_stabilizers_against_the_scan(natural_permutation_action(G))


@settings(max_examples=100, deadline=None)
@given(small_permutation_groups())
def test_doubly_transitive_matches_bruteforce_on_permutation_groups(G):
    action = natural_permutation_action(G)
    if not action.is_transitive():
        with pytest.raises(GroupError, match="not transitive"):
            doubly_transitive(action)
    else:
        assert doubly_transitive(action) == is_doubly_transitive_bruteforce(action)


def test_a_transversal_is_built_once_per_action_base_and_root():
    action = natural_permutation_action(closure([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], PermOps(5)))
    first = action.transversal(2)
    assert action.transversal(2) is first and action.transversal(3) is not first
    assert action.transversal(2, root=(1, 2, 0, 3, 4)) is not first
    stab = stabilizer(action, 2)
    assert action.transversal(2) is first and first.schreier is first.schreier
    assert set(first.schreier) <= stab.members


def test_a_rooted_transversal_conjugates_by_its_root():
    # with root r, t_j = w_j r for the unrooted t_j = w_j, and the products
    # are r^-1 s_jk r: they fix r^-1.b and close to that point's stabilizer
    action = projective_line_action(sl2(7))
    ops, r = action.group.ops, ((0, 1), (6, 0))
    plain, rooted = action.transversal(3), action.transversal(3, root=r)
    rinv = ops.inv(r)
    assert tree_edges(rooted.layers) == tree_edges(plain.layers) and rooted.off_tree == plain.off_tree
    for j, t in plain.reps.items():
        assert rooted.reps[j] == ops.mul(t, r)
        assert rooted.inv_reps[j] == ops.mul(rinv, plain.inv_reps[j])
    assert rooted.schreier == [ops.mul(ops.mul(rinv, s), r) for s in plain.schreier]
    point = action.act(rinv, action.points[3])
    assert closure(rooted.schreier, ops).members == stabilizer(action, point).members


def su33_bench_stabilizer():
    action = su33_bench_action()
    return stabilizer(action, action.points[0])


CHARACTER_GROUPS = {
    **{f"sl2_q{q}_borel": (lambda q=q: sl2_cover(q)[0].stab) for q in (5, 7, 17, 23, 31)},
    **{f"su3_q{q}_stabilizer": (lambda q=q: su3_cover(q)[0].stab) for q in (3, 4, 5)},
    "su33_bench_stabilizer": su33_bench_stabilizer,
    "S4": lambda: closure([(1, 0, 2, 3), (1, 2, 3, 0)], PermOps(4)),
    "A5": lambda: closure([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], PermOps(5)),
    "S5": lambda: closure([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], PermOps(5)),
}


@pytest.mark.parametrize("case", sorted(CHARACTER_GROUPS))
def test_characters_match_the_derived_subgroup(case):
    check_characters_against_the_derived_subgroup(CHARACTER_GROUPS[case]())


def test_characters_make_no_scalar_products_once_the_table_is_built():
    stab = su3_cover(3)[0].stab
    counting = CountingOps(stab.ops)
    G = FiniteGroup(counting, stab.elements, stab.generators)
    G.generator_table
    counting.mul_calls = counting.inv_calls = 0
    assert len(enumerate_linear_characters(G)) == 8
    assert counting.mul_calls == counting.inv_calls == 0


def test_direct_product():
    G = s3()
    P = direct_product_with_cyclic(G, 2)
    assert P.order == 12
    a = (G.elements[1], 1)
    b = (G.elements[2], 1)
    assert P.ops.mul(a, b) == (G.ops.mul(G.elements[1], G.elements[2]), 0)
    assert direct_product_with_cyclic(sl2(5), 4).order == 480


def test_associativity_and_inverses_spot_check():
    G = sl2(5)
    rng = random.Random(7)
    els = G.elements
    for _ in range(1000):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert G.ops.mul(G.ops.mul(a, b), c) == G.ops.mul(a, G.ops.mul(b, c))
    for a in els:
        assert G.ops.mul(a, G.ops.inv(a)) == G.identity


def closed_spec(data):
    """The group of a JSON spec, closed: ``detect`` itself never closes it."""
    ops, gens, name = parse_group_spec(data)
    return closure(gens, ops, name=name)


def test_group_json_roundtrip():
    data = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    G = closed_spec(data)
    assert G.order == 6
    assert sorted(G.generators) == [(1, 0, 2), (1, 2, 0)]

    mdata = {
        "kind": "matrix",
        "field": {"p": 5, "k": 1, "irreducible": [0, 1]},
        "dim": 2,
        "generators": [[1, 1, 0, 1], [0, 1, 4, 0]],
    }
    M = closed_spec(mdata)
    assert M.order == 120
    assert sorted(M.generators) == [((0, 1), (4, 0)), ((1, 1), (0, 1))]


def test_group_json_bad_input():
    with pytest.raises(GroupError):
        parse_group_spec({"kind": "permutation", "degree": 3, "generators": [[0, 0, 1]]})
    with pytest.raises(GroupError):
        parse_group_spec({"kind": "nonsense"})


@pytest.mark.parametrize("generators", ["missing", [], {}, 5, "abc"])
def test_group_spec_refuses_a_missing_empty_or_non_list_generators(generators):
    # no closure follows the parse to catch a group with nothing to generate it
    for spec in ({"kind": "permutation", "degree": 3}, {"kind": "matrix", "field": {"p": 3, "k": 1}, "dim": 2}):
        if generators != "missing":
            spec["generators"] = generators
        with pytest.raises((GroupError, KeyError)):
            parse_group_spec(spec)


def test_product_spec_is_parsed_without_enumeration():
    base = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    ops, gens, name = parse_group_spec({"kind": "product", "base": base, "r": 4})
    assert isinstance(ops, ProductOps) and (ops.r, ops.base.degree) == (4, 3)
    assert gens == [((1, 0, 2), 0), ((1, 2, 0), 0), ((0, 1, 2), 1)]
    assert closure(gens, ops).order == 24
    assert parse_group_spec({"kind": "product", "base": base, "r": 1})[1][-1] == ((0, 1, 2), 0)


def test_associativity_spot_checks_small_groups():
    # random-triple associativity and full inverse checks, per backend
    rng = random.Random(99)
    groups = [
        s3(),
        closure([(1, 2, 3, 0)], PermOps(4), name="C4"),
        closure([(1, 0, 2, 3), (1, 2, 3, 0)], PermOps(4), name="S4"),
        sl2(5),
        direct_product_with_cyclic(s3(), 4),
    ]
    for G in groups:
        els = G.elements
        for _ in range(1000):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert G.ops.mul(G.ops.mul(a, b), c) == G.ops.mul(a, G.ops.mul(b, c))
        for a in els:
            assert G.ops.mul(a, G.ops.inv(a)) == G.identity
            assert G.ops.mul(G.ops.inv(a), a) == G.identity
