import random

import numpy as np
import pytest
from util import cover_of, materialized, random_outside_stabilizer, su33_bench_generators

from rouxforge.families import isotropic_line_action, sl2_cover, su3_cover
from rouxforge.group import (
    FiniteGroup,
    GroupError,
    PermOps,
    TransitivityError,
    closure,
    enumerate_linear_characters,
    natural_permutation_action,
    projective_line_action,
)
from rouxforge.oracles import (
    PerCellTable,
    covering_kernel_scan,
    detect_higman_g01_scan,
    detect_higman_scan,
    double_coset_scan,
    gram_from_idempotent,
    matrix_rank_by_threshold,
    normalizer,
    params_from_stabilizer_scan,
    radicalization_groups,
    roux_from_cells,
    verify_higman_axioms,
)
from rouxforge.radical import (
    CoverData,
    HigmanDecompositionTable,
    Key,
    RadicalError,
    Radicalization,
    detect_higman,
    find_key,
    higman_roux,
    radicalize,
    roux_from_higman_pair,
    roux_params_from_radicalization,
)
from rouxforge.roux import signature_matrix, verify_roux


def s3_cover():
    G = closure([(1, 0, 2), (1, 2, 0)], PermOps(3), name="S3")
    return cover_of(natural_permutation_action(G))


def sl2_chars(q, materialize=False):
    cover, x = sl2_cover(q)
    if materialize:
        cover = materialized(cover)
    return cover, x, enumerate_linear_characters(cover.stab)


def by_order(chars, m):
    return [c for c in chars if c.modulus == m]


def test_cover_verify_sl25():
    cover = materialized(sl2_cover(5)[0])
    cover.verify()
    assert cover.n == 6
    assert cover.stab.order == 20
    assert cover.action.group.order == 120


def test_su3_cover_counts():
    cover, x, _ = su3_cover(3)
    assert cover.n == 28
    assert cover.stab.order == 216
    assert x not in cover.stab


def test_su33_closure_order():
    cover = materialized(su3_cover(3)[0])
    assert cover.action.group.order == 6048
    cover.verify()


def test_radicalize_trivial():
    cover = s3_cover()
    trivial = by_order(enumerate_linear_characters(cover.stab), 1)[0]
    rad = radicalize(cover, trivial)
    assert rad.r == 2
    _, H, _ = radicalization_groups(rad)
    assert H.elements == [(xi, 0) for xi in cover.stab.elements]
    assert cover.action.group.order * rad.r == 12


def test_radicalize_sl25_quadratic():
    cover, x, chars = sl2_chars(5, materialize=True)
    quad = by_order(chars, 2)[0]
    rad = radicalize(cover, quad)
    assert rad.r == 4
    _, H, _ = radicalization_groups(rad)
    assert H.order == 20
    assert all(z == -rad.alpha_exp_r(xi) % 4 for xi, z in H.elements)
    assert cover.action.group.order * rad.r == 480


def test_radicalize_su33_bookkeeping():
    cover = materialized(su3_cover(3)[0])
    chars = enumerate_linear_characters(cover.stab)
    assert len(chars) == 8
    order4 = by_order(chars, 4)[0]
    rad = radicalize(cover, order4)
    assert rad.r == 8
    assert cover.action.group.order * rad.r == 48384


def test_detect_sl25():
    cover, x, chars = sl2_chars(5)
    table = HigmanDecompositionTable(cover, x)
    detects = {c.modulus: detect_higman(table, c) for c in chars}
    assert detects[1] is True  # trivial character: condition reads 1 = 1
    assert detects[2] is True  # quadratic-residue character
    assert detects[4] is False  # order-4 characters fail


def test_detect_rejects_stabilizer_x():
    cover, x, chars = sl2_chars(5)
    with pytest.raises(RadicalError, match="x lies in the stabilizer"):
        HigmanDecompositionTable(cover, cover.stab.elements[0])


def test_detect_choice_independence():
    rng = random.Random(42)
    for q in (5, 7, 13):
        cover, x, chars = sl2_chars(q)
        table = HigmanDecompositionTable(cover, x)
        for alpha in chars:
            baseline = detect_higman(table, alpha)
            for _ in range(5):
                y = random_outside_stabilizer(cover, rng)
                assert detect_higman(HigmanDecompositionTable(cover, y), alpha) == baseline


def test_find_key_psl_signs():
    # z = 1 when q = 1 mod 4, z = i when q = 3 mod 4
    for q, expected in ((5, 0), (13, 0), (7, 1), (11, 1)):
        cover, x, chars = sl2_chars(q)
        quad = by_order(chars, 2)[0]
        rad = radicalize(cover, quad)
        key = find_key(rad, HigmanDecompositionTable(cover, x))
        assert key.z_exponent == expected, q


def test_find_key_su3_sign_choices():
    cover, x, eta_b0 = su3_cover(3)
    chars = enumerate_linear_characters(cover.stab)
    order4 = by_order(chars, 4)[0]
    rad = radicalize(cover, order4)
    table = HigmanDecompositionTable(cover, x)
    generic = find_key(rad, table)
    assert generic.z_exponent == 0  # least square root of alpha(1) = 1
    preferred = (2 * order4.exponent(eta_b0)) % rad.r
    assert preferred == 4  # the opposite sign: exponent r' in C_r
    key = find_key(rad, table, prefer_exponent=preferred)
    assert key.z_exponent == 4
    with pytest.raises(RadicalError):
        find_key(rad, table, prefer_exponent=1)  # not a square root


def test_find_key_requires_double_transitivity():
    ops = PermOps(4)
    C4 = closure([(1, 2, 3, 0)], ops, name="C4")
    cover = cover_of(natural_permutation_action(C4))
    # find_key reads x^{-1} = xi x eta off the table, which needs G0*
    # transitive on the points other than the base point
    with pytest.raises(TransitivityError, match="not transitive"):
        HigmanDecompositionTable(cover, (1, 2, 3, 0))


def test_params_sl2():
    for q, expected in ((5, (2, 0, 2, 0)), (7, (0, 3, 0, 3))):
        cover, x, chars = sl2_chars(q)
        quad = by_order(chars, 2)[0]
        rad = radicalize(cover, quad)
        table = HigmanDecompositionTable(cover, x)
        key = find_key(rad, table)
        params = roux_params_from_radicalization(rad, key, table)
        assert params.coeffs == expected


def test_params_trivial_character():
    cover, x, chars = sl2_chars(5)
    trivial = by_order(chars, 1)[0]
    rad = radicalize(cover, trivial)
    table = HigmanDecompositionTable(cover, x)
    key = find_key(rad, table)
    params = roux_params_from_radicalization(rad, key, table)
    assert params.coeffs == (4, 0)  # c_1 = n-2, c_{-1} = 0


def test_roux_from_higman_pair_sl25():
    cover, x, chars = sl2_chars(5)
    quad = by_order(chars, 2)[0]
    rad = radicalize(cover, quad)
    table = HigmanDecompositionTable(cover, x)
    key = find_key(rad, table)
    B = roux_from_higman_pair(rad, key, table)
    assert (B.n, B.r) == (6, 4)
    params = verify_roux(B)
    assert params.coeffs == roux_params_from_radicalization(rad, key, table).coeffs
    # the k = 1 signature carries a (6, 3) equiangular tight frame
    from rouxforge.lines import gram_from_signature, verify_etf

    gram = gram_from_signature(signature_matrix(B, 1))
    cert = verify_etf(gram)
    assert cert.passed and cert.d == 3 and cert.real


def test_roux_from_higman_pair_sl27_not_real():
    cover, x, chars = sl2_chars(7)
    quad = by_order(chars, 2)[0]
    rad = radicalize(cover, quad)
    table = HigmanDecompositionTable(cover, x)
    B = roux_from_higman_pair(rad, find_key(rad, table), table)
    assert (B.n, B.r) == (8, 4)
    from rouxforge.lines import gram_from_signature, is_real_line_sequence, verify_etf

    S = signature_matrix(B, 1)
    cert = verify_etf(gram_from_signature(S))
    assert cert.passed and cert.d == 4
    assert not is_real_line_sequence(S)
    assert not cert.real


def test_key_sign_flip_translates_parameters():
    cover, x, chars = sl2_chars(5)
    quad = by_order(chars, 2)[0]
    rad = radicalize(cover, quad)
    table = HigmanDecompositionTable(cover, x)
    key = find_key(rad, table)
    other = Key(key.x, (key.z_exponent + rad.r_prime) % rad.r, rad.r)
    p1 = roux_params_from_radicalization(rad, key, table)
    p2 = roux_params_from_radicalization(rad, other, table)
    shift = rad.r_prime
    assert all(
        p2.coeffs[w] == p1.coeffs[(w + shift) % rad.r] for w in range(rad.r)
    )
    # both keys generate the same lines: signature spectra coincide
    B1 = roux_from_higman_pair(rad, key, table)
    B2 = roux_from_higman_pair(rad, other, table)
    for k in range(rad.r):
        s1 = np.linalg.eigvalsh(signature_matrix(B1, k))
        s2 = np.linalg.eigvalsh(signature_matrix(B2, k))
        assert np.allclose(sorted(s1), sorted(s2), atol=1e-9) or np.allclose(
            sorted(s1), sorted(np.linalg.eigvalsh(signature_matrix(B2, (-k) % rad.r))), atol=1e-9
        )


def test_shared_table_matches_fresh_runs():
    # a table shared by a character sweep keeps no character state
    cover, x, chars = sl2_chars(7)
    shared = HigmanDecompositionTable(cover, x)
    for alpha in chars:
        found = higman_roux(shared, alpha)
        fresh = higman_roux(HigmanDecompositionTable(cover, x), alpha)
        assert (found is None) == (fresh is None)
        if found is not None:
            assert found.key == fresh.key and found.roux == fresh.roux
            assert found.params.coeffs == fresh.params.coeffs


def s3_with_x():
    cover = s3_cover()
    return cover, cover.first_outside_stabilizer()


# how to make each cover, and the stride through the sorted cells at which the
# stabilizer-scan oracle is run (SU(3,3) has 756 cells and |G0*| = 216)
DECOMPOSITION_CASES = {
    "s3": (s3_with_x, 1),
    "sl2_q5_materialized": (lambda: sl2_chars(5, materialize=True)[:2], 1),
    "sl2_q5": (lambda: sl2_cover(5), 1),
    "sl2_q7": (lambda: sl2_cover(7), 1),
    "sl2_q13": (lambda: sl2_cover(13), 1),
    "su3_q3": (lambda: su3_cover(3)[:2], 7),
}


@pytest.mark.parametrize("case", sorted(DECOMPOSITION_CASES))
def test_decomposition_table_matches_stabilizer_scan(case):
    build, stride = DECOMPOSITION_CASES[case]
    cover, x = build()
    ops = cover.ops
    n, order = cover.n, cover.stab.order
    xinv = ops.inv(x)
    table = HigmanDecompositionTable(cover, x)
    old = PerCellTable(table)
    els = cover.stab.elements

    # G01*: the elements fixing b and x.b, paired with their x-conjugates
    xb = cover.action.act(x, cover.base_point)
    assert len(old.g01) * (n - 1) == order
    for s, t in old.g01:
        assert cover.action.act(s, xb) == xb
        assert t == ops.mul(ops.mul(xinv, s), x) and t in cover.stab
    # the Schreier generators xi_q^-1 g xi_p lie in G01*, with their x-conjugates
    g01 = dict(old.g01)
    for g, xi_p, xi_q, t in zip(*(map(els.__getitem__, row) for row in table.schreier)):
        s = ops.mul(ops.mul(ops.inv(xi_q), g), xi_p)
        assert g01[s] == t

    assert len(old.cells) == n * (n - 1)
    y_of = {(i, j): ops.mul(ops.inv(table.reps[i]), table.reps[j]) for (i, j) in old.cells}
    for cell, (xi, eta) in old.cells.items():
        assert ops.mul(ops.mul(xi, x), eta) == y_of[cell]
    assert len(old.zeta_decomps) == order - len(old.g01)
    for zeta, xi, eta in old.zeta_decomps:
        assert ops.mul(ops.mul(xi, x), eta) == ops.mul(ops.mul(x, zeta), xinv)

    # the monomial data: g x_j = x_{pi j} h_j(g), row b decomposes x_j, and
    # one zeta per coset of K other than K, each decomposed after conjugation
    b = table.base_index
    for g, perm, hrow in zip(cover.action.group.generators, table.perms, table.h):
        for j, (q, h) in enumerate(zip(perm, hrow)):
            assert ops.mul(g, table.reps[j]) == ops.mul(table.reps[q], els[h])
    for j, (xi, eta) in enumerate(table.row_b.T):
        if j != b:
            assert ops.mul(ops.mul(els[xi], x), els[eta]) == table.reps[j]
    xi0inv = ops.inv(els[table.coset_xi0])
    q0 = cover.action.act(xinv, cover.base_point)
    moved = set()
    for xi, xi2, eta in table.cosets.T:
        zeta = ops.mul(els[xi], xi0inv)
        moved.add(cover.action.act(zeta, q0))
        assert ops.mul(ops.mul(els[xi2], x), els[eta]) == ops.mul(ops.mul(x, zeta), xinv)
    assert len(moved) == n - 2 and q0 not in moved

    # the g01 expansion of each cell is the full set of decompositions
    scanned = sorted(old.cells)[::stride]
    scans = {}
    for cell in scanned:
        xi, eta = old.cells[cell]
        scans[cell] = double_coset_scan(cover, x, y_of[cell])
        expanded = {(ops.mul(xi, s), ops.mul(ops.inv(t), eta)) for s, t in old.g01}
        assert expanded == set(scans[cell])

    # a character passes the G01* check exactly when every scanned cell has
    # one value, and then the roux equals the per-cell-unique scan
    for alpha in enumerate_linear_characters(cover.stab):
        rad = Radicalization(cover, alpha)
        key = find_key(rad, table)
        values = {
            cell: {
                (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta) - key.z_exponent) % rad.r
                for xi, eta in decomps
            }
            for cell, decomps in scans.items()
        }
        unique = all(len(v) == 1 for v in values.values())
        assert detect_higman(table, alpha) == detect_higman_g01_scan(old, alpha)
        try:
            B = roux_from_higman_pair(rad, key, table)
        except RadicalError:
            assert not detect_higman(table, alpha)
            if stride == 1:
                assert not unique
            continue
        assert detect_higman(table, alpha) and unique
        assert B == roux_from_cells(rad, key, old)
        assert all(B.exps[i, j] == values[(i, j)].pop() for (i, j) in scanned)


def detect_cover(G):
    """The cover the detect command builds for an enumerated group on
    its projective or isotropic points, and its x."""
    action = isotropic_line_action(G) if G.ops.dim == 3 else projective_line_action(G)
    cover = cover_of(action)
    return cover, cover.first_outside_stabilizer()


def sl2_group(q):
    cover = sl2_cover(q)[0]
    return closure(cover.action.group.generators, cover.ops)


def su3_preferred(q):
    cover, x, eta_b0 = su3_cover(q)
    return cover, x, lambda alpha: (2 * alpha.exponent(eta_b0)) % (2 * alpha.modulus) if alpha.modulus > 1 else None


# every Higman character of these covers is built both ways
MONOMIAL_CASES = {
    **{f"sl2_q{q}": (lambda q=q: sl2_cover(q) + (lambda alpha: None,)) for q in (3, 5, 7, 11, 13, 17, 19, 23, 25, 27, 29, 31)},
    **{f"su3_q{q}": (lambda q=q: su3_preferred(q)) for q in (3, 4, 5)},
    "detect_sl2_q5": lambda: detect_cover(sl2_group(5)) + (lambda alpha: None,),
    "detect_sl2_q7": lambda: detect_cover(sl2_group(7)) + (lambda alpha: None,),
    "detect_su33_bench": lambda: detect_cover(closure(su33_bench_generators()[1], su33_bench_generators()[0])) + (lambda alpha: None,),
}


@pytest.mark.parametrize("case", sorted(MONOMIAL_CASES))
def test_monomial_roux_matches_the_per_cell_table(case):
    cover, x, prefer = MONOMIAL_CASES[case]()
    table = HigmanDecompositionTable(cover, x)
    old = PerCellTable(table)
    higman = 0
    for alpha in enumerate_linear_characters(cover.stab):
        verdict = detect_higman(table, alpha)
        assert verdict == detect_higman_g01_scan(old, alpha)
        if not verdict:
            continue
        higman += 1
        rad = radicalize(cover, alpha)
        key = find_key(rad, table, prefer_exponent=prefer(alpha))
        assert roux_from_higman_pair(rad, key, table) == roux_from_cells(rad, key, old)
        counted = roux_params_from_radicalization(rad, key, table)
        assert counted.coeffs == params_from_stabilizer_scan(rad, key, old).coeffs
    assert higman >= 2


def test_symmetry_certificate_names_a_corrupted_cocycle_entry():
    # the unipotent generator 0 of SL(2,5) fixes b, so row b, which is read
    # off its decompositions and never propagated, fails the identity
    # B[b, pi j] = B[b, j] + alpha(h_b) - alpha(h_j) at a corrupted j off
    # the transversal's tree
    cover, x, chars = sl2_chars(5)
    quad = by_order(chars, 2)[0]
    rad = radicalize(cover, quad)
    table = HigmanDecompositionTable(cover, x)
    key = find_key(rad, table)
    b = table.base_index
    assert table.perms[0, b] == b
    wrong = next(i for i, v in enumerate(quad.values) if v == 1)
    tree = {(p, k) for _, p, k in table.tree}
    corrupted = [j for j in range(cover.n) if j != b and (j, 0) not in tree]
    assert len(corrupted) == 2
    for j in corrupted:
        saved = table.h[0, j]
        table.h[0, j] = wrong if quad.values[saved] == 0 else table.h[0, b]
        with pytest.raises(RadicalError, match=rf"generator 0 at cell \({b}, {j}\)"):
            roux_from_higman_pair(rad, key, table)
        table.h[0, j] = saved
    roux_from_higman_pair(rad, key, table)


def test_symmetry_certificate_runs_on_every_generator():
    # a corrupted entry on a generator no tree edge uses shows up on that
    # generator alone: repeat SL(2,7)'s first generator at the end
    from rouxforge.group import GeneratedGroup, GroupAction
    from rouxforge.radical import CoverData

    cover, x, chars = sl2_chars(7)
    G = cover.action.group
    gens = G.generators + G.generators[:1]
    action = GroupAction(GeneratedGroup(G.ops, gens), cover.action.points, cover.action.act)
    cover = CoverData(action, cover.stab, cover.base_point)
    table = HigmanDecompositionTable(cover, x)
    assert all(k < len(gens) - 1 for _, _, k in table.tree)
    rad = radicalize(cover, by_order(chars, 2)[0])
    key = find_key(rad, table)
    last = len(gens) - 1
    j = next(j for j in range(1, cover.n) if rad.alpha.values[table.h[last, j]] == 0)
    table.h[last, j] = next(i for i, v in enumerate(rad.alpha.values) if v != 0)
    with pytest.raises(RadicalError, match=rf"generator {last} at cell \(0, {j}\)"):
        roux_from_higman_pair(rad, key, table)


def scan_key(rad, x):
    """The key read off the first decomposition x^{-1} = xi x eta that the
    stabilizer scan finds, with every decomposition giving one square."""
    squares = {
        (rad.alpha_exp_r(xi) + rad.alpha_exp_r(eta)) % rad.r
        for xi, eta in double_coset_scan(rad.cover, x, rad.cover.ops.inv(x))
    }
    assert len(squares) == 1
    half = squares.pop() // 2
    roots = sorted((half, (half + rad.r_prime) % rad.r))
    return Key(x, roots[0], rad.r)


@pytest.mark.parametrize("case", sorted(DECOMPOSITION_CASES))
def test_detector_and_key_match_the_stabilizer_scans(case):
    build, _ = DECOMPOSITION_CASES[case]
    cover, x = build()
    xs = [x]
    if isinstance(cover.action.group, FiniteGroup):
        # three more elements outside the stabilizer, spread over the group
        outside = [g for g in cover.action.group.elements if g != x and g not in cover.stab]
        xs += outside[:: max(1, len(outside) // 3)][:3]
        assert len(xs) == 4
    chars = enumerate_linear_characters(cover.stab)
    for y in xs:
        table = HigmanDecompositionTable(cover, y)
        for alpha in chars:
            verdict = detect_higman(table, alpha)
            assert verdict == detect_higman_scan(cover, alpha, y)
            if verdict:
                rad = radicalize(cover, alpha)
                assert find_key(rad, table) == scan_key(rad, y)


def test_non_higman_character_is_refused():
    cover, x, chars = sl2_chars(7)
    sextic = by_order(chars, 6)[0]
    rad = radicalize(cover, sextic)
    table = HigmanDecompositionTable(cover, x)
    key = find_key(rad, table)
    with pytest.raises(RadicalError, match=r"alpha\(s\) != alpha\(x\^-1 s x\) at s = "):
        roux_from_higman_pair(rad, key, table)
    with pytest.raises(RadicalError, match="ambiguous"):
        roux_params_from_radicalization(rad, key, table)


@pytest.mark.parametrize("other", ["SL(2,7) Borel", "rebuilt SL(2,5) Borel"])
def test_character_of_another_group_is_refused(other):
    # a character is an array over its own group's elements: one of any
    # other group, even an equal rebuilt one, is not read on this cover
    cover, x = sl2_cover(5)
    source = sl2_cover(7 if other == "SL(2,7) Borel" else 5)[0].stab
    assert source is not cover.stab
    alpha = enumerate_linear_characters(source)[1]
    table = HigmanDecompositionTable(cover, x)
    with pytest.raises(RadicalError, match="character not defined on the whole stabilizer"):
        radicalize(cover, alpha)
    with pytest.raises(RadicalError, match="character not defined on the whole stabilizer"):
        detect_higman(table, alpha)


def test_decomposition_table_rejects_an_incomplete_stabilizer():
    cover, x = sl2_cover(5)
    # drop the unipotent part: the torus alone is not transitive on the
    # five points other than the base point
    from rouxforge.group import FiniteGroup
    from rouxforge.radical import CoverData

    torus = [g for g in cover.stab.elements if g[0][1] == 0]
    stab = FiniteGroup(cover.ops, torus, closure(sorted(torus), cover.ops, order=len(torus)).generators)
    with pytest.raises(TransitivityError, match="not transitive"):
        HigmanDecompositionTable(CoverData(cover.action, stab, cover.base_point), x)


def test_decomposition_table_rejects_a_stabilizer_missing_one_element():
    # the listed generators still reach the dropped element, but it is one
    # of the h_j(g), which must lie in the listed stabilizer
    from rouxforge.group import FiniteGroup
    from rouxforge.radical import CoverData

    cover, x = sl2_cover(5)
    table = HigmanDecompositionTable(cover, x)
    dropped = cover.stab.elements[table.h.max()]
    assert dropped != cover.ops.identity
    short = [g for g in cover.stab.elements if g != dropped]
    stab = FiniteGroup(cover.ops, short, closure(sorted(short), cover.ops, order=len(short)).generators)
    with pytest.raises(RadicalError, match="stabilizer list is incomplete"):
        HigmanDecompositionTable(CoverData(cover.action, stab, cover.base_point), x)


def test_cover_verify_rejects_an_incomplete_stabilizer():
    from rouxforge.group import FiniteGroup
    from rouxforge.radical import CoverData

    cover = materialized(sl2_cover(5)[0])
    cover.verify()
    short = cover.stab.elements[:-1]
    stab = FiniteGroup(cover.ops, short, closure(sorted(short), cover.ops, order=len(short)).generators)
    # the greedy generators of the short list generate the whole Borel group
    with pytest.raises(GroupError, match="the elements are not closed under the generators") as refused:
        CoverData(cover.action, stab, cover.base_point).verify()
    assert refused.value.exit_code == 2


def test_cover_verify_rejects_a_stabilizer_element_outside_the_group():
    from rouxforge.group import FiniteGroup
    from rouxforge.radical import CoverData

    cover = materialized(sl2_cover(5)[0])
    outside = ((2, 0), (0, 1))  # fixes the base point, determinant 2
    assert outside not in cover.action.group
    listed = cover.stab.elements[:-1] + [outside]
    stab = FiniteGroup(cover.ops, listed, closure(sorted(listed), cover.ops, order=len(listed)).generators)
    # the list's greedy generators generate a group beyond the list
    with pytest.raises(GroupError, match="the elements are not closed under the generators") as refused:
        CoverData(cover.action, stab, cover.base_point).verify()
    assert refused.value.exit_code == 2


KERNEL_CASES = {
    "sl2_q5_projective": (lambda: materialized(sl2_cover(5)[0]), 2),
    "su3_q2_isotropic": (lambda: materialized(su3_cover(2)[0]), 3),
    "su33_bench_isotropic": (lambda: detect_cover(closure(su33_bench_generators()[1], su33_bench_generators()[0]))[0], 1),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_covering_kernel_matches_the_scan(case):
    # SL(2,5): -I and I; SU(3,2): the three scalar matrices; SU(3,3): trivial
    build, order = KERNEL_CASES[case]
    cover = build()
    assert cover.covering_kernel() == covering_kernel_scan(cover)
    assert len(cover.covering_kernel()) == order
    cover.verify()


def test_cover_verify_applies_no_element_beyond_the_point_permutations():
    cover = materialized(sl2_cover(7)[0])
    cover.stab_action.generator_perms
    inner = cover.action
    calls = []

    def apply(g, p):
        calls.append((g, p))
        return inner.act(g, p)

    from rouxforge.group import GroupAction

    action = GroupAction(inner.group, inner.points, apply)
    action.generator_perms
    cover = CoverData(action, cover.stab, cover.base_point)
    cover.stab_action.generator_perms
    calls.clear()
    cover.verify()
    assert calls == []


def test_cover_verify_rejects_a_kernel_that_is_not_central():
    # S4 on its three pair-partitions: the kernel V4 is normal, not central
    from rouxforge.group import GroupAction

    S4 = closure([(1, 0, 2, 3), (1, 2, 3, 0)], PermOps(4), name="S4")
    partitions = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def apply(g, part):
        return tuple(sorted(tuple(sorted((g[a], g[b]))) for a, b in part))

    cover = cover_of(GroupAction(S4, partitions, apply))
    assert cover.stab.order == 8
    assert len(cover.covering_kernel()) == 4 and cover.covering_kernel() == covering_kernel_scan(cover)
    with pytest.raises(RadicalError, match="covering kernel is not central"):
        cover.verify()


def test_higman_roux_pipeline_sl27():
    cover, x, chars = sl2_chars(7)
    table = HigmanDecompositionTable(cover, x)
    assert higman_roux(table, by_order(chars, 6)[0]) is None
    found = higman_roux(table, by_order(chars, 2)[0])
    assert found.params.coeffs == (0, 3, 0, 3)
    assert verify_roux(found.roux).coeffs == found.params.coeffs
    assert found.key.z_exponent == 1 and found.rad.r == 4


def test_higman_axioms_s3_trivial():
    cover = s3_cover()
    trivial = by_order(enumerate_linear_characters(cover.stab), 1)[0]
    rad = radicalize(cover, trivial)
    key = find_key(rad, HigmanDecompositionTable(cover, cover.first_outside_stabilizer()))
    Gt, H, _ = radicalization_groups(rad)
    report = verify_higman_axioms(Gt, H, (key.x, key.z_exponent))
    assert report.passed, report.first_failure


def test_higman_axioms_sl25_quadratic():
    cover, x, chars = sl2_chars(5, materialize=True)
    quad = by_order(chars, 2)[0]
    rad = radicalize(cover, quad)
    table = HigmanDecompositionTable(cover, x)
    key = find_key(rad, table)
    Gt, H, _ = radicalization_groups(rad)
    report = verify_higman_axioms(Gt, H, (key.x, key.z_exponent))
    assert report.passed, report.first_failure
    assert detect_higman(table, quad) is True


def test_higman_axioms_h5_fails_for_nonreal_character():
    cover, x, chars = sl2_chars(5, materialize=True)
    order4 = by_order(chars, 4)[0]
    table = HigmanDecompositionTable(cover, x)
    assert detect_higman(table, order4) is False
    rad = Radicalization(cover, order4)
    candidate = find_key(rad, table)
    Gt, H, _ = radicalization_groups(rad)
    # no key exists: H5 fails for the candidate and for every other z
    for z in range(rad.r):
        report = verify_higman_axioms(Gt, H, (candidate.x, z))
        assert not report.passed
        assert not report.axioms["H5"]


def test_higman_axioms_rejects_key_in_normalizer():
    cover = s3_cover()
    trivial = by_order(enumerate_linear_characters(cover.stab), 1)[0]
    rad = radicalize(cover, trivial)
    Gt, H, _ = radicalization_groups(rad)
    inside = (cover.stab.elements[0], 1)
    with pytest.raises(RadicalError):
        verify_higman_axioms(Gt, H, inside)


def test_normalizer_identity_small_instances():
    # N(H) = G~0*, which radicalize proves from double transitivity
    # instead of checking, by brute force on the product group
    cover5, _, chars5 = sl2_chars(5, materialize=True)
    cover7, _, chars7 = sl2_chars(7, materialize=True)
    s3 = s3_cover()
    cases = [(s3, alpha) for alpha in enumerate_linear_characters(s3.stab)]
    cases += [(cover5, alpha) for alpha in chars5] + [(cover7, by_order(chars7, 2)[0])]
    for cover, alpha in cases:
        Gt, H, Gt0 = radicalization_groups(radicalize(cover, alpha))
        assert sorted(normalizer(Gt, H)) == Gt0.elements


def test_gram_idempotent_rank_sl27():
    cover, x, chars = sl2_chars(7)
    quad = by_order(chars, 2)[0]
    rad = radicalize(cover, quad)
    table = HigmanDecompositionTable(cover, x)
    B = roux_from_higman_pair(rad, find_key(rad, table), table)
    G = gram_from_idempotent(B, 1, -1)
    assert matrix_rank_by_threshold(G) == 4


def test_real_line_shortcut_real_key():
    # real character with a key z in {1, -1}: every branch is real
    for q in (5, 13):
        cover, x, chars = sl2_chars(q)
        quad = by_order(chars, 2)[0]
        rad = radicalize(cover, quad)
        table = HigmanDecompositionTable(cover, x)
        key = find_key(rad, table)
        assert key.z_exponent in (0, rad.r_prime)  # z = +-1
        B = roux_from_higman_pair(rad, key, table)
        params = verify_roux(B)
        from rouxforge.roux import is_real_lines

        assert all(is_real_lines(params, k) for k in range(rad.r))


def test_real_line_shortcut_involution():
    # real character and a self-inverse x outside the stabilizer
    cover, x, eta_b0 = su3_cover(3)
    assert cover.ops.mul(x, x) == cover.ops.identity
    chars = enumerate_linear_characters(cover.stab)
    real = [c for c in chars if c.modulus == 2][0]
    rad = radicalize(cover, real)
    table = HigmanDecompositionTable(cover, x)
    key = find_key(rad, table, prefer_exponent=(2 * real.exponent(eta_b0)) % rad.r)
    B = roux_from_higman_pair(rad, key, table)
    params = verify_roux(B)
    from rouxforge.roux import is_real_lines

    assert all(is_real_lines(params, k) for k in range(rad.r))
