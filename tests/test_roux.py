import math
import random
import time
from functools import lru_cache
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from util import all_ones_roux, paley6_roux, paley_exponents, roux_json

from rouxforge import roux
from rouxforge.families import sl2_family, su3_family
from rouxforge.oracles import (
    first_r3_failure_loop,
    gram_from_idempotent,
    idempotency_residual,
    matrix_rank_by_threshold,
    verify_roux_loop,
)
from rouxforge.roux import (
    RouxAxiomError,
    RouxIdentityError,
    RouxMatrix,
    RouxParameters,
    compress_to_subgroup,
    idempotent_data,
    idempotent_report,
    is_real_lines,
    signature_matrix,
    switch,
    verify_roux,
)


def test_all_ones_roux():
    for n in (3, 4, 7):
        params = verify_roux(all_ones_roux(n))
        assert params.coeffs == (n - 2,)


def test_paley_roux_parameters():
    params = verify_roux(paley6_roux())
    assert params.coeffs == (2, 2)
    params4 = verify_roux(paley6_roux(4))
    assert params4.coeffs == (2, 0, 2, 0)


def test_r3_violation_reports_cell():
    exps = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]  # (0,1)=1 but (1,0)=0 in C_2
    with pytest.raises(RouxAxiomError) as err:
        RouxMatrix(3, 2, exps)
    assert err.value.cell == (0, 1)


def test_b_squared_failure_reports_cell():
    exps = [[0] * 4 for _ in range(4)]
    exps[0][1] = exps[1][0] = 1
    with pytest.raises(RouxIdentityError) as err:
        verify_roux(RouxMatrix(4, 2, exps))
    assert err.value.cell is not None


@lru_cache(maxsize=None)
def known_roux() -> tuple:
    """Roux over C_r for r in {2, 4, 8}: Paley C_4 roux at p = 5, 13, 17,
    29 and 97 (n = 98 spans two row blocks), the 6-point Paley roux over
    C_2 and C_4, and every Higman roux (over C_r and compressed) of the
    psl2 q = 7, 13 and psu3 q = 3 families."""
    found = [RouxMatrix(p + 1, 4, paley_exponents(p)) for p in (5, 13, 17, 29, 97)]
    found += [paley6_roux(2), paley6_roux(4)]
    for report in (sl2_family(7), sl2_family(13), su3_family(3)):
        for block in report.characters:
            if block.roux_matrix is not None:
                found += [block.roux_matrix, block.working_roux]
    assert {B.r for B in found} == {2, 4, 8}
    return tuple(found)


def outcome(verify, B):
    """Parameters, or the message and cell of the identity failure."""
    try:
        return verify(B)
    except RouxIdentityError as exc:
        return str(exc), exc.cell


# Row blocks of 1 to 3 rows put the cells of these small grids in
# different blocks of verify_roux; 64 is the block size it uses.
row_blocks = st.sampled_from([1, 2, 3, 64])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_verify_roux_matches_loop_on_switched_and_corrupted_roux(data):
    pool = known_roux()
    B = pool[data.draw(st.integers(0, len(pool) - 1), label="roux")]
    n, r = B.n, B.r
    diagonal = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n), label="switch")
    switched = switch(B, diagonal)
    i = data.draw(st.integers(0, n - 2), label="i")
    j = data.draw(st.integers(i + 1, n - 1), label="j")
    t = data.draw(st.integers(1, r - 1), label="t")
    exps = switched.exps.copy()
    exps[i, j] += t
    exps[j, i] -= t  # keeps R3
    corrupted = RouxMatrix(n, r, exps)
    with patch.object(roux, "VERIFY_ROW_BLOCK", data.draw(row_blocks, label="block")):
        assert verify_roux(switched) == verify_roux_loop(switched) == verify_roux(B)
        fast = outcome(verify_roux, corrupted)
    assert isinstance(fast, tuple) and fast[0].startswith("B^2 identity fails at cell")
    assert fast == outcome(verify_roux_loop, corrupted)


@st.composite
def r3_grids(draw, max_n: int = 9, max_r: int = 4):
    """n x n exponent grids over C_r with inverse-symmetry, mostly not roux."""
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(1, max_r))
    exps = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            exps[i][j] = draw(st.integers(0, r - 1))
            exps[j][i] = -exps[i][j]
    return RouxMatrix(n, r, exps)


# Row 0 of B^2 holds here, so the first failure, at (1,2), lies past the
# first block when blocks have one row.
ROW_ONE_FAILURE = RouxMatrix(4, 3, [[0, 0, 0, 0], [0, 0, 2, 1], [0, 1, 0, 2], [0, 2, 1, 0]])


@settings(max_examples=300, deadline=None)
@given(r3_grids(), row_blocks)
@example(ROW_ONE_FAILURE, 1)
def test_verify_roux_first_failure_matches_loop(B, block):
    with patch.object(roux, "VERIFY_ROW_BLOCK", block):
        fast = outcome(verify_roux, B)
    assert fast == outcome(verify_roux_loop, B)
    # R3 makes every diagonal cell of B^2 the (n-1)-fold identity, so the
    # loop's diagonal branch, which the fast path drops, never fires
    assert not (isinstance(fast, tuple) and "diagonal" in fast[0])


@st.composite
def broken_r3_grids(draw, max_n: int = 9, max_r: int = 5):
    """Exponent grids with inverse-symmetry except at up to three cells."""
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, max_r))
    exps = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            exps[i][j] = draw(st.integers(-7, 7))
            exps[j][i] = -exps[i][j] + r * draw(st.integers(-1, 1))
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            exps[i][j] += draw(st.integers(0, 2 * r))
    return r, exps


@settings(max_examples=300, deadline=None)
@given(broken_r3_grids())
def test_check_r3_matches_loop(case):
    r, exps = case
    expected = first_r3_failure_loop(exps, r)
    if expected is None:
        RouxMatrix(len(exps), r, exps)
    else:
        with pytest.raises(RouxAxiomError) as err:
            RouxMatrix(len(exps), r, exps)
        assert err.value.cell == expected
        assert str(err.value) == f"inverse-symmetry fails at cell ({expected[0]},{expected[1]})"


@st.composite
def sparse_r3_grids(draw, max_n: int = 7):
    """Inverse-symmetric grids over C_r, r up to 60, whose entries come
    from at most three exponents and their negatives: verify_roux
    multiplies the indicators of those alone."""
    n = draw(st.integers(2, max_n))
    r = draw(st.integers(5, 60))
    pool = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=3))
    exps = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            exps[i][j] = draw(st.sampled_from(pool))
            exps[j][i] = -exps[i][j]
    return RouxMatrix(n, r, exps)


@settings(max_examples=150, deadline=None)
@given(sparse_r3_grids(), row_blocks)
@example(RouxMatrix(6, 40, np.array(paley_exponents(5)) * 10), 64)
@example(RouxMatrix(14, 60, np.array(paley_exponents(13)) * 15), 3)
@example(RouxMatrix(6, 7, [[0] * 6] * 6), 2)
def test_verify_roux_over_the_used_exponents_matches_loop(B, block):
    with patch.object(roux, "VERIFY_ROW_BLOCK", block):
        fast = outcome(verify_roux, B)
    assert fast == outcome(verify_roux_loop, B)


def test_verify_roux_cost_follows_the_exponents_used():
    # one indicator product over C_30000, not 30000^2 of them
    B = RouxMatrix(3, 30000, [[0] * 3] * 3)
    start = time.perf_counter()
    params = verify_roux(B)
    rows = idempotent_report(params)
    assert time.perf_counter() - start < 1.0
    assert (params.support(), params.coeffs[0], len(rows)) == ([0], 1, 60000)


def test_verify_roux_refuses_n_beyond_exact_float32():
    huge = SimpleNamespace(n=2**24 + 1, r=2, exps=None)
    with pytest.raises(RouxIdentityError, match="2\\^24"):
        verify_roux(huge)


def test_parameter_invariants_enforced():
    with pytest.raises(RouxIdentityError):
        RouxParameters(6, 2, (3, 2))  # sum != n-2
    with pytest.raises(RouxIdentityError):
        RouxParameters(6, 4, (1, 2, 0, 1))  # not symmetric
    with pytest.raises(RouxIdentityError):
        RouxParameters(6, 2, (3.5, 0.5))  # not integers
    params = RouxParameters(6, 4, [np.int64(2), 0, 2.0, 0])
    assert params.coeffs == (2, 0, 2, 0)
    assert all(type(c) is int for c in params.coeffs)


def test_fourier_examples():
    c = RouxParameters(6, 4, (2, 0, 2, 0))
    assert c.fourier(0) == pytest.approx(4)
    assert c.fourier(1) == pytest.approx(0)
    assert RouxParameters(14, 8, (3, 0) * 4).fourier(2) == pytest.approx(0)


def test_signature_square_is_the_fourier_identity():
    # the roux identity under the k-th character of C_r:
    # S_k S_k = (n-1) I + c^(k) S_k
    for B in known_roux():
        params = verify_roux(B)
        for k in range(B.r):
            S = signature_matrix(B, k)
            residual = S @ S - (B.n - 1) * np.eye(B.n) - params.fourier(k) * S
            assert np.max(np.abs(residual)) < 1e-9, (B.n, B.r, k)


def test_switch_identity_and_involution():
    B = paley6_roux(4)
    assert switch(B, [0] * 6) == B
    rng = random.Random(23)
    d = [rng.randrange(4) for _ in range(6)]
    switched = switch(B, d)
    assert verify_roux(switched).coeffs == (2, 0, 2, 0)
    back = switch(switched, [(-x) % 4 for x in d])
    assert back == B


def test_compress_roundtrip():
    B4 = paley6_roux(4)
    B2 = compress_to_subgroup(B4, 2, verify_roux(B4))
    assert B2.r == 2
    assert verify_roux(B2).coeffs == (2, 2)


def test_compress_identity_case():
    B = paley6_roux(2)
    same = compress_to_subgroup(B, 2, verify_roux(B))
    assert verify_roux(same).coeffs == (2, 2)


def test_compress_support_violation():
    B = paley6_roux(2)
    with pytest.raises(RouxAxiomError):
        compress_to_subgroup(B, 1, verify_roux(B))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_compress_switched_roux_below_index_two(seed):
    # the doubled Paley roux over C_8 has parameters (6,0,0,0,6,0,0,0):
    # compressing it to C_4 (index 2) and to C_2 (index 4) must first
    # switch row 0 to the identity
    B8 = RouxMatrix(14, 8, np.array(paley_exponents(13)) * 2)
    rng = random.Random(seed)
    B = switch(B8, [rng.randrange(8) for _ in range(14)])
    params = verify_roux(B)
    assert params.coeffs == (6, 0, 0, 0, 6, 0, 0, 0)
    for r_new, coeffs in ((4, (6, 0, 6, 0)), (2, (6, 6))):
        small = compress_to_subgroup(B, r_new, params)
        assert verify_roux(small).coeffs == coeffs
        assert not small.exps[0].any()


def test_idempotent_trivial_branch_exact():
    params = verify_roux(all_ones_roux(6))
    plus, minus = idempotent_data(params, 0)
    assert (plus.mu, plus.d) == (1.0, 1.0)
    assert minus.d == 5.0  # exactly n-1
    assert minus.mu == -1.0 / 5


def test_idempotent_balanced_branch():
    # n=8 with vanishing Fourier transform: mu = +-1/sqrt(7), d = 4 both
    params = RouxParameters(8, 4, (0, 3, 0, 3))
    plus, minus = idempotent_data(params, 1)
    assert plus.mu == pytest.approx(1 / math.sqrt(7), abs=1e-12)
    assert minus.mu == pytest.approx(-1 / math.sqrt(7), abs=1e-12)
    assert plus.d == pytest.approx(4, abs=1e-9)
    assert minus.d == pytest.approx(4, abs=1e-9)


def test_idempotent_unitary_shape():
    # n=28 with Fourier transform q - q^2 = -6 at q=3
    params = RouxParameters(28, 4, (2, 8, 8, 8))
    plus, minus = idempotent_data(params, 1)
    assert plus.mu == pytest.approx(1 / 9, abs=1e-12)
    assert minus.mu == pytest.approx(-1 / 3, abs=1e-12)
    assert plus.d == pytest.approx(21, abs=1e-9)
    assert minus.d == pytest.approx(7, abs=1e-9)


def test_idempotent_identities_all_characters():
    cases = [
        verify_roux(all_ones_roux(9)),
        verify_roux(paley6_roux()),
        verify_roux(paley6_roux(4)),
        RouxParameters(28, 4, (2, 8, 8, 8)),
    ]
    for params in cases:
        n = params.n
        for k in range(params.r):
            plus, minus = idempotent_data(params, k)
            assert plus.mu * minus.mu == pytest.approx(-1 / (n - 1), abs=1e-9)
            assert plus.d + minus.d == pytest.approx(n, abs=1e-9)


def test_signature_trivial_character():
    B = paley6_roux(4)
    S = signature_matrix(B, 0)
    assert np.allclose(S, np.ones((6, 6)) - np.eye(6))


def test_signature_axioms_and_spectrum():
    B = paley6_roux(4)
    S = signature_matrix(B, 1)
    assert np.allclose(np.diag(S), 0)
    off = ~np.eye(6, dtype=bool)
    assert np.allclose(np.abs(S[off]), 1, atol=1e-12)
    assert np.allclose(S, S.conj().T)
    eigs = np.linalg.eigvalsh(S)
    assert np.allclose(np.abs(eigs), math.sqrt(5), atol=1e-9)


def test_gram_idempotent_ranks():
    B = paley6_roux(4)
    params = verify_roux(B)
    G_triv = gram_from_idempotent(B, 0, +1, params)
    assert matrix_rank_by_threshold(G_triv) == 1
    G = gram_from_idempotent(B, 1, +1, params)
    assert G.shape == (24, 24)
    assert matrix_rank_by_threshold(G) == 3
    assert idempotency_residual(G) < 1e-9
    plus, _ = idempotent_data(params, 1)
    assert abs(matrix_rank_by_threshold(G) - plus.d) < 0.01


def test_same_lines_correspondence():
    # representative columns of the idempotent at the inverse character
    # reproduce the signature-route Gram, line by line
    B = paley6_roux(4)
    params = verify_roux(B)
    n, r = B.n, B.r
    k = 1
    plus, _ = idempotent_data(params, k)
    G_big = gram_from_idempotent(B, (-k) % r, +1, params)
    reps = [i * r for i in range(n)]
    G_small = G_big[np.ix_(reps, reps)]
    S = signature_matrix(B, k)
    assert np.max(np.abs(G_small - (np.eye(n) + plus.mu * S))) < 1e-8
    # within each line block the r columns are phase-duplicates of one span
    for i in range(n):
        cols = G_big[:, i * r : (i + 1) * r]
        norms = np.linalg.norm(cols, axis=0)
        for z in range(1, r):
            overlap = abs(np.vdot(cols[:, 0], cols[:, z]))
            assert overlap == pytest.approx(norms[0] * norms[z], abs=1e-8)


def test_is_real_lines():
    psl13_like = RouxParameters(14, 4, (6, 0, 6, 0))
    assert is_real_lines(psl13_like, 1)
    psl7_like = RouxParameters(8, 4, (0, 3, 0, 3))
    assert not is_real_lines(psl7_like, 1)
    assert is_real_lines(psl7_like, 0)  # trivial character is always real


def test_idempotent_report_shape():
    params = verify_roux(paley6_roux())
    rows = idempotent_report(params)
    assert len(rows) == 4  # 2 characters x 2 signs
    assert {row["eps"] for row in rows} == {"+", "-"}
    assert all(set(row) == {"k", "eps", "mu", "d", "real"} for row in rows)


def test_roux_json_roundtrip():
    B = paley6_roux(4)
    again = RouxMatrix.from_json(roux_json(B))
    assert again == B
    assert roux_json(B)["entries"][0][0] is None
