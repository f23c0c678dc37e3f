import math
import random

import numpy as np
import pytest
from util import paley6_roux

from rouxforge.cycalg import GroupAlgebraElement
from rouxforge.oracles import gram_from_idempotent, idempotency_residual, matrix_rank_by_threshold
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
        params = verify_roux(RouxMatrix.all_ones(n))
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


def test_parameter_invariants_enforced():
    with pytest.raises(RouxIdentityError):
        RouxParameters(6, 2, GroupAlgebraElement(2, [3, 2]))  # sum != n-2
    with pytest.raises(RouxIdentityError):
        RouxParameters(6, 4, GroupAlgebraElement(4, [1, 2, 0, 1]))  # not symmetric


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
    B2 = compress_to_subgroup(B4, 2)
    assert B2.r == 2
    assert verify_roux(B2).coeffs == (2, 2)


def test_compress_identity_case():
    B = paley6_roux(2)
    same = compress_to_subgroup(B, 2)
    assert verify_roux(same).coeffs == (2, 2)


def test_compress_support_violation():
    B = paley6_roux(2)
    with pytest.raises(RouxAxiomError):
        compress_to_subgroup(B, 1)


def test_idempotent_trivial_branch_exact():
    params = verify_roux(RouxMatrix.all_ones(6))
    plus, minus = idempotent_data(params, 0)
    assert (plus.mu, plus.d) == (1.0, 1.0)
    assert minus.d == 5.0  # exactly n-1
    assert minus.mu == -1.0 / 5


def test_idempotent_balanced_branch():
    # n=8 with vanishing Fourier transform: mu = +-1/sqrt(7), d = 4 both
    params = RouxParameters(8, 4, GroupAlgebraElement(4, [0, 3, 0, 3]))
    plus, minus = idempotent_data(params, 1)
    assert plus.mu == pytest.approx(1 / math.sqrt(7), abs=1e-12)
    assert minus.mu == pytest.approx(-1 / math.sqrt(7), abs=1e-12)
    assert plus.d == pytest.approx(4, abs=1e-9)
    assert minus.d == pytest.approx(4, abs=1e-9)


def test_idempotent_unitary_shape():
    # n=28 with Fourier transform q - q^2 = -6 at q=3
    params = RouxParameters(28, 4, GroupAlgebraElement(4, [2, 8, 8, 8]))
    plus, minus = idempotent_data(params, 1)
    assert plus.mu == pytest.approx(1 / 9, abs=1e-12)
    assert minus.mu == pytest.approx(-1 / 3, abs=1e-12)
    assert plus.d == pytest.approx(21, abs=1e-9)
    assert minus.d == pytest.approx(7, abs=1e-9)


def test_idempotent_identities_all_characters():
    cases = [
        verify_roux(RouxMatrix.all_ones(9)),
        verify_roux(paley6_roux()),
        verify_roux(paley6_roux(4)),
        RouxParameters(28, 4, GroupAlgebraElement(4, [2, 8, 8, 8])),
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
    S = signature_matrix(B, k, params)
    assert np.max(np.abs(G_small - (np.eye(n) + plus.mu * S))) < 1e-8
    # within each line block the r columns are phase-duplicates of one span
    for i in range(n):
        cols = G_big[:, i * r : (i + 1) * r]
        norms = np.linalg.norm(cols, axis=0)
        for z in range(1, r):
            overlap = abs(np.vdot(cols[:, 0], cols[:, z]))
            assert overlap == pytest.approx(norms[0] * norms[z], abs=1e-8)


def test_is_real_lines():
    psl13_like = RouxParameters(14, 4, GroupAlgebraElement(4, [6, 0, 6, 0]))
    assert is_real_lines(psl13_like, 1)
    psl7_like = RouxParameters(8, 4, GroupAlgebraElement(4, [0, 3, 0, 3]))
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
    again = RouxMatrix.from_json(B.to_json())
    assert again == B
    assert B.to_json()["entries"][0][0] is None
