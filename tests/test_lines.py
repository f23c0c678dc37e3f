import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from util import paley6_roux

from rouxforge.lines import (
    LineGram,
    LinesError,
    SignatureAxiomError,
    Tolerances,
    TwoGraph,
    check_signature,
    gram_from_signature,
    is_real_line_sequence,
    naimark_complement,
    normalized_signature,
    signature_from_two_graph,
    two_graph_regularity,
    verify_etf,
    welch_bound,
)
from rouxforge.oracles import gram_vectors, two_graph_from_lines
from rouxforge.roux import signature_matrix


def etf63_signature() -> np.ndarray:
    return signature_matrix(paley6_roux(4), 1)


def test_gram_from_all_ones_signature():
    n = 4
    S = np.ones((n, n)) - np.eye(n)
    gram = gram_from_signature(S)
    vectors = gram_vectors(gram)
    assert gram.d == 1
    assert np.allclose(gram.matrix, np.ones((n, n)), atol=1e-9)
    assert vectors.shape == (1, n)


def test_gram_from_etf63_signature():
    gram = gram_from_signature(etf63_signature())
    vectors = gram_vectors(gram)
    assert (gram.n, gram.d) == (6, 3)
    off = ~np.eye(6, dtype=bool)
    assert np.allclose(np.abs(gram.matrix[off]), 1 / math.sqrt(5), atol=1e-9)
    assert np.allclose(vectors.conj().T @ vectors, gram.matrix, atol=1e-9)


def test_signature_axiom_errors():
    S = np.ones((3, 3)) - np.eye(3)
    S[0, 1] = 2.0
    with pytest.raises(SignatureAxiomError):
        gram_from_signature(S)


def check_signature_loop(S, tol=1e-12):
    """Cell-by-cell reference for check_signature: the first failure in
    the order the vectorized check must keep."""
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    for i in range(n):
        if abs(S[i, i]) > tol:
            return f"nonzero diagonal at ({i},{i})", (i, i)
    for i in range(n):
        for j in range(n):
            if i != j and abs(abs(S[i, j]) - 1) > tol:
                return f"non-unimodular entry at ({i},{j})", (i, j)
            if abs(S[i, j] - S[j, i].conjugate()) > tol:
                return f"not Hermitian at ({i},{j})", (i, j)
    return None


def check_signature_outcome(S):
    try:
        check_signature(S)
    except SignatureAxiomError as exc:
        return str(exc), exc.cell
    return None


# Ways to corrupt one cell: scale its modulus, turn its phase (breaks only
# Hermitian symmetry), move it by more than the tolerance, add an imaginary
# part below the tolerance (on the diagonal this fails only the Hermitian
# check), or zero it.
CORRUPTIONS = {
    "scale": lambda v: 1.5 * v,
    "rotate": lambda v: v * np.exp(0.3j),
    "tiny": lambda v: v + 1e-11,
    "diag_imag": lambda v: v + 0.8e-12j,
    "zero": lambda v: 0.0,
}


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    corruptions=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from(sorted(CORRUPTIONS))),
        max_size=3,
    ),
)
def test_check_signature_matches_loop(n, seed, corruptions):
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random((n, n)))
    S = np.triu(phases, 1)
    S = S + S.conj().T
    for i, j, how in corruptions:
        i, j = i % n, j % n
        S[i, j] = CORRUPTIONS[how](S[i, j])
    assert check_signature_outcome(S) == check_signature_loop(S)


def test_check_signature_hermitian_on_diagonal():
    S = np.ones((3, 3), dtype=complex) - np.eye(3)
    S[1, 1] = 0.8e-12j
    assert check_signature_outcome(S) == ("not Hermitian at (1,1)", (1, 1))


def test_verify_etf_orthonormal_degenerate():
    cert = verify_etf(np.eye(4))
    assert cert.degenerate and cert.mu == 0


def test_verify_etf_63():
    cert = verify_etf(gram_from_signature(etf63_signature()))
    assert cert.passed
    assert cert.d == 3
    assert cert.mu == pytest.approx(1 / math.sqrt(5), abs=1e-9)
    assert cert.tightness_residual < 1e-9
    assert cert.equiangularity_residual < 1e-9
    assert cert.welch_equality
    assert cert.real  # q = 5 is 1 mod 4


def test_verify_etf_perturbed_fails():
    gram = gram_from_signature(etf63_signature())
    M = gram.matrix.copy()
    M[0, 1] += 0.01
    M[1, 0] += 0.01
    cert = verify_etf(LineGram(6, 3, M, gram.eigenvalues))
    assert cert.equiangularity_residual >= 0.009
    assert not cert.welch_equality or cert.equiangularity_residual >= 0.009
    assert not cert.passed


def test_verify_etf_realness_needs_a_signature():
    # a diagonal off by 1e-10 is a unit Gram (ETF_TOL) but (G - I)/mu is
    # no signature matrix (SIG_TOL), so the lines are not certified real
    G = gram_from_signature(etf63_signature()).matrix.copy()
    assert verify_etf(G).real
    G[2, 2] += 1e-10
    cert = verify_etf(G)
    assert cert.passed and not cert.real


def test_naimark_complement_63():
    gram = gram_from_signature(etf63_signature())
    comp = naimark_complement(gram)
    assert (comp.n, comp.d) == (6, 3)
    # self-complementary dimensions: off-diagonal signs flip
    assert np.allclose(comp.matrix, 2 * np.eye(6) - gram.matrix, atol=1e-9)
    again = naimark_complement(comp)
    assert np.max(np.abs(again.matrix - gram.matrix)) < 1e-9
    cert = verify_etf(comp)
    assert cert.passed


def test_naimark_rejects_untight_and_square():
    with pytest.raises(LinesError):
        naimark_complement(LineGram.from_matrix(np.eye(3)))
    loose = np.eye(3, dtype=complex)
    loose[0, 1] = loose[1, 0] = 0.5
    with pytest.raises(LinesError):
        naimark_complement(LineGram.from_matrix(loose))


def test_naimark_reads_the_residual_verify_etf_computed():
    gram = gram_from_signature(etf63_signature())
    cert = verify_etf(gram)
    assert vars(gram)["tightness_residual"] == cert.tightness_residual < 1e-9
    naimark_complement(gram)
    # the complement trusts the Gram's one stored residual
    gram.tightness_residual = 1.0
    with pytest.raises(LinesError, match="not tight"):
        naimark_complement(gram)


def test_normalized_signature():
    S = check_signature(etf63_signature())
    N = normalized_signature(S)
    assert np.allclose(N[0, 1:], 1, atol=1e-12)
    assert np.allclose(N[1:, 0], 1, atol=1e-12)
    assert np.allclose(normalized_signature(N), N, atol=1e-12)
    # any diagonal switch is undone exactly
    phases = np.exp(2j * np.pi * np.arange(6) / 6)
    switched = N * np.outer(phases.conj(), phases)
    assert np.allclose(normalized_signature(check_signature(switched)), N, atol=1e-12)


def test_is_real_line_sequence():
    assert is_real_line_sequence(check_signature(np.ones((5, 5)) - np.eye(5)))
    assert is_real_line_sequence(check_signature(etf63_signature()))  # real after normalization


def test_two_graph_from_trivial_signatures():
    n = 5
    empty = two_graph_from_lines(np.ones((n, n)) - np.eye(n))
    assert empty.triples == frozenset()
    full = two_graph_from_lines(np.eye(n) - np.ones((n, n)))
    assert len(full.triples) == math.comb(n, 3)


def test_two_graph_from_etf63():
    tg = two_graph_from_lines(etf63_signature())
    tg.check_parity()
    assert tg.n == 6
    reg = two_graph_regularity(tg)
    assert reg["regular"]
    assert reg["lambda1"] == pytest.approx(math.sqrt(5), abs=1e-9)
    assert reg["lambda2"] == pytest.approx(-math.sqrt(5), abs=1e-9)
    assert reg["d"] == pytest.approx(3, abs=1e-9)


def test_two_graph_roundtrip():
    tg = two_graph_from_lines(etf63_signature())
    S = signature_from_two_graph(tg)
    assert two_graph_from_lines(S).triples == tg.triples


def test_two_graph_parity_enforced():
    bad = TwoGraph(4, frozenset({frozenset((0, 1, 2))}))
    with pytest.raises(LinesError):
        bad.check_parity()
    with pytest.raises(LinesError):
        signature_from_two_graph(bad)


def parity_by_scan(tg):
    """The first 4-subset with an odd number of triples, as a message."""
    for quad in itertools.combinations(range(tg.n), 4):
        count = sum(1 for t in itertools.combinations(quad, 3) if frozenset(t) in tg.triples)
        if count % 2:
            return f"4-subset {quad} contains {count} triples"
    return None


@st.composite
def perturbed_two_graphs(draw):
    # the two-graph of a graph (triples holding an odd number of edges),
    # with a few triples flipped so that parity may fail anywhere
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = {p for p in pairs if draw(st.booleans())}
    triples = {
        frozenset(t)
        for t in itertools.combinations(range(n), 3)
        if sum(p in edges for p in itertools.combinations(t, 2)) % 2
    }
    all_triples = list(itertools.combinations(range(n), 3))
    if all_triples:
        for t in draw(st.lists(st.sampled_from(all_triples), max_size=3)):
            triples ^= {frozenset(t)}
    return TwoGraph(n, frozenset(triples))


@settings(max_examples=300, deadline=None)
@given(perturbed_two_graphs())
def test_check_parity_matches_scan(tg):
    expected = parity_by_scan(tg)
    try:
        tg.check_parity()
        found = None
    except LinesError as exc:
        found = str(exc)
    assert found == expected


def test_check_parity_beyond_30_vertices():
    TwoGraph(31, frozenset()).check_parity()
    with pytest.raises(LinesError, match=r"4-subset \(0, 1, 2, 3\) contains 1 triples"):
        TwoGraph(31, frozenset({frozenset((0, 1, 2))})).check_parity()
    # a triple away from 0 is still found, through the 4-subsets with 0
    with pytest.raises(LinesError, match=r"4-subset \(0, 29, 30, 31\) contains 1 triples"):
        TwoGraph(32, frozenset({frozenset((29, 30, 31))})).check_parity()


def test_empty_two_graph_regularity():
    tg = TwoGraph(6, frozenset())
    reg = two_graph_regularity(tg)
    assert reg["regular"]
    assert reg["d"] == pytest.approx(1, abs=1e-9)
    assert sorted(reg["eigenvalues"]) == pytest.approx([-1, 5], abs=1e-9)


def test_generic_two_graph_not_regular():
    # switching class of a single edge on 5 vertices: parity-valid, not regular
    n = 5
    triples = frozenset(frozenset((0, 1, k)) for k in range(2, n))
    tg = TwoGraph(n, triples)
    tg.check_parity()
    assert not two_graph_regularity(tg)["regular"]


def test_welch_bound_values():
    assert welch_bound(6, 3) == pytest.approx(1 / math.sqrt(5))
    assert welch_bound(28, 7) == pytest.approx(1 / 3)
    assert welch_bound(28, 21) == pytest.approx(1 / 9)


def test_signature_gram_roundtrip():
    # rebuilding mu^-1 (Phi* Phi - I) from the unit-norm factors recovers S
    S = etf63_signature()
    gram = gram_from_signature(S)
    vectors = gram_vectors(gram)
    rebuilt = vectors.conj().T @ vectors
    mu = 1 / math.sqrt(5)
    assert np.max(np.abs((rebuilt - np.eye(6)) / mu - S)) < 1e-8


def test_verify_etf_iff_two_eigenvalues():
    gram = gram_from_signature(etf63_signature())
    w = np.linalg.eigvalsh(gram.matrix)
    assert np.allclose(sorted(set(np.round(w, 8))), [0, 2], atol=1e-8)
    assert verify_etf(gram).passed
    # a non-tight Gram has a spread spectrum and fails
    loose = np.eye(6, dtype=complex)
    loose[0, 1] = loose[1, 0] = 0.3
    assert not verify_etf(LineGram.from_matrix(loose)).passed


def test_psu33_signature_gives_28_7():
    # the (28,7) member of the unitary family, read back from its own signature
    from rouxforge.families import su3_family
    from rouxforge.roux import signature_matrix

    rep = su3_family(3)
    block = next(b for b in rep.characters if b.higman and b.image_order == 4)
    S = signature_matrix(block.working_roux, 1)
    gram21 = gram_from_signature(S)
    assert gram21.d == 21
    gram7 = naimark_complement(gram21)
    mu = 1 / 3
    S7 = (gram7.matrix - np.eye(28)) / mu
    gram_back = gram_from_signature(S7)
    assert gram_back.d == 7
    cert = verify_etf(gram_back)
    assert cert.passed and abs(cert.mu - mu) < 1e-9
    assert not cert.real


def test_a_certificate_keeps_the_verdict_of_its_tolerances():
    # the (6,3) frame with one vector tilted: equiangular only to 0.05
    vectors = gram_vectors(gram_from_signature(etf63_signature()))
    vectors[1, 0] += 0.01
    vectors[:, 0] /= np.linalg.norm(vectors[:, 0])
    G = vectors.conj().T @ vectors
    loose = verify_etf(G, Tolerances(etf=0.05))
    assert loose.passed and loose.to_json()["passed"]
    strict = verify_etf(G)
    assert not strict.passed
    assert loose.passed and loose.to_json()["passed"]
