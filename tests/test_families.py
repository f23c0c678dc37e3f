import dataclasses
import json
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from util import paley6_roux, record_calls

from rouxforge import lines
from rouxforge.cli import main
from rouxforge.families import (
    FamilyError,
    UnsupportedFamilyError,
    prime_power,
    psl2_parameters_closed_form,
    psu3_parameters_closed_form,
    ree_refutation,
    sl2_family,
    su3_cover,
    su3_family,
    suzuki_refutation,
    symplectic_witness,
    trivial_parameters_closed_form,
)
from rouxforge.group import CapExceededError
from rouxforge.lines import LinesError, gram_from_signature, verify_etf
from rouxforge.oracles import line_set_records_uncached
from rouxforge.roux import RouxParameters, signature_matrix, verify_roux

# the special linear family's odd prime powers up to 31, but 9
SL2_QS = (3, 5, 7, 11, 13, 17, 19, 23, 25, 27, 29, 31)


@pytest.fixture(scope="module")
def psl5():
    return sl2_family(5)


@pytest.fixture(scope="module")
def psl7():
    return sl2_family(7)


@pytest.fixture(scope="module")
def psl13():
    return sl2_family(13)


@pytest.fixture(scope="module")
def psu3():
    return su3_family(3)


@pytest.fixture(scope="module")
def psu4():
    return su3_family(4)


@cache
def sl2_report(q):
    return sl2_family(q)


@cache
def su3_report(q):
    return su3_family(q)


def quad_block(report):
    return next(b for b in report.characters if b.higman and b.image_order == 2)


def test_prime_power():
    assert prime_power(27) == (3, 3)
    assert prime_power(31) == (31, 1)
    with pytest.raises(FamilyError):
        prime_power(12)


def test_sl2_family_unsupported_inputs():
    with pytest.raises(UnsupportedFamilyError, match="even"):
        sl2_family(4)
    with pytest.raises(UnsupportedFamilyError, match="9"):
        sl2_family(9)
    # one cap, the stabilizer's order q(q - 1) against DERIVED_CAP, checked
    # before anything is built: 313 * 312 lies under 10^5 and 317 * 316 not
    with pytest.raises(CapExceededError, match="q = 317: stabilizer order 100172 exceeds the enumeration cap 100000"):
        sl2_family(317)
    assert sl2_family(37).passed


def test_sl2_family_q5(psl5):
    assert psl5.passed
    assert psl5.n == 6
    assert psl5.higman_count == 2
    q = quad_block(psl5)
    assert tuple(q.params) == (2, 0, 2, 0)
    k1 = next(ls for ls in q.line_sets if ls.k == 1)
    assert k1.etf.d == 3 and k1.etf.passed
    assert k1.real_algebraic and k1.real_numeric


def test_sl2_family_q7(psl7):
    assert psl7.passed
    q = quad_block(psl7)
    assert tuple(q.params) == (0, 3, 0, 3)
    k1 = next(ls for ls in q.line_sets if ls.k == 1)
    assert k1.etf.d == 4 and k1.etf.passed
    assert not k1.real_algebraic and not k1.real_numeric


def test_sl2_family_q13(psl13):
    assert psl13.passed
    q = quad_block(psl13)
    assert tuple(q.params) == (6, 0, 6, 0)
    k1 = next(ls for ls in q.line_sets if ls.k == 1)
    assert k1.etf.d == 7 and k1.real_algebraic


def test_sl2_census(psl5, psl7, psl13):
    for rep in (psl5, psl7, psl13):
        passing = [b for b in rep.characters if b.higman]
        assert sorted(b.image_order for b in passing) == [1, 2]
        assert len(rep.characters) == rep.q - 1


def test_sl2_dims_within_theory(psl5, psl7, psl13):
    for rep in (psl5, psl7, psl13):
        n = rep.n
        d = (rep.q + 1) // 2
        allowed = {1, n - 1, d, n - d}
        for block in rep.characters:
            for ls in block.line_sets:
                assert ls.dims() <= allowed


def test_sl2_formula_params_match_verified(psl5, psl7, psl13):
    for rep in (psl5, psl7, psl13):
        q = quad_block(rep)
        assert tuple(q.params) == psl2_parameters_closed_form(rep.q).coeffs


def test_trivial_closed_form():
    assert trivial_parameters_closed_form(6).coeffs == (4, 0)


def test_psu3_closed_form():
    assert psu3_parameters_closed_form(3, 4).coeffs == (2, 8, 8, 8)
    assert psu3_parameters_closed_form(3, 2).coeffs == (10, 16)
    assert psu3_parameters_closed_form(4, 5).coeffs == (3, 15, 15, 15, 15)
    assert sum(psu3_parameters_closed_form(4, 5).coeffs) == 4**3 - 1
    with pytest.raises(FamilyError):
        psu3_parameters_closed_form(3, 3)
    with pytest.raises(FamilyError):
        psu3_parameters_closed_form(3, 1)


def test_su3_family_unsupported_inputs():
    with pytest.raises(UnsupportedFamilyError):
        su3_family(2)
    # q^3 (q^2 - 1) is 58,320 at q = 9 and 159,720 at q = 11
    with pytest.raises(CapExceededError, match="q = 11: stabilizer order 159720 exceeds the enumeration cap 100000"):
        su3_family(11)


def test_su3_family_q3(psu3):
    assert psu3.passed
    assert psu3.n == 28
    assert psu3.higman_count == 4  # q + 1 characters with image order dividing q+1
    blocks2 = [b for b in psu3.characters if b.higman and b.image_order == 2]
    blocks4 = [b for b in psu3.characters if b.higman and b.image_order == 4]
    assert len(blocks2) == 1 and len(blocks4) == 2
    assert tuple(blocks2[0].working_params) == (10, 16)
    for b in blocks4:
        assert tuple(b.working_params) == (2, 8, 8, 8)
        assert b.key_z_exponent == 4  # the sign the closed form is written for


@pytest.mark.parametrize("q", [3, 4, 5])
def test_compressed_roux_parameters_equal_verify_roux(q):
    # the pipeline reads a compressed roux's parameters off the verified
    # ones (see compress_to_subgroup); su3 is the family that compresses
    rep = su3_report(q)
    compressed = [b for b in rep.characters if b.higman and b.working_r != b.r]
    assert len(compressed) == q
    for b in compressed:
        assert verify_roux(b.working_roux).coeffs == tuple(b.working_params)


def test_su3_family_q3_lines(psu3):
    d, n = 7, 28
    for block in psu3.characters:
        if not block.higman or block.image_order == 1:
            continue
        r_prime = block.image_order
        for ls in block.line_sets:
            if ls.k == 0:
                continue
            assert d in ls.dims()
            cert = ls.etf if ls.etf.d == d else ls.complement
            assert cert.passed
            assert abs(cert.mu - 1 / 3) < 1e-9
            assert ls.real_algebraic == ((2 * ls.k) % r_prime == 0)
            assert ls.real_algebraic == ls.real_numeric


def test_su3_family_q3_real_only_on_order2_branch(psu3):
    # the real branches are exactly the image-order-2 characters of the
    # compressed roux: (r'=2, k=1) and its duplicate (r'=4, k=2)
    real_branches = [
        (b.image_order, ls.k)
        for b in psu3.characters
        if b.higman and b.image_order > 1
        for ls in b.line_sets
        if ls.k and ls.real_algebraic
    ]
    assert real_branches == [(2, 1), (4, 2), (4, 2)]


def test_su3_family_q4(psu4):
    assert psu4.passed
    assert psu4.n == 65
    assert psu4.higman_count == 5
    nontrivial = [b for b in psu4.characters if b.higman and b.image_order > 1]
    assert all(b.image_order == 5 for b in nontrivial)
    for b in nontrivial:
        assert tuple(b.working_params) == (3, 15, 15, 15, 15)
        for ls in b.line_sets:
            if ls.k:
                assert 13 in ls.dims()
                assert not ls.real_algebraic  # q even: no real branch
    assert len(psu4.characters) == 15


def test_family_reports_serialize(psl5, psu3):
    for rep in (psl5, psu3):
        blob = rep.to_json()
        assert blob["schema"] == 1
        assert blob["passed"] is True
        assert len(blob["characters"]) == len(rep.characters)


# ---------------------------------------------------------------------------
# negative witnesses


def test_suzuki_refutation_q8():
    report = suzuki_refutation(8)
    assert report.passed
    names = {c["name"] for c in report.checks}
    assert "inversion_identity" in names
    assert any("external cover data" in note for note in report.notes)


def test_suzuki_refutation_q32():
    report = suzuki_refutation(32)
    assert report.passed
    inv = next(c for c in report.checks if c["name"] == "inversion_identity")
    assert "31" in inv["detail"]


def test_suzuki_rejects_bad_q():
    with pytest.raises(FamilyError):
        suzuki_refutation(16)
    with pytest.raises(FamilyError):
        suzuki_refutation(2)


def test_ree_refutation():
    for q in (3, 27):
        report = ree_refutation(q)
        assert report.passed, [c for c in report.checks if not c["passed"]]
    with pytest.raises(FamilyError):
        ree_refutation(9)


def test_symplectic_witness_m3():
    plus = symplectic_witness(3, +1)
    assert plus.passed
    assert "36 points" in plus.notes[0]
    minus = symplectic_witness(3, -1)
    assert minus.passed
    assert "28 points" in minus.notes[0]
    for rep in (plus, minus):
        names = {c["name"]: c["passed"] for c in rep.checks}
        assert names["tau_involution"] and names["tau_outside_stabilizer"]
        assert names["derived_index_two"]


def test_symplectic_witness_closes_the_stabilizer_once(monkeypatch):
    # one closure of the sorted transvections builds O+(6,2), of order 8! = 40320
    from rouxforge import group

    closed = record_calls(monkeypatch, group, "closure")
    report = symplectic_witness(3, +1)
    assert report.passed
    assert [G.order for G in closed].count(40320) == 1


def test_symplectic_witness_m4():
    report = symplectic_witness(4, +1)
    assert report.passed
    assert "136 points" in report.notes[0]


def test_symplectic_witness_rejects_small_m():
    with pytest.raises(FamilyError):
        symplectic_witness(2, +1)


def test_sl2_family_prime_power_q25():
    # extension-field pipeline: F_25 Borel, quadratic character, real lines
    rep = sl2_family(25)
    assert rep.passed
    q = quad_block(rep)
    assert tuple(q.params) == (12, 0, 12, 0)
    k1 = next(ls for ls in q.line_sets if ls.k == 1)
    assert k1.etf.d == 13 and k1.real_algebraic


def assert_close(got, expected, path="record"):
    """Every non-float field equal, every float within 1e-10."""
    if isinstance(expected, dict):
        assert got.keys() == expected.keys(), path
        for key in expected:
            assert_close(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, float):
        assert type(got) is float and abs(got - expected) <= 1e-10, (path, got, expected)
    else:
        assert got == expected, path


@pytest.mark.parametrize("family, q", [("psl2", q) for q in SL2_QS] + [("psu3", q) for q in (3, 4, 5)])
def test_line_set_records_equal_the_uncached_oracle(family, q):
    # line sets with equal phase grids share one certificate, and take their
    # spectrum from the idempotent table; every record must still equal that
    # of a sweep certifying each set from its own signature matrix with the
    # eigensolver, every non-float field exactly and every float to 1e-10
    report = sl2_report(q) if family == "psl2" else su3_report(q)
    blocks = [b for b in report.characters if b.higman]
    assert blocks
    for b in blocks:
        params = RouxParameters(report.n, b.working_r, b.working_params)
        expected = line_set_records_uncached(b.working_roux, params, b.index)
        assert len(b.line_sets) == len(expected)
        for got, want in zip(b.line_sets, expected):
            assert_close(dataclasses.asdict(got), dataclasses.asdict(want))


@st.composite
def perturbed_spectra(draw):
    """A line set of psl2 q <= 13 or psu3 q = 3/4, and its + row's (mu, d)
    with mu scaled by 1 + delta, |delta| >= 1e-6, or d replaced by another
    value in 1..n - 1."""
    family, q = draw(st.sampled_from([("psl2", q) for q in (3, 5, 7, 11, 13)] + [("psu3", 3), ("psu3", 4)]))
    report = sl2_report(q) if family == "psl2" else su3_report(q)
    block = draw(st.sampled_from([b for b in report.characters if b.higman]))
    B = block.working_roux
    k = draw(st.integers(0, B.r - 1))
    plus = block.idempotents[2 * k]
    mu, d = plus["mu"], round(plus["d"])
    if draw(st.booleans()):
        delta = draw(st.floats(1e-6, 0.5)) * draw(st.sampled_from((1, -1)))
        spectrum = (mu * (1 + delta), d)
    else:
        other = draw(st.integers(1, B.n - 2))
        spectrum = (mu, other if other < d else other + 1)
    return signature_matrix(B, k), spectrum


@settings(max_examples=200, deadline=None)
@given(perturbed_spectra())
def test_a_wrong_spectrum_never_passes(case):
    # G^2 - (n/d) G is a combination of I and S whose coefficients vanish
    # only at the + and the - row: any other (mu, d) leaves a residual
    S, spectrum = case
    try:
        cert = verify_etf(gram_from_signature(S, spectrum=spectrum))
    except LinesError:
        return
    assert not cert.passed


def test_family_line_sets_call_no_eigensolver(monkeypatch, tmp_path):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert sl2_family(13).passed and su3_family(4).passed
    assert calls == []
    # a signature file comes with no roux, so verify still computes its spectrum
    S = signature_matrix(paley6_roux(4), 1)
    path = tmp_path / "signature.json"
    path.write_text(json.dumps({"n": 6, "entries": [[z.real, z.imag] for z in S.ravel()]}))
    assert main(["verify", str(path), "--kind", "signature", "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) >= 1


def test_each_phase_grid_is_certified_once_per_family_run(monkeypatch):
    grams = record_calls(monkeypatch, lines, "gram_from_signature")
    su3_family(4)
    # 22 line sets: one zero grid (J - I, shared by the trivial character's
    # sets and every k = 0 set whatever its r) and the four nonzero grids
    # the four order-5 characters share
    assert len(grams) == 5
    counts = []
    for _ in range(2):
        grams.clear()
        sl2_family(31)
        counts.append(len(grams))
    # 6 line sets, 2 of them J - I; a second run shares nothing with the first
    assert counts == [4, 4]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_the_working_roux_of_an_inverse_character_is_the_negated_grid(q):
    # proved in the radical module docstring; the line-set cache does not
    # rely on it, but it is why an inverse pair shares its line sets
    blocks = {
        (b.image_order, tuple(b.exponents_on_generators)): b
        for b in su3_report(q).characters
        if b.higman and b.image_order > 1
    }
    distinct = 0
    for (r, exps), b in blocks.items():
        inverse = blocks[r, tuple(-e % r for e in exps)]
        assert (inverse.working_roux.exps == -b.working_roux.exps % r).all()
        distinct += inverse is not b
    assert distinct >= 2


def test_su3_cover_lists_the_isotropic_pairs_once(monkeypatch):
    # the stabilizer's unipotent part and the action's points share them
    from rouxforge import families

    calls = record_calls(monkeypatch, families, "isotropic_pairs")
    su3_cover(4)
    assert len(calls) == 1
