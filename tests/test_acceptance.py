"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.
"""

import random
import time

import numpy as np
import pytest
from util import cover_of, materialized, random_outside_stabilizer

from rouxforge.families import (
    psl2_parameters_closed_form,
    ree_refutation,
    sl2_cover,
    sl2_family,
    su3_cover,
    su3_family,
    suzuki_refutation,
    symplectic_witness,
)
from rouxforge.group import PermOps, closure, enumerate_linear_characters, natural_permutation_action
from rouxforge.lines import (
    check_signature,
    gram_from_signature,
    is_real_line_sequence,
    naimark_complement,
    two_graph_regularity,
    verify_etf,
    welch_bound,
)
from rouxforge.oracles import radicalization_groups, two_graph_from_lines, verify_higman_axioms
from rouxforge.radical import (
    HigmanDecompositionTable,
    Radicalization,
    detect_higman,
    find_key,
    radicalize,
)
from rouxforge.roux import (
    idempotent_data,
    is_real_lines,
    signature_matrix,
    switch,
    verify_roux,
)

PSL_QS = (5, 7, 11, 13, 17)


def criterion(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def psl_runs():
    runs = {}
    for q in PSL_QS:
        start = time.monotonic()
        report = sl2_family(q)
        runs[q] = (report, time.monotonic() - start)
    return runs


@pytest.fixture(scope="module")
def psu_run():
    start = time.monotonic()
    report = su3_family(3)
    return report, time.monotonic() - start


def _all_family_roux(psl_runs, psu_run):
    """Every (roux, params) pair the family pipelines constructed."""
    out = []
    reports = [rep for rep, _ in psl_runs.values()] + [psu_run[0]]
    for rep in reports:
        for block in rep.characters:
            if block.roux_matrix is not None:
                out.append(block.roux_matrix)
                if block.working_roux is not block.roux_matrix:
                    out.append(block.working_roux)
    return out


def test_criterion_1_psl2_regression(psl_runs):
    ok = True
    detail = []
    for q, (rep, elapsed) in psl_runs.items():
        n, d = q + 1, (q + 1) // 2
        passing = [b for b in rep.characters if b.higman]
        census = sorted(b.image_order for b in passing) == [1, 2]
        quad = next(b for b in passing if b.image_order == 2)
        params_ok = tuple(quad.params) == psl2_parameters_closed_form(q).coeffs
        k1 = next(ls for ls in quad.line_sets if ls.k == 1)
        etf_ok = (
            k1.etf.passed
            and k1.etf.d == d
            and abs(k1.etf.mu - welch_bound(n, d)) < 1e-9
        )
        real_ok = k1.real_algebraic == (q % 4 == 1)
        time_ok = elapsed < 60
        ok = ok and census and params_ok and etf_ok and real_ok and time_ok
        detail.append(f"q={q}:{elapsed:.1f}s")
    criterion(
        1,
        ok,
        "PSL(2,q) regression for q in {5,7,11,13,17}: census, exact parameters, "
        f"(n,(q+1)/2) frames at the Welch bound, realness = (q = 1 mod 4) [{' '.join(detail)}]",
    )


def test_criterion_2_psu33(psu_run):
    rep, elapsed = psu_run
    blocks2 = [b for b in rep.characters if b.higman and b.image_order == 2]
    blocks4 = [b for b in rep.characters if b.higman and b.image_order == 4]
    params_ok = all(tuple(b.working_params) == (2, 8, 8, 8) for b in blocks4) and all(
        tuple(b.working_params) == (10, 16) for b in blocks2
    )
    d_ok = mu_ok = True
    for b in blocks2 + blocks4:
        for ls in b.line_sets:
            if ls.k == 0:
                continue
            cert = ls.etf if ls.etf.d == 7 else ls.complement
            d_ok = d_ok and cert is not None and abs(cert.d - 7) < 0.01
            mu_ok = mu_ok and cert is not None and abs(cert.mu - 1 / 3) < 1e-9
    real_branches = sorted(
        (b.image_order, ls.k)
        for b in blocks2 + blocks4
        for ls in b.line_sets
        if ls.k and ls.real_algebraic
    )
    # the order-2 branch and its duplicate inside each order-4 block
    real_ok = real_branches == [(2, 1), (4, 2), (4, 2)]
    time_ok = elapsed < 300
    criterion(
        2,
        params_ok and d_ok and mu_ok and real_ok and rep.n == 28 and time_ok,
        f"PSU(3,3): parameters (2,8,8,8)/(10,16) exact, d = 7, mu = 1/3, "
        f"real exactly on the order-2 branch [{elapsed:.1f}s]",
    )


def test_criterion_3_exact_roux_law(psl_runs, psu_run):
    count = 0
    ok = True
    for B in _all_family_roux(psl_runs, psu_run):
        params = verify_roux(B)  # raises on any inexact cell
        ok = ok and sum(params.coeffs) == B.n - 2
        ok = ok and all(
            params.coeffs[w] == params.coeffs[(-w) % B.r] for w in range(B.r)
        )
        count += 1
    criterion(3, ok and count > 0, f"exact quadratic identity for all {count} constructed roux")


def test_criterion_4_idempotent_identities(psl_runs, psu_run):
    ok = True
    checked = 0
    for B in _all_family_roux(psl_runs, psu_run):
        params = verify_roux(B)
        n = params.n
        for k in range(params.r):
            plus, minus = idempotent_data(params, k)
            ok = ok and abs(plus["mu"] * minus["mu"] + 1 / (n - 1)) < 1e-9
            ok = ok and abs(plus["d"] + minus["d"] - n) < 1e-9
            checked += 1
        plus0, minus0 = idempotent_data(params, 0)
        ok = ok and {plus0["d"], minus0["d"]} == {1.0, float(n - 1)}
    criterion(
        4,
        ok,
        f"mu+mu- = -1/(n-1) and d+ + d- = n for all {checked} characters; "
        "trivial character gives d in {1, n-1} exactly",
    )


def test_criterion_5_detector_choice_independence():
    rng = random.Random(2024)
    ok = True
    instances = 0
    for q in PSL_QS:
        cover, x = sl2_cover(q)
        if q * (q * q - 1) > 10**4:
            continue
        table = HigmanDecompositionTable(cover, x)
        for alpha in enumerate_linear_characters(cover.stab):
            baseline = detect_higman(table, alpha)
            for _ in range(5):
                y = random_outside_stabilizer(cover, rng)
                ok = ok and detect_higman(HigmanDecompositionTable(cover, y), alpha) == baseline
            instances += 1
    cover, x, _ = su3_cover(3)  # |SU(3,3)| = 6048
    table = HigmanDecompositionTable(cover, x)
    for alpha in enumerate_linear_characters(cover.stab):
        baseline = detect_higman(table, alpha)
        for _ in range(5):
            y = random_outside_stabilizer(cover, rng)
            ok = ok and detect_higman(HigmanDecompositionTable(cover, y), alpha) == baseline
        instances += 1
    criterion(
        5,
        ok and instances > 0,
        f"detector verdict stable across 5 random x for {instances} characters "
        "on all family instances with group order <= 10^4",
    )


def test_criterion_6_real_lines_cross_validation(psl_runs, psu_run):
    ok = True
    checked = 0
    for B in _all_family_roux(psl_runs, psu_run):
        params = verify_roux(B)
        for k in range(params.r):
            algebraic = is_real_lines(params, k)
            numeric = (
                True
                if k == 0
                else is_real_line_sequence(check_signature(signature_matrix(B, k)))
            )
            ok = ok and algebraic == numeric
            checked += 1
    criterion(6, ok, f"algebraic and numeric realness agree on all {checked} line sets")


def test_criterion_7_switching_invariance(psl_runs, psu_run):
    rng = random.Random(7)
    ok = True
    for B in _all_family_roux(psl_runs, psu_run):
        params = verify_roux(B)
        spectra = {
            k: np.sort(np.linalg.eigvalsh(signature_matrix(B, k)))
            for k in range(B.r)
        }
        for _ in range(20):
            diag = [rng.randrange(B.r) for _ in range(B.n)]
            switched = switch(B, diag)
            ok = ok and verify_roux(switched).coeffs == params.coeffs
            for k in range(B.r):
                s = np.sort(np.linalg.eigvalsh(signature_matrix(switched, k)))
                ok = ok and np.max(np.abs(s - spectra[k])) < 1e-9
    criterion(7, ok, "20 random switches preserve parameters exactly and spectra to 1e-9")


def test_criterion_8_naimark(psu_run):
    rep, _ = psu_run
    block = next(b for b in rep.characters if b.higman and b.image_order == 4)
    S = signature_matrix(block.working_roux, 1)
    gram21 = gram_from_signature(S)
    gram7 = naimark_complement(gram21) if gram21.d == 21 else gram21
    assert gram7.d == 7
    cert7 = verify_etf(gram7)
    comp = naimark_complement(gram7)
    cert21 = verify_etf(comp)
    double = naimark_complement(comp)
    ok = (
        cert7.passed
        and (comp.n, comp.d) == (28, 21)
        and cert21.passed
        and abs(cert21.mu - 1 / 9) < 1e-9
        and float(np.max(np.abs(double.matrix - gram7.matrix))) < 1e-9
    )
    criterion(8, ok, "(28,7) complements to a certified (28,21) frame; double complement returns")


def test_criterion_9_two_graphs(psl_runs):
    ok = True
    for q in (5, 13):
        rep, _ = psl_runs[q]
        quad = next(b for b in rep.characters if b.higman and b.image_order == 2)
        S = signature_matrix(quad.working_roux, 1)
        tg = two_graph_from_lines(S)
        tg.check_parity()  # exhaustive over all 4-subsets at these sizes
        reg = two_graph_regularity(tg)
        gram = gram_from_signature(S)
        ok = ok and reg["regular"] and abs(reg["d"] - gram.d) < 1e-6
    criterion(9, ok, "(6,3) and (14,7) two-graphs are parity-valid, regular, d = Gram rank")


def test_criterion_10_negative_witnesses():
    start = time.monotonic()
    reports = [
        suzuki_refutation(8),
        suzuki_refutation(32),
        ree_refutation(3),
        ree_refutation(27),
        symplectic_witness(3, +1),
        symplectic_witness(3, -1),
    ]
    elapsed = time.monotonic() - start
    ok = all(rep.passed for rep in reports) and elapsed < 30
    names = {c["name"] for rep in reports[:4] for c in rep.checks}
    ok = ok and "inversion_identity" in names
    sp_names = {c["name"]: c["passed"] for c in reports[4].checks}
    ok = ok and sp_names["tau_involution"] and sp_names["tau_outside_stabilizer"]
    ok = ok and sp_names["derived_index_two"]
    criterion(
        10,
        ok,
        f"Suzuki(8,32) and Ree(3,27) conjugation identities exact; symplectic witnesses "
        f"(tau^2 = 1, tau outside the stabilizer, index-2 derived subgroup) [{elapsed:.1f}s]",
    )


def test_criterion_11_bruteforce_oracle_equivalence():
    # (S3, stabilizer, trivial character)
    S3 = closure([(1, 0, 2), (1, 2, 0)], PermOps(3), name="S3")
    cover = cover_of(natural_permutation_action(S3))
    trivial = next(
        a for a in enumerate_linear_characters(cover.stab) if a.modulus == 1
    )
    table = HigmanDecompositionTable(cover, cover.first_outside_stabilizer())
    verdict = detect_higman(table, trivial)
    rad = radicalize(cover, trivial)
    key = find_key(rad, table)
    Gt, H, _ = radicalization_groups(rad)
    report = verify_higman_axioms(Gt, H, (key.x, key.z_exponent))
    ok = report.passed == verdict is True

    # (SL(2,5), stabilizer, quadratic character)
    cover5, x5 = sl2_cover(5)
    cover5 = materialized(cover5)
    chars = enumerate_linear_characters(cover5.stab)
    quad = next(a for a in chars if a.modulus == 2)
    table5 = HigmanDecompositionTable(cover5, x5)
    verdict5 = detect_higman(table5, quad)
    rad5 = radicalize(cover5, quad)
    key5 = find_key(rad5, table5)
    Gt5, H5, _ = radicalization_groups(rad5)
    report5 = verify_higman_axioms(Gt5, H5, (key5.x, key5.z_exponent))
    ok = ok and report5.passed == verdict5 is True

    # negative agreement: an order-4 character fails both routes
    quartic = next(a for a in chars if a.modulus == 4)
    verdict4 = detect_higman(table5, quartic)
    rad4 = Radicalization(cover5, quartic)
    key4 = find_key(rad4, table5)
    Gt4, H4, _ = radicalization_groups(rad4)
    report4 = verify_higman_axioms(Gt4, H4, (key4.x, key4.z_exponent))
    ok = ok and verdict4 is False and not report4.passed and not report4.axioms["H5"]

    criterion(
        11,
        ok,
        "literal H1-H5 verification agrees with the detector on the S3 (trivial) and "
        "SL(2,5) (quadratic, quartic) radicalizations",
    )
