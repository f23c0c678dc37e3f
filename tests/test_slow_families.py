"""The largest family runs: sl2 up to q = 31, su3 at q = 5 and q = 8, and
the generic detect path on SU(3,3)."""

from rouxforge.families import sl2_family, su3_family


def test_sl2_family_remaining_q():
    for q, expected_real in ((19, False), (23, False), (27, False), (29, True), (31, False)):
        rep = sl2_family(q)
        assert rep.passed, q
        quad = next(b for b in rep.characters if b.higman and b.image_order == 2)
        k1 = next(ls for ls in quad.line_sets if ls.k == 1)
        assert k1.etf.d == (q + 1) // 2
        assert k1.real_algebraic == expected_real


def test_su3_family_q5_inside_the_cap():
    rep = su3_family(5)
    assert rep.passed
    assert rep.n == 126 and rep.higman_count == 6
    by_order = {}
    for b in rep.characters:
        if b.higman and b.image_order > 1:
            by_order.setdefault(b.image_order, tuple(b.working_params))
    assert by_order == {
        2: (52, 72),
        3: (28, 48, 48),
        6: (4, 24, 24, 24, 24, 24),
    }


def test_su3_family_q8_passes_at_default_tolerances():
    # n = 513: the k = 0 Gram is J, built from mu = 1 and d = 1 with no
    # eigensolver, so its tightness residual is exactly 0
    rep = su3_family(8)
    assert rep.passed
    assert rep.n == 513 and rep.higman_count == 9
    zero = [ls for b in rep.characters if b.higman for ls in b.line_sets if ls.k == 0]
    assert zero and all(ls.etf.d == 1 and ls.etf.tightness_residual == 0 for ls in zero)
    assert all(
        ls.etf.passed or ls.complement.passed
        for b in rep.characters
        if b.higman and b.image_order > 1
        for ls in b.line_sets
        if ls.k
    )


def test_cli_detect_su33_isotropic(tmp_path, capsys):
    # the generic detect path on SU(3,3): materialized closure, enumerated
    # stabilizer, and the same parameters the family pipeline reports
    import json

    from rouxforge.cli import main
    from rouxforge.families import su3_cover

    cover, x, _ = su3_cover(3)
    gens = [x] + list(cover.stab.generators)
    spec = {
        "kind": "matrix",
        "field": {"p": 3, "k": 2, "irreducible": [1, 0, 1]},
        "dim": 3,
        "generators": [
            [list(cover.ops.spec.decode(e)) for row in g for e in row] for g in gens
        ],
        "action": "isotropic",
    }
    path = tmp_path / "su33.json"
    path.write_text(json.dumps(spec))
    code = main(["detect", str(path), "--out", str(tmp_path / "out.json")])
    assert code == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["n"] == 28
    assert report["group_order"] == 6048
    assert report["stabilizer_order"] == 216
    passing = [r for r in report["characters"] if r["higman"]]
    assert len(passing) == 4
    # C_8 parameters before compression, for either key sign
    quartics = [r for r in passing if r["character"]["image_order"] == 4]
    assert len(quartics) == 2
    for row in quartics:
        # the generic path picks the least-exponent key sign, which sees the
        # family's (2, 0, 8, 0, 8, 0, 8, 0) translated by the C_8 element -1
        assert row["params"] == [8, 0, 8, 0, 2, 0, 8, 0]
