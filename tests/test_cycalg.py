import random

import numpy as np
import pytest

from rouxforge.cycalg import (
    AlgebraError,
    CyclicCharacter,
    GroupAlgebraElement,
    algebra_mul,
    apply_character,
    characters,
    fourier_transform,
)
from rouxforge.oracles import cayley_lift, circulant


def test_mul_r2_vanishing():
    one_plus_g = GroupAlgebraElement(2, [1, 1])
    one_minus_g = GroupAlgebraElement(2, [1, -1])
    assert algebra_mul(one_plus_g, one_minus_g) == GroupAlgebraElement.zero(2)


def test_delta_squared():
    d = GroupAlgebraElement.delta(4, 1)
    assert algebra_mul(d, d) == GroupAlgebraElement.delta(4, 2)


def test_mul_mismatched_r():
    with pytest.raises(AlgebraError):
        algebra_mul(GroupAlgebraElement.zero(2), GroupAlgebraElement.zero(3))


def test_mul_matches_lift_oracle():
    rng = random.Random(11)
    r = 6
    for _ in range(20):
        a = GroupAlgebraElement(r, [rng.randint(-3, 3) for _ in range(r)])
        b = GroupAlgebraElement(r, [rng.randint(-3, 3) for _ in range(r)])
        via_lift = circulant(r, a.coeffs) @ circulant(r, b.coeffs)
        prod = algebra_mul(a, b)
        assert (circulant(r, prod.coeffs) == via_lift).all()


def test_lift_of_generator_c2():
    lifted = cayley_lift([[GroupAlgebraElement.delta(2, 1)]], 2)
    assert (lifted == np.array([[0, 1], [1, 0]])).all()


def test_lift_of_identity_element():
    lifted = cayley_lift([[GroupAlgebraElement.delta(3, 0)]], 3)
    assert (lifted == np.eye(3, dtype=np.int64)).all()


def _random_matrix(rng, n, r):
    return [
        [GroupAlgebraElement(r, [rng.randint(-2, 2) for _ in range(r)]) for _ in range(n)]
        for _ in range(n)
    ]


def _matmul(a, b, n):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = GroupAlgebraElement.zero(a[0][0].r)
            for k in range(n):
                acc = acc + algebra_mul(a[i][k], b[k][j])
            row.append(acc)
        out.append(row)
    return out


def test_lift_is_multiplicative():
    rng = random.Random(5)
    n, r = 2, 4
    for _ in range(10):
        A = _random_matrix(rng, n, r)
        B = _random_matrix(rng, n, r)
        AB = _matmul(A, B, n)
        assert (cayley_lift(AB, r) == cayley_lift(A, r) @ cayley_lift(B, r)).all()


def test_lift_respects_adjoint():
    rng = random.Random(9)
    n, r = 3, 5
    A = _random_matrix(rng, n, r)
    Astar = [[A[j][i].conjugate() for j in range(n)] for i in range(n)]
    assert (cayley_lift(Astar, r) == cayley_lift(A, r).T).all()


def test_fourier_examples():
    c = GroupAlgebraElement(4, [2, 0, 2, 0])  # c_1 = 2 at exp 0, c_{-1} = 2 at exp 2
    trivial = CyclicCharacter(4, 0)
    assert fourier_transform(c, trivial) == pytest.approx(4)
    ident = CyclicCharacter(4, 1)
    assert fourier_transform(c, ident) == pytest.approx(0)
    # element supported on a subgroup, paired with a character nontrivial there
    sub = GroupAlgebraElement(8, [3, 0, 3, 0, 3, 0, 3, 0])
    odd = CyclicCharacter(8, 2)
    assert fourier_transform(sub, odd) == pytest.approx(0)


def test_fourier_real_for_symmetric():
    rng = random.Random(3)
    r = 6
    half = [rng.randint(0, 4) for _ in range(r)]
    sym = [half[i] + half[(-i) % r] for i in range(r)]
    c = GroupAlgebraElement(r, sym)
    assert c.is_symmetric()
    for alpha in characters(r):
        assert abs(fourier_transform(c, alpha).imag) < 1e-12


def test_apply_character_homomorphism():
    rng = random.Random(17)
    n, r = 3, 4
    for k in range(r):
        alpha = CyclicCharacter(r, k)
        A = _random_matrix(rng, n, r)
        B = _random_matrix(rng, n, r)
        AB = _matmul(A, B, n)
        direct = apply_character(A, alpha) @ apply_character(B, alpha)
        assert np.allclose(apply_character(AB, alpha), direct, atol=1e-12)


def test_apply_character_scalar_patterns():
    r = 4
    gI = [[GroupAlgebraElement.delta(r, 1), GroupAlgebraElement.zero(r)],
          [GroupAlgebraElement.zero(r), GroupAlgebraElement.delta(r, 1)]]
    alpha = CyclicCharacter(r, 1)
    out = apply_character(gI, alpha)
    assert np.allclose(out, 1j * np.eye(2), atol=1e-12)
    trivial = CyclicCharacter(r, 0)
    assert np.allclose(apply_character(gI, trivial), np.eye(2), atol=1e-12)


def test_parseval_style_sum():
    for r in (1, 2, 4, 6):
        for e in range(r):
            total = sum(alpha.value_at_exponent(e) for alpha in characters(r))
            expected = r if e == 0 else 0
            assert total == pytest.approx(expected, abs=1e-12)
