import time

import numpy as np
import pytest

from rouxforge.field import (
    IRREDUCIBLE_TABLE,
    TABLE_LIMIT,
    FieldError,
    FieldSpec,
    _poly_mul_mod,
    primitive_element,
)


def test_prime_field_arith():
    F5 = FieldSpec(5)
    assert F5.mul(2, 3) == 1
    F7 = FieldSpec(7)
    assert F7.inv(3) == 5
    assert F7.mul(1, F7.inv(3)) == 5


def test_f9_defining_relation():
    # F_9 = F_3[x]/(x^2+1), so x*x = -1
    F9 = FieldSpec(3, 2)
    x = F9.encode([0, 1])
    assert F9.mul(x, x) == F9.neg(1) == F9.encode([2, 0])


def test_arith_errors():
    with pytest.raises(ZeroDivisionError):
        FieldSpec(5).inv(0)


def test_frobenius_f9():
    F9 = FieldSpec(3, 2)
    x = F9.encode([0, 1])
    assert F9.pow(x, 3) == F9.neg(x)


def test_frobenius_identity_on_prime_field():
    F13 = FieldSpec(13)
    for a in range(F13.q):
        assert F13.pow(a, 13) == a


def test_frobenius_f49_is_automorphism():
    # brute-force oracle: a -> a^7 is additive and multiplicative on all of F_49
    F49 = FieldSpec(7, 2)
    frob = [F49.pow(a, 7) for a in range(F49.q)]
    for a in range(F49.q):
        for b in range(F49.q):
            assert frob[F49.add(a, b)] == F49.add(frob[a], frob[b])
            assert frob[F49.mul(a, b)] == F49.mul(frob[a], frob[b])


def test_frobenius_iterated_is_identity():
    # a -> a^p has order exactly k on F_{p^k}
    for (p, k) in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        spec = FieldSpec(p, k)
        for j in range(1, k + 1):
            fixed = all(spec.pow(a, p**j) == a for a in range(spec.q))
            assert fixed == (j == k)


def test_primitive_elements():
    assert primitive_element(FieldSpec(5)) == 2
    assert primitive_element(FieldSpec(7)) == 3
    F4 = FieldSpec(2, 2)
    x = primitive_element(F4)
    assert [F4.pow(x, e) == 1 for e in (1, 2, 3)] == [False, False, True]
    assert x == F4.encode([0, 1])


@pytest.mark.parametrize("p,k", sorted((p, k) for (p, k) in IRREDUCIBLE_TABLE if p**k <= 81))
def test_field_axioms_exhaustive(p, k):
    import numpy as np

    spec = FieldSpec(p, k)
    q = spec.q
    add = np.array([[spec.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[spec.mul(a, b) for b in range(q)] for a in range(q)])
    idx = np.arange(q)
    # commutativity
    assert (add == add.T).all() and (mul == mul.T).all()
    # identities
    assert (add[0] == idx).all() and (mul[1] == idx).all()
    # associativity, fully vectorized: (a+b)+c == a+(b+c)
    assert (add[add][:, :, :] == add[:, add].transpose(0, 1, 2)).all()
    assert (mul[mul][:, :, :] == mul[:, mul].transpose(0, 1, 2)).all()
    # distributivity a*(b+c) == a*b + a*c
    lhs = mul[:, add]  # lhs[a,b,c] = a*(b+c)
    rhs = add[mul[:, :, None], mul[:, None, :]]
    assert (lhs == rhs).all()
    # inverses
    for a in range(q):
        assert add[a, spec.neg(a)] == 0
        if a:
            assert mul[a, spec.inv(a)] == 1


def test_norm_map_onto_subfield():
    # a -> a^(q+1) maps F_{q^2}^x onto F_q^x with kernel of size q+1
    for (p, k, q) in [(2, 2, 2), (3, 2, 3), (2, 4, 4), (5, 2, 5), (7, 2, 7), (2, 6, 8), (3, 4, 9)]:
        spec = FieldSpec(p, k)
        assert spec.q == q * q
        images = {}
        for a in range(1, spec.q):
            images.setdefault(spec.pow(a, q + 1), 0)
            images[spec.pow(a, q + 1)] += 1
    # image is the multiplicative group of the subfield: q-1 values, fibers of size q+1
        assert len(images) == q - 1
        assert set(images.values()) == {q + 1}


def test_irreducibility_check_rejects_reducible():
    with pytest.raises(FieldError):
        FieldSpec(3, 2, irreducible=[2, 0, 1])  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(FieldError):
        FieldSpec(2, 4, irreducible=[1, 0, 1, 0, 1])  # (x^2+x+1)^2
    with pytest.raises(FieldError):
        FieldSpec(2, 5, irreducible=[1, 0, 0, 0, 0, 1])  # x^5+1 = (x+1)(x^4+x^3+x^2+x+1)
    with pytest.raises(FieldError):
        FieldSpec(2, 6, irreducible=[1, 1, 1, 1, 1, 1, 1])  # (x^3+x+1)(x^3+x^2+1), no roots


@pytest.mark.parametrize("p,k", sorted(IRREDUCIBLE_TABLE))
def test_builtin_polynomials_pass_the_irreducibility_test(p, k):
    assert FieldSpec(p, k).irreducible == IRREDUCIBLE_TABLE[(p, k)]


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)])
def test_irreducibility_test_matches_inverse_table(p, k):
    # a monic polynomial is irreducible exactly when F_p[x]/(f) is a field,
    # that is when every nonzero residue has an inverse
    import itertools

    for low in itertools.product(range(p), repeat=k):
        poly = list(low) + [1]
        try:
            FieldSpec(p, k, irreducible=poly)
            accepted = True
        except FieldError:
            accepted = False
        unchecked = object.__new__(FieldSpec)
        unchecked.p, unchecked.k, unchecked.q, unchecked.irreducible = p, k, p**k, tuple(poly)
        unchecked.powers = p ** np.arange(k)
        try:
            unchecked._build_tables()
            is_field = True
        except FieldError:
            is_field = False
        assert accepted == is_field, poly


@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (3, 2), (2, 4), (31, 1), (7, 2), (2, 6), (3, 4)])
def test_tables_match_polynomial_arithmetic_on_every_pair(p, k):
    F = FieldSpec(p, k)
    coeffs = [F.decode(a) for a in range(F.q)]
    assert F._add_table == [F.encode([(x + y) % p for x, y in zip(ca, cb)]) for ca in coeffs for cb in coeffs]
    assert F._mul_table == [F.encode(_poly_mul_mod(ca, cb, F.irreducible, p)) for ca in coeffs for cb in coeffs]
    assert F._inv_table[0] == 0
    assert all(F._mul_table[a * F.q + F._inv_table[a]] == 1 for a in range(1, F.q))


def test_spec_json_roundtrip():
    spec = FieldSpec.from_json({"p": 3, "k": 2, "irreducible": [1, 0, 1]})
    assert spec == FieldSpec(3, 2)
    assert spec.irreducible == (1, 0, 1)
    assert FieldSpec.from_json({"p": 3, "k": 2}) == spec


def test_elements_are_canonical_keys():
    F9 = FieldSpec(3, 2)
    assert len({F9.decode(a) for a in range(F9.q)}) == 9
    assert all(F9.encode(F9.decode(a)) == a for a in range(F9.q))
    assert F9.encode([4, 3]) == F9.encode([1, 0])  # reduced mod p


TABLES = {"_add_table", "_mul_table", "_inv_table"}


def test_a_field_above_the_table_limit_builds_no_table():
    # F_4096's two q^2-entry tables took 29 s and 1.25 GB to build
    start = time.perf_counter()
    spec = FieldSpec(2, 12, (1, 1, 0, 0, 1, 0, 1) + (0,) * 5 + (1,))  # x^12 + x^6 + x^4 + x + 1
    assert spec.mul(2, 3) == 6  # x (1 + x) = x + x^2
    assert time.perf_counter() - start < 1.0
    assert not TABLES & vars(spec).keys()
    assert spec.q > TABLE_LIMIT


@pytest.mark.parametrize("p,k", [(2, 1), (3, 2), (251, 1)])
def test_a_field_at_or_below_the_table_limit_holds_its_tables_once_constructed(p, k):
    spec = FieldSpec(p, k)
    assert spec.q <= TABLE_LIMIT and TABLES <= vars(spec).keys()
    assert (len(spec._add_table), len(spec._mul_table), len(spec._inv_table)) == (spec.q**2, spec.q**2, spec.q)
