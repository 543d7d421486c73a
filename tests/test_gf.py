"""Field arithmetic against independent brute-force oracles.

Expected values tagged in comments as frozen were first computed with the
inline oracles below (lexicographic irreducibility scan, plain polynomial
long division, exhaustive squaring tables) and then pinned as literals.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIELDS, ODD_FIELDS, field_and_elements
from grsdual.errors import (
    BadOrderError,
    BadSubfieldError,
    DivisionByZeroError,
    EvenCharacteristicError,
    NonResidueError,
    NotPrimeError,
    TooLargeError,
)
from grsdual.gf import (
    FIELD_SIZE_LIMIT,
    field_for_order,
    field_from_json,
    is_prime,
    make_field,
    split_prime_power,
)


# --- oracles ---------------------------------------------------------------

def oracle_lex_first_irreducible_quadratic(p):
    """Scan monic quadratics in lex order, rejecting by root search."""
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError("no irreducible quadratic found")


def oracle_mul(ctx, x, y):
    """Product via schoolbook polynomial multiply + long division."""
    p, e = ctx.p, ctx.e
    a, b = ctx.coeffs(x), ctx.coeffs(y)
    prod = [0] * (2 * e)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    mod = list(ctx.modulus)
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            for k in range(e + 1):
                prod[d - e + k] = (prod[d - e + k] - c * mod[k]) % p
    return ctx.element(prod[:e])


def oracle_square_set(ctx):
    """All nonzero squares, by exhaustive squaring."""
    return {ctx.mul(y, y) for y in range(1, ctx.q)}


# --- construction ------------------------------------------------------------

def test_make_field_prime_convention():
    ctx = make_field(5, 1)
    assert ctx.q == 5
    assert ctx.modulus == (0, 1)  # the polynomial x


def test_make_field_canonical_modulus_matches_lex_scan():
    for p, expected in [(2, (1, 1, 1)), (3, (1, 0, 1)), (5, (1, 1, 1)),
                        (7, (1, 0, 1))]:
        assert oracle_lex_first_irreducible_quadratic(p) == expected
        assert make_field(p, 2).modulus == expected


def test_make_field_rejects_composite():
    with pytest.raises(NotPrimeError):
        make_field(4, 1)
    with pytest.raises(NotPrimeError):
        make_field(15, 2)


def test_make_field_size_limit():
    assert make_field(2, 20).q == FIELD_SIZE_LIMIT
    with pytest.raises(TooLargeError):
        make_field(2, 21)
    with pytest.raises(TooLargeError):
        make_field(3, 13)
    # refused before forming the power or testing primality
    with pytest.raises(TooLargeError):
        make_field(3, 10 ** 8)
    with pytest.raises(TooLargeError):
        make_field(10000000000000061)


def test_make_field_is_cached_and_deterministic():
    assert make_field(3, 2) is make_field(3, 2)
    assert field_for_order(9) is make_field(3, 2)


def test_split_prime_power():
    assert split_prime_power(49) == (7, 2)
    assert split_prime_power(13) == (13, 1)
    assert split_prime_power(1024) == (2, 10)
    with pytest.raises(NotPrimeError):
        split_prime_power(12)
    with pytest.raises(NotPrimeError):
        split_prime_power(1)
    with pytest.raises(TooLargeError):  # refused before trial division
        split_prime_power(10000000000000061)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(30) if is_prime(n)} == primes


# --- arithmetic ---------------------------------------------------------------

def test_inverse_in_gf5():
    ctx = make_field(5)
    assert ctx.inverse(2) == 3  # 2*3 = 6 = 1
    assert ctx.div(4, 2) == 2
    with pytest.raises(DivisionByZeroError):
        ctx.inverse(0)
    with pytest.raises(DivisionByZeroError):
        ctx.div(1, 0)


def test_gf9_x_squared_is_two():
    ctx = make_field(3, 2)
    x = 3  # the basis element
    assert ctx.mul(x, x) == 2  # x^2 = -1 under modulus x^2 + 1
    assert oracle_mul(ctx, x, x) == 2


@pytest.mark.parametrize("p,e", [(3, 2), (2, 3), (5, 2), (3, 3)])
def test_mul_matches_poly_oracle_exhaustively(p, e):
    ctx = make_field(p, e)
    for x in range(ctx.q):
        for y in range(ctx.q):
            assert ctx.mul(x, y) == oracle_mul(ctx, x, y)


@pytest.mark.parametrize("p,e", [
    (2, 11), (2, 17), (2, 20), (3, 2), (3, 11), (3, 12), (5, 8), (7, 6),
    (13, 5), (101, 3), (263, 2)])
def test_slow_mul_matches_poly_oracle_on_samples(p, e):
    # the exp/log tables up to 2^16 are built from _mul_slow, and above
    # that it is the product
    ctx = make_field(p, e)
    rnd = random.Random(p * 100 + e)
    pairs = [(ctx.q - 1, ctx.q - 1), (1, ctx.q - 1), (0, 5 % ctx.q)]
    pairs += [(rnd.randrange(ctx.q), rnd.randrange(ctx.q)) for _ in range(200)]
    for x, y in pairs:
        assert ctx._mul_slow(x, y) == oracle_mul(ctx, x, y), (x, y)


def test_power_and_negative_exponents():
    ctx = make_field(3, 2)
    for x in range(1, 9):
        assert ctx.power(x, -1) == ctx.inverse(x)
        assert ctx.mul(ctx.power(x, -3), ctx.power(x, 3)) == 1
    assert ctx.power(0, 0) == 1
    assert ctx.power(0, 5) == 0
    with pytest.raises(DivisionByZeroError):
        ctx.power(0, -1)


def test_frobenius_order_divides_degree():
    ctx = make_field(3, 2)
    for x in range(9):
        # x^(p^2) = x for e = 2
        assert ctx.power(ctx.power(x, 3), 3) == x
    assert ctx.power(3, 3) == 6  # x^3 = -x: frozen via oracle_mul chain


@given(field_and_elements(count=3))
@settings(deadline=None)
def test_field_axioms(data):
    ctx, x, y, z = data
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
    assert ctx.add(x, ctx.neg(x)) == 0
    assert ctx.mul(x, 1) == x
    if x:
        assert ctx.mul(x, ctx.inverse(x)) == 1


@given(field_and_elements(count=2))
@settings(deadline=None)
def test_frobenius_is_a_ring_homomorphism(data):
    ctx, x, y = data
    p = ctx.p
    assert ctx.power(ctx.add(x, y), p) == ctx.add(ctx.power(x, p),
                                                  ctx.power(y, p))
    assert ctx.power(ctx.mul(x, y), p) == ctx.mul(ctx.power(x, p),
                                                  ctx.power(y, p))


@given(field_and_elements(count=1), st.integers(0, 12))
@settings(deadline=None)
def test_power_matches_repeated_multiplication(data, n):
    ctx, x = data
    acc = 1
    for _ in range(n):
        acc = ctx.mul(acc, x)
    assert ctx.power(x, n) == acc


# --- subfields -----------------------------------------------------------------

def test_in_subfield_gf9():
    ctx = make_field(3, 2)
    assert ctx.in_subfield(2, 3)       # constants lie in GF(3)
    assert not ctx.in_subfield(3, 3)   # x^3 = -x != x
    assert ctx.in_subfield(0, 3)
    assert ctx.in_subfield(5, 9)       # the whole field
    with pytest.raises(BadSubfieldError):
        ctx.in_subfield(2, 2)
    with pytest.raises(BadSubfieldError):
        ctx.in_subfield(2, 27)


def test_subfield_elements_listing():
    assert make_field(3, 2).subfield_elements(3) == [0, 1, 2]
    ctx81 = make_field(3, 4)
    sub = ctx81.subfield_elements(9)
    assert len(sub) == 9
    assert all(ctx81.power(x, 9) == x for x in sub)
    assert sub[:2] == [0, 1]


@pytest.mark.parametrize("r", [3, 5, 7, 9, 25, 27, 43])
def test_subfield_elements_match_a_scan_of_the_field(r):
    ctx = field_for_order(r * r)
    assert ctx.subfield_elements(r) == [
        x for x in range(ctx.q) if ctx.power(x, r) == x]


def test_subfield_elements_do_not_scan_the_field(monkeypatch):
    # GF(343) inside GF(7^6): r + 1 powers, not one per element of GF(r^2)
    ctx = make_field(7, 6)
    calls = []
    power = type(ctx).power

    def counted(self, x, n):
        calls.append(x)
        return power(self, x, n)

    monkeypatch.setattr(type(ctx), "power", counted)
    sub = ctx.subfield_elements(343)
    assert len(sub) == 343 and sub == sorted(sub) and sub[:2] == [0, 1]
    assert len(calls) <= 343 + 1


# --- multiplicative structure -----------------------------------------------------

def test_primitive_element_frozen_values():
    assert make_field(5).primitive_element() == 2   # order of 2 mod 5 is 4
    assert make_field(3, 2).primitive_element() == 4  # 1+x; 2 and x fall short
    assert make_field(2).primitive_element() == 1   # q - 1 = 1


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_primitive_element_has_full_order(ctx):
    g = ctx.primitive_element()
    q1 = ctx.q - 1
    assert ctx.power(g, q1) == 1
    m, factors = q1, set()
    f = 2
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    for ell in factors:
        assert ctx.power(g, q1 // ell) != 1
    # smallest such index
    for x in range(1, g):
        assert any(ctx.power(x, q1 // ell) == 1 for ell in factors)


def test_quadratic_character_frozen_values():
    ctx = make_field(13)
    assert ctx.quadratic_character(3) == 1    # 3^6 mod 13 = 1
    assert ctx.quadratic_character(2) == -1   # 2^6 mod 13 = 12
    for odd in ODD_FIELDS:
        assert odd.quadratic_character(0) == 0
    with pytest.raises(EvenCharacteristicError):
        make_field(2, 2).quadratic_character(3)


@pytest.mark.parametrize("q", [9, 13, 25, 27, 49, 81, 121, 169])
def test_character_multiplicative_and_matches_squares(q):
    ctx = field_for_order(q)
    chi = ctx.character_table()
    squares = oracle_square_set(ctx)
    for x in range(1, q):
        assert chi[x] == (1 if x in squares else -1)
    for x in range(1, q):
        for y in range(1, q):
            assert chi[ctx.mul(x, y)] == chi[x] * chi[y]


@pytest.mark.parametrize("q", [5, 9, 25, 125, 1031])
def test_character_table_matches_euler_criterion(q):
    # the table is built from squares, quadratic_character is x^((q-1)/2)
    ctx = field_for_order(q)
    chi = ctx.character_table()
    assert chi == [ctx.quadratic_character(x) for x in range(q)]


@pytest.mark.parametrize("q", [65537, 114689, 3 ** 11])
def test_character_table_matches_euler_criterion_on_samples(q):
    ctx = field_for_order(q)
    chi = ctx.character_table()
    assert len(chi) == q and chi.count(1) == chi.count(-1) == (q - 1) // 2
    rng = random.Random(q)
    samples = [0, 1, 2, q - 1] + [rng.randrange(q) for _ in range(300)]
    for x in samples:
        assert chi[x] == ctx.quadratic_character(x)


@pytest.mark.parametrize("r", [3, 5, 7, 9, 11])
def test_subfield_units_are_squares_in_quadratic_extension(r):
    p, d = split_prime_power(r)
    ctx = make_field(p, 2 * d)
    for x in ctx.subfield_elements(r):
        if x:
            assert ctx.quadratic_character(x) == 1


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_minus_one_square_iff_q_1_mod_4_or_even(ctx):
    minus_one = ctx.neg(1)
    if ctx.p == 2:
        is_square = True
    else:
        is_square = ctx.quadratic_character(minus_one) == 1
    assert is_square == (ctx.q % 4 == 1 or ctx.q % 2 == 0)


# --- square roots ------------------------------------------------------------------

def test_sqrt_frozen_values():
    assert make_field(5).sqrt(4) == 2       # roots 2 and 3; smaller index
    assert make_field(3, 2).sqrt(2) == 3    # roots x (index 3) and 2x (6)
    with pytest.raises(NonResidueError):
        make_field(5).sqrt(2)               # squares mod 5 are {0, 1, 4}


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_sqrt_exhaustive(ctx):
    for x in range(ctx.q):
        if ctx.p != 2 and ctx.quadratic_character(x) == -1:
            with pytest.raises(NonResidueError):
                ctx.sqrt(x)
            continue
        y = ctx.sqrt(x)
        assert ctx.mul(y, y) == x
        assert y <= ctx.neg(y)  # canonical smaller index


# --- roots of unity ------------------------------------------------------------------

def test_roots_of_unity_gf9():
    ctx = make_field(3, 2)
    assert ctx.roots_of_unity(4) == [1, 2, 3, 6]  # {1, 2, x, 2x}
    assert ctx.roots_of_unity(1) == [1]
    with pytest.raises(BadOrderError):
        ctx.roots_of_unity(5)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_roots_of_unity_are_exactly_the_mth_roots(ctx):
    q1 = ctx.q - 1
    for m in range(1, q1 + 1):
        if q1 % m:
            continue
        roots = ctx.roots_of_unity(m)
        assert len(roots) == m == len(set(roots))
        assert all(ctx.power(z, m) == 1 for z in roots)
        assert roots == [z for z in range(ctx.q) if ctx.power(z, m) == 1]


# --- serialization ------------------------------------------------------------------

def test_field_json_roundtrip_and_determinism():
    ctx = make_field(3, 2)
    blob = json.dumps(ctx.to_json())
    assert blob == json.dumps(ctx.to_json())
    assert field_from_json(json.loads(blob)) is ctx
    assert json.loads(blob) == {"p": 3, "e": 2, "modulus": [1, 0, 1]}


def test_field_json_rejects_wrong_modulus():
    with pytest.raises(ValueError):
        field_from_json({"p": 3, "e": 2, "modulus": [2, 0, 1]})


def test_element_coords_roundtrip():
    ctx = make_field(5, 2)
    for x in range(ctx.q):
        assert ctx.element(ctx.coeffs(x)) == x
    with pytest.raises(ValueError):
        ctx.element([1])
    with pytest.raises(ValueError):
        ctx.element([5, 0])


def test_make_field_rejects_bad_argument_types():
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError):
        make_field(5.0, 1)


def test_concurrent_lazy_table_builds_agree():
    # hammer a fresh context from several threads at once: the lazily
    # built exp/log, character and numpy tables must initialize exactly
    # once and every thread must see identical arithmetic
    import threading

    ctx = make_field(5, 3)  # not used elsewhere in the suite
    pairs = [(x, y) for x in range(0, 125, 7) for y in range(1, 125, 11)]
    expected = [ctx._mul_slow(x, y) for x, y in pairs]
    results = {}
    barrier = threading.Barrier(8)

    def worker(ident):
        barrier.wait()
        out = [ctx.mul(x, y) for x, y in pairs]
        out.append(ctx.primitive_element())
        out.append(ctx.smallest_nonresidue())
        out.extend(ctx.character_table()[:10])
        results[ident] = out

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    baseline = results[0]
    assert all(results[i] == baseline for i in range(8))
    assert baseline[:len(pairs)] == expected
