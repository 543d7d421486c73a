"""Field arithmetic against independent brute-force oracles.

Expected values tagged in comments as frozen were first computed with the
inline oracles below (lexicographic irreducibility scan, plain polynomial
long division, exhaustive squaring tables) and then pinned as literals.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols
from sympy.ntheory import factorint, isprime, primerange, primitive_root

from conftest import FIELDS, ODD_FIELDS, field_and_elements, raises_exactly
from grsdual import gf
from grsdual.errors import ConstructionInfeasible, GrsDualError
from grsdual.gf import (
    FIELD_SIZE_LIMIT,
    FieldCtx,
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


def sympy_irreducible(coeffs, p):
    """Irreducibility over GF(p) by sympy; coefficients constant first."""
    return Poly(list(reversed(coeffs)), symbols("x"), modulus=p).is_irreducible


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


@pytest.mark.parametrize("p,e", [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 2), (3, 3),
    (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_canonical_modulus_is_the_lex_first_irreducible_by_sympy(p, e):
    # product() counts with c_0 most significant: lexicographic order on
    # (c_0, ..., c_{e-1}), the order the canonical modulus is first in
    modulus = make_field(p, e).modulus
    assert len(modulus) == e + 1 and modulus[-1] == 1
    assert sympy_irreducible(modulus, p)
    for low in itertools.product(range(p), repeat=e):
        if low == modulus[:e]:
            break
        assert not sympy_irreducible(low + (1,), p), low


def test_make_field_rejects_composite():
    with raises_exactly(GrsDualError, match="^4 is not prime$"):
        make_field(4, 1)
    with raises_exactly(GrsDualError, match="^15 is not prime$"):
        make_field(15, 2)


def test_make_field_rejects_bools(monkeypatch):
    # True == 1, so make_field(5, True) filled the (5, 1) cache slot with a
    # context whose to_json() wrote "e": true, which field_from_json refuses
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    for p, e in ((5, True), (True, 1)):
        with pytest.raises(ValueError, match="p and e must be ints"):
            make_field(p, e)
    assert type(make_field(5).to_json()["e"]) is int
    assert make_field(5).to_json()["e"] == 1


def test_make_field_size_limit():
    assert make_field(2, 20).q == FIELD_SIZE_LIMIT
    limit = f"exceeds the limit {FIELD_SIZE_LIMIT}$"
    with raises_exactly(GrsDualError, match=f"^2\\^21 {limit}"):
        make_field(2, 21)
    with raises_exactly(GrsDualError, match=f"^3\\^13 {limit}"):
        make_field(3, 13)
    # refused before forming the power or testing primality
    with raises_exactly(GrsDualError, match=f"^3\\^100000000 {limit}"):
        make_field(3, 10 ** 8)
    with raises_exactly(GrsDualError, match=f"^10000000000000061\\^1 {limit}"):
        make_field(10000000000000061)


def test_make_field_is_cached_and_deterministic():
    assert make_field(3, 2) is make_field(3, 2)
    assert field_for_order(9) is make_field(3, 2)


def test_split_prime_power():
    assert split_prime_power(49) == (7, 2)
    assert split_prime_power(13) == (13, 1)
    assert split_prime_power(1024) == (2, 10)
    assert split_prime_power(FIELD_SIZE_LIMIT) == (2, 20)
    # the largest prime below the limit
    assert split_prime_power(1048573) == (1048573, 1)
    assert split_prime_power(1021 ** 2) == (1021, 2)
    with raises_exactly(GrsDualError, match="^12 is not a prime power$"):
        split_prime_power(12)
    for n in (-4, -49):
        with raises_exactly(GrsDualError, match=f"^{n} is not a prime power$"):
            split_prime_power(n)
    # refused before trial division
    limit = f"exceeds the limit {FIELD_SIZE_LIMIT}$"
    for n in (FIELD_SIZE_LIMIT + 1, 10000000000000061):
        with raises_exactly(GrsDualError, match=f"^{n} {limit}"):
            split_prime_power(n)
    for n in range(-3, 5000):
        factors = factorint(n) if n >= 2 else {}
        if len(factors) == 1:
            assert split_prime_power(n) == next(iter(factors.items())), n
        else:
            with raises_exactly(GrsDualError,
                                match=f"^{n} is not a prime power$"):
                split_prime_power(n)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(30) if is_prime(n)} == primes
    assert is_prime(1048573)
    for n in (-7, FIELD_SIZE_LIMIT, FIELD_SIZE_LIMIT + 1, 1021 ** 2):
        assert not is_prime(n), n
    assert [n for n in range(-3, 5000) if is_prime(n)] == [
        n for n in range(-3, 5000) if isprime(n)]


def test_is_irreducible_matches_sympy():
    # every monic polynomial of each degree: squares of irreducibles, zero
    # constant terms, and candidates after the canonical modulus included
    for p, degrees in ((2, 4), (3, 4), (5, 3), (7, 3)):
        for e in range(1, degrees + 1):
            for low in itertools.product(range(p), repeat=e):
                f = low + (1,)
                assert gf._is_irreducible(f, p) == sympy_irreducible(f, p), f


def test_canonical_modulus_runs_no_counted_field_op(monkeypatch):
    # the benchmark's tracer counts these six ops, and make_field runs
    # inside its spans: the modulus search must add to none of its counts
    calls = []
    for op in ("add", "sub", "neg", "mul", "inverse", "power"):
        def counted(self, *args, _op=op, _orig=getattr(FieldCtx, op)):
            calls.append(_op)
            return _orig(self, *args)
        monkeypatch.setattr(FieldCtx, op, counted)
    assert make_field(5, 2).sub(1, 2) == 4 and calls == ["sub"]
    calls.clear()
    assert gf._canonical_modulus(5, 6) == (1, 0, 0, 0, 1, 1, 1)
    assert gf._canonical_modulus(3, 4) == (1, 0, 1, 1, 1)
    assert calls == []


# --- arithmetic ---------------------------------------------------------------

def test_inverse_in_gf5():
    ctx = make_field(5)
    assert ctx.inverse(2) == 3  # 2*3 = 6 = 1
    with raises_exactly(GrsDualError,
                        match="^zero has no multiplicative inverse$"):
        ctx.inverse(0)


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


def _check_slow_mul_on_samples(ctx, seed):
    rnd = random.Random(seed)
    pairs = [(ctx.q - 1, ctx.q - 1), (1, ctx.q - 1), (0, 5 % ctx.q)]
    pairs += [(rnd.randrange(ctx.q), rnd.randrange(ctx.q)) for _ in range(200)]
    for x, y in pairs:
        assert ctx._mul_slow(x, y) == oracle_mul(ctx, x, y), (x, y)


@pytest.mark.parametrize("p,e", [
    (2, 11), (2, 17), (2, 20), (3, 2), (3, 11), (3, 12), (5, 8), (7, 6),
    (13, 5), (101, 3), (263, 2)] + [
    (2, e) for e in range(2, 20) if e not in (11, 17)])
def test_slow_mul_matches_poly_oracle_on_samples(p, e):
    # the exp/log build takes its doubling matrices from _mul_slow, and the
    # extension-field character table squares with it; p = 2 is sampled at
    # every degree
    _check_slow_mul_on_samples(make_field(p, e), p * 100 + e)


@pytest.mark.parametrize("p,e", [(2, 11), (2, 20), (3, 11), (3, 12), (5, 6),
                                 (7, 5), (13, 4), (1021, 2)])
def test_packed_mul_matches_poly_oracle_with_dense_moduli(p, e):
    # canonical moduli are sparse; a product is ring arithmetic mod f, so
    # any monic f will do, and dense ones fill the reduction rows.  All
    # low coefficients 1 make x^e = -(1 + ... + x^(e-1)), every entry p-1,
    # the only dense modulus for p = 2
    rnd = random.Random(p + e)
    moduli = [(1,) * e + (1,)]
    moduli += [tuple(rnd.randrange(1, p) for _ in range(e)) + (1,)
               for _ in range(3)]
    for i, modulus in enumerate(moduli):
        ctx = FieldCtx(p, e, modulus)
        assert all(ctx._red[0])
        _check_slow_mul_on_samples(ctx, i)


@pytest.mark.parametrize("p,e", [(2, 8), (5, 3), (3, 5)])
def test_slow_mul_matches_poly_oracle_exhaustively(p, e):
    # a context of its own, so no other test's lazy tables are involved
    ctx = FieldCtx(p, e, make_field(p, e).modulus)
    for x in range(ctx.q):
        for y in range(ctx.q):
            assert ctx._mul_slow(x, y) == oracle_mul(ctx, x, y), (x, y)


@pytest.mark.parametrize("p,e", [(5, 6), (2, 11)])
def test_slow_mul_walk_by_the_primitive_element_closes(p, e):
    # q - 1 distinct powers, then back to 1
    ctx = FieldCtx(p, e, make_field(p, e).modulus)
    g = ctx.primitive_element()
    seen, cur = set(), 1
    for _ in range(ctx.q - 1):
        seen.add(cur)
        cur = ctx._mul_slow(cur, g)
    assert cur == 1 and len(seen) == ctx.q - 1 and 0 not in seen


def test_power_and_negative_exponents():
    ctx = make_field(3, 2)
    for x in range(1, 9):
        assert ctx.power(x, -1) == ctx.inverse(x)
        assert ctx.mul(ctx.power(x, -3), ctx.power(x, 3)) == 1
    assert ctx.power(0, 0) == 1
    assert ctx.power(0, 5) == 0
    with raises_exactly(GrsDualError,
                        match="^zero has no multiplicative inverse$"):
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
    with raises_exactly(ConstructionInfeasible, match=r"^2 is not the order "
                        r"of a subfield of GF\(9\)$"):
        ctx.in_subfield(2, 2)
    with raises_exactly(ConstructionInfeasible, match=r"^27 is not the order "
                        r"of a subfield of GF\(9\)$"):
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


def test_primitive_element_is_sympys_smallest_primitive_root():
    for p in primerange(2, 400):
        assert make_field(p).primitive_element() == primitive_root(p), p


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
    with raises_exactly(ConstructionInfeasible, match="^quadratic character "
                        "is undefined in characteristic 2$"):
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
    assert chi.tolist() == [ctx.quadratic_character(x) for x in range(q)]


@pytest.mark.parametrize("q", [13, 125])
def test_character_table_is_one_read_only_byte_table(q):
    ctx = field_for_order(q)
    chi = ctx.character_table()
    assert ctx.character_table() is chi
    assert chi.readonly and chi.format == "b" and len(chi) == q
    with pytest.raises(TypeError):
        chi[1] = -chi[1]
    assert chi.tolist() == [ctx.quadratic_character(x) for x in range(q)]


@pytest.mark.parametrize("q, orbits", [
    (27, 1), (243, 1), (343, 3),      # chi(alpha) = -1: m odd
    (289, 96), (361, 90), (529, 132),  # alpha of order 3 or 4
    (625, 8), (3 ** 8, 8)])
def test_orbit_character_table_matches_exhaustive_squares(q, orbits):
    # the table walks the orbits of alpha = x (index p); the parity of
    # their count m = (q-1)/ord(alpha) picks how the signs are found
    ctx = field_for_order(q)
    order = next(k for k in range(1, q) if ctx.power(ctx.p, k) == 1)
    assert (q - 1) // order == orbits
    squares = oracle_square_set(ctx)
    chi = FieldCtx(ctx.p, ctx.e, ctx.modulus).character_table()
    assert chi.tolist() == [0] + [1 if x in squares else -1
                                 for x in range(1, q)]


def test_gf_3_12_character_table_builds_in_bounded_time():
    # 265,720 squarings took 4 s or more; the orbit walk makes two
    base = make_field(3, 12)
    ctx = FieldCtx(base.p, base.e, base.modulus)  # not the cached context
    start = time.perf_counter()
    chi = ctx.character_table()
    assert time.perf_counter() - start < 2.0
    assert chi == base.character_table()


@pytest.mark.parametrize("q", [5 ** 6, 65537, 114689, 3 ** 11, 3 ** 12,
                               97 ** 3, 499 ** 2, 1021 ** 2])
def test_character_table_matches_euler_criterion_on_samples(q):
    ctx = field_for_order(q)
    chi = ctx.character_table()
    values = chi.tolist()
    assert len(values) == q
    assert values.count(1) == values.count(-1) == (q - 1) // 2
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
    # squares mod 5 are {0, 1, 4}
    with raises_exactly(GrsDualError, match=r"^2 is not a square in GF\(5\)$"):
        make_field(5).sqrt(2)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_sqrt_exhaustive(ctx):
    for x in range(ctx.q):
        if ctx.p != 2 and ctx.quadratic_character(x) == -1:
            with raises_exactly(GrsDualError, match=rf"^{x} is not a square "
                                rf"in GF\({ctx.q}\)$"):
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
    with raises_exactly(ConstructionInfeasible,
                        match="^5 does not divide q - 1 = 8$"):
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


# --- scalar ops against independent oracles, at every field size -----------------

def _coordinate_op(ctx, op, *xs):
    """op applied coordinate by coordinate over GF(p)."""
    return ctx.element([op(*cs) % ctx.p for cs in zip(*map(ctx.coeffs, xs))])


@pytest.mark.parametrize("p,e", [
    (2, 17), (3, 11), (263, 2), (1048573, 1),
    (2, 8), (5, 3), (1031, 1), (2, 16), (65537, 1)])
def test_scalar_ops_match_slow_and_coordinate_oracles(p, e):
    # the scalar ops read the exp/log/inv arrays and _digit_sub; _mul_slow,
    # _pow_slow and coordinates share neither
    ctx = make_field(p, e)
    q = ctx.q
    rnd = random.Random(q)
    xs = [0, 1, q - 1] + [rnd.randrange(q) for _ in range(200)]
    for x in xs:
        y, n = rnd.randrange(q), rnd.randrange(3 * q)
        assert ctx.mul(x, y) == ctx._mul_slow(x, y), (x, y)
        assert ctx.power(x, n) == ctx._pow_slow(x, n), (x, n)
        assert ctx.add(x, y) == _coordinate_op(ctx, int.__add__, x, y)
        assert ctx.sub(x, y) == _coordinate_op(ctx, int.__sub__, x, y)
        assert ctx.neg(x) == _coordinate_op(ctx, int.__neg__, x)
        if x:
            inverse = ctx._pow_slow(x, q - 2)
            assert ctx.inverse(x) == inverse, x
            assert ctx.power(x, -n) == ctx._pow_slow(inverse, n), (x, n)
        if x and p != 2 and ctx._pow_slow(x, (q - 1) // 2) != 1:
            with raises_exactly(GrsDualError,
                                match=rf"^{x} is not a square in GF\({q}\)$"):
                ctx.sqrt(x)
        else:
            root = ctx.sqrt(x)
            assert ctx._mul_slow(root, root) == x and root <= ctx.neg(root)


# --- lazily built tables ------------------------------------------------------------

# exp/log ops (GF(16), GF(2048)) and dense numpy tables (GF(25))
@pytest.mark.parametrize("q", (16, 25, 2048))
@pytest.mark.parametrize("first", ("mul", "np_ops"))
def test_tables_are_asked_for_only_while_unbuilt(q, first, monkeypatch):
    # every _ensure_tables call builds: np_ops skips it once a scalar op
    # has built the tables, and the scalar ops skip it once np_ops has
    cached = field_for_order(q)
    ctx = FieldCtx(cached.p, cached.e, cached.modulus)
    product = cached.mul(2, 3)
    calls = []
    ensure = FieldCtx._ensure_tables

    def counted(self):
        calls.append(self._tables is None)
        ensure(self)

    monkeypatch.setattr(FieldCtx, "_ensure_tables", counted)
    if first == "mul":
        assert ctx.mul(2, 3) == product
    ops = ctx.np_ops()
    ctx.mul(3, 5), ctx.inverse(7), ctx.power(5, 9)
    assert ctx.np_ops() is ops
    assert calls == [True]


def _check_tables_against_slow_powers(ctx, seed):
    # the arrays the exp/log build leaves, against square-and-multiply on
    # _mul_slow: q - 1 distinct nonzero powers, stored twice and then
    # zeros up to 4(q - 1), log 0 = 2(q - 1) pointing into the zeros;
    # sampled exp[i] = g^i, log[exp[i]] = i and inv[x] = x^(q-2)
    ctx._ensure_tables()
    exp, log, inv = ctx._tables
    q1 = ctx.q - 1
    assert exp.dtype == log.dtype == inv.dtype == np.int32
    assert exp.shape == (4 * q1 + 1,) and log.shape == inv.shape == (ctx.q,)
    assert exp[:q1].min() > 0 and np.unique(exp[:q1]).size == q1
    assert (exp[q1:2 * q1] == exp[:q1]).all() and not exp[2 * q1:].any()
    assert int(log[0]) == 2 * q1 and int(inv[0]) == 0
    g = ctx.primitive_element()
    rnd = random.Random(seed)
    for i in [0, q1 - 1] + [rnd.randrange(q1) for _ in range(200)]:
        x = int(exp[i])
        assert x == ctx._pow_slow(g, i), i
        assert int(log[x]) == i
        assert int(inv[x]) == ctx._pow_slow(x, q1 - 1), x
    # the numpy ops read the same arrays, not copies
    assert ctx.np_ops().inv is inv


@pytest.mark.parametrize("p,e", [
    (2, 17), (2, 20), (3, 11), (3, 12), (1048573, 1), (263, 2), (1021, 2),
    (2, 1), (3, 1), (2, 8), (5, 3), (65537, 1), (2, 16)])
def test_exp_log_tables_match_slow_powers(p, e):
    # a context of its own, so its arrays go with it
    _check_tables_against_slow_powers(
        FieldCtx(p, e, make_field(p, e).modulus), p * 100 + e)


def test_exp_log_tables_with_a_dense_modulus():
    # every coefficient nonzero fills the reduction rows, unlike the
    # sparse canonical moduli; the first such irreducible, by sympy
    p, e = 3, 7
    modulus = next(low + (1,) for low in itertools.product((1, 2), repeat=e)
                   if sympy_irreducible(low + (1,), p))
    ctx = FieldCtx(p, e, modulus)
    assert all(ctx._red[0]) and modulus != make_field(p, e).modulus
    _check_tables_against_slow_powers(ctx, 37)


def test_dense_tables_are_read_only():
    # the field cache shares one pair of tables with every caller, so a
    # stray in-place write must fail rather than corrupt later ops
    ctx = make_field(3, 2)
    ops = ctx.np_ops()
    product, difference = int(ops.mul[2, 5]), int(ops.sub[2, 5])
    for table in (ops.mul, ops.sub):
        with pytest.raises(ValueError):
            table[2, 5] = 0
        with pytest.raises(ValueError):
            table[:] = 0
    assert (int(ops.mul[2, 5]), int(ops.sub[2, 5])) == (product, difference)
    assert (product, difference) == (ctx.mul(2, 5), ctx.sub(2, 5))


def test_dense_tables_exactly_for_odd_fields_up_to_the_limit():
    # every prime power q <= 2^11: read-only q x q int16 tables iff q is
    # odd and q <= 2^10, else the exp/log ops (XOR subtraction for p = 2).
    # Fresh contexts, so each field's tables go with it
    for q in (q for q in range(2, 2 ** 11 + 1) if len(factorint(q)) == 1):
        (p, e), = factorint(q).items()
        ctx = FieldCtx(p, e, make_field(p, e).modulus)
        ops = ctx.np_ops()
        if q % 2 and q <= 2 ** 10:
            for table in (ops.mul, ops.sub):
                assert type(table) is np.ndarray, q
                assert table.dtype == np.int16 and table.shape == (q, q)
                assert not table.flags.writeable
        else:
            assert type(ops.mul) is type(ops.sub) is gf._Indexed, q
            assert ops.sub.fn is ctx._sub


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
    # up to 40 digits a coordinate is quoted whole; past that, abbreviated
    with raises_exactly(ValueError, f"^coordinate {10 ** 39} out of range"):
        ctx.element([10 ** 39, 0])
    with raises_exactly(ValueError, r"^coordinate 100000000000000000\.\.\."
                                    r"0000000000000000000 out of range"):
        ctx.element([10 ** 4000, 0])


# a prime field, an odd extension, GF(2048), above the dense-table limit,
# and a prime above 2^16, whose coordinates need a wider array
_ELEMENTS_FIELDS = [make_field(5), make_field(3, 6), make_field(2, 11),
                    make_field(65537)]


@st.composite
def _coordinate_lists(draw, min_size=0):
    ctx = draw(st.sampled_from(_ELEMENTS_FIELDS))
    xs = draw(st.lists(st.integers(0, ctx.q - 1), min_size=min_size,
                       max_size=30))
    return ctx, ctx.coords(xs)


@given(_coordinate_lists())
def test_elements_matches_the_scalar_walk(case):
    ctx, items = case
    got = ctx.elements(items)
    assert got.ndim == 1 and got.dtype.kind == "i"
    assert got.tolist() == [ctx.element(cs) for cs in items]


@given(_coordinate_lists(min_size=1), st.data())
def test_elements_raises_the_scalar_walks_error(case, data):
    # one list broken at one place: the array path must not coerce it, and
    # its error is the scalar walk's, word for word
    ctx, items = case
    i = data.draw(st.integers(0, len(items) - 1))
    j = data.draw(st.integers(0, ctx.e - 1))
    bad = data.draw(st.sampled_from(
        [True, 1.5, -1, ctx.p, 10 ** 30, "short", "long"]))
    if bad == "short":
        del items[i][j]
    elif bad == "long":
        items[i].insert(j, 0)
    else:
        items[i][j] = bad
    with pytest.raises(ValueError) as scalar:
        for cs in items:
            ctx.element(cs)
    with pytest.raises(ValueError) as array:
        ctx.elements(items)
    assert str(array.value) == str(scalar.value)


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
        out.extend(ctx.quadratic_character(x) for x in range(ctx.q))
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
