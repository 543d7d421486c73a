"""GRS codes: dual coefficients, generator matrices, dual identities.

The entrywise-division dual formula for general multipliers is never
trusted on its own here: every instance is checked to be orthogonal to
the code's generator and of complementary rank.
"""

import json
import random

import numpy as np
import pytest

from grsdual import linalg as la
from grsdual.construct import construct_extended
from grsdual.errors import GrsDualError
from grsdual.gf import field_for_order, make_field
from grsdual.grs import (
    MAX_BLOCK_LENGTH,
    GrsCode,
    code_from_json,
    code_to_json,
    difference_products,
    dual_coefficients,
    generator_matrix,
    stored_generator_from_json,
)
from conftest import raises_exactly
import oracles
from oracles import mat_vec, matmul, transpose


def random_code(rnd, q_choices=(5, 9, 13, 25), max_n=8, all_one_v=False):
    q = rnd.choice(q_choices)
    ctx = field_for_order(q)
    n = rnd.randint(2, min(max_n, q))
    a = tuple(rnd.sample(range(q), n))
    v = ((1,) * n if all_one_v
         else tuple(rnd.randint(1, q - 1) for _ in range(n)))
    k = rnd.randint(1, n - 1)
    return GrsCode(ctx, a, v, k)


# --- dual coefficients --------------------------------------------------------

def test_dual_coefficients_frozen():
    ctx = make_field(5)
    assert dual_coefficients(ctx, (0, 1)) == (4, 1)
    assert dual_coefficients(ctx, (0, 1, 2)) == (3, 4, 3)
    # over all of GF(5) each difference product is the full unit product -1
    assert dual_coefficients(ctx, (0, 1, 2, 3, 4)) == (4, 4, 4, 4, 4)
    with raises_exactly(GrsDualError,
                        match="^evaluation points must be distinct$"):
        dual_coefficients(ctx, (0, 0))
    with raises_exactly(ValueError, match="^need at least two points$"):
        dual_coefficients(ctx, (3,))


def test_dual_coefficients_solve_the_power_rows_system():
    rnd = random.Random(10)
    for _ in range(100):
        q = rnd.choice([5, 9, 13, 25])
        ctx = field_for_order(q)
        points = tuple(rnd.sample(range(q), rnd.randint(2, min(7, q))))
        u = dual_coefficients(ctx, points)
        assert all(x != 0 for x in u)
        system = oracles.power_rows(ctx, points)
        assert mat_vec(ctx, system, u) == [0] * len(system)


# tabulated (q <= 2^10) and exp/log providers, below and above 2^16
KERNEL_FIELDS = (5, 9, 729, 1849, 2048, 3 ** 11, 2 ** 17)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_dual_coefficients_match_scalar_oracle(q):
    ctx = field_for_order(q)
    rnd = random.Random(q)
    for n in sorted({2, min(q, 3), min(q, 9), min(q, 40)}):
        points = tuple(rnd.sample(range(q), n))
        assert dual_coefficients(ctx, points) == oracles.dual_coefficients(
            ctx, points), n
    # 0 and 1 among the points, and every point of a small field
    points = tuple(range(min(q, 12)))
    assert dual_coefficients(ctx, points) == oracles.dual_coefficients(
        ctx, points)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_generator_matrix_matches_scalar_oracle(q):
    ctx = field_for_order(q)
    rnd = random.Random(q + 1)
    n = min(q, 11)
    points = tuple(rnd.sample(range(1, q), n - 1)) + (0,)
    mults = tuple(rnd.randint(1, q - 1) for _ in points)
    for extended in (False, True):
        for k in (1, 2, n, n + extended):
            code = GrsCode(ctx, points, mults, k, extended)
            assert (generator_matrix(code).tolist()
                    == oracles.generator_matrix(code)), (extended, k)


@pytest.mark.parametrize("q", (25, 1849, 3 ** 11))
def test_difference_products_by_block(q):
    ctx = field_for_order(q)
    rnd = random.Random(q + 2)
    points = rnd.sample(range(q), 12)
    for blocks in (1, 2, 3, 4, 6, 12):
        width = 12 // blocks
        got = difference_products(ctx, points, blocks).tolist()
        for i, ai in enumerate(points):
            for b in range(blocks):
                prod = 1
                for j in range(b * width, (b + 1) * width):
                    if j != i:
                        prod = ctx.mul(prod, ctx.sub(ai, points[j]))
                assert got[i][b] == prod, (blocks, i, b)


# --- generator matrices ---------------------------------------------------------

def assert_read_only_int32(a, shape):
    """a is an int32 numpy array of this shape that cannot be written."""
    assert type(a) is np.ndarray and a.dtype == np.int32 and a.shape == shape
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0


def test_generator_matrix_plain_and_extended():
    ctx = make_field(5)
    c1 = GrsCode(ctx, (0, 1), (2, 1), 1)
    assert generator_matrix(c1).tolist() == [[2, 1]]
    ce = GrsCode(ctx, (0, 1, 2), (1, 1, 1), 2, extended=True)
    assert generator_matrix(ce).tolist() == [[1, 1, 1, 0], [0, 1, 2, 1]]
    assert_read_only_int32(generator_matrix(c1), (1, 2))
    assert_read_only_int32(generator_matrix(ce), (2, 4))


def _assert_int32_results(code):
    # the tables' gathers may be narrower than int32; the generator and
    # the difference products are int32 all the same, and the generator
    # matches the scalar oracle
    gen = generator_matrix(code)
    assert_read_only_int32(gen, (code.k, code.block_length))
    assert gen.tolist() == oracles.generator_matrix(code)
    prods = difference_products(code.ctx, code.a)
    assert type(prods) is np.ndarray and prods.dtype == np.int32
    assert prods.shape == (code.n, 1)


def test_generator_matrix_is_int32_over_a_tabulated_field():
    # the extended [14,7] code over GF(13): k >= 3, so rows 1 and on are
    # gathers from the dense tables
    code = construct_extended(13).code
    assert (code.k, code.block_length) == (7, 14)
    assert isinstance(code.ctx.np_ops().mul, np.ndarray)
    _assert_int32_results(code)


def test_generator_matrix_is_int32_above_the_table_limit():
    ctx = field_for_order(2048)
    assert not isinstance(ctx.np_ops().mul, np.ndarray)
    rnd = random.Random(2048)
    points = rnd.sample(range(2048), 9)
    _assert_int32_results(GrsCode(
        ctx, points, [rnd.randint(1, 2047) for _ in points], 5, extended=True))


def test_generator_matrix_has_rank_k():
    rnd = random.Random(11)
    for _ in range(60):
        code = random_code(rnd)
        assert la.rank_rows(code.ctx, generator_matrix(code)) == code.k


def test_code_invariants_enforced():
    ctx = make_field(5)
    with raises_exactly(GrsDualError,
                        match="^evaluation points must be distinct$"):
        GrsCode(ctx, (0, 0), (1, 1), 1)
    with pytest.raises(ValueError):
        GrsCode(ctx, (0, 1), (0, 1), 1)  # zero multiplier
    with pytest.raises(ValueError):
        GrsCode(ctx, (0, 1), (1, 1), 3)  # k > N
    with raises_exactly(GrsDualError, match="^need one multiplier per point$"):
        GrsCode(ctx, (0, 1), (1,), 1)
    # each case breaks two rules; the earlier rule's error is the one raised
    cases = [
        ((ctx, [0] * (MAX_BLOCK_LENGTH + 1), [1], 1), GrsDualError,
         f"block length {MAX_BLOCK_LENGTH + 1} exceeds the limit "
         f"{MAX_BLOCK_LENGTH}"),
        ((ctx, [0, 0], [1], 1), GrsDualError,
         "evaluation points must be distinct"),
        ((ctx, [0, 1], [0], 1), GrsDualError,
         "need one multiplier per point"),
        ((ctx, [0, 5], [0, 1], 1), ValueError,
         "multipliers must be nonzero field elements"),
        ((ctx, [0, 5], [1, 1], 3), ValueError,
         "evaluation points must be field elements"),
        ((ctx, [0, 1], [1, 1], 0), ValueError, r"dimension 0 outside \[1, 2\]"),
        # a value of the right size but not an int is no field element
        ((make_field(13), (0.5, 1, 2, 3), (1, 1, 1, 1), 2), ValueError,
         "evaluation points must be field elements"),
        ((ctx, [0, 1.0], [1, 1], 1), ValueError,
         "evaluation points must be field elements"),
        ((ctx, [0, True], [1, 1], 1), ValueError,
         "evaluation points must be field elements"),
        ((ctx, [0, 1], [1, 2.0], 1), ValueError,
         "multipliers must be nonzero field elements"),
        ((ctx, [0, 1], [True, 1], 1), ValueError,
         "multipliers must be nonzero field elements"),
        ((ctx, [0, 1], [1, 1], 1.0), ValueError,
         "dimension must be an integer, got 1.0"),
        ((ctx, [0, 1], [1, 1], "1"), ValueError,
         "dimension must be an integer, got '1'"),
        # a long value is quoted abbreviated
        ((ctx, [0, 1], [1, 1], "x" * 10 ** 6), ValueError,
         r"dimension must be an integer, got 'x{12}\.\.\.x{13}'"),
    ]
    for args, error, message in cases:
        with raises_exactly(error, match=f"^{message}$"):
            GrsCode(*args)


def test_code_is_an_immutable_hashable_value():
    ctx = make_field(5)
    code = GrsCode(ctx, [0, 1, 2], [1, 2, 3], 2)
    assert code.a == (0, 1, 2) and code.v == (1, 2, 3)
    assert type(code.a) is tuple and type(code.v) is tuple
    same = GrsCode(ctx, (0, 1, 2), (1, 2, 3), 2, extended=False)
    assert code == same and hash(code) == hash(same)
    assert {code: 1}[same] == 1
    assert code != GrsCode(ctx, (0, 1, 2), (1, 2, 3), 2, extended=True)
    assert code != GrsCode(ctx, (0, 1, 2), (1, 2, 4), 2)
    for name in ("ctx", "a", "v", "k", "extended", "n", "block_length",
                 "other"):
        with pytest.raises(AttributeError):
            setattr(code, name, 1)
    assert code.a == (0, 1, 2) and code.k == 2


# --- duals -------------------------------------------------------------------------

def test_dual_code_frozen_example():
    ctx = make_field(5)
    dual = oracles.dual_code(GrsCode(ctx, (0, 1), (1, 1), 1))
    assert (dual.a, dual.v, dual.k) == ((0, 1), (4, 1), 1)


def test_dual_code_matches_nullspace_for_general_v():
    rnd = random.Random(13)
    for _ in range(120):
        code = random_code(rnd)
        gen = generator_matrix(code)
        dual_gen = generator_matrix(oracles.dual_code(code))
        # orthogonality: every dual row is in the nullspace of gen
        prod = matmul(code.ctx, dual_gen, transpose(gen))
        assert not np.any(prod)
        # dimensions match, so the spaces are equal
        assert la.rank_rows(code.ctx, dual_gen) == code.n - code.k
        assert la.rank_rows(code.ctx, gen) == code.k


def test_dual_is_an_involution():
    rnd = random.Random(14)
    for _ in range(40):
        code = random_code(rnd)
        assert oracles.dual_code(oracles.dual_code(code)) == code


@pytest.mark.parametrize("q", [5, 9])
def test_extended_dual_dimension_and_orthogonality(q):
    ctx = field_for_order(q)
    a = tuple(range(q))
    for k in range(1, q):
        # the extended code of dimension q - k + 1 over all of GF(q) is
        # orthogonal to it, and their dimensions sum to the length q + 1
        gen = generator_matrix(GrsCode(ctx, a, (1,) * q, k, extended=True))
        dual_gen = generator_matrix(
            GrsCode(ctx, a, (1,) * q, q - k + 1, extended=True))
        assert not np.any(matmul(ctx, gen, transpose(dual_gen)))
        assert la.rank_rows(ctx, gen) == k
        assert la.rank_rows(ctx, dual_gen) == q - k + 1


@pytest.mark.parametrize("q", [4, 5, 7, 9, 13, 25])
def test_full_field_power_sums(q):
    # sum over GF(q) of x^j vanishes for 1 <= j <= q-2 and equals -1 at q-1;
    # this is what makes the extended inner products close up
    ctx = field_for_order(q)
    for j in range(1, q - 1):
        acc = 0
        for x in range(q):
            acc = ctx.add(acc, ctx.power(x, j))
        assert acc == 0
    acc = 0
    for x in range(q):
        acc = ctx.add(acc, ctx.power(x, q - 1))
    assert acc == ctx.neg(1)


def test_orthogonality_of_u_weighted_evaluations():
    # random f, g with deg f < k, deg g < n - k: the u-weighted dot product
    # of their evaluation vectors vanishes
    rnd = random.Random(15)
    for _ in range(250):
        q = rnd.choice([5, 9, 13, 25])
        ctx = field_for_order(q)
        n = rnd.randint(2, min(8, q))
        k = rnd.randint(1, n - 1)
        points = tuple(rnd.sample(range(q), n))
        u = dual_coefficients(ctx, points)
        f = [rnd.randrange(q) for _ in range(k)]
        g = [rnd.randrange(q) for _ in range(n - k)]
        acc = 0
        for ai, ui in zip(points, u):
            fa = 0
            for c in reversed(f):
                fa = ctx.add(ctx.mul(fa, ai), c)
            ga = 0
            for c in reversed(g):
                ga = ctx.add(ctx.mul(ga, ai), c)
            acc = ctx.add(acc, ctx.mul(fa, ctx.mul(ui, ga)))
        assert acc == 0


# --- serialization -------------------------------------------------------------------

def test_code_json_roundtrip_and_determinism():
    ctx = make_field(3, 2)
    code = GrsCode(ctx, (0, 1, 3, 5), (1, 2, 4, 8), 2)
    blob = json.dumps(code_to_json(code), indent=2)
    assert blob == json.dumps(code_to_json(code), indent=2)
    parsed = json.loads(blob)
    assert code_from_json(parsed) == code
    stored = stored_generator_from_json(parsed, code)
    assert_read_only_int32(stored, (2, 4))
    assert np.array_equal(stored, generator_matrix(code))


def test_code_json_extended_roundtrip():
    ctx = make_field(5)
    code = GrsCode(ctx, tuple(range(5)), (1,) * 5, 3, extended=True)
    parsed = json.loads(json.dumps(code_to_json(code)))
    back = code_from_json(parsed)
    assert back == code and back.block_length == 6


def test_code_json_rejects_inconsistent_n():
    ctx = make_field(5)
    blob = code_to_json(GrsCode(ctx, (0, 1, 2), (1, 1, 1), 2))
    blob["n"] = 4
    with pytest.raises(ValueError):
        code_from_json(blob)


def test_block_length_limit_admits_the_longest_allowed_code():
    ctx = make_field(2, 11)
    code = GrsCode(ctx, range(MAX_BLOCK_LENGTH), (1,) * MAX_BLOCK_LENGTH, 1)
    assert code.block_length == MAX_BLOCK_LENGTH
    with raises_exactly(GrsDualError, match=f"^block length "
                        f"{MAX_BLOCK_LENGTH + 1} exceeds the limit "
                        f"{MAX_BLOCK_LENGTH}$"):
        GrsCode(ctx, range(MAX_BLOCK_LENGTH), (1,) * MAX_BLOCK_LENGTH, 1,
                extended=True)
    with raises_exactly(GrsDualError, match=f"^block length "
                        f"{MAX_BLOCK_LENGTH + 1} exceeds the limit "
                        f"{MAX_BLOCK_LENGTH}$"):
        dual_coefficients(ctx, range(MAX_BLOCK_LENGTH + 1))
