"""The brute-force checks themselves: self-duality, MDS subset ranks,
dual identity, character-sum counts; and the distance-enumeration
oracle that the acceptance suite compares the MDS check with."""

import json
import math
import random
import time
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from grsdual import construct as con_families
from grsdual import linalg as la
from grsdual import verify as ver
from grsdual.errors import (
    BudgetExceededError,
    ConstructionInfeasible,
    GrsDualError,
)
from grsdual.gf import FieldCtx, field_for_order, make_field
from grsdual.grs import GrsCode, generator_matrix
from conftest import raises_exactly
import oracles
from oracles import echelon, matmul, transpose


def matrix(rows):
    """These rows as a read-only int32 array, the form of a generator."""
    a = np.array(rows, dtype=np.int32)
    a.flags.writeable = False
    return a


# --- self-dual -----------------------------------------------------------------

def test_check_self_dual_matrix_pass_and_fail():
    ctx = make_field(5)
    ok = ver.check_self_dual_matrix(ctx, matrix([[2, 1]]))
    assert ok.status == "pass"  # 4 + 1 = 0
    bad = ver.check_self_dual_matrix(ctx, matrix([[1, 1]]))
    assert bad.status == "fail" and "inner product" in bad.detail
    odd = ver.check_self_dual_matrix(ctx, matrix([[1, 1, 1]]))
    assert odd.status == "fail" and "block length" in odd.detail
    low_rank = ver.check_self_dual_matrix(
        ctx, matrix([[1, 1, 1, 1], [2, 2, 2, 2]]))
    assert low_rank.status == "fail" and "rank" in low_rank.detail


def test_check_self_dual_on_constructed_code():
    result = con_families.construct_theorem_3_5(3, 1)
    assert ver.check_self_dual(result.code).status == "pass"


def test_check_records_are_immutable_and_keep_their_json():
    plain = ver.CheckResult("self-dual", "pass", "ok", "exact")
    seeded = ver.CheckResult("mds", "fail", "columns [0, 1] are singular",
                             "randomized", seed=7)
    assert json.dumps(plain.to_json()) == (
        '{"name": "self-dual", "status": "pass", "mode": "exact", '
        '"detail": "ok"}')
    assert json.dumps(seeded.to_json()) == (
        '{"name": "mds", "status": "fail", "mode": "randomized", '
        '"detail": "columns [0, 1] are singular", "seed": 7}')
    report = ver.VerificationReport([plain, seeded])
    assert report.overall is False
    assert report.to_json() == {"overall": False,
                                "checks": [plain.to_json(), seeded.to_json()]}
    assert ver.VerificationReport([plain]).overall is True
    for record, name in ((plain, "status"), (seeded, "seed"),
                         (report, "checks"), (report, "overall")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert plain == ver.CheckResult("self-dual", "pass", "ok", "exact", None)


# --- exact inner products against the scalar matmul oracle ---------------------

INNER_PRODUCT_FIELDS = (7, 9, 16, 1031, 1849, 2048, 2187)


def _self_dual_generator(ctx, k, rnd, mix=True):
    """A self-dual [2k, k] generator P [I | A] for even k.

    A is block diagonal in [[a, b], [-b, a]] with a^2 + b^2 = -1, which is
    solvable in every finite field, so I + A A^T = 0.  With mix, P is a
    random invertible k x k matrix, so the rows stay independent and get
    dense; otherwise P = I.
    """
    roots = {ctx.mul(x, x): x for x in range(ctx.q)}
    minus_one = ctx.neg(1)
    a, b = next((roots[s], roots[ctx.sub(minus_one, s)])
                for s in sorted(roots) if ctx.sub(minus_one, s) in roots)
    rows = []
    for i in range(k):
        tail = [0] * k
        m = i - i % 2
        tail[m], tail[m + 1] = (a, b) if i % 2 == 0 else (ctx.neg(b), a)
        rows.append([1 if j == i else 0 for j in range(k)] + tail)
    if not mix:
        return matrix(rows)
    while True:
        p_rows = [[rnd.randrange(ctx.q) for _ in range(k)] for _ in range(k)]
        _, pivots = echelon(ctx, [list(r) for r in p_rows], reduced=False)
        if len(pivots) == k:
            return matrix(matmul(ctx, p_rows, rows))


def _tampered(ctx, gen, rnd, count):
    """gen with count distinct entries shifted by nonzero field elements."""
    entries = gen.ravel().tolist()
    for pos in rnd.sample(range(len(entries)), count):
        entries[pos] = ctx.add(entries[pos], rnd.randrange(1, ctx.q))
    return matrix(np.reshape(entries, gen.shape))


def _oracle_first_product(ctx, a, b, upper=False):
    """First nonzero entry of a * b^T in row-major order, by scalar loops."""
    rows = matmul(ctx, a, transpose(b))
    for i, row in enumerate(rows):
        for j in range(i if upper else 0, len(row)):
            if row[j]:
                return i, j, row[j]
    return None


def _inner_product_cases(q):
    """A clean dense generator over GF(q) and three tampered ones: one
    and two entries of it, and one entry of the sparse [I | A]."""
    ctx = field_for_order(q)
    rnd = random.Random(q)
    gen = _self_dual_generator(ctx, 6, rnd)
    sparse = _self_dual_generator(ctx, 6, rnd, mix=False)
    return ctx, gen, (_tampered(ctx, gen, rnd, 1),
                      _tampered(ctx, gen, rnd, 2),
                      _tampered(ctx, sparse, rnd, 1))


# check_self_dual_matrix details for the tampered cases, recorded with the
# scalar-loop implementation
PINNED_SELF_DUAL_DETAILS = {
    7: (
        'rows 0 and 3 have inner product 6 != 0',
        'rows 0 and 3 have inner product 3 != 0',
        'rows 0 and 0 have inner product 1 != 0',
    ),
    9: (
        'rows 0 and 0 have inner product 3 != 0',
        'rows 0 and 1 have inner product 4 != 0',
        'rows 1 and 1 have inner product 3 != 0',
    ),
    16: (
        'rows 0 and 5 have inner product 14 != 0',
        'rows 0 and 0 have inner product 13 != 0',
        'rows 0 and 0 have inner product 14 != 0',
    ),
    1031: (
        'rows 0 and 1 have inner product 327 != 0',
        'rows 0 and 2 have inner product 519 != 0',
        'rows 3 and 3 have inner product 359 != 0',
    ),
    1849: (
        'rows 0 and 3 have inner product 58 != 0',
        'rows 0 and 1 have inner product 128 != 0',
        'rows 1 and 1 have inner product 1304 != 0',
    ),
    2048: (
        'rows 0 and 5 have inner product 1658 != 0',
        'rows 0 and 0 have inner product 2006 != 0',
        'rows 1 and 2 have inner product 35 != 0',
    ),
    2187: (
        'rows 0 and 2 have inner product 923 != 0',
        'rows 0 and 3 have inner product 969 != 0',
        'rows 1 and 2 have inner product 1736 != 0',
    ),
}


@pytest.mark.parametrize("q", INNER_PRODUCT_FIELDS)
def test_inner_products_match_matmul_oracle(q):
    ctx, gen, tampered = _inner_product_cases(q)
    assert ver._first_nonzero_product(ctx, gen, gen) is None
    assert ver.check_self_dual_matrix(ctx, gen).status == "pass"
    for bad in tampered:
        # G G^T is symmetric: the full scan's first hit is the upper
        # triangle's
        hit = ver._first_nonzero_product(ctx, bad, bad)
        assert hit is not None
        assert hit == _oracle_first_product(ctx, bad, bad, upper=True)
        # the full product, and rectangular blocks, as the dual identity uses
        for a, b in ((bad, bad), (bad, gen), (gen, bad)):
            assert (ver._first_nonzero_product(ctx, a, b)
                    == _oracle_first_product(ctx, a, b))
        top = bad[:2]
        assert ver._first_nonzero_product(ctx, gen, top) == \
            _oracle_first_product(ctx, gen, top)
    details = tuple(ver.check_self_dual_matrix(ctx, bad).detail
                    for bad in tampered)
    assert details == PINNED_SELF_DUAL_DETAILS[q]


# --- packed coordinate products against the coordinate-pair oracle -------------

PACKED_PRODUCT_FIELDS = (7, 1031, 9, 729, 1849, 16, 2048, 3 ** 11)


def test_slots_pack_as_many_coordinates_as_63_bits_hold():
    # (c, B): ceil(e/c)^2 matmuls, 16 for GF(2048) at n = 128 against 121
    assert ver._slots(2, 11, 127) == (4, 9)    # 7 slots of 9 bits
    assert ver._slots(2, 11, 128) == (3, 9)    # 4 * 128 needs 10 bits
    assert ver._slots(3, 6, 162) == (3, 11)    # GF(729): 4 against 36
    assert ver._slots(43, 2, 172) == (2, 20)   # GF(1849): 1 against 4
    assert ver._slots(1031, 1, 10 ** 6) == (1, 40)
    assert _packing_edges(2, 11, 4096) == [1, 2, 5, 25, 127, 1365]
    for p, e in ((2, 11), (3, 11), (43, 2), (2, 20), (1048573, 1)):
        for n in (1, 2, 127, 128, 1000, 1 << 22):
            c, bits = ver._slots(p, e, n)
            assert 1 <= c <= e and bits == (n * c * (p - 1) ** 2).bit_length()
            assert c == 1 or (2 * c - 1) * bits <= 63
            wider = (n * (c + 1) * (p - 1) ** 2).bit_length()
            assert c == e or (2 * c + 1) * wider > 63


def _packing_edges(p, e, limit):
    """The widths n < limit after which `_slots` packs fewer coordinates."""
    return [n for n in range(1, limit)
            if ver._slots(p, e, n)[0] != ver._slots(p, e, n + 1)[0]]


@pytest.mark.parametrize("q", PACKED_PRODUCT_FIELDS)
def test_packed_products_match_coordinate_pair_oracle(q):
    import numpy as np

    ctx = field_for_order(q)
    p, e = ctx.p, ctx.e
    rng = np.random.default_rng(q)
    # each side of every width below 1400 where fewer coordinates fit
    edges = _packing_edges(p, e, 1400)
    widths = sorted({1, 3, 40, 172}.union(*({n, n + 1} for n in edges)))
    for n in widths:
        x = rng.integers(0, q, (3, n))
        y = rng.integers(0, q, (5, n))
        cols = rng.integers(0, q, (n, 4)).T  # a transposed view, as g.T
        full = np.full((4, n), q - 1, dtype=np.int64)  # every slot at its bound
        # (full, full), (x, x) and (cols, cols) pass one object twice, as
        # G*G^T does, and multiply only the run pairs s <= t
        for a, b in ((x, y), (y, x), (x, cols), (full, full), (full, y),
                     (x[:1], full), (x, x), (cols, cols)):
            got = ver._products(ctx, a, b)
            assert got.shape == (len(a), len(b))
            assert np.array_equal(got, oracles.products(ctx, a, b)), n
            if a is b:
                assert np.array_equal(got, ver._products(ctx, a, b.copy()))
    # and the oracle itself against scalar field arithmetic
    x, y = rng.integers(0, q, (3, 7)), rng.integers(0, q, (4, 7))
    want = matmul(ctx, x, transpose(y))
    assert oracles.products(ctx, x, y).tolist() == want


def test_self_products_multiply_each_run_pair_once(monkeypatch):
    import numpy as np

    ctx = field_for_order(2048)
    x = np.random.default_rng(0).integers(0, 2048, (5, 128))
    calls = []
    einsum = np.einsum

    def counted(*args):
        calls.append(args[0])
        return einsum(*args)

    monkeypatch.setattr(np, "einsum", counted)
    # GF(2048) rows of 128 entries pack c = 3 coordinates: m = 4 runs
    ver._products(ctx, x, x.copy())
    assert len(calls) == 16
    calls.clear()
    ver._products(ctx, x, x)
    assert len(calls) == 4 * 5 // 2


@pytest.mark.parametrize("p, e", ((1048573, 1), (31, 4)))
def test_products_refuse_int64_overflow_before_allocating(p, e):
    import tracemalloc

    import numpy as np

    ctx = make_field(p, e)
    n = -(-(1 << 63) // (p - 1) ** 2)  # the least n with n (p-1)^2 >= 2^63
    # zero strides: an array of 2 x n entries that occupies 8 bytes
    x = np.broadcast_to(np.int64(ctx.q - 1), (2, n))
    tracemalloc.start()
    try:
        with raises_exactly(GrsDualError, match="columns overflow") as err:
            ver._products(ctx, x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{n} columns overflow the int64 inner products"
    assert peak < 1 << 16
    assert (n - 1) * (p - 1) ** 2 < 1 << 63  # one column fewer would fit


# --- MDS -------------------------------------------------------------------------

def test_check_mds_exact_pass():
    ctx = make_field(5)
    code = GrsCode(ctx, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    res = ver.check_mds(code, mode="exact")
    assert res.status == "pass" and "6" in res.detail  # C(4,2) subsets


def test_check_mds_exact_fail_on_non_mds_matrix():
    ctx = make_field(5)
    gen = matrix([[1, 0, 0], [0, 1, 0]])
    res = ver.check_mds_matrix(ctx, gen, mode="exact")
    assert res.status == "fail"
    assert "[0, 2]" in res.detail  # first singular pair in lex order
    # the last column pairs with either of the others singularly
    from grsdual.linalg import nonsingular_rows
    assert not nonsingular_rows(ctx, [[0, 0], [1, 0]])


def test_check_mds_randomized_needs_a_sample():
    ctx = make_field(5)
    gen = matrix([[1, 0, 1], [0, 1, 1]])
    for samples in (0, -1):
        with pytest.raises(ValueError):
            ver.check_mds_matrix(ctx, gen, mode="randomized", samples=samples)
    assert ver.check_mds_matrix(ctx, gen, mode="randomized",
                                samples=1).status == "pass"


def test_check_mds_rejects_an_unknown_mode_before_the_shape():
    # with more rows than columns it returned a "fail" in mode "bogus"
    ctx = make_field(5)
    for rows in ([[1, 0, 1], [0, 1, 1]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(ValueError, match="unknown mds mode 'bogus'"):
            ver.check_mds_matrix(ctx, matrix(rows), mode="bogus")


def test_check_mds_budget():
    result = con_families.construct_extended(13)  # C(14,7) = 3432
    with pytest.raises(BudgetExceededError):
        ver.check_mds(result.code, mode="exact", budget=100)
    assert ver.resolve_mds_mode(result.code, budget=100) == "randomized"
    assert ver.resolve_mds_mode(result.code) == "exact"


def test_check_mds_randomized_is_seeded_and_reproducible():
    code = con_families.construct_extended(9).code
    first = ver.check_mds(code, mode="randomized", samples=200, seed=7)
    second = ver.check_mds(code, mode="randomized", samples=200, seed=7)
    assert first == second
    assert first.status == "pass" and first.seed == 7


def test_check_mds_randomized_finds_planted_defect():
    # corrupt a generator so some column subsets go singular, then make
    # sure sampling that covers the whole space flags it
    ctx = make_field(5)
    gen = matrix([[1, 0, 0, 0], [0, 1, 0, 0]])
    res = ver.check_mds_matrix(ctx, gen, mode="randomized",
                               samples=500, seed=1)
    assert res.status == "fail"


# --- MDS against the full-subset oracle -----------------------------------------

# tabulated (9, 16, 25) and exp/log (1031, 2048, 2^17) op providers
MDS_ORACLE_FIELDS = (9, 16, 25, 1031, 2048, 1 << 17)


def _grs_rows(ctx, rnd, k, n):
    """Generator rows of a random GRS [n, k] code: an MDS code."""
    points = tuple(rnd.sample(range(ctx.q), n))
    v = tuple(rnd.randrange(1, ctx.q) for _ in range(n))
    return generator_matrix(GrsCode(ctx, points, v, k)).tolist()


def _refused_mds_rows(ctx, rnd, k, n):
    """Generator rows of a random MDS [n, k] code whose reduced form has
    no Cauchy form (`verify._cauchy_form`), so that the randomized check
    draws its subsets: [I | A] for a random A, mixed by a random
    invertible k x k matrix."""
    ops = ctx.np_ops()
    while True:
        a = [[rnd.randrange(1, ctx.q) for _ in range(n - k)]
             for _ in range(k)]
        rows = [[int(i == r) for i in range(k)] + a[r] for r in range(k)]
        if (not ver._cauchy_form(np.array(a, dtype=np.int32), ops)
                and oracles.check_mds_matrix(ctx, rows).status == "pass"):
            break
    while True:
        mix = [[rnd.randrange(ctx.q) for _ in range(k)] for _ in range(k)]
        if len(echelon(ctx, [row[:] for row in mix], reduced=False)[1]) == k:
            return matmul(ctx, mix, rows)


def _mds_cases(ctx, rnd):
    """Generators, as rows, on which the systematic-form check must agree
    with the oracle: GRS (MDS) and random ones for k = 1 to k = N, then
    defects that move the pivots or lower the rank."""
    q = ctx.q
    cases = []
    for k, n in ((1, 1), (1, 5), (2, 5), (3, 6), (4, 7), (5, 5)):
        cases.append(_grs_rows(ctx, rnd, k, n))
        cases.append([[rnd.randrange(q) for _ in range(n)] for _ in range(k)])
    c = rnd.randrange(2, q)
    dependent, repeated, zero, low_rank = (_grs_rows(ctx, rnd, 3, 7)
                                           for _ in range(4))
    for row in dependent:   # still rank 3, with pivots in columns 0, 2, 3
        row[1] = ctx.mul(c, row[0])
    for row in repeated:
        row[4] = row[2]
    for row in zero:
        row[3] = 0
    low_rank[2] = [ctx.add(x, ctx.mul(c, y))
                   for x, y in zip(low_rank[0], low_rank[1])]
    return cases + [dependent, repeated, zero, low_rank]


def _oracle_samples(ctx, gen, samples, seed):
    """(j, singular) for each seeded draw of the randomized check, by full
    elimination; j counts the draw's columns without a pivot in the
    generator's reduced form, the size of the block the check eliminates."""
    rows = gen.tolist()
    k, ncols = gen.shape
    pivots = echelon(ctx, [list(r) for r in rows], reduced=True)[1]
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        cols = sorted(rng.sample(range(ncols), k))
        sub = [[row[c] for c in cols] for row in rows]
        rank = len(echelon(ctx, sub, reduced=False)[1])
        out.append((sum(c not in pivots for c in cols), rank < k))
    return out


def _first_fail(draws):
    """The index of the first singular draw of `_oracle_samples`, or None."""
    return next((i for i, (_, bad) in enumerate(draws) if bad), None)


def _first_seed(ctx, rows, wanted, samples=40):
    """The first seed whose `_oracle_samples` satisfy wanted."""
    gen = matrix(rows)
    return next(seed for seed in range(10 ** 4)
                if wanted(_oracle_samples(ctx, gen, samples, seed)))


def _chunk_cases(ctx, rnd, chunk):
    """(generator rows, seed) for the randomized check in chunks of chunk
    draws: more than two chunks that all pass (an MDS code with no Cauchy
    form, so that its subsets are drawn), a first singular draw past
    the first chunk, one whose chunk holds a later singular draw with a
    smaller block, and a rank-deficient generator."""
    def past_first_chunk(draws):
        first = _first_fail(draws)
        return first is not None and first >= chunk

    def smaller_block_later(draws):
        first = _first_fail(draws)
        if first is None:
            return False
        end = (first // chunk + 1) * chunk
        return any(bad and j < draws[first][0] for j, bad in draws[first:end])

    mds = _refused_mds_rows(ctx, rnd, 3, 7)
    _, repeated, _, low_rank = _mds_cases(ctx, rnd)[-4:]
    return [(mds, rnd.randrange(10 ** 6)),
            (repeated, _first_seed(ctx, repeated, past_first_chunk)),
            (repeated, _first_seed(ctx, repeated, smaller_block_later)),
            (low_rank, rnd.randrange(10 ** 6))]


@pytest.mark.parametrize("q", MDS_ORACLE_FIELDS)
def test_mds_check_matches_full_subset_oracle(q, monkeypatch):
    ctx = field_for_order(q)
    rnd = random.Random(q)
    statuses = set()
    for rows in _mds_cases(ctx, rnd):
        gen = matrix(rows)
        for mode in ("exact", "randomized"):
            seed = rnd.randrange(10 ** 6)
            got = ver.check_mds_matrix(ctx, gen, mode=mode, samples=40,
                                       seed=seed)
            want = oracles.check_mds_matrix(ctx, gen, mode=mode, samples=40,
                                            seed=seed)
            assert got == want, (mode, seed, rows)
            statuses.add(got.status)
    assert statuses == {"pass", "fail"}
    # chunks of 4 draws of 3 x 7 generators, so that 40 draws span ten
    monkeypatch.setattr(ver, "_MDS_CHUNK", 4 * 3 * 3)
    statuses = []
    for rows, seed in _chunk_cases(ctx, rnd, 4):
        gen = matrix(rows)
        got = ver.check_mds_matrix(ctx, gen, mode="randomized", samples=40,
                                   seed=seed)
        want = oracles.check_mds_matrix(ctx, gen, mode="randomized",
                                        samples=40, seed=seed)
        assert got == want, (seed, rows)
        statuses.append(got.status)
    assert statuses == ["pass", "fail", "fail", "fail"]


def _window_cases(ctx, rnd, window):
    """(generator rows, seed) for the randomized check in windows of
    window draws: all pass (an MDS code with no Cauchy form, so that its
    subsets are drawn), or the first singular draw is the last of the
    first window, the first of the second, or in the third or later."""
    def first_at(test):
        def wanted(draws):
            first = _first_fail(draws)
            return first is not None and test(first)
        return _first_seed(ctx, repeated, wanted)

    mds = _refused_mds_rows(ctx, rnd, 3, 7)
    repeated = _mds_cases(ctx, rnd)[-3]
    return [(mds, rnd.randrange(10 ** 6)),
            (repeated, first_at(lambda i: i == window - 1)),
            (repeated, first_at(lambda i: i == window)),
            (repeated, first_at(lambda i: i >= 2 * window))]


@pytest.mark.parametrize("q", [13, 25, 1031])
def test_randomized_windows_match_the_oracle(q, monkeypatch):
    # chunks of 2 draws of 3 x 7 generators (windows of 8), so that 40
    # draws span five windows, and slices of at most 4 blocks of 2 x 2
    # and 2 of 3 x 3: a window often holds more blocks of one size
    ctx = field_for_order(q)
    rnd = random.Random(q)
    monkeypatch.setattr(ver, "_MDS_CHUNK", 2 * 3 * 3)
    samples, window = 40, 4 * 2
    cases = _window_cases(ctx, rnd, window)
    draws = []
    draw = ver._draw_subsets

    def counted(rng, n, k, count):
        draws.append(count)
        return draw(rng, n, k, count)

    monkeypatch.setattr(ver, "_draw_subsets", counted)
    windows = _record_windows(monkeypatch)
    statuses, split = [], False
    for rows, seed in cases:
        gen = matrix(rows)
        draws.clear()
        windows.clear()
        got = ver.check_mds_matrix(ctx, gen, mode="randomized",
                                   samples=samples, seed=seed)
        want = oracles.check_mds_matrix(ctx, gen, mode="randomized",
                                        samples=samples, seed=seed)
        assert got == want, (seed, rows)
        statuses.append(got.status)
        # no draw asks for more than one chunk, and the draws stop with
        # the window that holds the first singular one
        assert max(draws) <= max(1, ver._MDS_CHUNK // 3 ** 2)
        assert sum(draws) == sum(b for w in windows for b, _ in w)
        if got.status == "fail":
            first = _first_fail(_oracle_samples(ctx, gen, samples, seed))
            assert sum(draws) == min(samples, (first // window + 1) * window)
        _assert_one_pass_per_block_size(windows)
        split |= any(len(w) > len({j for _, j in w}) for w in windows)
    assert statuses == ["pass", "fail", "fail", "fail"]
    assert split, "no block size was split over several slices"


def _tampered_walks_match_the_oracle(q, window, monkeypatch):
    """Exact checks of long walks over GF(q), C(N, k) past the per-subset
    limit, equal the oracle's and never test a subset on its own: a GRS
    [12, 6] code with column 11 made a combination of columns 7 and 9
    fails first at a subset far into the walk; a code with one entry
    changed may pass or fail.  A GRS [16, 8] code, in windows of window
    subsets, fails first in the walk's third window."""
    def per_subset(*args):
        raise AssertionError("the per-subset kernel ran past the limit")

    monkeypatch.setattr(ver, "_np_subset_nonsingular", per_subset)
    assert math.comb(12, 6) > ver._PER_SUBSET_LIMIT
    ctx = field_for_order(q)
    rnd = random.Random(q)
    points = tuple(rnd.sample(range(q), 12))
    v = tuple(rnd.randrange(1, q) for _ in range(12))
    code = GrsCode(ctx, points, v, 6)
    rows = generator_matrix(code).tolist()
    c, d = rnd.randrange(1, q), rnd.randrange(1, q)
    for row in rows:
        row[11] = ctx.add(ctx.mul(c, row[7]), ctx.mul(d, row[9]))
    one_entry = generator_matrix(code).tolist()
    one_entry[rnd.randrange(6)][rnd.randrange(12)] = rnd.randrange(q)
    for tampered in (rows, one_entry):
        gen = matrix(tampered)
        got = ver.check_mds_matrix(ctx, gen, mode="exact")
        assert got == oracles.check_mds_matrix(ctx, gen, mode="exact")
    first = next(list(cols) for cols in combinations(range(12), 6)
                 if {7, 9, 11} <= set(cols))
    assert ver.check_mds_matrix(ctx, matrix(rows)).detail == (
        f"columns {first} are singular")
    # d added to the last entry of column 15 of the [16, 8] code.
    # Expanding along that column, a subset T + {15} is singular iff
    # v_15 prod_{t in T} (a_15 - a_t) = -d, and the rest stay
    # nonsingular; d is minus a product first reached in the walk's
    # third window, so the check fails two whole windows in
    points = tuple(rnd.sample(range(q), 16))
    v = tuple(rnd.randrange(1, q) for _ in range(16))
    rows = generator_matrix(GrsCode(ctx, points, v, 8)).tolist()
    walk = list(combinations(range(16), 8))
    assert window == 4 * (ver._MDS_CHUNK // 8 ** 2)
    reached = {}
    for at, cols in enumerate(walk):
        if cols[-1] == 15:
            value = v[15]
            for t in cols[:-1]:
                value = ctx.mul(value, ctx.sub(points[15], points[t]))
            reached.setdefault(value, at)
    at, value = min((at, value) for value, at in reached.items()
                    if at >= 2 * window)
    assert at < 3 * window
    rows[7][15] = ctx.sub(rows[7][15], value)
    gen = matrix(rows)
    want = oracles.check_mds_matrix(ctx, gen, mode="exact")
    assert want.detail == f"columns {list(walk[at])} are singular"
    assert ver.check_mds_matrix(ctx, gen, mode="exact") == want


@pytest.mark.parametrize("q", [1031, 43 ** 2, 2048])
def test_tampered_code_above_the_table_limit_names_the_oracles_subset(
        q, monkeypatch):
    # exp/log ops: C(16, 8) = 12,870 subsets in windows of four chunks
    # of 1,024
    _tampered_walks_match_the_oracle(q, 4096, monkeypatch)


@pytest.mark.parametrize("q", [25, 49, 1024])
def test_tampered_long_walk_over_dense_tables_names_the_oracles_subset(
        q, monkeypatch):
    # dense tables, but walks past the limit take the windows too; in
    # GF(25) every product is reached within 250 subsets, so the windows
    # shrink to four chunks of 16 [16, 8] subsets
    monkeypatch.setattr(ver, "_MDS_CHUNK", 16 * 8 ** 2)
    _tampered_walks_match_the_oracle(q, 64, monkeypatch)


def _walk_shape(total):
    """(N, k) with C(N, k) = total and k <= N / 2, the largest such k."""
    return max(((n, k) for n in range(2, total + 1)
                for k in range(1, n // 2 + 1) if math.comb(n, k) == total),
               key=lambda shape: shape[1])


def _count_subsets(monkeypatch):
    """Patch `verify._np_subset_nonsingular`; return the list of the
    column subsets it is called with."""
    calls = []
    subset = ver._np_subset_nonsingular

    def counted(*args):
        calls.append(args[2])
        return subset(*args)

    monkeypatch.setattr(ver, "_np_subset_nonsingular", counted)
    return calls


def test_exact_walks_up_to_the_limit_go_a_subset_at_a_time(monkeypatch):
    # over dense tables (odd q <= 2^10) a walk of _PER_SUBSET_LIMIT
    # subsets tests each on its own, one of one subset more takes the
    # windows; both give the oracle's reports
    calls = _count_subsets(monkeypatch)
    ctx = field_for_order(961)
    rnd = random.Random(961)
    limit = ver._PER_SUBSET_LIMIT
    for total in (limit, limit + 1):
        n, k = _walk_shape(total)
        points = tuple(rnd.sample(range(ctx.q), n))
        v = tuple(rnd.randrange(1, ctx.q) for _ in range(n))
        rows = generator_matrix(GrsCode(ctx, points, v, k)).tolist()
        tampered = [row[:] for row in rows]
        for row in tampered:
            row[n - 1] = 0
        walk = list(combinations(range(n), k))
        first = next(at for at, cols in enumerate(walk) if n - 1 in cols)
        for gen, walked in ((rows, total), (tampered, first + 1)):
            gen = matrix(gen)
            calls.clear()
            got = ver.check_mds_matrix(ctx, gen, mode="exact")
            assert got == oracles.check_mds_matrix(ctx, gen, mode="exact")
            assert calls == (walk[:walked] if total == limit else [])
        assert got.detail == f"columns {list(walk[first])} are singular"


@pytest.mark.parametrize("q", [4, 8, 16])
def test_short_exact_walks_in_characteristic_2_walk_the_minors(
        q, monkeypatch):
    # GF(2^e) has no dense tables, so even a walk of at most
    # _PER_SUBSET_LIMIT subsets goes to the minors, and to the windows
    # once a minor is singular: never a subset at a time.  A GRS code as
    # built and with its last column zeroed give the oracle's reports
    calls = _count_subsets(monkeypatch)
    verdicts = _spy_minor_walk(monkeypatch)
    ctx = field_for_order(q)
    rnd = random.Random(q)
    n = min(q, 7)
    k = n // 2
    assert math.comb(n, k) <= ver._PER_SUBSET_LIMIT
    rows = _grs_rows(ctx, rnd, k, n)
    tampered = [row[:-1] + [0] for row in rows]
    for gen, mds in ((rows, True), (tampered, False)):
        gen = matrix(gen)
        verdicts.clear()
        got = ver.check_mds_matrix(ctx, gen, mode="exact")
        assert got == oracles.check_mds_matrix(ctx, gen, mode="exact")
        assert (got.status == "pass") == mds
        assert verdicts == [mds]
    assert calls == []


def test_mds_check_reports_the_first_subset_below_full_rank():
    ctx = make_field(5)
    gen = matrix([[1, 2, 3, 4, 0], [2, 4, 1, 3, 0]])  # rank 1
    exact = ver.check_mds_matrix(ctx, gen, mode="exact")
    assert exact.detail == "columns [0, 1] are singular"
    first = tuple(sorted(random.Random(5).sample(range(5), 2)))
    sampled = ver.check_mds_matrix(ctx, gen, mode="randomized", seed=5)
    assert sampled.detail == f"columns {list(first)} are singular"


def test_exact_mds_check_runs_one_elimination_per_subset(monkeypatch):
    # the benchmark counts verify._np_subset_nonsingular and
    # linalg._np_nonsingular calls as "subsets checked" and "eliminations";
    # both stay one per subset walked for walks of up to
    # verify._PER_SUBSET_LIMIT subsets, such as these
    calls = {"subsets": 0, "eliminations": 0}
    blocks = []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            if key == "eliminations":
                # the block comes as square lists of Python ints
                block = args[0]
                assert type(block) is list and all(
                    type(row) is list and len(row) == len(block)
                    and all(type(x) is int for x in row) for row in block)
                blocks.append(len(block))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ver, "_np_subset_nonsingular",
                        counted("subsets", ver._np_subset_nonsingular))
    monkeypatch.setattr(la, "_np_nonsingular",
                        counted("eliminations", la._np_nonsingular))
    code = con_families.construct_theorem_3_5(3, 1).code
    assert ver.check_mds(code, mode="exact").status == "pass"
    assert calls == {"subsets": 20, "eliminations": 20}, (
        "an exact check of the [6, 3] code must test its C(6, 3) = 20 "
        "subsets with one _np_subset_nonsingular and one _np_nonsingular "
        "call each")
    # pivots in columns 0-2: a subset with i of them leaves a (3-i)x(3-i)
    # block, for C(3, i) C(3, 3-i) subsets
    assert Counter(blocks) == {3: 1, 2: 9, 1: 9, 0: 1}
    # with column 4 a copy of column 2 the walk stops at the first subset
    # that holds both
    rows = generator_matrix(code).tolist()
    for row in rows:
        row[4] = row[2]
    calls.update(subsets=0, eliminations=0)
    res = ver.check_mds_matrix(code.ctx, matrix(rows), mode="exact")
    walked, first = next((i + 1, cols) for i, cols
                         in enumerate(combinations(range(6), 3))
                         if {2, 4} <= set(cols))
    assert res.detail == f"columns {list(first)} are singular"
    assert calls == {"subsets": walked, "eliminations": walked}


def test_randomized_mds_check_streams_its_draws(monkeypatch):
    draws = []
    draw = ver._draw_subsets

    def counted(rng, n, k, count):
        draws.append(count)
        return draw(rng, n, k, count)

    # rank 1: the first draw fails, and only its window of four chunks
    # is drawn
    ctx = make_field(5)
    gen = matrix([[1, 2, 3, 4, 0], [2, 4, 1, 3, 0]])
    first = sorted(random.Random(5).sample(range(5), 2))
    monkeypatch.setattr(ver, "_draw_subsets", counted)
    res = ver.check_mds_matrix(ctx, gen, mode="randomized",
                               samples=10 ** 9, seed=5)
    assert res.detail == f"columns {first} are singular"
    assert draws == [ver._MDS_CHUNK // 2 ** 2] * 4
    # the [28, 14] code is GRS: its Cauchy form proves it MDS, and no
    # subset is drawn
    draws.clear()
    code = con_families.construct_extended(27).code
    samples, k = 10 ** 4, 14
    assert ver.check_mds(code, mode="randomized",
                         samples=samples).status == "pass"
    assert draws == []
    # refused, the [28, 14] check samples: no subset is eliminated on its
    # own, and each window makes one pass per block size, in slices of
    # bounded size
    monkeypatch.setattr(ver, "_cauchy_form", lambda a, ops: False)
    calls = {"subsets": 0}
    subset = ver._np_subset_nonsingular

    def one(*args):
        calls["subsets"] += 1
        return subset(*args)

    monkeypatch.setattr(ver, "_np_subset_nonsingular", one)
    windows = _record_windows(monkeypatch)
    draws.clear()
    assert ver.check_mds(code, mode="randomized",
                         samples=samples).status == "pass"
    chunk = ver._MDS_CHUNK // k ** 2
    assert calls["subsets"] == 0
    assert draws == [chunk] * (samples // chunk) + [samples % chunk]
    assert [sum(b for b, _ in window) for window in windows] == (
        [4 * chunk] * (samples // (4 * chunk)) + [samples % (4 * chunk)])
    assert all(j <= k for window in windows for _, j in window)
    _assert_one_pass_per_block_size(windows)


def _record_windows(monkeypatch):
    """Patch the randomized check's block kernels; return a list that
    gets one list of (B, j) per window, one pair per batched call."""
    windows = []
    blocks, batch = ver._blocks_nonsingular, la._np_batch_nonsingular

    def per_window(*args):
        windows.append([])
        return blocks(*args)

    def batched(a, ops):
        nblocks, j, j2 = a.shape
        assert j == j2
        windows[-1].append((nblocks, j))
        return batch(a, ops)

    monkeypatch.setattr(ver, "_blocks_nonsingular", per_window)
    monkeypatch.setattr(la, "_np_batch_nonsingular", batched)
    return windows


def _assert_one_pass_per_block_size(windows):
    """Each window eliminates its block sizes in increasing order, each in
    slices of max(1, _MDS_CHUNK // j^2) blocks but the last, so no call
    holds more than max(_MDS_CHUNK, j^2) block entries."""
    for window in windows:
        sizes = [j for _, j in window]
        assert sizes == sorted(sizes)
        for j in set(sizes):
            step = max(1, ver._MDS_CHUNK // max(1, j * j))
            slices = [b for b, i in window if i == j]
            assert all(b == step for b in slices[:-1]), (j, slices)
            assert 1 <= slices[-1] <= step
            assert slices[-1] * j * j <= max(ver._MDS_CHUNK, j * j)


# --- exact MDS walks by Schur complements ------------------------------------------

def _planted_minor_rows(ctx, rnd, k, m, j):
    """Rows of [I | A] for a random k x m A of nonzero entries whose j x j
    minor on random rows and columns is made singular, its last row a
    combination of its others (a zero entry for j = 1); j = 0 plants
    nothing."""
    q = ctx.q
    a = [[rnd.randrange(1, q) for _ in range(m)] for _ in range(k)]
    if j:
        rows = sorted(rnd.sample(range(k), j))
        coef = [rnd.randrange(q) for _ in rows[:-1]]
        for c in rnd.sample(range(m), j):
            value = 0
            for w, r in zip(coef, rows):
                value = ctx.add(value, ctx.mul(w, a[r][c]))
            a[rows[-1]][c] = value
    return [[int(i == r) for i in range(k)] + a[r] for r in range(k)]


def _smallest_singular_minor(ctx, a):
    """The size of the smallest singular square submatrix of the rows a,
    by full elimination of each, or None if there is none."""
    k, m = len(a), len(a[0])
    for j in range(1, min(k, m) + 1):
        for rows in combinations(range(k), j):
            for cols in combinations(range(m), j):
                block = [[a[r][c] for c in cols] for r in rows]
                if len(echelon(ctx, block, reduced=False)[1]) < j:
                    return j
    return None


def _spy_minor_walk(monkeypatch):
    """Patch `verify._minors_nonsingular`; return the list of its
    verdicts, one per call."""
    verdicts = []
    walk = ver._minors_nonsingular

    def spy(a, ops):
        verdicts.append(walk(a, ops))
        return verdicts[-1]

    monkeypatch.setattr(ver, "_minors_nonsingular", spy)
    return verdicts


def _count_windows(monkeypatch):
    """Patch `verify._blocks_nonsingular`; return the list of the window
    sizes it is called with."""
    calls = []
    blocks = ver._blocks_nonsingular

    def counted(*args):
        calls.append(len(args[2]))
        return blocks(*args)

    monkeypatch.setattr(ver, "_blocks_nonsingular", counted)
    return calls


@pytest.mark.parametrize("q", [5, 16, 49, 2048])
def test_minor_walk_matches_the_oracle(q, monkeypatch):
    # every exact walk tries the minors first, the shortest too: random
    # [I | A], k = 1 and N - k = 1 among them, with a singular minor
    # planted at every size; the walk's verdict is whether A has a
    # singular minor, and the report is the oracle's
    monkeypatch.setattr(ver, "_PER_SUBSET_LIMIT", 0)
    verdicts = _spy_minor_walk(monkeypatch)
    ctx = field_for_order(q)
    rnd = random.Random(q)
    smallest = Counter()
    shapes = ((1, 1), (1, 6), (6, 1), (2, 5), (3, 4), (4, 4), (5, 3)) * 4
    for k, m in shapes:
        for j in range(min(k, m) + 1):
            rows = _planted_minor_rows(ctx, rnd, k, m, j)
            gen = matrix(rows)
            verdicts.clear()
            got = ver.check_mds_matrix(ctx, gen, mode="exact")
            assert got == oracles.check_mds_matrix(ctx, gen, mode="exact")
            first = _smallest_singular_minor(ctx, [row[k:] for row in rows])
            assert verdicts == [first is None], (k, m, j)
            smallest[first] += 1
    # small fields keep few large minors nonsingular
    assert {None, 1, 2} <= set(smallest), smallest
    if q == 2048:
        assert set(smallest) == {None, 1, 2, 3, 4}, smallest
    # pivots not in columns 0..k-1: the minors are not walked, and the
    # windows name the first subset
    rows = _grs_rows(ctx, rnd, 3, 5)
    c = rnd.randrange(1, q)
    for row in rows:
        row[1] = ctx.mul(c, row[0])
    verdicts.clear()
    got = ver.check_mds_matrix(ctx, matrix(rows), mode="exact")
    assert got == oracles.check_mds_matrix(ctx, matrix(rows), mode="exact")
    assert got.detail == "columns [0, 1, 2] are singular"
    assert verdicts == []


def _only_full_minor_singular(ctx, rnd):
    """Rows of the reduced generator [I | A] of a random GRS [16, 8] code
    with A[7][7] changed so that A itself is singular: row 7 of A is put
    in the span of its rows 0-6, along the left kernel of A's first seven
    columns.  A smaller minor through that entry may turn singular too."""
    points = tuple(rnd.sample(range(ctx.q), 16))
    v = tuple(rnd.randrange(1, ctx.q) for _ in range(16))
    gen = generator_matrix(GrsCode(ctx, points, v, 8)).tolist()
    rows = echelon(ctx, gen, reduced=True)[0]
    u = oracles.nullspace(ctx, transpose([row[8:15] for row in rows]))[0]
    rest = 0
    for i in range(7):
        rest = ctx.add(rest, ctx.mul(u[i], rows[i][15]))
    rows[7][15] = ctx.neg(ctx.mul(rest, ctx.inverse(u[7])))
    return rows


def test_halved_minor_walks_keep_the_oracles_verdicts(monkeypatch):
    # GRS [16, 8] codes over GF(1024): one as built, and one whose only
    # singular minor is 8 x 8 (random seed 29 keeps the smaller ones
    # nonsingular, so the oracle names the walk's last subset).  With
    # _MDS_CHUNK at 512 entries the walk halves its levels many times;
    # the verdicts stay the walk's and the reports the oracle's
    ctx = field_for_order(1024)
    rnd = random.Random(29)
    tampered = _only_full_minor_singular(ctx, rnd)
    cases = [(matrix(_grs_rows(ctx, rnd, 8, 16)), True),
             (matrix(tampered), False)]
    wants = [oracles.check_mds_matrix(ctx, gen, mode="exact")
             for gen, _ in cases]
    assert wants[1].detail == f"columns {list(range(8, 16))} are singular"
    verdicts = _spy_minor_walk(monkeypatch)
    sizes = []
    concatenate = np.concatenate

    def recorded(arrays, *args, **kwargs):
        out = concatenate(arrays, *args, **kwargs)
        if out.ndim == 3:   # the complements of one part of a level
            sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "concatenate", recorded)
    built, default = {}, ver._MDS_CHUNK
    for chunk in (default, 512):
        monkeypatch.setattr(ver, "_MDS_CHUNK", chunk)
        sizes.clear()
        for (gen, mds), want in zip(cases, wants):
            verdicts.clear()
            assert ver.check_mds_matrix(ctx, gen, mode="exact") == want
            assert verdicts == [mds]
        built[chunk] = list(sizes)
    # a level is built whole only under the cap, or from one parent: the
    # empty minor's children, 7 last columns with C(8, 2) rows below
    # each, hold 28 * 7 rows of 8 entries
    one_parent = 28 * 7 * 8
    assert max(built[512]) <= max(512, one_parent) < max(built[default])
    assert len(built[512]) > 4 * len(built[default])


def test_long_exact_walks_window_only_to_name_a_singular_subset(monkeypatch):
    # C(12, 6) = 924 subsets, past the per-subset limit: a GRS code
    # passes on its minors alone; with column 11 a copy of column 4 the
    # windows run and name the oracle's subset
    calls = _count_windows(monkeypatch)
    assert math.comb(12, 6) > ver._PER_SUBSET_LIMIT
    for q in (25, 1024, 2048):
        ctx = field_for_order(q)
        rows = _grs_rows(ctx, random.Random(q), 6, 12)
        calls.clear()
        assert ver.check_mds_matrix(ctx, matrix(rows)).status == "pass"
        assert calls == []
        for row in rows:
            row[11] = row[4]
        got = ver.check_mds_matrix(ctx, matrix(rows))
        assert got == oracles.check_mds_matrix(ctx, matrix(rows))
        assert got.detail == "columns [0, 1, 2, 3, 4, 11] are singular"
        assert calls


def test_exact_check_of_theorem_3_5_22_11_walks_its_minors(monkeypatch):
    # 705,432 subsets over GF(121), passed on the minors with no window;
    # one entry changed, the walk finds a singular minor and the windows
    # give the report a window walk alone gives
    calls = _count_windows(monkeypatch)
    code = con_families.construct_theorem_3_5(11, 1).code
    ctx, gen = code.ctx, generator_matrix(code)
    assert ver.check_mds_matrix(ctx, gen, mode="exact") == ver.CheckResult(
        "mds", "pass", "all 705432 column 11-subsets nonsingular", "exact")
    assert calls == []
    rows = gen.tolist()
    rows[5][16] = ctx.add(rows[5][16], 1)
    got = ver.check_mds_matrix(ctx, matrix(rows), mode="exact")
    assert got.status == "fail" and calls
    monkeypatch.setattr(ver, "_minors_nonsingular", lambda a, ops: False)
    assert ver.check_mds_matrix(ctx, matrix(rows), mode="exact") == got


# --- MDS proofs from a Cauchy form -------------------------------------------------

def _cauchy_case(ctx, rnd, k, m):
    """(A, planted) for a random k x m matrix A: uniform nonzero entries;
    or c_i d_j / (x_i - y_j), column inf (if any) c_i d_j, the y's drawn
    apart from the x's but each from a small pool, so that x's or y's
    repeat at times; or that with one entry redrawn.  planted says
    whether A is a generalized Cauchy matrix by construction."""
    q = ctx.q
    kind = rnd.randrange(3)
    if kind == 0:
        return [[rnd.randrange(1, q) for _ in range(m)]
                for _ in range(k)], False
    pool = rnd.sample(range(q), min(q, 2 * (k + m)))
    x = [rnd.choice(pool) for _ in range(k)]
    y = [rnd.choice([e for e in pool if e not in x]) for _ in range(m)]
    c = [rnd.randrange(1, q) for _ in range(k)]
    d = [rnd.randrange(1, q) for _ in range(m)]
    inf = rnd.randrange(-1, m)  # -1: no column at infinity
    a = [[ctx.mul(ctx.mul(c[i], d[j]), 1 if j == inf else
                  ctx.inverse(ctx.sub(x[i], y[j]))) for j in range(m)]
         for i in range(k)]
    if kind == 2:
        a[rnd.randrange(k)][rnd.randrange(m)] = rnd.randrange(q)
        return a, False
    return a, len(set(x)) == k and len(set(y)) == m


# tabulated fields of both parities and an exp/log one (1031)
CAUCHY_FIELDS = (7, 8, 9, 11, 13, 16, 17, 25, 1031)


@pytest.mark.parametrize("q", CAUCHY_FIELDS)
def test_cauchy_form_proves_only_mds_generators(q):
    # every proof is checked by the oracle's full subset walk on [I | A];
    # every planted Cauchy matrix, with its column at infinity anywhere
    # or nowhere, is proved
    ctx = field_for_order(q)
    ops = ctx.np_ops()
    rnd = random.Random(q)
    seen = Counter()
    for _ in range(400):
        k, m = rnd.randint(2, 4), rnd.randint(3, 5)
        a, planted = _cauchy_case(ctx, rnd, k, m)
        proof = ver._cauchy_form(np.array(a, dtype=np.int32), ops)
        assert type(proof) is bool
        rows = [[int(i == r) for i in range(k)] + a[r] for r in range(k)]
        mds = oracles.check_mds_matrix(ctx, rows).status == "pass"
        assert mds or not proof, (k, a)
        assert proof or not planted, (k, a)
        seen[proof, mds] += 1
    # proofs, MDS matrices refused and non-MDS matrices all occur
    assert seen[True, True] and seen[False, True] and seen[False, False]


def test_cauchy_form_refuses_shapes_it_leaves_to_the_draws():
    # k < 2 or m < 3, even when every entry is nonzero
    ctx = make_field(7)
    ops = ctx.np_ops()
    for shape in ((1, 5), (4, 2), (3, 1)):
        assert not ver._cauchy_form(np.ones(shape, dtype=np.int32), ops)
    # and on the rows or columns of a GRS generator's A that has the form
    rows = _grs_rows(ctx, random.Random(7), 3, 6)
    a = np.array(echelon(ctx, rows, reduced=True)[0], dtype=np.int32)[:, 3:]
    assert ver._cauchy_form(a, ops)
    assert not ver._cauchy_form(a[:1], ops)
    assert not ver._cauchy_form(a[:, :2], ops)


def _proof_cases():
    """(label, generator) of every default sweep cell with N - k >= 3,
    and codes over GF(2048) and GF(43^2), above the dense-table limit."""
    import argparse

    no_overrides = argparse.Namespace(q=None, r=None, t=None, n=None)
    codes = [con_families.build(request).code
             for family in con_families.FAMILY_TABLE.values()
             for request in family.sweep_requests(no_overrides)]
    codes += [con_families.construct_even_char(2048, 64).code,
              con_families.construct_theorem_3_5(43, 1).code]
    return [(f"[{c.block_length}, {c.k}] over GF({c.ctx.q})", c)
            for c in codes if c.block_length - c.k >= 3]


def test_cauchy_form_proves_every_sweep_generator(monkeypatch):
    # GRS codes, extended or not: the proof holds with the extended
    # family's column at infinity last (a non-pivot column) and, columns
    # reversed, first (a pivot column); the randomized check draws nothing
    def no_draws(*args):
        raise AssertionError("a proved generator drew subsets")

    monkeypatch.setattr(ver, "_draw_subsets", no_draws)
    cases = _proof_cases()
    assert len(cases) == 25
    fields = set()
    for label, code in cases:
        gen = generator_matrix(code)
        k, ops = code.k, code.ctx.np_ops()
        for columns in (gen, gen[:, ::-1]):
            red = columns.copy()
            assert la._np_echelon(red, ops, reduced=True) == list(range(k))
            assert ver._cauchy_form(red[:, k:], ops), label
            res = ver.check_mds_matrix(code.ctx, columns, mode="randomized",
                                       seed=3)
            assert res == ver.CheckResult(
                "mds", "pass",
                f"{ver.RANDOM_MDS_SAMPLES} sampled column {k}-subsets "
                "nonsingular (statistical evidence, not a proof)",
                "randomized", seed=3), label
        fields.add((code.ctx.p, code.extended, code.ctx.q > 1024))
    # even and odd characteristic, extended codes, and both op providers
    assert {(2, False, False), (2, False, True), (5, True, False),
            (43, False, True)} <= fields


@pytest.mark.parametrize("q", [25, 2048])
def test_refused_proofs_give_the_oracles_randomized_report(q, monkeypatch):
    # a zero entry of A, a rank below k, pivots past column k - 1 and one
    # entry of A changed: the check samples, as the oracle does.  The
    # changed entry may leave the code MDS (it does over GF(2048))
    ctx = field_for_order(q)
    rnd = random.Random(q)
    k, n, c = 5, 10, rnd.randrange(2, q)
    grs = echelon(ctx, _grs_rows(ctx, rnd, k, n), reduced=True)[0]
    zero = [row[:] for row in grs]
    zero[1][k + 2] = 0
    low_rank = [row[:] for row in grs]
    low_rank[2] = [ctx.add(x, ctx.mul(c, y))
                   for x, y in zip(low_rank[0], low_rank[1])]
    late_pivot = [[row[0], ctx.mul(c, row[0]), *row[2:]] for row in grs]
    tampered = [row[:] for row in grs]
    tampered[3][k + 1] = ctx.add(tampered[3][k + 1], 1)
    proofs = []
    cauchy = ver._cauchy_form

    def spy(a, ops):
        proofs.append(cauchy(a, ops))
        return proofs[-1]

    monkeypatch.setattr(ver, "_cauchy_form", spy)
    assert ver.check_mds_matrix(ctx, matrix(grs), mode="randomized").status \
        == "pass"
    assert proofs == [True]
    statuses = []
    for rows, called in ((zero, [False]), (low_rank, []),
                         (late_pivot, []), (tampered, [False])):
        gen = matrix(rows)
        seed = rnd.randrange(10 ** 6)
        proofs.clear()
        got = ver.check_mds_matrix(ctx, gen, mode="randomized",
                                   samples=1000, seed=seed)
        assert proofs == called, rows
        assert got == oracles.check_mds_matrix(
            ctx, gen, mode="randomized", samples=1000, seed=seed), rows
        statuses.append(got.status)
    assert statuses[:3] == ["fail"] * 3


def test_check_mds_structural():
    code = con_families.construct_extended(9).code
    res = ver.check_mds(code, mode="structural")
    assert res.status == "pass" and res.mode == "structural"


# --- dual identity ---------------------------------------------------------------

def test_dual_identity_examples():
    ctx = make_field(5)
    res = ver.check_dual_identity(ctx, (0, 1, 2), 1)
    assert res.status == "pass"
    assert ver.check_dual_identity(ctx, (0, 1, 2), 3).status == "skipped"


def test_dual_identity_exhaustive_gf9():
    # all point subsets of size 2..5 with every admissible dimension
    ctx = make_field(3, 2)
    for size in range(2, 6):
        for points in combinations(range(9), size):
            for k in range(1, size):
                assert ver.check_dual_identity(ctx, points, k).status == "pass"


def test_dual_identity_random_gf25():
    ctx = make_field(5, 2)
    rnd = random.Random(30)
    for _ in range(500):
        n = rnd.randint(2, 7)
        points = tuple(rnd.sample(range(25), n))
        res = ver.check_dual_identity(ctx, points, rnd.randint(1, n - 1))
        assert res.status == "pass"


# --- character-sum bound -----------------------------------------------------------

def count_oracle(ctx, points):
    chi = ctx.character_table()
    return sum(1 for b in range(ctx.q)
               if all(chi[ctx.sub(b, a)] == 1 for a in points))


def test_character_sum_bound_frozen_examples():
    ctx = make_field(13)
    res = ver.check_character_sum_bound(ctx, (1, 2))
    assert res.status == "pass" and "N = 2" in res.detail
    assert count_oracle(ctx, (1, 2)) == 2  # squares shifted twice: {5, 11}
    res0 = ver.check_character_sum_bound(ctx, (0,))
    assert res0.status == "pass" and "N = 6" in res0.detail  # the 6 squares


def test_character_sum_bound_preconditions():
    ctx = make_field(13)
    with raises_exactly(GrsDualError, match="^points must be distinct$"):
        ver.check_character_sum_bound(ctx, (1, 1))
    with pytest.raises(ValueError):
        ver.check_character_sum_bound(ctx, ())
    with raises_exactly(ConstructionInfeasible,
                        match="^the character needs odd q$"):
        ver.check_character_sum_bound(make_field(2, 2), (1,))


@pytest.mark.parametrize("points", [(13, 1), (-13, 1), (0, 14), (0, 13),
                                    (0.5,), (1.0, 2), (True, 2), (0, 2.0)])
def test_character_sum_bound_rejects_points_outside_the_field(points):
    # each would name an element once reduced mod 13, and (0, 13) twice;
    # a float or bool is not an element even where its value is one
    with pytest.raises(ValueError, match="points must be field elements"):
        ver.check_character_sum_bound(make_field(13), points)


@pytest.mark.parametrize("q", [29, 125, 3 ** 5])
def test_character_sum_count_matches_scalar_oracle(q):
    # the count intersects translated bitsets; count_oracle subtracts
    ctx = field_for_order(q)
    rnd = random.Random(q)
    for size in (1, 2, 3, 4, 5):
        for _ in range(10):
            points = [0] + rnd.sample(range(1, q), size - 1)
            rnd.shuffle(points)
            res = ver.check_character_sum_bound(ctx, tuple(points))
            n = count_oracle(ctx, points)
            assert res.detail.startswith(f"N = {n}, "), (points, res.detail)


def test_character_sum_bound_in_gf_1048573_is_fast():
    # the first five points of the lexicographically first 6-point
    # square-difference set in GF(1048573), (0, 1, 4, 11, 27, 30); q n
    # scalar subtractions took 1.55 s.  A fresh context, so the bound
    # covers the character table too
    base = make_field(1048573)
    ctx = FieldCtx(base.p, base.e, base.modulus)
    start = time.perf_counter()
    res = ver.check_character_sum_bound(ctx, (0, 1, 4, 11, 27))
    assert time.perf_counter() - start < 1.0
    assert res.status == "pass"
    assert res.detail == ("N = 32714, center q/2^5 = 32767.9062, allowed "
                          "radius 1.5312*sqrt(1048573) + 2.5000")


def test_character_sum_window_matches_fraction_oracle(monkeypatch):
    # every count 0..q against the window in Fractions; the neighbourhoods
    # are replaced by the first count elements, so their intersection over
    # the n - 1 points holds exactly count elements
    decisions = set()
    for q in (11, 27, 49, 125, 211, 243):
        ctx = field_for_order(q)
        for n in range(2, 11):
            points = tuple(range(n - 1))
            for count in range(q + 1):
                monkeypatch.setattr(ver, "Neighbourhoods",
                                    lambda ctx: lambda a: (1 << count) - 1)
                res = ver.check_character_sum_bound(ctx, points)
                ok, detail = oracles.character_sum_window(q, n, count)
                assert (res.status, res.detail) == (
                    "pass" if ok else "fail", detail), (q, n, count)
                decisions.add(ok)
    assert decisions == {True, False}


@pytest.mark.parametrize("q", [29, 37])
def test_character_sum_bound_random_larger_subsets(q):
    ctx = field_for_order(q)
    rnd = random.Random(31)
    for size in (4, 5):
        for _ in range(100):
            points = tuple(rnd.sample(range(q), size))
            assert ver.check_character_sum_bound(ctx, points).status == "pass"


# --- minimum distance oracle ------------------------------------------------------

def test_minimum_distance_enumeration():
    ctx = make_field(5)
    code = GrsCode(ctx, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    assert oracles.minimum_distance(code) == 3  # [4,2] meets 4 - 2 + 1
    ext = con_families.construct_extended(5).code
    assert oracles.minimum_distance(ext) == 4   # [6,3] meets 6 - 3 + 1


def test_minimum_distance_matches_hand_enumeration():
    for q, a, v, k in ((5, (0, 2, 3), (1, 2, 1), 2),
                       (9, (0, 1, 3, 5), (1, 2, 4, 8), 2),
                       (16, (0, 1, 2, 7, 11), (1, 3, 5, 9, 15), 3),
                       (1849, (0, 5, 100, 1848), (1, 7, 1000, 1848), 1),
                       (2048, (1, 2, 3), (5, 6, 2047), 1)):
        ctx = field_for_order(q)
        code = GrsCode(ctx, a, v, k)
        best = code.n
        for message in product(range(q), repeat=k):
            if not any(message):
                continue
            word = []
            for aj, vj in zip(a, v):
                acc = 0
                for c in reversed(message):
                    acc = ctx.add(ctx.mul(acc, aj), c)
                word.append(ctx.mul(vj, acc))
            best = min(best, sum(1 for x in word if x))
        assert oracles.minimum_distance(code) == best == code.n - k + 1, q


def test_minimum_distance_above_the_exp_log_limit():
    # GF(3^11): above 2^16, exp/log arrays and no dense tables
    code = GrsCode(field_for_order(3 ** 11), (0, 1, 2), (1, 1, 1), 1)
    assert oracles.minimum_distance(code) == 3


# --- report assembly -------------------------------------------------------------------

def test_verify_code_report_roundtrip():
    code = con_families.construct_extended(5).code
    report = ver.verify_code(code, dual_identity=True)
    assert report.overall
    names = [c.name for c in report.checks]
    assert names == ["self-dual", "mds", "dual-identity"]
    assert report.checks[2].status == "skipped"  # extended code
    blob = json.loads(json.dumps(report.to_json()))
    assert blob["overall"] is True
    assert len(blob["checks"]) == 3
    assert all(set(c) >= {"name", "status", "mode", "detail"}
               for c in blob["checks"])


def test_verify_code_flags_corrupted_stored_generator():
    result = con_families.construct_theorem_3_5(3, 1)
    code = result.code
    rows = generator_matrix(code).tolist()
    rows[0][0] = code.ctx.add(rows[0][0], 1)
    corrupted = matrix(rows)
    report = ver.verify_code(code, stored_generator=corrupted)
    assert not report.overall
    by_name = {c.name: c for c in report.checks}
    assert by_name["generator-consistency"].status == "fail"
    assert by_name["self-dual"].status == "fail"


def test_verify_code_dual_identity_plain_code():
    code = con_families.construct_subfield_points(5, 4).code
    report = ver.verify_code(code, dual_identity=True)
    assert report.overall
    assert [c.status for c in report.checks] == ["pass", "pass", "pass"]
