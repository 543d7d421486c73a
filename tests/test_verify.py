"""The brute-force checks themselves: self-duality, MDS subset ranks,
dual identity, character-sum counts; and the distance-enumeration
oracle that the acceptance suite compares the MDS check with."""

import json
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest

from grsdual import construct as con_families
from grsdual import linalg as la
from grsdual import verify as ver
from grsdual.errors import (
    BudgetExceededError,
    DuplicatePointsError,
    EvenCharacteristicError,
    TooLargeError,
)
from grsdual.gf import FieldCtx, field_for_order, make_field
from grsdual.grs import GrsCode, generator_matrix
from grsdual.linalg import MatrixGF
import oracles
from oracles import echelon, matmul, transpose


def matrix(ctx, rows):
    """The matrix over ctx with these rows, at least one."""
    return MatrixGF(ctx, len(rows), len(rows[0]), rows)


# --- self-dual -----------------------------------------------------------------

def test_check_self_dual_matrix_pass_and_fail():
    ctx = make_field(5)
    ok = ver.check_self_dual_matrix(ctx, matrix(ctx, [[2, 1]]))
    assert ok.status == "pass"  # 4 + 1 = 0
    bad = ver.check_self_dual_matrix(ctx, matrix(ctx, [[1, 1]]))
    assert bad.status == "fail" and "inner product" in bad.detail
    odd = ver.check_self_dual_matrix(ctx, matrix(ctx, [[1, 1, 1]]))
    assert odd.status == "fail" and "block length" in odd.detail
    low_rank = ver.check_self_dual_matrix(
        ctx, matrix(ctx, [[1, 1, 1, 1], [2, 2, 2, 2]]))
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
        return matrix(ctx, rows)
    while True:
        p_rows = [[rnd.randrange(ctx.q) for _ in range(k)] for _ in range(k)]
        _, pivots = echelon(ctx, [list(r) for r in p_rows], reduced=False)
        if len(pivots) == k:
            return matmul(matrix(ctx, p_rows), matrix(ctx, rows))


def _tampered(gen, rnd, count):
    """gen with count distinct entries shifted by nonzero field elements."""
    ctx = gen.ctx
    entries = gen.entries.ravel().tolist()
    for pos in rnd.sample(range(len(entries)), count):
        entries[pos] = ctx.add(entries[pos], rnd.randrange(1, ctx.q))
    return la.MatrixGF(ctx, gen.nrows, gen.ncols, tuple(entries))


def _oracle_first_product(a, b, upper=False):
    """First nonzero entry of a * b^T in row-major order, by scalar loops."""
    prod = matmul(a, transpose(b))
    rows = prod.entries.tolist()
    for i in range(prod.nrows):
        for j in range(i if upper else 0, prod.ncols):
            if rows[i][j]:
                return i, j, rows[i][j]
    return None


def _inner_product_cases(q):
    """A clean dense generator over GF(q) and three tampered ones: one
    and two entries of it, and one entry of the sparse [I | A]."""
    ctx = field_for_order(q)
    rnd = random.Random(q)
    gen = _self_dual_generator(ctx, 6, rnd)
    sparse = _self_dual_generator(ctx, 6, rnd, mix=False)
    return ctx, gen, (_tampered(gen, rnd, 1), _tampered(gen, rnd, 2),
                      _tampered(sparse, rnd, 1))


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
    assert ver._first_nonzero_product(ctx, gen, gen, upper=True) is None
    assert ver.check_self_dual_matrix(ctx, gen).status == "pass"
    for bad in tampered:
        hit = ver._first_nonzero_product(ctx, bad, bad, upper=True)
        assert hit is not None
        assert hit == _oracle_first_product(bad, bad, upper=True)
        # the full product, and rectangular blocks, as the dual identity uses
        for a, b in ((bad, bad), (bad, gen), (gen, bad)):
            assert (ver._first_nonzero_product(ctx, a, b)
                    == _oracle_first_product(a, b))
        top = la.MatrixGF(ctx, 2, bad.ncols, bad.entries[:2])
        assert ver._first_nonzero_product(ctx, gen, top) == \
            _oracle_first_product(gen, top)
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
    want = matmul(matrix(ctx, x.tolist()), transpose(matrix(ctx, y.tolist())))
    assert oracles.products(ctx, x, y).tolist() == want.entries.tolist()


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
        with pytest.raises(TooLargeError) as err:
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
    gen = matrix(ctx, [[1, 0, 0], [0, 1, 0]])
    res = ver.check_mds_matrix(ctx, gen, mode="exact")
    assert res.status == "fail"
    assert "[0, 2]" in res.detail  # first singular pair in lex order
    # the last column pairs with either of the others singularly
    from grsdual.linalg import nonsingular_rows
    assert not nonsingular_rows(ctx, [[0, 0], [1, 0]])


def test_check_mds_randomized_needs_a_sample():
    ctx = make_field(5)
    gen = matrix(ctx, [[1, 0, 1], [0, 1, 1]])
    for samples in (0, -1):
        with pytest.raises(ValueError):
            ver.check_mds_matrix(ctx, gen, mode="randomized", samples=samples)
    assert ver.check_mds_matrix(ctx, gen, mode="randomized",
                                samples=1).status == "pass"


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
    gen = matrix(ctx, [[1, 0, 0, 0], [0, 1, 0, 0]])
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
    return generator_matrix(GrsCode(ctx, points, v, k)).entries.tolist()


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
    rows = gen.entries.tolist()
    pivots = echelon(ctx, [list(r) for r in rows], reduced=True)[1]
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        cols = sorted(rng.sample(range(gen.ncols), gen.nrows))
        sub = [[row[c] for c in cols] for row in rows]
        rank = len(echelon(ctx, sub, reduced=False)[1])
        out.append((sum(c not in pivots for c in cols), rank < gen.nrows))
    return out


def _chunk_cases(ctx, rnd, chunk):
    """(generator rows, seed) for the randomized check in chunks of chunk
    draws: more than two chunks that all pass, a first singular draw past
    the first chunk, one whose chunk holds a later singular draw with a
    smaller block, and a rank-deficient generator."""
    def first_seed(rows, wanted):
        gen = matrix(ctx, rows)
        return next(seed for seed in range(10 ** 4)
                    if wanted(_oracle_samples(ctx, gen, 40, seed)))

    def first_fail(draws):
        return next((i for i, (_, bad) in enumerate(draws) if bad), None)

    def past_first_chunk(draws):
        first = first_fail(draws)
        return first is not None and first >= chunk

    def smaller_block_later(draws):
        first = first_fail(draws)
        if first is None:
            return False
        end = (first // chunk + 1) * chunk
        return any(bad and j < draws[first][0] for j, bad in draws[first:end])

    grs = _grs_rows(ctx, rnd, 3, 7)
    _, repeated, _, low_rank = _mds_cases(ctx, rnd)[-4:]
    return [(grs, rnd.randrange(10 ** 6)),
            (repeated, first_seed(repeated, past_first_chunk)),
            (repeated, first_seed(repeated, smaller_block_later)),
            (low_rank, rnd.randrange(10 ** 6))]


@pytest.mark.parametrize("q", MDS_ORACLE_FIELDS)
def test_mds_check_matches_full_subset_oracle(q, monkeypatch):
    ctx = field_for_order(q)
    rnd = random.Random(q)
    statuses = set()
    for rows in _mds_cases(ctx, rnd):
        gen = matrix(ctx, rows)
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
        gen = matrix(ctx, rows)
        got = ver.check_mds_matrix(ctx, gen, mode="randomized", samples=40,
                                   seed=seed)
        want = oracles.check_mds_matrix(ctx, gen, mode="randomized",
                                        samples=40, seed=seed)
        assert got == want, (seed, rows)
        statuses.append(got.status)
    assert statuses == ["pass", "fail", "fail", "fail"]


@pytest.mark.parametrize("q", [1031, 43 ** 2, 2048])
def test_tampered_code_above_the_table_limit_names_the_oracles_subset(q):
    # exp/log ops, no dense tables: a GRS [12, 6] code with column 11 made
    # a combination of columns 7 and 9 fails first at a subset far into
    # the walk; a code with one entry changed may pass or fail
    ctx = field_for_order(q)
    rnd = random.Random(q)
    points = tuple(rnd.sample(range(q), 12))
    v = tuple(rnd.randrange(1, q) for _ in range(12))
    code = GrsCode(ctx, points, v, 6)
    rows = generator_matrix(code).entries.tolist()
    c, d = rnd.randrange(1, q), rnd.randrange(1, q)
    for row in rows:
        row[11] = ctx.add(ctx.mul(c, row[7]), ctx.mul(d, row[9]))
    one_entry = generator_matrix(code).entries.tolist()
    one_entry[rnd.randrange(6)][rnd.randrange(12)] = rnd.randrange(q)
    for tampered in (rows, one_entry):
        gen = matrix(ctx, tampered)
        got = ver.check_mds_matrix(ctx, gen, mode="exact")
        assert got == oracles.check_mds_matrix(ctx, gen, mode="exact")
    first = next(list(cols) for cols in combinations(range(12), 6)
                 if {7, 9, 11} <= set(cols))
    assert ver.check_mds_matrix(ctx, matrix(ctx, rows)).detail == (
        f"columns {first} are singular")


def test_mds_check_reports_the_first_subset_below_full_rank():
    ctx = make_field(5)
    gen = matrix(ctx, [[1, 2, 3, 4, 0], [2, 4, 1, 3, 0]])  # rank 1
    exact = ver.check_mds_matrix(ctx, gen, mode="exact")
    assert exact.detail == "columns [0, 1] are singular"
    first = tuple(sorted(random.Random(5).sample(range(5), 2)))
    sampled = ver.check_mds_matrix(ctx, gen, mode="randomized", seed=5)
    assert sampled.detail == f"columns {list(first)} are singular"


def test_exact_mds_check_runs_one_elimination_per_subset(monkeypatch):
    # the benchmark counts verify._np_subset_nonsingular and
    # linalg._np_nonsingular calls as "subsets checked" and "eliminations";
    # both must stay one per subset walked
    calls = {"subsets": 0, "eliminations": 0}
    blocks = []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            if key == "eliminations":
                blocks.append(args[0].shape)
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
    assert Counter(blocks) == {(3, 3): 1, (2, 2): 9, (1, 1): 9, (0, 0): 1}
    # with column 4 a copy of column 2 the walk stops at the first subset
    # that holds both
    rows = generator_matrix(code).entries.tolist()
    for row in rows:
        row[4] = row[2]
    calls.update(subsets=0, eliminations=0)
    res = ver.check_mds_matrix(code.ctx, matrix(code.ctx, rows), mode="exact")
    walked, first = next((i + 1, cols) for i, cols
                         in enumerate(combinations(range(6), 3))
                         if {2, 4} <= set(cols))
    assert res.detail == f"columns {list(first)} are singular"
    assert calls == {"subsets": walked, "eliminations": walked}


def test_randomized_mds_check_streams_its_draws(monkeypatch):
    draws = []

    class Counted(random.Random):
        def sample(self, *args, **kwargs):
            draws.append(1)
            return super().sample(*args, **kwargs)

    # rank 1: the first draw fails, and only its chunk is drawn
    ctx = make_field(5)
    gen = matrix(ctx, [[1, 2, 3, 4, 0], [2, 4, 1, 3, 0]])
    first = sorted(random.Random(5).sample(range(5), 2))
    monkeypatch.setattr(ver.random, "Random", Counted)
    res = ver.check_mds_matrix(ctx, gen, mode="randomized",
                               samples=10 ** 9, seed=5)
    assert res.detail == f"columns {first} are singular"
    assert len(draws) == ver._MDS_CHUNK // 2 ** 2
    # a [28, 14] check: no subset is eliminated on its own, and each chunk
    # of B draws makes at most one batched call per block size 0..k
    calls = {"subsets": 0}
    blocks = []
    subset = ver._np_subset_nonsingular
    batch = la._np_batch_nonsingular

    def one(*args):
        calls["subsets"] += 1
        return subset(*args)

    def batched(a, ops):
        blocks.append(a.shape)
        return batch(a, ops)

    monkeypatch.setattr(ver, "_np_subset_nonsingular", one)
    monkeypatch.setattr(la, "_np_batch_nonsingular", batched)
    code = con_families.construct_extended(27).code
    samples, k = 10 ** 4, 14
    assert ver.check_mds(code, mode="randomized",
                         samples=samples).status == "pass"
    chunk = ver._MDS_CHUNK // k ** 2
    assert calls["subsets"] == 0
    assert len(blocks) <= -(-samples // chunk) * (k + 1)
    assert sum(b for b, _, _ in blocks) == samples
    assert all(b <= chunk and j <= k for b, j, _ in blocks)


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
    with pytest.raises(DuplicatePointsError):
        ver.check_character_sum_bound(ctx, (1, 1))
    with pytest.raises(ValueError):
        ver.check_character_sum_bound(ctx, ())
    with pytest.raises(EvenCharacteristicError):
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
    gen = generator_matrix(code)
    entries = gen.entries.ravel().tolist()
    entries[0] = code.ctx.add(entries[0], 1)
    corrupted = matrix(code.ctx, [entries[i * gen.ncols:(i + 1) * gen.ncols]
                                  for i in range(gen.nrows)])
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
