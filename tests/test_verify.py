"""The brute-force checks themselves: self-duality, MDS subset ranks,
dual identity, character-sum counts, distance enumeration."""

import json
import random
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
)
from grsdual.gf import field_for_order, make_field
from grsdual.grs import GrsCode, generator_matrix
from grsdual.linalg import matrix
import oracles
from oracles import echelon, matmul, transpose


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
    entries = list(gen.entries)
    for pos in rnd.sample(range(len(entries)), count):
        entries[pos] = ctx.add(entries[pos], rnd.randrange(1, ctx.q))
    return la.MatrixGF(ctx, gen.nrows, gen.ncols, tuple(entries))


def _oracle_first_product(a, b, upper=False):
    """First nonzero entry of a * b^T in row-major order, by scalar loops."""
    prod = matmul(a, transpose(b))
    for i in range(prod.nrows):
        for j in range(i if upper else 0, prod.ncols):
            if prod.at(i, j):
                return i, j, prod.at(i, j)
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
        top = la.MatrixGF(ctx, 2, bad.ncols, bad.entries[:2 * bad.ncols])
        assert ver._first_nonzero_product(ctx, gen, top) == \
            _oracle_first_product(gen, top)
    details = tuple(ver.check_self_dual_matrix(ctx, bad).detail
                    for bad in tampered)
    assert details == PINNED_SELF_DUAL_DETAILS[q]


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

# tabulated (9, 16, 25), exp/log (1031, 2048) and lifted (2^17) op providers
MDS_ORACLE_FIELDS = (9, 16, 25, 1031, 2048, 1 << 17)


def _mds_cases(ctx, rnd):
    """Generators, as rows, on which the systematic-form check must agree
    with the oracle: GRS (MDS) and random ones for k = 1 to k = N, then
    defects that move the pivots or lower the rank."""
    q = ctx.q

    def grs_rows(k, n):
        points = tuple(rnd.sample(range(q), n))
        v = tuple(rnd.randrange(1, q) for _ in range(n))
        return generator_matrix(GrsCode(ctx, points, v, k)).rows_list()

    cases = []
    for k, n in ((1, 1), (1, 5), (2, 5), (3, 6), (4, 7), (5, 5)):
        cases.append(grs_rows(k, n))
        cases.append([[rnd.randrange(q) for _ in range(n)] for _ in range(k)])
    c = rnd.randrange(2, q)
    dependent, repeated, zero, low_rank = (grs_rows(3, 7) for _ in range(4))
    for row in dependent:   # still rank 3, with pivots in columns 0, 2, 3
        row[1] = ctx.mul(c, row[0])
    for row in repeated:
        row[4] = row[2]
    for row in zero:
        row[3] = 0
    low_rank[2] = [ctx.add(x, ctx.mul(c, y))
                   for x, y in zip(low_rank[0], low_rank[1])]
    return cases + [dependent, repeated, zero, low_rank]


@pytest.mark.parametrize("q", MDS_ORACLE_FIELDS)
def test_mds_check_matches_full_subset_oracle(q):
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
    rows = generator_matrix(code).rows_list()
    for row in rows:
        row[4] = row[2]
    calls.update(subsets=0, eliminations=0)
    res = ver.check_mds_matrix(code.ctx, matrix(code.ctx, rows), mode="exact")
    walked, first = next((i + 1, cols) for i, cols
                         in enumerate(combinations(range(6), 3))
                         if {2, 4} <= set(cols))
    assert res.detail == f"columns {list(first)} are singular"
    assert calls == {"subsets": walked, "eliminations": walked}


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


@pytest.mark.parametrize("q", [29, 37])
def test_character_sum_bound_random_larger_subsets(q):
    ctx = field_for_order(q)
    rnd = random.Random(31)
    for size in (4, 5):
        for _ in range(100):
            points = tuple(rnd.sample(range(q), size))
            assert ver.check_character_sum_bound(ctx, points).status == "pass"


# --- minimum distance ----------------------------------------------------------------

def test_minimum_distance_enumeration():
    ctx = make_field(5)
    code = GrsCode(ctx, (0, 1, 2, 3), (1, 1, 1, 1), 2)
    assert ver.minimum_distance(code) == 3  # [4,2] meets 4 - 2 + 1
    ext = con_families.construct_extended(5).code
    assert ver.minimum_distance(ext) == 4   # [6,3] meets 6 - 3 + 1
    with pytest.raises(BudgetExceededError):
        ver.minimum_distance(ext, budget=10)


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
        assert ver.minimum_distance(code) == best == code.n - k + 1, q


def test_minimum_distance_above_the_exp_log_limit():
    # GF(3^11) has no exp/log tables and no numpy op provider
    code = GrsCode(field_for_order(3 ** 11), (0, 1, 2), (1, 1, 1), 1)
    assert ver.minimum_distance(code) == 3


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
    entries = list(gen.entries)
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
