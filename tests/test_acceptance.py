"""Acceptance suite: every criterion at its stated tolerance.

Each test prints exactly one pass/fail line (visible with pytest -s) and
enforces both exactness and its runtime budget.  Construction grids are
cached at module level so the distance-oracle criterion can revisit the
same codes without rebuilding them.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations

from grsdual import construct as families
from grsdual import verify as ver
from grsdual.errors import ConstructionInfeasible
from grsdual.gf import field_for_order, make_field
from grsdual.grs import dual_coefficients
import oracles

RANDOM_SAMPLES = 10 ** 4


@contextmanager
def criterion(ident: str, budget_s: float):
    failures: list[str] = []
    t0 = time.perf_counter()
    try:
        yield failures
    except BaseException:
        print(f"criterion {ident}: FAIL after "
              f"{time.perf_counter() - t0:.2f}s (unexpected error)")
        raise
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget_s
    line = (f"criterion {ident}: {'PASS' if ok else 'FAIL'} "
            f"in {elapsed:.2f}s (budget {budget_s:.0f}s)")
    if failures:
        line += f"; {len(failures)} failing cases"
    print(line)
    assert not failures, failures[:10]
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s over budget {budget_s}s"


# --- cached construction grids ------------------------------------------------

@lru_cache(maxsize=None)
def even_char_grid():
    return tuple(families.construct_even_char(q, n)
                 for q in (4, 8, 16) for n in range(2, q + 1, 2))


@lru_cache(maxsize=None)
def extended_grid():
    return tuple(families.construct_extended(q)
                 for q in (5, 7, 9, 13, 17, 25, 27))


@lru_cache(maxsize=None)
def subfield_grid():
    return tuple(families.construct_subfield_points(r, n)
                 for r in (3, 5, 7, 9) for n in range(2, r + 1, 2))


@lru_cache(maxsize=None)
def roots_grid():
    cells = [(9, 2), (25, 2), (25, 4), (49, 2), (49, 4), (81, 2), (81, 6)]
    return tuple(families.construct_roots_of_unity(q, n) for q, n in cells)


@lru_cache(maxsize=None)
def coset_grid():
    return tuple(families.construct_theorem_3_5(r, t)
                 for r, t in ((3, 1), (7, 1), (7, 2), (7, 3)))


@lru_cache(maxsize=None)
def square_set_grid():
    return (families.construct_square_set(13, 2),
            families.construct_square_set(29, 4))


def check_cell(result, failures, mds_mode="exact"):
    code = result.code
    label = (f"{result.family} [{code.block_length},{code.k}] "
             f"over GF({code.ctx.q})")
    sd = ver.check_self_dual(code)
    if sd.status != "pass":
        failures.append(f"{label}: self-dual {sd.detail}")
    mds = ver.check_mds(code, mode=mds_mode, samples=RANDOM_SAMPLES, seed=0)
    if mds.status != "pass":
        failures.append(f"{label}: mds({mds_mode}) {mds.detail}")


# --- criteria -------------------------------------------------------------------

def test_criterion_1_even_char_grid():
    with criterion("1 (even q, n <= q)", 5.0) as failures:
        results = even_char_grid()
        assert len(results) == 2 + 4 + 8
        for result in results:
            check_cell(result, failures, mds_mode="exact")


def test_criterion_2_extended_grid():
    with criterion("2 (extended, n = q + 1)", 60.0) as failures:
        for result in extended_grid():
            code = result.code
            q = code.ctx.q
            if (code.block_length, code.k) != (q + 1, (q + 1) // 2):
                failures.append(f"extended q={q}: wrong parameters")
            mode = "exact" if q <= 17 else "randomized"
            check_cell(result, failures, mds_mode=mode)


def test_criterion_3_subfield_points_grid():
    with criterion("3 (points in GF(r), q = r^2)", 10.0) as failures:
        results = subfield_grid()
        assert len(results) == 1 + 2 + 3 + 4
        for result in results:
            check_cell(result, failures, mds_mode="exact")


def test_criterion_4_roots_of_unity_grid():
    with criterion("4 (roots of unity, (n-1) | (q-1))", 10.0) as failures:
        for result in roots_grid():
            check_cell(result, failures, mds_mode="exact")


def test_criterion_5_coset_grid():
    with criterion("5 (2t subfield cosets, r = 3 mod 4)", 120.0) as failures:
        for result in coset_grid():
            code = result.code
            ctx = code.ctx
            r = (3, 7)[0 if ctx.q == 9 else 1]
            t = code.k // r
            if (code.block_length, code.k) != (2 * t * r, t * r):
                failures.append(f"r={r} t={t}: wrong parameters")
            beta = result.certificate.beta
            minus_two = ctx.neg(ctx.add(1, 1))
            if ctx.sub(ctx.power(beta, r - 1), 1) != minus_two:
                failures.append(f"r={r} t={t}: beta^(r-1) - 1 != -2")
            mode = "exact" if code.block_length <= 14 else "randomized"
            check_cell(result, failures, mds_mode=mode)


def test_criterion_6_square_difference_pathway():
    with criterion("6 (square-difference search and count bound)",
                   60.0) as failures:
        first = families.search_square_difference_set(29, 4)
        second = families.search_square_difference_set(29, 4)
        if first != (0, 1, 5, 6) or second != first:
            failures.append(f"search(29, 4) returned {first}, {second}")
        for result in square_set_grid():
            check_cell(result, failures, mds_mode="exact")
        for q in (13, 17, 25, 29):
            ctx = field_for_order(q)
            elements = range(q)
            for size in (1, 2, 3):
                for points in combinations(elements, size):
                    res = ver.check_character_sum_bound(ctx, points)
                    if res.status != "pass":
                        failures.append(f"bound q={q} T={points}: {res.detail}")


def test_criterion_7_dual_coefficient_randomized():
    with criterion("7 (dual coefficients vs elimination, 1000 draws)",
                   30.0) as failures:
        rnd = random.Random(2026)
        for trial in range(1000):
            q = (5, 9, 13, 25)[trial % 4]
            ctx = field_for_order(q)
            n = rnd.randint(2, min(8, q))
            k = rnd.randint(1, n - 1)
            points = tuple(rnd.sample(range(q), n))
            u = dual_coefficients(ctx, points)
            basis = oracles.nullspace(ctx, oracles.power_rows(ctx, points))
            if len(basis) != 1:
                failures.append(f"q={q} a={points}: nullity != 1")
                continue
            w = basis[0]
            scale = u[0]  # w is normalized to start with 1
            if any(ui != ctx.mul(scale, wi) for ui, wi in zip(u, w)):
                failures.append(f"q={q} a={points}: u is not on the "
                                "nullspace line")
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
            if acc != 0:
                failures.append(f"q={q} a={points}: weighted sum {acc} != 0")
            res = ver.check_dual_identity(ctx, points, k)
            if res.status != "pass":
                failures.append(f"q={q} a={points} k={k}: {res.detail}")


def test_criterion_8_subfield_scaling_equivalence():
    with criterion("8 (direct scaling vs row equivalence)", 30.0) as failures:
        ctx9 = make_field(3, 2)
        for size in range(2, 6):
            for points in combinations(range(9), size):
                _compare_scaling_routes(ctx9, points, failures)
        ctx25 = make_field(5, 2)
        rnd = random.Random(2027)
        for _ in range(500):
            points = tuple(rnd.sample(range(25), rnd.randint(2, 6)))
            _compare_scaling_routes(ctx25, points, failures)


def _compare_scaling_routes(ctx, points, failures):
    u = dual_coefficients(ctx, points)
    try:
        families.find_subfield_scaling(ctx, u)
        direct = True
    except ConstructionInfeasible as exc:
        assert "lies outside GF(" in str(exc)
        direct = False
    equiv = oracles.has_subfield_solution(ctx, points)
    if direct != equiv:
        failures.append(f"GF({ctx.q}) a={points}: scaling={direct} "
                        f"row-equivalence={equiv}")


def test_criterion_9_distance_oracle_agreement():
    with criterion("9 (distance enumeration vs subset ranks)",
                   30.0) as failures:
        everything = (even_char_grid() + extended_grid() + subfield_grid()
                      + roots_grid() + coset_grid() + square_set_grid())
        checked = 0
        for result in everything:
            code = result.code
            if code.ctx.q ** code.k > 10 ** 5:
                continue
            checked += 1
            expected = code.block_length - code.k + 1
            d = oracles.minimum_distance(code)
            mds = ver.check_mds(code, mode="exact")
            label = (f"{result.family} [{code.block_length},{code.k}] "
                     f"GF({code.ctx.q})")
            if d != expected:
                failures.append(f"{label}: enumerated d={d} != {expected}")
            if mds.status != "pass":
                failures.append(f"{label}: subset-rank disagrees: {mds.detail}")
        assert checked >= 20  # the grids really do include tiny codes
