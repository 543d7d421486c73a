"""Row reduction and rank: the numpy kernels on every kind of op
provider, cross-checked against the scalar reference in `oracles` and
against sympy; and the nullspace and row-equivalence oracles built on
that reference."""

import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from conftest import FIELDS, field_and_matrix, raises_exactly
from grsdual import linalg as la, verify
from grsdual.gf import FieldCtx, field_for_order, make_field
from grsdual.grs import (GrsCode, code_to_json, dual_coefficients,
                         stored_generator_from_json)
from oracles import (echelon, has_subfield_solution, mat_vec, matmul,
                     nullspace, power_rows, row_equivalent, transpose)


def _rref(ctx, rows):
    """The numpy kernel's reduced row echelon form of rows, an array."""
    a = np.array(rows, dtype=np.int32, ndmin=2)
    la._np_echelon(a, ctx.np_ops(), reduced=True)
    return a


def test_vandermonde_shape_and_values():
    ctx = make_field(5)
    assert power_rows(ctx, (0, 1, 2)) == [[1, 1, 1], [0, 1, 2]]
    assert power_rows(ctx, (0, 1)) == [[1, 1]]


def test_nullspace_of_power_rows_system():
    ctx = make_field(5)
    rows = power_rows(ctx, (0, 1, 2))
    basis = nullspace(ctx, rows)
    assert basis == [(1, 3, 1)]  # frozen: solved by hand-checkable elimination
    assert mat_vec(ctx, rows, basis[0]) == [0, 0]
    assert nullspace(ctx, [[1, 0], [0, 1]]) == []


def test_power_rows_rank_is_n_minus_1():
    rnd = random.Random(1)
    for _ in range(100):
        q = rnd.choice([5, 9, 13, 25, 49])
        ctx = field_for_order(q)
        n = rnd.randint(2, min(8, q))
        points = tuple(rnd.sample(range(q), n))
        assert la.rank_rows(ctx, power_rows(ctx, points)) == n - 1


def test_nullspace_line_matches_dual_coefficients():
    rnd = random.Random(2)
    for _ in range(150):
        q = rnd.choice([5, 9, 13, 25, 49])
        ctx = field_for_order(q)
        n = rnd.randint(2, min(8, q))
        points = tuple(rnd.sample(range(q), n))
        basis = nullspace(ctx, power_rows(ctx, points))
        assert len(basis) == 1  # the solution space is a line
        w = basis[0]
        u = dual_coefficients(ctx, points)
        scale = u[0]  # w is normalized with first coordinate 1
        assert all(ui == ctx.mul(scale, wi) for ui, wi in zip(u, w))


@given(field_and_matrix())
@settings(deadline=None)
def test_rref_is_idempotent_and_rank_counts_pivots(data):
    ctx, rows = data
    r = _rref(ctx, rows)
    assert np.array_equal(_rref(ctx, r), r)
    nonzero_rows = sum(1 for row in r.tolist() if any(row))
    assert la.rank_rows(ctx, rows) == nonzero_rows


@given(field_and_matrix(max_dim=4))
@settings(deadline=None)
def test_row_equivalence_under_random_invertible_left_factor(data):
    ctx, rows = data
    rnd = random.Random(sum(map(sum, rows)) + ctx.q)
    n = len(rows)
    while True:
        p_rows = [[rnd.randrange(ctx.q) for _ in range(n)] for _ in range(n)]
        if la.rank_rows(ctx, p_rows) == n:
            break
    pm = matmul(ctx, p_rows, rows)
    # reduced row echelon forms are canonical
    assert np.array_equal(_rref(ctx, pm), _rref(ctx, rows))
    assert row_equivalent(ctx, rows, pm)


def test_row_equivalent_examples():
    ctx = make_field(5)
    assert row_equivalent(ctx, [[1, 1, 1], [0, 1, 2]], [[2, 2, 2], [0, 2, 4]])
    assert not row_equivalent(ctx, [[1, 0]], [[0, 1]])


def test_row_equivalence_of_power_rows_under_entrywise_frobenius():
    ctx = make_field(3, 2)
    assert has_subfield_solution(ctx, tuple([0] + ctx.roots_of_unity(4)))
    assert not has_subfield_solution(ctx, (0, 1, 3))


def _with_dependent_rows(ctx, rows, rnd):
    """rows plus up to three zero, repeated or combined rows, shuffled in."""
    rows = [list(r) for r in rows]
    for _ in range(rnd.randint(0, 3)):
        kind = rnd.randrange(3)
        if kind == 0:
            extra = [0] * len(rows[0])
        elif kind == 1:
            extra = list(rnd.choice(rows))
        else:
            x, y = rnd.choice(rows), rnd.choice(rows)
            c = rnd.randrange(1, ctx.q)
            extra = [ctx.add(xv, ctx.mul(c, yv)) for xv, yv in zip(x, y)]
        rows.insert(rnd.randrange(len(rows) + 1), extra)
    return rows


def test_rank_table_kernel_agrees_with_pure_elimination():
    rnd = random.Random(3)
    # tabulated ops up to 2^10, O(q) exp/log arrays above, up to 2^17 and
    # 3^11 (each with all three kinds of subtraction: prime,
    # characteristic 2, digit-wise)
    fields = [4, 5, 9, 13, 16, 25, 1031, 1849, 2048, 2187, 65536,
              65537, 2 ** 17, 3 ** 11]
    for _ in range(400):
        q = rnd.choice(fields)
        ctx = field_for_order(q)
        nrows = rnd.randint(1, 6)
        ncols = rnd.randint(1, 6)
        rows = [[rnd.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        if rnd.random() < 0.5:
            rows = _with_dependent_rows(ctx, rows, rnd)
            nrows = len(rows)
        fast = la.rank_rows(ctx, rows)
        copied = [list(r) for r in rows]
        _, pivots = echelon(ctx, copied, reduced=False)
        assert fast == len(pivots)
        if nrows == ncols:
            assert la.nonsingular_rows(ctx, rows) == (fast == nrows)
    # no rows, and one row with no columns
    for q in fields:
        ctx = field_for_order(q)
        for rows in ([], [[]]):
            _, pivots = echelon(ctx, [list(r) for r in rows], reduced=False)
            assert la.rank_rows(ctx, rows) == len(pivots) == 0
        assert la.nonsingular_rows(ctx, []) is True


def test_batched_kernel_agrees_with_pure_elimination():
    rnd = random.Random(4)
    for q in (4, 5, 9, 25, 1031, 2048, 2 ** 17, 3 ** 11):
        ctx = field_for_order(q)
        for j in range(6):
            blocks = []
            for _ in range(30):
                rows = [[rnd.randrange(q) for _ in range(j)]
                        for _ in range(j)]
                kind = rnd.randrange(4) if j else 3
                if kind == 0:    # a combination of other rows, or zero
                    i = rnd.randrange(j)
                    others = rows[:i] + rows[i + 1:] or [[0] * j]
                    x, y = rnd.choice(others), rnd.choice(others)
                    c = rnd.randrange(q)
                    rows[i] = [ctx.add(xv, ctx.mul(c, yv))
                               for xv, yv in zip(x, y)]
                elif kind == 1:  # a zero column
                    col = rnd.randrange(j)
                    for row in rows:
                        row[col] = 0
                elif kind == 2:  # a zero top-left pivot, to swap
                    rows[0][0] = 0
                blocks.append(rows)
            a = np.array(blocks, dtype=np.int32).reshape(30, j, j)
            got = la._np_batch_nonsingular(a, ctx.np_ops())
            want = [len(echelon(ctx, [list(r) for r in rows],
                                reduced=False)[1]) == j for rows in blocks]
            assert got.tolist() == want, (q, j)
            assert 0 < sum(want) and (j == 0 or not all(want))


def _square_cases(ctx, rnd, j):
    """j x j matrices over ctx, as rows: random ones, and ones that are
    singular (a repeated row, a zero column) or need a row swap (a zero
    leading entry, or a zero pivot after the first step)."""
    q = ctx.q
    cases = []
    for _ in range(6):
        rows = [[rnd.randrange(q) for _ in range(j)] for _ in range(j)]
        cases.append(rows)
        if j == 0:
            continue
        repeated = [list(r) for r in rows]
        repeated[rnd.randrange(j)] = list(rnd.choice(rows))
        zero_col = [list(r) for r in rows]
        col = rnd.randrange(j)
        for row in zero_col:
            row[col] = 0
        swap = [list(r) for r in rows]
        swap[0][0] = 0
        cases += [repeated, zero_col, swap]
        if j >= 3:
            # row 1 is row 0 but for its third entry: after the first
            # step its leading entry is zero, and row 2 or later pivots
            later = [list(r) for r in rows]
            later[0][0] = rnd.randrange(1, q)
            later[1] = list(later[0])
            later[1][2] = ctx.add(later[1][2], rnd.randrange(1, q))
            cases.append(later)
    return cases


@pytest.mark.parametrize("q", [7, 9, 25])
def test_forward_pass_kernel_agrees_with_numpy_elimination(q):
    # the dense tables' rows, as the exact MDS check reads them (prime
    # and digit-wise subtraction, in characteristic 3 and 5)
    ctx = field_for_order(q)
    ops = ctx.np_ops()
    field = verify._table_rows(ops)
    rnd = random.Random(q)
    outcomes = set()
    for j in range(9):
        for rows in _square_cases(ctx, rnd, j):
            a = np.array(rows, dtype=np.int32).reshape(j, j)
            want = len(la._np_echelon(a.copy(), ops)) == j
            block = a.tolist()
            got = la._np_nonsingular(block, field)
            assert type(got) is bool and got == want, (q, rows)
            # the argument is only read
            assert block == a.tolist()
            outcomes.add((j > 2, got))
    assert outcomes == {(False, True), (False, False), (True, True),
                        (True, False)}


def _random_rows(ctx, rnd, max_dim=6):
    """A random matrix over ctx, half the time with dependent rows."""
    nrows, ncols = rnd.randint(1, max_dim), rnd.randint(1, max_dim)
    rows = [[rnd.randrange(ctx.q) for _ in range(ncols)] for _ in range(nrows)]
    return _with_dependent_rows(ctx, rows, rnd) if rnd.random() < 0.5 else rows


def _leading_block_cases(ctx, rnd):
    """Wide and tall matrices around the leading-block rank shortcut: full
    rank with a singular leading block (its first column repeated), rank
    deficient, and 1 x n rows with a zero or nonzero first entry."""
    q = ctx.q
    cases = []
    for _ in range(12):
        k = rnd.randint(2, 5)
        n = k + rnd.randint(1, 4)
        rows = [[rnd.randrange(q) for _ in range(n)] for _ in range(k)]
        repeated = [[r[0], r[0]] + r[2:] for r in rows]
        deficient = [list(r) for r in rows[:-1]] + [list(rows[0])]
        cases += [rows, repeated, deficient]
    cases += [[[0] + [rnd.randrange(q) for _ in range(n - 1)]]
              for n in (1, 2, 5)]
    cases += [[[rnd.randrange(1, q)] + [rnd.randrange(q) for _ in range(4)]]]
    cases += [[list(col) for col in zip(*rows)] for rows in cases]  # tall
    return cases


def test_rank_rref_nullspace_match_sympy():
    # sympy's DomainMatrix over GF(p) shares no code with the kernel;
    # 65537 is the first prime field above 2^16
    rnd = random.Random(7)
    for p in (2, 3, 13, 1031, 65537):
        ctx, field = make_field(p), GF(p)
        cases = [[], [[]]] + [_random_rows(ctx, rnd) for _ in range(40)]
        cases += _leading_block_cases(ctx, rnd)
        for rows in cases:
            shape = (len(rows), len(rows[0]) if rows else 0)
            theirs = DomainMatrix([[field(x) for x in r] for r in rows],
                                  shape, field)
            assert la.rank_rows(ctx, rows) == theirs.rank()
            assert _rref(ctx, rows).ravel().tolist() == [
                int(x) % p for r in theirs.rref()[0].to_list() for x in r]
            basis = []
            for r in theirs.nullspace().to_list():
                r = [int(x) % p for x in r]
                lead = next(x for x in r if x)
                basis.append(tuple(ctx.mul(ctx.inverse(lead), x) for x in r))
            assert nullspace(ctx, rows) == basis


def test_reduced_forms_match_scalar_echelon():
    # tabulated and O(q) array providers, below and above 2^16
    rnd = random.Random(8)
    for q in (4, 9, 25, 1849, 2048, 2187, 3 ** 11, 2 ** 17):
        ctx = field_for_order(q)
        for _ in range(25):
            rows = _random_rows(ctx, rnd)
            nrows, ncols = len(rows), len(rows[0])
            ref, pivots = echelon(ctx, [list(r) for r in rows], reduced=True)
            assert _rref(ctx, rows).tolist() == ref
            # the nullspace basis vector of a free column is 1 there, 0 on
            # the other free columns, and scaled so it leads with 1
            free = [c for c in range(ncols) if c not in pivots]
            basis = nullspace(ctx, rows)
            assert len(basis) == len(free)
            for fc, vec in zip(free, basis):
                assert all(type(x) is int for x in vec)
                assert mat_vec(ctx, rows, vec) == [0] * nrows
                assert next(x for x in vec if x) == 1
                assert [c for c in free if vec[c]] == [fc]
            n = nrows
            while True:
                p_rows = [[rnd.randrange(q) for _ in range(n)]
                          for _ in range(n)]
                _, p_pivots = echelon(ctx, [list(r) for r in p_rows],
                                      reduced=False)
                if len(p_pivots) == n:
                    break
            pm = matmul(ctx, p_rows, rows)
            assert _rref(ctx, pm).tolist() == ref
            other = [list(r) for r in rows]
            other[rnd.randrange(n)][rnd.randrange(ncols)] = rnd.randrange(q)
            assert _rref(ctx, other).tolist() == echelon(
                ctx, other, reduced=True)[0]


def _pairs_agree_with_oracles(ctx, xs, ys):
    # the scalar ops read the same arrays and subtraction as np_ops(), so
    # the references are _mul_slow, x^(q-2) by _pow_slow and coordinates
    ops = ctx.np_ops()
    p, pairs = ctx.p, list(zip(xs.tolist(), ys.tolist()))
    assert ops.mul[xs, ys].tolist() == [ctx._mul_slow(a, b) for a, b in pairs]
    assert ops.sub[xs, ys].tolist() == [
        ctx.element([(c - d) % p for c, d in zip(ctx.coeffs(a), ctx.coeffs(b))])
        for a, b in pairs]
    nonzero = xs[xs != 0]
    assert ops.inv[nonzero].tolist() == [ctx._pow_slow(a, ctx.q - 2)
                                         for a in nonzero.tolist()]


def _all_pairs(q):
    """Every (x, y) in GF(q)^2, as two int32 arrays."""
    x, y = np.meshgrid(np.arange(q, dtype=np.int32),
                       np.arange(q, dtype=np.int32))
    return x.ravel(), y.ravel()


def _sampled_pairs(q, rnd, count=2000):
    """The 0 and 1 rows and columns of GF(q)'s op tables, plus count
    random pairs, as two int32 arrays."""
    xs = np.array([0] * q + [1] * q + list(range(q)) * 2
                  + [rnd.randrange(q) for _ in range(count)], dtype=np.int32)
    ys = np.array(list(range(q)) * 2 + [0] * q + [1] * q
                  + [rnd.randrange(q) for _ in range(count)], dtype=np.int32)
    return xs, ys


def test_array_ops_agree_with_dense_tables():
    # for odd q up to 2^10 np_ops() keeps q x q int16 tables, C-contiguous
    # and read-only (prime and digit-wise subtraction); all q^2 pairs
    # against the oracles, and sampled pairs plus the 0 and 1 rows and
    # columns at the limit, prime and square
    def assert_dense_int16(table, q):
        assert table.shape == (q, q) and table.dtype == np.int16
        assert table.flags.c_contiguous and not table.flags.writeable

    for q in (5, 9, 25, 27, 49, 81, 125):
        ctx = field_for_order(q)
        ops = ctx.np_ops()
        for table in (ops.mul, ops.sub):
            assert_dense_int16(table, q)
        _pairs_agree_with_oracles(ctx, *_all_pairs(q))
    rnd = random.Random(4)
    for q in (1021, 961):
        ctx = field_for_order(q)
        ops = ctx.np_ops()
        for table in (ops.mul, ops.sub):
            assert_dense_int16(table, q)
        _pairs_agree_with_oracles(ctx, *_sampled_pairs(q, rnd))


def test_array_ops_match_scalar_arithmetic_above_table_limit():
    # above 2^10 the ops are the O(q) exp/log arrays, not tables, up to
    # the 2^20 field size limit (prime, characteristic 2 and digit-wise
    # subtraction); in characteristic 2 they are at every size, checked
    # on all pairs up to GF(64) and sampled pairs at GF(256) and GF(1024)
    rnd = random.Random(5)
    for q in (1031, 1849, 2048, 2187, 65536, 65537, 2 ** 17, 3 ** 11,
              2 ** 20, 3 ** 12, 1048573):
        ctx = field_for_order(q)
        ops = ctx.np_ops()
        assert not isinstance(ops.mul, np.ndarray)
        xs = np.array([0, 1, q - 1] + [rnd.randrange(q) for _ in range(200)],
                      dtype=np.int32)
        ys = np.array([rnd.randrange(q) for _ in range(203)], dtype=np.int32)
        assert ops.mul[xs, ys].dtype == ops.inv.dtype == np.int32
        _pairs_agree_with_oracles(ctx, xs, ys)
    for q in (2, 4, 8, 16, 32, 64, 256, 1024):
        ctx = field_for_order(q)
        ops = ctx.np_ops()
        assert not isinstance(ops.mul, np.ndarray)
        pairs = _all_pairs(q) if q <= 64 else _sampled_pairs(q, rnd)
        assert ops.mul[pairs].dtype == np.int32
        _pairs_agree_with_oracles(ctx, *pairs)


def test_fresh_field_builds_np_ops_once_under_threads(monkeypatch):
    base = make_field(43, 2)
    ctx = FieldCtx(base.p, base.e, base.modulus)  # not the cached context
    builds = []
    orig = FieldCtx._build_np_ops

    def slow_build(self):
        builds.append(self)
        time.sleep(0.05)  # widen the window for a second builder
        return orig(self)

    monkeypatch.setattr(FieldCtx, "_build_np_ops", slow_build)
    rnd = random.Random(6)
    rows = [[rnd.randrange(ctx.q) for _ in range(12)] for _ in range(10)]
    rows.append(list(rows[3]))
    expected = len(echelon(base, [list(r) for r in rows], reduced=False)[1])
    ranks = []
    start = threading.Barrier(8)

    def worker():
        start.wait(timeout=30)
        ranks.append(la.rank_rows(ctx, rows))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, daemon=True) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert ranks == [expected] * 8 and expected == 10
    assert builds == [ctx]


def test_matmul_identity_and_shapes():
    ctx = make_field(7)
    m = [[1, 2, 3], [4, 5, 6]]
    assert matmul(ctx, [[1, 0], [0, 1]], m) == m
    assert transpose(transpose(m)) == m
    with raises_exactly(ValueError, match="^cannot multiply 2x3 by 2x3$"):
        matmul(ctx, m, m)


def test_matrix_json_roundtrip():
    # stored generators are read back by grs.stored_generator_from_json
    ctx = make_field(3, 2)
    rows = [[0, 1, 3], [8, 2, 6]]
    blob = {"rows": 2, "cols": 3, "entries": ctx.coords(np.array(rows))}
    code = GrsCode(ctx, (0, 1, 2), (1, 1, 1), 2)
    obj = dict(code_to_json(code), generator=blob)
    assert stored_generator_from_json(obj, code).tolist() == rows


def test_nullspace_vectors_rank_nullity():
    rnd = random.Random(4)
    for _ in range(100):
        ctx = FIELDS[rnd.randrange(len(FIELDS))]
        nrows = rnd.randint(1, 5)
        ncols = rnd.randint(1, 5)
        rows = [[rnd.randrange(ctx.q) for _ in range(ncols)]
                for _ in range(nrows)]
        basis = nullspace(ctx, rows)
        # the kernel's rank and the scalar oracle's nullity
        assert la.rank_rows(ctx, rows) + len(basis) == ncols
        for vec in basis:
            assert mat_vec(ctx, rows, vec) == [0] * nrows
            lead = next(x for x in vec if x)
            assert lead == 1
