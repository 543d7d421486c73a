"""Row reduction, nullspaces and row equivalence, cross-checked between
the pure elimination path and the table-driven kernel."""

import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import FIELDS, field_and_matrix
from grsdual import linalg as la
from grsdual.errors import DuplicatePointsError, ShapeMismatchError
from grsdual.gf import FieldCtx, field_for_order, make_field
from grsdual.grs import dual_coefficients


def test_vandermonde_shape_and_values():
    ctx = make_field(5)
    m = la.vandermonde_system(ctx, (0, 1, 2))
    assert m.rows_list() == [[1, 1, 1], [0, 1, 2]]
    assert la.vandermonde_system(ctx, (0, 1)).rows_list() == [[1, 1]]
    with pytest.raises(DuplicatePointsError):
        la.vandermonde_system(ctx, (0, 0, 1))
    with pytest.raises(ValueError):
        la.vandermonde_system(ctx, (3,))


def test_nullspace_of_power_rows_system():
    ctx = make_field(5)
    m = la.vandermonde_system(ctx, (0, 1, 2))
    basis = la.nullspace(m)
    assert basis == [(1, 3, 1)]  # frozen: solved by hand-checkable elimination
    assert la.mat_vec(m, basis[0]) == [0, 0]
    assert la.nullspace(la.identity(ctx, 2)) == []


def test_power_rows_rank_is_n_minus_1():
    rnd = random.Random(1)
    for _ in range(100):
        q = rnd.choice([5, 9, 13, 25, 49])
        ctx = field_for_order(q)
        n = rnd.randint(2, min(8, q))
        points = tuple(rnd.sample(range(q), n))
        assert la.rank(la.vandermonde_system(ctx, points)) == n - 1


def test_nullspace_line_matches_dual_coefficients():
    rnd = random.Random(2)
    for _ in range(150):
        q = rnd.choice([5, 9, 13, 25, 49])
        ctx = field_for_order(q)
        n = rnd.randint(2, min(8, q))
        points = tuple(rnd.sample(range(q), n))
        basis = la.nullspace(la.vandermonde_system(ctx, points))
        assert len(basis) == 1  # the solution space is a line
        w = basis[0]
        u = dual_coefficients(ctx, points)
        scale = u[0]  # w is normalized with first coordinate 1
        assert all(ui == ctx.mul(scale, wi) for ui, wi in zip(u, w))


@given(field_and_matrix())
@settings(deadline=None)
def test_rref_is_idempotent_and_rank_counts_pivots(data):
    ctx, rows = data
    m = la.matrix(ctx, rows)
    r = la.rref(m)
    assert la.rref(r).entries == r.entries
    nonzero_rows = sum(1 for i in range(r.nrows) if any(r.row(i)))
    assert la.rank(m) == nonzero_rows


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
    m = la.matrix(ctx, rows)
    pm = la.matmul(la.matrix(ctx, p_rows), m)
    assert la.row_equivalent(m, pm)
    assert la.row_equivalent(pm, m)
    assert la.row_equivalent(m, m)


def test_row_equivalent_examples():
    ctx = make_field(5)
    a = la.matrix(ctx, [[1, 1, 1], [0, 1, 2]])
    doubled = la.matrix(ctx, [[2, 2, 2], [0, 2, 4]])
    assert la.row_equivalent(a, doubled)
    assert not la.row_equivalent(la.matrix(ctx, [[1, 0]]),
                                 la.matrix(ctx, [[0, 1]]))
    with pytest.raises(ShapeMismatchError):
        la.row_equivalent(a, la.matrix(ctx, [[1, 0]]))


def test_row_equivalence_of_power_rows_under_entrywise_frobenius():
    ctx = make_field(3, 2)
    points = tuple([0] + ctx.roots_of_unity(4))
    system = la.vandermonde_system(ctx, points)
    assert la.row_equivalent(system, la.entrywise_power(system, 3))
    other = la.vandermonde_system(ctx, (0, 1, 3))
    assert not la.row_equivalent(other, la.entrywise_power(other, 3))


def test_entrywise_power():
    ctx9 = make_field(3, 2)
    assert la.entrywise_power(la.matrix(ctx9, [[3]]), 3).entries == (6,)
    m = la.matrix(ctx9, [[1, 4], [7, 0]])
    assert la.entrywise_power(m, 1).entries == m.entries
    zero = la.matrix(ctx9, [[0, 0]])
    assert la.entrywise_power(zero, 5).entries == (0, 0)


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
    # tabulated ops up to 2^10, O(q) arrays up to 2^16 (all three kinds of
    # subtraction: prime, characteristic 2, digit-wise), _echelon above
    fields = [4, 5, 9, 13, 16, 25, 1031, 1849, 2048, 2187, 65536]
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
        _, pivots = la._echelon(ctx, copied, reduced=False)
        assert fast == len(pivots)
        if nrows == ncols:
            assert la.nonsingular_rows(ctx, rows) == (fast == nrows)
    # no rows, and one row with no columns
    for q in fields + [3 ** 11]:
        ctx = field_for_order(q)
        for rows in ([], [[]]):
            _, pivots = la._echelon(ctx, [list(r) for r in rows], reduced=False)
            assert la.rank_rows(ctx, rows) == len(pivots) == 0
        assert la.nonsingular_rows(ctx, []) is True


def _pairs_agree_with_scalar_ops(ctx, xs, ys):
    ops = ctx.np_ops()
    assert ops.mul[xs, ys].tolist() == [ctx.mul(int(a), int(b))
                                        for a, b in zip(xs, ys)]
    assert ops.sub[xs, ys].tolist() == [ctx.sub(int(a), int(b))
                                        for a, b in zip(xs, ys)]
    nonzero = xs[xs != 0]
    assert ops.inv[nonzero].tolist() == [ctx.inverse(int(a)) for a in nonzero]


def test_array_ops_agree_with_dense_tables():
    # up to 2^10 np_ops() keeps q x q tables (prime, characteristic 2 and
    # digit-wise subtraction); all q^2 pairs against the scalar ops, and
    # sampled pairs plus the 0 and 1 rows and columns at the limit
    for q in (4, 5, 9, 16, 25, 27):
        ctx = field_for_order(q)
        ops = ctx.np_ops()
        assert ops.mul.shape == ops.sub.shape == (q, q)
        x, y = np.meshgrid(np.arange(q, dtype=np.int32),
                           np.arange(q, dtype=np.int32))
        _pairs_agree_with_scalar_ops(ctx, x.ravel(), y.ravel())
    ctx = field_for_order(1024)
    ops = ctx.np_ops()
    assert ops.mul.shape == ops.sub.shape == (1024, 1024)
    rnd = random.Random(4)
    xs = np.array([0] * 1024 + [1] * 1024 + list(range(1024)) * 2
                  + [rnd.randrange(1024) for _ in range(2000)], dtype=np.int32)
    ys = np.array(list(range(1024)) * 2 + [0] * 1024 + [1] * 1024
                  + [rnd.randrange(1024) for _ in range(2000)], dtype=np.int32)
    _pairs_agree_with_scalar_ops(ctx, xs, ys)


def test_array_ops_match_scalar_arithmetic_above_table_limit():
    # above 2^10 the ops are the O(q) exp/log arrays, not tables;
    # above 2^16 there are none
    rnd = random.Random(5)
    for q in (1031, 1849, 2048, 2187, 65536):
        ctx = field_for_order(q)
        assert not isinstance(ctx.np_ops().mul, np.ndarray)
        xs = np.array([0, 1, q - 1] + [rnd.randrange(q) for _ in range(200)],
                      dtype=np.int32)
        ys = np.array([rnd.randrange(q) for _ in range(203)], dtype=np.int32)
        _pairs_agree_with_scalar_ops(ctx, xs, ys)
    assert field_for_order(3 ** 11).np_ops() is None


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
    expected = len(la._echelon(base, [list(r) for r in rows],
                               reduced=False)[1])
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
    m = la.matrix(ctx, [[1, 2, 3], [4, 5, 6]])
    assert la.matmul(la.identity(ctx, 2), m).entries == m.entries
    assert la.transpose(la.transpose(m)).entries == m.entries
    with pytest.raises(ShapeMismatchError):
        la.matmul(m, m)


def test_matrix_json_roundtrip():
    ctx = make_field(3, 2)
    m = la.matrix(ctx, [[0, 1, 3], [8, 2, 6]])
    blob = m.to_json()
    assert blob["rows"] == 2 and blob["cols"] == 3
    assert la.matrix_from_json(ctx, blob).entries == m.entries


def test_nullspace_vectors_rank_nullity():
    rnd = random.Random(4)
    for _ in range(100):
        ctx = FIELDS[rnd.randrange(len(FIELDS))]
        nrows = rnd.randint(1, 5)
        ncols = rnd.randint(1, 5)
        m = la.matrix(ctx, [[rnd.randrange(ctx.q) for _ in range(ncols)]
                            for _ in range(nrows)])
        basis = la.nullspace(m)
        assert la.rank(m) + len(basis) == ncols
        for vec in basis:
            assert la.mat_vec(m, vec) == [0] * nrows
            lead = next(x for x in vec if x)
            assert lead == 1
