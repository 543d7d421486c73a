"""Dense exact linear algebra over a FieldCtx.

Matrices are immutable row-major tuples of element indices.  Row
reduction uses plain leftmost-nonzero pivoting; there are no numerical
concerns in exact arithmetic.  Rank and nonsingularity run one numpy
elimination body, `_np_rank`, on the field's op provider
(`FieldCtx.np_ops`, q <= 2^16), whose dense small-field tables make the
exhaustive column-subset checks in the verifier affordable.  Above 2^16,
and for `rref` and `nullspace` everywhere, the pure-Python `_echelon`
runs; it is also the reference the kernel is tested against.

Row equivalence is decided by comparing reduced row echelon forms, which
are canonical, and the nullspace is read off the same form with each
basis vector scaled so its first nonzero coordinate is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DuplicatePointsError, ShapeMismatchError
from .gf import FieldCtx, Felt, json_int


@dataclass(frozen=True)
class MatrixGF:
    """Dense matrix over one field context, entries row-major."""

    ctx: FieldCtx
    nrows: int
    ncols: int
    entries: tuple[Felt, ...]

    def __post_init__(self):
        if len(self.entries) != self.nrows * self.ncols:
            raise ShapeMismatchError(
                f"{self.nrows}x{self.ncols} matrix needs "
                f"{self.nrows * self.ncols} entries, got {len(self.entries)}")

    def at(self, i: int, j: int) -> Felt:
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple[Felt, ...]:
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows_list(self) -> list[list[Felt]]:
        return [list(self.row(i)) for i in range(self.nrows)]

    def to_json(self) -> dict:
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [self.ctx.coeffs(x) for x in self.entries],
        }


def matrix(ctx: FieldCtx, rows: Sequence[Sequence[Felt]]) -> MatrixGF:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(r) != ncols for r in rows):
        raise ShapeMismatchError("ragged rows")
    return MatrixGF(ctx, nrows, ncols, tuple(x for r in rows for x in r))


def matrix_from_json(ctx: FieldCtx, obj: dict) -> MatrixGF:
    entries = tuple(ctx.element(cs) for cs in obj["entries"])
    return MatrixGF(ctx, json_int(obj["rows"], '"rows"'),
                    json_int(obj["cols"], '"cols"'), entries)


def identity(ctx: FieldCtx, n: int) -> MatrixGF:
    return MatrixGF(ctx, n, n,
                    tuple(1 if i == j else 0
                          for i in range(n) for j in range(n)))


def transpose(m: MatrixGF) -> MatrixGF:
    return MatrixGF(m.ctx, m.ncols, m.nrows,
                    tuple(m.at(i, j)
                          for j in range(m.ncols) for i in range(m.nrows)))


def matmul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.ctx is not b.ctx or a.ncols != b.nrows:
        raise ShapeMismatchError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    ctx = a.ctx
    out = []
    for i in range(a.nrows):
        arow = a.row(i)
        for j in range(b.ncols):
            acc = 0
            for t, av in enumerate(arow):
                if av:
                    acc = ctx.add(acc, ctx.mul(av, b.at(t, j)))
            out.append(acc)
    return MatrixGF(ctx, a.nrows, b.ncols, tuple(out))


def mat_vec(m: MatrixGF, vec: Sequence[Felt]) -> list[Felt]:
    if len(vec) != m.ncols:
        raise ShapeMismatchError("vector length does not match columns")
    ctx = m.ctx
    out = []
    for i in range(m.nrows):
        acc = 0
        for mv, xv in zip(m.row(i), vec):
            if mv and xv:
                acc = ctx.add(acc, ctx.mul(mv, xv))
        out.append(acc)
    return out


def vandermonde_system(ctx: FieldCtx, points: Sequence[Felt]) -> MatrixGF:
    """The (n-1) x n matrix whose row i holds the i-th powers of points.

    Its nullspace is the line of dual coefficient vectors attached to the
    points; row 0 is all ones.
    """
    n = len(points)
    if len(set(points)) != n:
        raise DuplicatePointsError("evaluation points must be distinct")
    if n < 2:
        raise ValueError("need at least two points")
    rows = []
    cur = [1] * n
    for _ in range(n - 1):
        rows.append(list(cur))
        cur = [ctx.mul(c, a) for c, a in zip(cur, points)]
    return matrix(ctx, rows)


# --- elimination ---------------------------------------------------------

def _echelon(ctx: FieldCtx, rows: list[list[Felt]],
             reduced: bool) -> tuple[list[list[Felt]], list[int]]:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ctx.inverse(rows[r][c])
        if inv != 1:
            rows[r] = [ctx.mul(inv, v) for v in rows[r]]
        targets = range(nr) if reduced else range(r + 1, nr)
        for i in targets:
            if i != r and rows[i][c]:
                f = rows[i][c]
                src = rows[r]
                rows[i] = [ctx.sub(vi, ctx.mul(f, vs))
                           for vi, vs in zip(rows[i], src)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def rref(m: MatrixGF) -> MatrixGF:
    """Canonical reduced row echelon form (same shape, zero rows last)."""
    rows, _ = _echelon(m.ctx, m.rows_list(), reduced=True)
    return matrix(m.ctx, rows)


def rank(m: MatrixGF) -> int:
    return rank_rows(m.ctx, m.rows_list())


def rank_rows(ctx: FieldCtx, rows) -> int:
    """Rank of a list-of-rows or ndarray; numpy-driven when available."""
    ops = ctx.np_ops()
    if ops is not None:
        import numpy as np
        return _np_rank(np.array(rows, dtype=np.int32, ndmin=2), ops)
    _, pivots = _echelon(ctx, [list(r) for r in rows], reduced=False)
    return len(pivots)


def nullspace(m: MatrixGF) -> list[tuple[Felt, ...]]:
    """Basis of the right nullspace, one vector per free column.

    Vectors are listed in free-column order and scaled so the first
    nonzero coordinate is 1, fixing the scalar left open by elimination.
    """
    ctx = m.ctx
    rows, pivots = _echelon(ctx, m.rows_list(), reduced=True)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * m.ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = ctx.neg(rows[ri][fc])
        lead = next(x for x in v if x)
        if lead != 1:
            s = ctx.inverse(lead)
            v = [ctx.mul(s, x) for x in v]
        basis.append(tuple(v))
    return basis


def row_equivalent(a: MatrixGF, b: MatrixGF) -> bool:
    """True iff a and b have equal reduced row echelon forms."""
    if a.ctx is not b.ctx or a.nrows != b.nrows or a.ncols != b.ncols:
        raise ShapeMismatchError("row equivalence needs equal shapes")
    return rref(a).entries == rref(b).entries


def entrywise_power(m: MatrixGF, r: int) -> MatrixGF:
    return MatrixGF(m.ctx, m.nrows, m.ncols,
                    tuple(m.ctx.power(x, r) for x in m.entries))


# --- numpy elimination kernel ---------------------------------------------

def _np_rank(a, ops) -> int:
    """Rank by Gaussian elimination on an int32 array of elements; mutates a.

    ops is the field's op provider, `FieldCtx.np_ops()`.
    """
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        below = a[r + 1:, c]
        if below.size:
            inv_p = ops.inv[a[r, c]]
            factors = ops.mul[below, inv_p]
            a[r + 1:, c:] = ops.sub[a[r + 1:, c:],
                                    ops.mul[factors[:, None], a[r, c:][None, :]]]
        r += 1
    return r


def _np_nonsingular(a, ops) -> bool:
    """Nonsingularity of a square array; mutates a."""
    return _np_rank(a, ops) == a.shape[0]


def nonsingular_rows(ctx: FieldCtx, rows) -> bool:
    """True iff the square matrix given as rows/ndarray is invertible."""
    return rank_rows(ctx, rows) == len(rows)
