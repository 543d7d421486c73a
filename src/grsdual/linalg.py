"""Dense exact linear algebra over a FieldCtx.

Matrices are immutable row-major tuples of element indices; their JSON
form lists each entry's coordinates, from one vectorized digit split
(`FieldCtx.coords`).  All row reduction runs one numpy elimination body,
`_np_echelon`, with plain leftmost-nonzero pivoting on the field's op
provider (`FieldCtx.np_ops`), the same provider the GRS layer builds its
matrices with; there are no numerical concerns in exact arithmetic.
Its forward pass gives rank and nonsingularity; a back-substitution pass
gives the reduced row echelon form.  The verifier's MDS check reduces a
generator once with both passes, then runs the forward pass on one small
block of that form per column subset.

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
            "entries": self.ctx.coords(self.entries),
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

def rref(m: MatrixGF) -> MatrixGF:
    """Canonical reduced row echelon form (same shape, zero rows last)."""
    a = _array(m)
    _np_echelon(a, m.ctx.np_ops(), reduced=True)
    return MatrixGF(m.ctx, m.nrows, m.ncols, tuple(a.ravel().tolist()))


def rank(m: MatrixGF) -> int:
    return rank_rows(m.ctx, m.rows_list())


def rank_rows(ctx: FieldCtx, rows) -> int:
    """Rank of a list-of-rows or ndarray."""
    import numpy as np
    return len(_np_echelon(np.array(rows, dtype=np.int32, ndmin=2),
                           ctx.np_ops()))


def nullspace(m: MatrixGF) -> list[tuple[Felt, ...]]:
    """Basis of the right nullspace, one vector per free column.

    Vectors are listed in free-column order and scaled so the first
    nonzero coordinate is 1, fixing the scalar left open by elimination.
    """
    ctx = m.ctx
    a = _array(m)
    pivots = _np_echelon(a, ctx.np_ops(), reduced=True)
    rows = a.tolist()
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

def _array(m: MatrixGF):
    import numpy as np
    return np.array(m.entries, dtype=np.int32).reshape(m.nrows, m.ncols)


def _np_echelon(a, ops, reduced: bool = False) -> list[int]:
    """Row-reduce an int32 array of elements in place; return the pivot
    columns, whose count is the rank.

    ops is the field's op provider, `FieldCtx.np_ops()`.  The forward pass
    leaves a row echelon form with unscaled pivots.  With reduced, each
    pivot row is then scaled to lead with 1 and cleared from the rows
    above it, giving the reduced row echelon form.
    """
    nrows, ncols = a.shape
    pivots = []
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
        pivots.append(c)
        r += 1
    if reduced:
        for r, c in enumerate(pivots):
            a[r, c:] = ops.mul[a[r, c:], ops.inv[a[r, c]]]
            a[:r, c:] = ops.sub[a[:r, c:],
                                ops.mul[a[:r, c][:, None], a[r, c:][None, :]]]
    return pivots


def _np_nonsingular(a, ops) -> bool:
    """Nonsingularity of a square array; mutates a."""
    return len(_np_echelon(a, ops)) == a.shape[0]


def nonsingular_rows(ctx: FieldCtx, rows) -> bool:
    """True iff the square matrix given as rows/ndarray is invertible."""
    return rank_rows(ctx, rows) == len(rows)
