"""Dense exact linear algebra over a FieldCtx.

A matrix holds its entries, element indices, as one read-only int32
array of shape (nrows, ncols): the array every kernel reads.  Its JSON
form lists each entry's coordinates, from one vectorized digit split
(`FieldCtx.coords`).  Row reduction runs one numpy elimination body,
`_np_echelon`, with plain leftmost-nonzero pivoting on the field's op
provider (`FieldCtx.np_ops`), the same provider the GRS layer builds its
matrices with; there are no numerical concerns in exact arithmetic.
Its forward pass gives rank; a back-substitution pass gives the reduced
row echelon form.  The verifier's MDS check reduces a generator once
with both passes, then tests one small square block per column subset:
in exact mode one at a time, by a forward pass on Python ints
(`_np_nonsingular`), and in randomized mode a stack of equally sized
blocks at once in numpy (`_np_batch_nonsingular`).

Row equivalence is decided by comparing reduced row echelon forms, which
are canonical, and the nullspace is read off the same form with each
basis vector scaled so its first nonzero coordinate is 1.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DuplicatePointsError, ShapeMismatchError
from .gf import FieldCtx, Felt


class _MatrixFields(NamedTuple):
    ctx: FieldCtx
    nrows: int
    ncols: int
    entries: "np.ndarray"


class MatrixGF(_MatrixFields):
    """Dense matrix over one field context; entries, any row-major
    sequence or array, are held as a read-only int32 (nrows, ncols) array.
    Equality is by value: the same context, shape and entries.  Not
    hashable, as its array is not."""

    __slots__ = ()

    def __new__(cls, ctx: FieldCtx, nrows: int, ncols: int, entries):
        import numpy as np

        a = np.array(entries, dtype=np.int32)
        if a.size != nrows * ncols:
            raise ShapeMismatchError(
                f"{nrows}x{ncols} matrix needs "
                f"{nrows * ncols} entries, got {a.size}")
        a = a.reshape(nrows, ncols)
        a.flags.writeable = False
        return super().__new__(cls, ctx, nrows, ncols, a)

    def __eq__(self, other):
        return (isinstance(other, MatrixGF) and self.ctx is other.ctx
                and self.entries.shape == other.entries.shape
                and bool((self.entries == other.entries).all()))

    # tuple's own != would compare the arrays elementwise
    def __ne__(self, other):
        return not self == other

    __hash__ = None

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
    return MatrixGF(ctx, nrows, ncols, [x for r in rows for x in r])


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
    a = m.entries.copy()
    _np_echelon(a, m.ctx.np_ops(), reduced=True)
    return MatrixGF(m.ctx, m.nrows, m.ncols, a)


def rank(m: MatrixGF) -> int:
    return rank_rows(m.ctx, m.entries)


def rank_rows(ctx: FieldCtx, rows) -> int:
    """Rank of a list-of-rows or ndarray.

    A matrix of full rank m = min(shape) often has a nonsingular leading
    m x m block (every MDS generator does), and then its rank is m without
    eliminating the other columns or rows.  Otherwise, and for square
    matrices, the whole matrix is eliminated.
    """
    import numpy as np

    a = np.array(rows, dtype=np.int32, ndmin=2)
    ops = ctx.np_ops()
    m = min(a.shape)
    if (a.shape[0] != a.shape[1]
            and len(_np_echelon(a[:m, :m].copy(), ops)) == m):
        return m
    return len(_np_echelon(a, ops))


def nullspace(m: MatrixGF) -> list[tuple[Felt, ...]]:
    """Basis of the right nullspace, one vector per free column.

    Vectors are listed in free-column order and scaled so the first
    nonzero coordinate is 1, fixing the scalar left open by elimination.
    """
    ctx = m.ctx
    a = m.entries.copy()
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
    return rref(a) == rref(b)


def entrywise_power(m: MatrixGF, r: int) -> MatrixGF:
    return MatrixGF(m.ctx, m.nrows, m.ncols,
                    [m.ctx.power(x, r) for x in m.entries.ravel().tolist()])


# --- numpy elimination kernel ---------------------------------------------

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
    """Nonsingularity of a square int32 array, by a forward pass on Python
    ints from a.tolist(); a is not changed.

    Each step pivots on the first row with a nonzero leading entry, as
    `_np_echelon` does, and keeps the rows below it, cleared, without the
    pivot column; two rows left are a 2 x 2 determinant.  On the small
    blocks of exact mode, ops' scalar indexing (tables or exp/log ops)
    costs less than a dozen numpy calls a column.  The `_np_` name stays:
    the benchmark's spans and tests wrap this function by name.
    """
    mul, sub, inv = ops.mul, ops.sub, ops.inv
    rows = a.tolist()
    while len(rows) > 2:
        for i, top in enumerate(rows):
            if top[0]:
                break
        else:
            return False
        rows[i] = rows[0]
        s, tail = inv[top[0]], top[1:]
        rows = [[sub[x, mul[f, y]] for x, y in zip(row[1:], tail)]
                for row in rows[1:] for f in (mul[row[0], s],)]
    if len(rows) == 2:
        (w, x), (y, z) = rows
        return bool(mul[w, z] != mul[x, y])
    return not rows or bool(rows[0][0])


def _np_batch_nonsingular(a, ops):
    """Nonsingularity of each block of a (B, j, j) int32 array, as a bool
    array of length B; mutates a.

    All B blocks are eliminated at once with diagonal pivots: at column c
    a block's pivot is its first nonzero row at or below row c, swapped
    into row c.  A block with no such row is singular; its zero pivot has
    inverse inv[0] = 0, so its elimination step subtracts zero and it
    carries on harmlessly to the next column.
    """
    import numpy as np

    nblocks, j = a.shape[:2]
    ok = np.ones(nblocks, dtype=bool)
    for c in range(j):
        # only blocks whose diagonal entry is zero look below it
        zero = np.flatnonzero(a[:, c, c] == 0)
        if zero.size:
            nz = a[zero, c:, c] != 0
            ok[zero] &= nz.any(1)
            piv = c + nz.argmax(1)
            top = a[zero, c]
            a[zero, c] = a[zero, piv]
            a[zero, piv] = top
        if c + 1 < j:
            # rows below c, from column c + 1 on: column c is not read again
            factors = ops.mul[a[:, c + 1:, c], ops.inv[a[:, c, c]][:, None]]
            a[:, c + 1:, c + 1:] = ops.sub[
                a[:, c + 1:, c + 1:],
                ops.mul[factors[:, :, None], a[:, None, c, c + 1:]]]
    return ok


def nonsingular_rows(ctx: FieldCtx, rows) -> bool:
    """True iff the square matrix given as rows/ndarray is invertible."""
    return rank_rows(ctx, rows) == len(rows)
