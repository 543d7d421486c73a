"""Dense exact linear algebra over a FieldCtx.

A matrix is a numpy int32 array of element indices, shape (nrows,
ncols); it carries no field, so each function takes the FieldCtx too.
Row reduction runs one numpy elimination body, `_np_echelon`, with plain
leftmost-nonzero pivoting on the field's op provider (`FieldCtx.np_ops`),
the same provider the GRS layer builds its matrices with; there are no
numerical concerns in exact arithmetic.
Its forward pass gives rank; a back-substitution pass gives the reduced
row echelon form.  The verifier's MDS check reduces a generator once
with both passes, then tests one small square block per column subset,
except in a longer exact check whose square submatrices of the
non-pivot part are all nonsingular: a Schur-complement walk proves that
with no elimination (`verify._minors_nonsingular`).
Exact checks of a few dozen subsets test one block at a time, by its
determinant (`_np_nonsingular`); every other check, a longer exact walk
or a randomized one, eliminates a stack of equally sized blocks at once
in numpy (`_np_batch_nonsingular`).
A randomized check eliminates no block at all when the reduced form has
a Cauchy form, which proves every subset nonsingular (`verify`).
"""

from __future__ import annotations

from .gf import FieldCtx


# --- elimination ---------------------------------------------------------

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


def _np_nonsingular(rows, ops) -> bool:
    """Nonsingularity of a square block given as a list of rows of
    Python ints, which are only read.  A block of at most 3 rows, all an
    exact walk of at most `verify._PER_SUBSET_LIMIT` subsets cuts, goes
    by its determinant, read from `FieldCtx.np_ops()`, tables or not, a
    scalar at a time; a larger one to `_np_batch_nonsingular`.  The
    benchmark's spans and tests wrap this function by name.
    """
    if len(rows) > 3:
        import numpy as np

        return bool(_np_batch_nonsingular(np.array([rows], np.int32), ops)[0])
    mul, sub = ops.mul, ops.sub
    if len(rows) == 3:
        # a (ei - fh) - (b (di - fg) - c (dh - eg))
        (a, b, c), (d, e, f), (g, h, i) = rows
        return bool(sub[mul[a, sub[mul[e, i], mul[f, h]]],
                        sub[mul[b, sub[mul[d, i], mul[f, g]]],
                            mul[c, sub[mul[d, h], mul[e, g]]]]])
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
