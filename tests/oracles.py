"""Scalar reference linear algebra for the tests.

Pure-Python row reduction and products written with the scalar `FieldCtx`
operations only.  They share no code with `linalg`'s numpy elimination
kernel or `verify`'s coordinate matmuls, and the tests check those against
these.
"""

from typing import Sequence

from grsdual.errors import ShapeMismatchError
from grsdual.gf import FieldCtx, Felt
from grsdual.linalg import MatrixGF


def echelon(ctx: FieldCtx, rows: list[list[Felt]],
            reduced: bool) -> tuple[list[list[Felt]], list[int]]:
    """Row-reduce rows in place; (rows, pivot columns).

    Pivot rows are scaled to lead with 1; with reduced, each pivot column
    is also cleared above its pivot, giving the reduced row echelon form.
    """
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
