"""Scalar references for the tests.

Pure-Python row reduction, products, dual coefficients and generator
matrices written with the scalar `FieldCtx` operations only.  They share
no code with `linalg`'s numpy elimination kernel, `grs`'s difference-
product kernel or `verify`'s coordinate matmuls, and the tests check those
against these.  The square-difference backtracking below shares nothing with the
bitset search in `construct` either: it tests one candidate at a time
against the Euler criterion, not against the character table.
"""

from typing import Optional, Sequence

from grsdual.errors import ShapeMismatchError
from grsdual.gf import FieldCtx, Felt, field_for_order
from grsdual.grs import GrsCode
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


def dual_coefficients(ctx: FieldCtx, points: Sequence[Felt]) -> tuple[Felt, ...]:
    """u_i = 1 / prod_{j != i} (a_i - a_j), one scalar product at a time."""
    out = []
    for i, ai in enumerate(points):
        prod = 1
        for j, aj in enumerate(points):
            if j != i:
                prod = ctx.mul(prod, ctx.sub(ai, aj))
        out.append(ctx.inverse(prod))
    return tuple(out)


def generator_matrix(code: GrsCode) -> MatrixGF:
    """k x N matrix with row i = (v_j a_j^i); extended column last."""
    ctx = code.ctx
    ncols = code.block_length
    entries: list[Felt] = []
    powers = [1] * code.n
    for i in range(code.k):
        row = [ctx.mul(vj, pw) for vj, pw in zip(code.v, powers)]
        if code.extended:
            row.append(1 if i == code.k - 1 else 0)
        entries.extend(row)
        powers = [ctx.mul(pw, aj) for pw, aj in zip(powers, code.a)]
    return MatrixGF(ctx, code.k, ncols, tuple(entries))


def backtrack_square_set(q: int, n: int) -> Optional[tuple[Felt, ...]]:
    """Lex-first n-set of GF(q), q = 1 mod 4, with all pairwise
    differences nonzero squares, or None: per-candidate backtracking from
    the pinned point 0, in index order, with no pruning."""
    ctx = field_for_order(q)
    chi = [ctx.quadratic_character(x) for x in range(q)]
    sub = ctx.sub

    def extend(chain: list[Felt], start: Felt) -> Optional[list[Felt]]:
        if len(chain) == n:
            return chain
        for x in range(start, q):
            if all(chi[sub(x, s)] == 1 for s in chain):
                found = extend(chain + [x], x + 1)
                if found is not None:
                    return found
        return None

    found = extend([0], 1)
    return tuple(found) if found is not None else None
