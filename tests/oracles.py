"""Scalar references for the tests.

Pure-Python row reduction, products, dual coefficients and generator
matrices written with the scalar `FieldCtx` operations only.  They share
no code with `linalg`'s numpy elimination kernel, `grs`'s difference-
product kernel or `verify`'s coordinate matmuls, and the tests check those
against these.  The MDS check below is the definition taken literally:
every k x k column subset of the generator, row-reduced on its own, where
`verify` reduces the generator once and tests small blocks of that form.
The square-difference backtracking below shares nothing with the bitset
search in `construct` either: it tests one candidate at a time against
the Euler criterion, not against the character table.
"""

import math
import random
from itertools import combinations
from typing import Optional, Sequence

from grsdual.errors import BudgetExceededError, ShapeMismatchError
from grsdual.gf import FieldCtx, Felt, field_for_order
from grsdual.grs import GrsCode
from grsdual.linalg import MatrixGF
from grsdual.verify import EXACT_MDS_BUDGET, RANDOM_MDS_SAMPLES, CheckResult


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


def check_mds_matrix(ctx: FieldCtx, gen: MatrixGF, mode: str = "exact",
                     budget: int = EXACT_MDS_BUDGET,
                     samples: int = RANDOM_MDS_SAMPLES,
                     seed: int = 0) -> CheckResult:
    """`verify.check_mds_matrix` as one full k x k elimination per column
    subset: the same subset walk, the same results and details."""
    k, ncols = gen.nrows, gen.ncols
    if k > ncols:
        return CheckResult("mds", "fail",
                           f"dimension {k} exceeds block length {ncols}",
                           "exact" if mode == "exact" else mode)
    rows = gen.rows_list()

    def nonsingular(cols) -> bool:
        sub = [[row[c] for c in cols] for row in rows]
        return len(echelon(ctx, sub, reduced=False)[1]) == k

    if mode == "exact":
        total = math.comb(ncols, k)
        if total > budget:
            raise BudgetExceededError(
                f"C({ncols},{k}) = {total} subsets exceed budget {budget}")
        for cols in combinations(range(ncols), k):
            if not nonsingular(cols):
                return CheckResult(
                    "mds", "fail",
                    f"columns {list(cols)} are singular", "exact")
        return CheckResult("mds", "pass",
                           f"all {total} column {k}-subsets nonsingular",
                           "exact")
    if mode == "randomized":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = random.Random(seed)
        for _ in range(samples):
            cols = tuple(sorted(rng.sample(range(ncols), k)))
            if not nonsingular(cols):
                return CheckResult(
                    "mds", "fail",
                    f"columns {list(cols)} are singular", "randomized",
                    seed=seed)
        return CheckResult(
            "mds", "pass",
            f"{samples} sampled column {k}-subsets nonsingular "
            "(statistical evidence, not a proof)", "randomized", seed=seed)
    raise ValueError(f"unknown mds mode {mode!r}")


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
