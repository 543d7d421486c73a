"""Scalar references for the tests.

Pure-Python row reduction, products, dual coefficients and generator
matrices written with the scalar `FieldCtx` operations only.  They share
no code with `linalg`'s numpy elimination kernel, `grs`'s difference-
product kernel or `verify`'s packed coordinate matmuls, and the tests
check those against these.  `products` is the one numpy reference: the
coordinate product one GF(p) coordinate pair at a time, e^2 matmuls,
which `verify._products` packs into fewer.  The MDS check below is the
definition taken literally: every k x k column subset of the generator,
row-reduced on its own, where `verify` reduces the generator once and
tests small blocks of that form.
Three oracles for the paper's claims are built on `echelon` and
`products` alone: the nullspace of the power-rows system (a line, on
which the dual coefficients lie), the row-equivalence test for a
GF(sqrt(q)) solution of that system, and the minimum distance by
enumeration of every codeword.
The square-difference backtracking below shares nothing with the bitset
search in `construct` either: it tests one candidate at a time against
the Euler criterion, not against the character table.
`character_sum_window` is the paper's window for the character-sum count
in Fractions, against which `verify` tests it in scaled integers.
"""

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

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


def nullspace(ctx: FieldCtx, rows: list[list[Felt]]) -> list[tuple[Felt, ...]]:
    """Basis of the right nullspace of rows, one vector per free column in
    column order, each scaled so its first nonzero coordinate is 1."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = echelon(ctx, [list(r) for r in rows], reduced=True)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = ctx.neg(row[fc])
        scale = ctx.inverse(next(x for x in vec if x))
        basis.append(tuple(ctx.mul(scale, x) for x in vec))
    return basis


def row_equivalent(ctx: FieldCtx, a: list[list[Felt]],
                   b: list[list[Felt]]) -> bool:
    """True iff two matrices of one shape, as rows, have one row space:
    their reduced row echelon forms, which are canonical, are equal."""
    return (echelon(ctx, [list(r) for r in a], reduced=True)[0]
            == echelon(ctx, [list(r) for r in b], reduced=True)[0])


def power_rows(ctx: FieldCtx, points: Sequence[Felt]) -> list[list[Felt]]:
    """The (n-1) x n system whose row i holds the i-th powers of the n
    points; its nullspace is the line of the dual coefficient vectors."""
    rows, cur = [], [1] * len(points)
    for _ in range(len(points) - 1):
        rows.append(cur)
        cur = [ctx.mul(c, a) for c, a in zip(cur, points)]
    return rows


def has_subfield_solution(ctx: FieldCtx, points: Sequence[Felt]) -> bool:
    """Whether the power-rows system of the points has a nonzero solution
    over GF(r), r = sqrt(q): exactly when raising every entry to the r-th
    power keeps its row space."""
    assert ctx.e % 2 == 0, "q must be a square to have GF(sqrt(q))"
    r = ctx.p ** (ctx.e // 2)
    rows = power_rows(ctx, points)
    return row_equivalent(ctx, rows,
                          [[ctx.power(x, r) for x in row] for row in rows])


# messages whose codewords are formed at once by `minimum_distance`
_DISTANCE_CHUNK = 1 << 12


def minimum_distance(code: GrsCode) -> int:
    """Minimum distance by enumerating all q^k codewords: each nonzero
    message, as k base-q digits, times the scalar generator, by
    `products`, a chunk of messages at a time."""
    q, k = code.ctx.q, code.k
    gen_t = np.array(generator_matrix(code).entries, dtype=np.int64).T
    best = code.block_length
    for start in range(1, q ** k, _DISTANCE_CHUNK):  # 0 is the zero word
        idx = np.arange(start, min(start + _DISTANCE_CHUNK, q ** k),
                        dtype=np.int64)
        messages = np.stack([idx // q ** i % q for i in range(k)], axis=1)
        words = products(code.ctx, messages, gen_t)
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


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
    rows = gen.entries.tolist()

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


def products(ctx: FieldCtx, x, y):
    """x * y^T over GF(q) for int64 arrays of elements, one coordinate
    pair at a time: the e^2 int64 matmuls of the coordinates, each reduced
    mod p, and degrees >= e folded back with the reduction rows."""
    p, e = ctx.p, ctx.e
    cx = [x // p ** t % p for t in range(e)]
    cy = [y // p ** t % p for t in range(e)]
    deg = [0] * (2 * e - 1)
    for s, xs in enumerate(cx):
        for t, yt in enumerate(cy):
            deg[s + t] = deg[s + t] + (xs @ yt.T) % p
    for d in range(e, 2 * e - 1):
        c = deg[d] % p
        for i, rv in enumerate(ctx._red[d - e]):
            if rv:
                deg[i] = deg[i] + c * rv
    return sum(deg[t] % p * p ** t for t in range(e))


def transpose(m: MatrixGF) -> MatrixGF:
    rows = m.entries.tolist()
    return MatrixGF(m.ctx, m.ncols, m.nrows,
                    tuple(rows[i][j]
                          for j in range(m.ncols) for i in range(m.nrows)))


def matmul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.ctx is not b.ctx or a.ncols != b.nrows:
        raise ShapeMismatchError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    ctx = a.ctx
    arows, brows = a.entries.tolist(), b.entries.tolist()
    out = []
    for arow in arows:
        for j in range(b.ncols):
            acc = 0
            for t, av in enumerate(arow):
                if av:
                    acc = ctx.add(acc, ctx.mul(av, brows[t][j]))
            out.append(acc)
    return MatrixGF(ctx, a.nrows, b.ncols, tuple(out))


def mat_vec(m: MatrixGF, vec: Sequence[Felt]) -> list[Felt]:
    if len(vec) != m.ncols:
        raise ShapeMismatchError("vector length does not match columns")
    ctx = m.ctx
    out = []
    for row in m.entries.tolist():
        acc = 0
        for mv, xv in zip(row, vec):
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


def dual_code(code: GrsCode) -> GrsCode:
    """GRS_{n-k}(a, u/v), the dual of the plain code GRS_k(a, v), with u
    from `dual_coefficients` above."""
    ctx = code.ctx
    u = dual_coefficients(ctx, code.a)
    return GrsCode(ctx, code.a, [ctx.mul(ui, ctx.inverse(vi))
                                 for ui, vi in zip(u, code.v)],
                   code.n - code.k)


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


def character_sum_window(q: int, n: int, count: int) -> tuple[bool, str]:
    """(pass, detail) for a count N of the b with chi(b - a) = 1 over n - 1
    points of GF(q): is |N - q/2^(n-1)| <= ((n-3)/2 + 2^(1-n)) sqrt(q) +
    (n-1)/2, decided in Fractions by squaring a positive deviation."""
    center = Fraction(q, 2 ** (n - 1))
    c1 = Fraction(n - 3, 2) + Fraction(1, 2 ** (n - 1))
    c2 = Fraction(n - 1, 2)
    dev = abs(Fraction(count) - center) - c2
    ok = dev <= 0 or dev * dev <= c1 * c1 * q
    detail = (f"N = {count}, center q/2^{n - 1} = {float(center):.4f}, "
              f"allowed radius {float(c1):.4f}*sqrt({q}) + {float(c2):.4f}")
    return ok, detail
