"""Independent brute-force checks: self-duality, MDS-ness, dual
identities, and the character-sum count bound.

Every check returns a CheckResult rather than raising, so a report can
collect failures; only precondition violations (over-budget exact checks,
repeated points, even characteristic where odd is required) raise.

Inner products (G*G^T for self-duality and the dual-identity products)
are exact integer matmuls over the GF(p) coordinates of the stored
entries, folded back into GF(q) with the field's own reduction rows, so
they trust nothing about how the matrix was built and share no tables
with the rank checks.
Runs of c consecutive coordinates are packed into one int64, B bits a
slot (Kronecker substitution), so an inner product of n-entry rows takes
ceil(e/c)^2 matmuls rather than e^2, and G*G^T, which is symmetric, only
the run pairs on and above the diagonal.  A slot sums at most n c (p-1)^2
coordinate products, B = bit_length(n c (p-1)^2) holds that, and c is
the largest with (2c - 1) B <= 63: no slot carries into the next and no
sum overflows, so every coordinate sum read back is exact.
A matrix is the int32 (k, N) array of element indices itself, read as
it is: `_products` widens it to int64, and `linalg.rank_rows` eliminates
a copy with the numpy elimination body, on the field's op provider.

The exact MDS check is the definition itself -- every k-subset of
generator columns must be nonsingular -- tested in systematic form.  The
generator is row-reduced once; row operations keep the rank of every
column subset, and in the reduced form G' = [I | A] (up to a column
permutation) a subset is nonsingular iff its j x j block of A is, the
rows whose pivot the subset leaves out against the subset's non-pivot
columns (MacWilliams-Sloane, ch. 11).  So each subset costs one
elimination of j ~ k/2 rows instead of k, and the code is MDS iff every
square submatrix (minor) of A is nonsingular.  Exact mode tests a
short walk a subset at a time, over every field.  A longer exact walk
with the pivots in columns 0..k-1 first walks A's minors by Schur
complements (`_minors_nonsingular`), one complement entry per minor and
so per subset, and passes if every minor is nonsingular.  Otherwise it
walks the subsets in lexicographic order, in numpy windows of many
subsets, and names the first singular one.  Randomized mode first tries
a proof: when the pivots are columns 0..k-1 and A is a generalized
Cauchy matrix (`_cauchy_form`), as it is for every GRS code, every
subset is nonsingular, and the check passes with the report the draws
would give, drawing nothing.  Otherwise it samples the subsets from a
seeded generator (`random.Random.sample`, sorted) and reports confidence
only.  Exact mode never tries the proof: it is the oracle that does not
trust the evaluation-code structure, and its minor walk is linear
algebra on A alone.  `check_mds_matrix` says how the blocks are
eliminated.  The structural mode certifies via the evaluation-code
shape (distinct points, nonzero multipliers).

The character-sum check counts the b with chi(b - a) = 1 for every given
point a as the popcount of the intersection of the points'
neighbourhoods: the nonzero squares translated by a, as q-bit ints, the
bitsets of the square-difference search (`gf.Neighbourhoods`).
It tests that count against the paper's window exactly, in integers
scaled by 2^n.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import combinations, islice
from typing import NamedTuple, Optional, Sequence

from . import linalg
from .errors import BudgetExceededError, ConstructionInfeasible, GrsDualError
from .gf import FieldCtx, Felt, Neighbourhoods
from .grs import GrsCode, dual_coefficients, generator_matrix
from .linalg import rank_rows

EXACT_MDS_BUDGET = 10 ** 6
RANDOM_MDS_SAMPLES = 10 ** 4


class CheckResult(NamedTuple):
    name: str
    status: str          # "pass" | "fail" | "skipped"
    detail: str
    mode: str            # "exact" | "randomized" | "structural"
    seed: Optional[int] = None

    def to_json(self) -> dict:
        obj = {"name": self.name, "status": self.status,
               "mode": self.mode, "detail": self.detail}
        if self.seed is not None:
            obj["seed"] = self.seed
        return obj


class VerificationReport(NamedTuple):
    checks: list[CheckResult]

    @property
    def overall(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {"overall": self.overall,
                "checks": [c.to_json() for c in self.checks]}


# --- inner products -----------------------------------------------------------

def _slots(p: int, e: int, n: int) -> tuple[int, int]:
    """(c, B) for products of rows of n entries over GF(p^e): c
    consecutive GF(p) coordinates share one int64, B bits each.

    A slot of a packed product sums at most c * n coordinate products,
    each at most (p-1)^2, so it fits B = bit_length(n c (p-1)^2) bits;
    c is the largest (up to e) whose 2c - 1 product slots fit 63 bits.
    """
    def bits(c):
        return (n * c * (p - 1) ** 2).bit_length()

    c = 1
    while c < e and (2 * c + 1) * bits(c + 1) <= 63:
        c += 1
    return c, bits(c)


def _products(ctx: FieldCtx, x, y):
    """x * y^T over GF(q) for integer arrays of elements: entry (i, j)
    is the inner product of row i of x with row j of y.

    Each entry is split into its e coordinates over GF(p), and each run of
    c consecutive coordinates is packed into one int64 as a polynomial in
    2^B (Kronecker substitution; c and B from `_slots`).  One int64 matmul
    of two packed runs then carries 2c - 1 coordinate-degree sums, slot i
    read back as (P >> B i) & mask.  No slot can exceed n c (p-1)^2 <
    2^B and the top slot ends below bit (2c - 1) B <= 63, so no slot
    carries into the next and nothing overflows: the result is exact.
    That is ceil(e/c)^2 matmuls where a coordinate at a time needs e^2;
    c = 1 is exactly that.  When x is y, as in G*G^T, the product of run
    pair (t, s) is the transpose of pair (s, t), so only the pairs s <= t
    are multiplied: m (m + 1) / 2 matmuls for m = ceil(e/c).  Each slot
    is reduced mod p, and degrees >= e are folded back with the reduction
    rows `FieldCtx._red`, the rows the scalar `FieldCtx._mul_slow` folds
    with.
    The matmuls are `einsum` calls: numpy has no BLAS for integers, and
    its einsum loop beats its integer `@` on these shapes.
    """
    import numpy as np

    p, e, n = ctx.p, ctx.e, x.shape[1]
    # a coordinate product sums n terms below p^2: n (p-1)^2 < 2^63 holds
    # for every q <= 2^20 and n < 2^23
    if n * (p - 1) ** 2 >= 1 << 63:
        raise GrsDualError(f"{n} columns overflow the int64 inner products")
    same = x is y
    x = np.asarray(x, dtype=np.int64)
    y = x if same else np.asarray(y, dtype=np.int64)
    c, bits = _slots(p, e, n)
    mask = (1 << bits) - 1

    def runs(a):
        """(first coordinate, length, packed int64 array) per run."""
        digits = [a] if e == 1 else [a // p ** t % p for t in range(e)]
        for s in range(0, e, c):
            run = digits[s:s + c]
            packed = run[0]
            for i in range(1, len(run)):
                packed = packed + (run[i] << (bits * i))
            yield s, len(run), packed

    deg = [0] * (2 * e - 1)
    xr = list(runs(x))
    yr = xr if same else list(runs(y))
    for s, ls, xs in xr:
        for t, lt, yt in yr:
            # for x is y, the run pair (t, s) gives the transposed product
            if same and t < s:
                continue
            prod = np.einsum("ik,jk->ij", xs, yt)
            for i in range(ls + lt - 1):
                slot = ((prod >> (bits * i)) & mask) % p
                if same and t > s:
                    slot = slot + slot.T
                deg[s + t + i] = deg[s + t + i] + slot
    for d in range(e, 2 * e - 1):
        top = deg[d] % p
        for i, rv in enumerate(ctx._red[d - e]):
            if rv:
                deg[i] = deg[i] + top * rv
    return sum(deg[t] % p * p ** t for t in range(e))


def _first_nonzero_product(ctx: FieldCtx, a, b):
    """(i, j, value) of the first nonzero <row i of a, row j of b> in
    row-major order, or None; j >= i for a = b, whose product is
    symmetric: (j, i) comes before a nonzero (i, j) below the diagonal."""
    import numpy as np

    value = _products(ctx, a, b)
    hits = np.argwhere(value != 0)
    if hits.size == 0:
        return None
    i, j = (int(x) for x in hits[0])
    return i, j, int(value[i, j])


# --- self-duality -----------------------------------------------------------

def check_self_dual_matrix(ctx: FieldCtx, gen) -> CheckResult:
    """N = 2k, full row rank, and all pairwise row inner products zero."""
    k, ncols = gen.shape
    if ncols != 2 * k:
        return CheckResult("self-dual", "fail",
                           f"block length {ncols} != 2k = {2 * k}", "exact")
    if rank_rows(ctx, gen) != k:
        return CheckResult("self-dual", "fail",
                           f"generator rank below k = {k}", "exact")
    hit = _first_nonzero_product(ctx, gen, gen)
    if hit is not None:
        i, j, acc = hit
        return CheckResult(
            "self-dual", "fail",
            f"rows {i} and {j} have inner product {acc} != 0", "exact")
    return CheckResult("self-dual", "pass",
                       f"[{ncols}, {k}] with G*G^T = 0 and rank k", "exact")


def check_self_dual(code: GrsCode) -> CheckResult:
    return check_self_dual_matrix(code.ctx, generator_matrix(code))


# --- MDS --------------------------------------------------------------------

def check_mds_matrix(ctx: FieldCtx, gen, mode: str = "exact",
                     budget: int = EXACT_MDS_BUDGET,
                     samples: int = RANDOM_MDS_SAMPLES,
                     seed: int = 0) -> CheckResult:
    """Every k-subset of the k x N generator's columns is nonsingular:
    all of them in lexicographic order (exact), or `samples` seeded
    draws (randomized); the first singular subset is reported.

    The generator is brought to reduced row echelon form once.  In
    randomized mode a Cauchy form of that form's non-pivot part
    (`_cauchy_form`, only when the pivots are columns 0..k-1) proves
    every subset nonsingular, and the check returns the pass that the
    draws would give without drawing; the reports stay the same, and
    only a generator with no such form is sampled.  An exact check that
    does not go a subset at a time (below), with the pivots in columns
    0..k-1, first tests every square submatrix of the non-pivot part by
    Schur complements (`_minors_nonsingular`) and passes with the usual
    report if none is singular.  That walk cannot say which subset is
    singular, so on a singular minor, or with other pivots, the subset
    walk runs and names it.  Each subset checked is tested on its block
    of the reduced form.  An exact walk of at most `_PER_SUBSET_LIMIT`
    subsets tests one block per subset (`_np_subset_nonsingular`), cut
    from the form's `tolist()`, made once for the check.  Every other
    check takes its subsets in windows of four chunks, each chunk at
    most `_MDS_CHUNK` block entries, in one int16 array: the next
    subsets of the lexicographic walk (exact), or seeded `Random.sample`
    draws (randomized).  Each window's blocks are eliminated in numpy,
    one pass per block size (`_blocks_nonsingular`), and its first
    singular subset is the first in walk or draw order, so a failure
    stops the check within one window of it.
    Below rank k every block keeps a zero row, so the first subset fails.
    """
    import numpy as np

    if mode not in ("exact", "randomized"):
        raise ValueError(f"unknown mds mode {mode!r}")
    k, ncols = gen.shape
    if k > ncols:
        return CheckResult("mds", "fail",
                           f"dimension {k} exceeds block length {ncols}", mode)
    if mode == "exact":
        total = math.comb(ncols, k)
        if total > budget:
            raise BudgetExceededError(
                f"C({ncols},{k}) = {total} subsets exceed budget {budget}")
        passed, seed = f"all {total} column {k}-subsets nonsingular", None
        walk = combinations(range(ncols), k)
        subsets = functools.partial(islice, walk)
    elif samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    else:
        total = samples
        passed = (f"{samples} sampled column {k}-subsets nonsingular "
                  "(statistical evidence, not a proof)")
        subsets = functools.partial(_draw_subsets, random.Random(seed),
                                    ncols, k)
    ops = ctx.np_ops()
    red = gen.copy()
    pivots = linalg._np_echelon(red, ops, reduced=True)
    # a Cauchy form makes every subset nonsingular, so every draw passes
    if (mode == "randomized" and pivots == list(range(k))
            and _cauchy_form(red[:, k:], ops)):
        return CheckResult("mds", "pass", passed, mode, seed=seed)
    slot = [-1] * ncols
    for row, c in enumerate(pivots):
        slot[c] = row
    if mode == "exact" and total <= _PER_SUBSET_LIMIT:
        rows = red.tolist()
        for cols in walk:
            if not _np_subset_nonsingular(rows, slot, cols, ops):
                return CheckResult("mds", "fail",
                                   f"columns {list(cols)} are singular",
                                   "exact")
        return CheckResult("mds", "pass", passed, "exact")
    # a singular minor sends the walk to the windows, which name the subset
    if (mode == "exact" and pivots == list(range(k))
            and _minors_nonsingular(red[:, k:], ops)):
        return CheckResult("mds", "pass", passed, "exact")
    # row and column indices stay below the length cap, 1280: int16 holds them
    pivot_row = np.array(slot, dtype=np.int16)
    chunk = max(1, _MDS_CHUNK // max(1, k * k))
    window = np.empty((min(4 * chunk, total), k), dtype=np.int16)
    for start in range(0, total, len(window)):
        cols = window[:min(len(window), total - start)]
        for at in range(0, len(cols), chunk):
            cols[at:at + chunk] = list(subsets(min(chunk, len(cols) - at)))
        ok = _blocks_nonsingular(red, pivot_row, cols, ops)
        if not ok.all():
            return CheckResult(
                "mds", "fail",
                f"columns {cols[int(ok.argmin())].tolist()} are singular",
                mode, seed=seed)
    return CheckResult("mds", "pass", passed, mode, seed=seed)


def _cauchy_form(a, ops) -> bool:
    """True if the k x m array a of a reduced generator [I | a] is a
    generalized Cauchy matrix with its column 0 at infinity: a_i0 = c_i
    and a_ij = c_i d_j / (x_i - y_j) for j >= 1, no c or d zero, and the
    x's and y's pairwise distinct and disjoint.  Every square submatrix
    of such a matrix is nonsingular (Cauchy's determinant), so [I | a] is
    MDS.  The reduced generator of every GRS code, extended or not, has
    this form, since a Moebius map of the points can put any column at
    infinity (Roth and Seroussi 1985; Roth and Lempel 1989).

    T_ij = a_i0 / a_ij (j >= 1) must be (x_i - y_j) w_j, w_j = 1 / d_j.
    x moves by a shift and w by a scale, so x_0 = 0 and w_1 = 1: rows 0
    and 1 of T give x_1, w and y, and every other entry of T is checked
    against them.  False proves nothing either way.  For k < 2 or m < 3
    every block is at most 2 x 2, cheap to sample; those are left to the
    draws.
    """
    import numpy as np

    k, m = a.shape
    if k < 2 or m < 3 or not a.all():
        return False
    mul, sub, inv = ops.mul, ops.sub, ops.inv
    t = mul[a[:, :1], inv[a[:, 1:]]]
    x = sub[t[:, 0], t[0, 0]]
    if not x[1]:
        return False
    w = mul[sub[t[1], t[0]], inv[x[1]]]
    if not w.all():
        return False
    y = sub[0, mul[t[0], inv[w]]]
    return bool((t == mul[sub[x[:, None], y], w]).all()
                and np.bincount(np.concatenate([x, y])).max() <= 1)


def _minors_nonsingular(a, ops) -> bool:
    """True iff every square submatrix (minor) of the k x m array a is
    nonsingular, which for a reduced generator [I | a] is every column
    k-subset nonsingular: a subset with j columns of a leaves the j x j
    minor of a on the rows whose pivot it leaves out.  False proves that
    some subset is singular, not which.

    Minors are walked level by level, size j to j + 1.  A nonsingular
    minor M on rows R and columns C, last row r and last column c, keeps
    its Schur complement S on the rows below r:
    S[r', c'] = det(R + r', C + c') / det(M) for c' > c, so a zero entry
    is a singular minor one size up, and one rank-1 update by the entry's
    row and column gives that child's complement.  Each minor has one
    parent (drop its last row and column), so each is tested once, by
    one entry.  A level is a list of parts (r, lc, s): the minors of a
    part share r, lc holds their last columns, and s[p] is minor p's
    complement on rows r + 1.. and all m columns, those up to lc[p]
    unread.  Level 0 is the empty minor, whose complement is a.  Every
    child with last row r' comes from a part with r < r' in one fancy
    index.  Children with no row or column left below and right of their
    last entry are tested and not kept.  A level of more than one minor
    whose children would hold more than `_MDS_CHUNK` entries is halved,
    and the halves are walked depth first.
    """
    import numpy as np

    k, m = a.shape
    mul, sub, inv = ops.mul, ops.sub, ops.inv
    cols = np.arange(m)
    stack = [[(-1, np.array([-1]), a[None])]]
    while stack:
        parts = stack.pop()
        # the children's complement entries: each parent has m - 2 - lc
        # columns with one right of them and, for its every row r' with
        # one below, a child of k - 1 - r' rows
        size = sum(int(np.maximum(m - 2 - lc, 0).sum())
                   * (k - 1 - r) * (k - 2 - r) // 2 * m
                   for r, lc, _ in parts)
        count = sum(len(lc) for _, lc, _ in parts)
        if size > _MDS_CHUNK and count > 1:
            half, first, second = count // 2, [], []
            for r, lc, s in parts:
                cut = min(max(half, 0), len(lc))
                half -= len(lc)
                if cut:
                    first.append((r, lc[:cut], s[:cut]))
                if cut < len(lc):
                    second.append((r, lc[cut:], s[cut:]))
            stack += [second, first]
            continue
        children = [[] for _ in range(k)]
        for r, lc, s in parts:
            right = cols > lc[:, None]
            if ((s == 0) & right[:, None, :]).any():
                return False
            pp, cc = np.nonzero(right & (cols < m - 1))
            if not len(pp):
                continue
            for top in range(r + 1, k - 1):
                i = top - r - 1
                below = s[pp, i + 1:]
                factor = mul[s[pp, i + 1:, cc], inv[s[pp, i, cc]][:, None]]
                children[top].append((cc, sub[below, mul[
                    factor[:, :, None], s[pp, i][:, None, :]]]))
        level = [(top, np.concatenate([lc for lc, _ in group]),
                  np.concatenate([s for _, s in group]))
                 for top, group in enumerate(children) if group]
        if level:
            stack.append(level)
    return True


def _np_subset_nonsingular(red, slot, cols, ops) -> bool:
    """Nonsingularity of the columns cols of a generator, read off its
    reduced row echelon form red, given as a list of rows, where slot[c]
    is the row whose pivot lies in column c (-1 for a non-pivot column);
    ops goes to `linalg._np_nonsingular` as it is.

    The pivot columns among cols are unit vectors; expanding the
    determinant along them leaves the block of red whose rows have no
    pivot in cols and whose columns are cols' non-pivot columns, cut
    from red's rows as lists.  Rows past the rank are zero and belong to
    every block.
    """
    free = [c for c in cols if slot[c] < 0]
    used = {slot[c] for c in cols}
    return linalg._np_nonsingular(
        [[row[c] for c in free] for r, row in enumerate(red) if r not in used],
        ops)


def _draw_subsets(rng: random.Random, n: int, k: int,
                  count: int) -> list[list[int]]:
    """`count` seeded k-subsets of range(n), each sorted, in draw order."""
    return [sorted(rng.sample(range(n), k)) for _ in range(count)]


# the most block entries drawn per chunk (B k^2) or eliminated per call
# (B j^2); a window of draws holds four chunks
_MDS_CHUNK = 1 << 16

# the longest exact walk tested a subset at a time, over every field.
# An MDS generator's minors walk overtakes it at about 35 subsets, tables
# or not (C(8, 3) = 56: 0.20 vs 0.14 ms over GF(31^2), 0.22 vs 0.15 ms
# over GF(2^11)); where an early subset is singular it stops there, and
# wins (0.05 vs 0.22, 0.06 vs 0.25 ms).  One Xeon core, numpy 2.4
_PER_SUBSET_LIMIT = 64


def _blocks_nonsingular(red, pivot_row, cols, ops):
    """`_np_subset_nonsingular` for every row of the (B, k) array cols,
    as a bool array of length B; pivot_row is slot as an int16 array.

    A subset with j non-pivot columns has a j x j block.  The blocks of
    each size j are cut into slices of at most max(1, _MDS_CHUNK // j^2)
    blocks; each slice is gathered with one fancy index into a
    (B_j, j, j) array, rows and columns in the same order as the
    one-subset path, and eliminated together
    (`linalg._np_batch_nonsingular`).  A slice marks the rows its blocks
    leave out in a table of its own, one column past the last row
    catching the non-pivot columns' -1.
    """
    import numpy as np

    nrows = len(red)
    rows = pivot_row[cols]
    free = rows < 0
    sizes = free.sum(1)
    ok = np.ones(len(cols), dtype=bool)
    for j in np.flatnonzero(np.bincount(sizes)).tolist():
        group = np.flatnonzero(sizes == j)
        step = max(1, _MDS_CHUNK // max(1, j * j))
        for at in range(0, len(group), step):
            picked = group[at:at + step]
            b = len(picked)
            used = np.zeros((b, nrows + 1), dtype=bool)
            used[np.arange(b)[:, None], rows[picked]] = True
            block_rows = np.nonzero(~used[:, :nrows])[1].reshape(b, j)
            block_cols = cols[picked][free[picked]].reshape(b, j)
            blocks = red[block_rows[:, :, None], block_cols[:, None, :]]
            ok[picked] = linalg._np_batch_nonsingular(blocks, ops)
    return ok


def check_mds(code: GrsCode, mode: str = "exact",
              budget: int = EXACT_MDS_BUDGET,
              samples: int = RANDOM_MDS_SAMPLES,
              seed: int = 0) -> CheckResult:
    if mode == "structural":
        # the defining data already forces d = N - k + 1
        return CheckResult(
            "mds", "pass",
            f"{code.n} distinct evaluation points and nonzero multipliers; "
            "evaluation codes of this shape meet the Singleton bound",
            "structural")
    return check_mds_matrix(code.ctx, generator_matrix(code), mode=mode,
                            budget=budget, samples=samples, seed=seed)


def resolve_mds_mode(code: GrsCode, budget: int = EXACT_MDS_BUDGET) -> str:
    """'exact' when the subset count fits the budget, else 'randomized'."""
    ncols = code.block_length
    return "exact" if math.comb(ncols, code.k) <= budget else "randomized"


# --- dual identity ------------------------------------------------------------

def check_dual_identity(ctx: FieldCtx, points: Sequence[Felt],
                        k: int) -> CheckResult:
    """Rowspace of GRS_{n-k}(a, u) equals the nullspace of GRS_k(a, 1).

    Checked as mutual orthogonality plus a dimension count, which pins the
    two spaces to each other exactly.
    """
    n = len(points)
    if not 1 <= k <= n - 1:
        return CheckResult("dual-identity", "skipped",
                           f"k = {k} outside 1..n-1 = {n - 1}", "exact")
    u = dual_coefficients(ctx, points)
    ones = (1,) * n
    gk = generator_matrix(GrsCode(ctx, tuple(points), ones, k))
    gd = generator_matrix(GrsCode(ctx, tuple(points), u, n - k))
    hit = _first_nonzero_product(ctx, gd, gk)
    if hit is not None:
        i, j, _ = hit
        return CheckResult(
            "dual-identity", "fail",
            f"row {i} of the dual generator is not orthogonal "
            f"to row {j}", "exact")
    if rank_rows(ctx, gk) != k:
        return CheckResult("dual-identity", "fail",
                           "primal generator not full rank", "exact")
    if rank_rows(ctx, gd) != n - k:
        return CheckResult("dual-identity", "fail",
                           "dual generator not full rank", "exact")
    return CheckResult(
        "dual-identity", "pass",
        f"GRS_{n - k}(a, u) spans the nullspace of GRS_{k}(a, 1)", "exact")


# --- character-sum count bound -------------------------------------------------

def check_character_sum_bound(ctx: FieldCtx,
                              points: Sequence[Felt]) -> CheckResult:
    """Count b with chi(b - a) = 1 for all a in points, and test the
    window |N - q/2^(n-1)| <= ((n-3)/2 + 2^(1-n)) sqrt(q) + (n-1)/2 where
    n = len(points) + 1.

    The comparison is exact, in integers scaled by 2^n: every term but
    sqrt(q) is then an integer, so a positive scaled deviation D is tested
    via D^2 <= c1^2 * q, c1 the scaled coefficient of sqrt(q).  No floating
    point is involved, which can only make the test stricter; the detail's
    floats are quotients of those integers.
    """
    if ctx.p == 2:
        raise ConstructionInfeasible("the character needs odd q")
    if any(type(a) is not int or not 0 <= a < ctx.q for a in points):
        raise ValueError("points must be field elements")
    if len(set(points)) != len(points):
        raise GrsDualError("points must be distinct")
    if not points:
        raise ValueError("need at least one point")
    nbhd = Neighbourhoods(ctx)
    common = -1  # every element
    for a in points:
        common &= nbhd(a)
    count = common.bit_count()
    n = len(points) + 1
    q, half = ctx.q, 2 ** (n - 1)
    # times 2^n: center 2q, radius c1 sqrt(q) + (n-1) 2^(n-1)
    c1 = (n - 3) * half + 2
    dev = abs(2 * half * count - 2 * q) - (n - 1) * half
    ok = dev <= 0 or dev * dev <= c1 * c1 * q
    # each int / int is its exact quotient, correctly rounded
    detail = (f"N = {count}, center q/2^{n - 1} = {q / half:.4f}, "
              f"allowed radius {c1 / (2 * half):.4f}*sqrt({q}) + "
              f"{(n - 1) / 2:.4f}")
    return CheckResult("character-sum-bound", "pass" if ok else "fail",
                       detail, "exact")


# --- report assembly --------------------------------------------------------------

def verify_code(code: GrsCode, mds_mode: str = "auto",
                budget: int = EXACT_MDS_BUDGET,
                samples: int = RANDOM_MDS_SAMPLES, seed: int = 0,
                dual_identity: bool = False,
                stored_generator=None,
                ) -> VerificationReport:
    """Self-dual and MDS checks, with optional extras, as one report.

    mds_mode "auto" checks every column subset when their count fits the
    budget and `samples` seeded draws of them otherwise, eliminated a
    window at a time, unless a Cauchy form proves the generator MDS and
    nothing is drawn (`check_mds_matrix`).

    When a stored generator array is supplied, the self-dual and MDS
    checks run against it (so hand-edited matrices fail honestly) and an
    extra consistency check compares it to the matrix implied by (a,v,k).
    """
    import numpy as np

    checks: list[CheckResult] = []
    ctx = code.ctx
    canonical = generator_matrix(code)
    target = canonical
    if stored_generator is not None:
        target = stored_generator
        if np.array_equal(stored_generator, canonical):
            checks.append(CheckResult(
                "generator-consistency", "pass",
                "stored generator matches the one implied by (a, v, k)",
                "exact"))
        else:
            checks.append(CheckResult(
                "generator-consistency", "fail",
                "stored generator differs from the one implied by (a, v, k)",
                "exact"))
    checks.append(check_self_dual_matrix(ctx, target))
    if mds_mode == "auto":
        mds_mode = resolve_mds_mode(code, budget)
    if mds_mode == "structural":
        checks.append(check_mds(code, mode="structural"))
    else:
        checks.append(check_mds_matrix(ctx, target, mode=mds_mode,
                                       budget=budget, samples=samples,
                                       seed=seed))
    if dual_identity:
        if code.extended:
            checks.append(CheckResult(
                "dual-identity", "skipped",
                "dual identity check applies to plain codes", "exact"))
        else:
            checks.append(check_dual_identity(ctx, code.a, code.k))
    return VerificationReport(checks)
