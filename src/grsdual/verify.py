"""Independent brute-force checks: self-duality, MDS-ness, dual
identities, and the character-sum count bound.

Every check returns a CheckResult rather than raising, so a report can
collect failures; only precondition violations (over-budget exact checks,
repeated points, even characteristic where odd is required) raise.

Inner products (G*G^T for self-duality, the dual-identity products, and
the codewords the minimum-distance oracle enumerates) are exact integer
matmuls over the GF(p) coordinates of the stored entries, folded back
into GF(q) with the field's own reduction rows, so they trust nothing
about how the matrix was built and share no tables with the rank checks.
Rank runs through `linalg`, whose one numpy elimination body works on
the field's op provider for every q.

The exact MDS check is the definition itself -- every k-subset of
generator columns must be nonsingular -- tested in systematic form.  The
generator is row-reduced once; row operations keep the rank of every
column subset, and in the reduced form G' = [I | A] (up to a column
permutation) a subset is nonsingular iff its j x j block of A is, the
rows whose pivot the subset leaves out against the subset's non-pivot
columns (MacWilliams-Sloane, ch. 11).  So each subset costs one
elimination of j ~ k/2 rows instead of k.  The randomized mode samples
subsets from a seeded generator and reports confidence only; the
structural mode certifies via the evaluation-code shape (distinct points,
nonzero multipliers).  Minimum distance by full codeword enumeration is
provided as a second, independent oracle for tiny codes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from . import linalg
from .errors import (
    BudgetExceededError,
    DuplicatePointsError,
    EvenCharacteristicError,
    TooLargeError,
)
from .gf import FieldCtx, Felt
from .grs import GrsCode, dual_coefficients, generator_matrix
from .linalg import MatrixGF, rank_rows

EXACT_MDS_BUDGET = 10 ** 6
RANDOM_MDS_SAMPLES = 10 ** 4


@dataclass(frozen=True)
class CheckResult:
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


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def overall(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {"overall": self.overall,
                "checks": [c.to_json() for c in self.checks]}


# --- inner products -----------------------------------------------------------

def _elements(m: MatrixGF):
    import numpy as np
    return np.array(m.entries, dtype=np.int64).reshape(m.nrows, m.ncols)


def _products(ctx: FieldCtx, x, y):
    """x * y^T over GF(q) for int64 arrays of elements: entry (i, j) is
    the inner product of row i of x with row j of y.

    Each entry is split into its e coordinates over GF(p); the e^2
    coordinate products are int64 matmuls reduced mod p, and degrees >= e
    are folded back with the reduction rows, as `FieldCtx._mul_slow` does.
    """
    p, e, n = ctx.p, ctx.e, x.shape[1]
    # a coordinate product sums n terms below p^2: n (p-1)^2 < 2^63 holds
    # for every q <= 2^20 and n < 2^23
    if n * (p - 1) ** 2 >= 1 << 63:
        raise TooLargeError(f"{n} columns overflow the int64 inner products")
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


def _first_nonzero_product(ctx: FieldCtx, a: MatrixGF, b: MatrixGF,
                           upper: bool = False):
    """(i, j, value) of the first nonzero <row i of a, row j of b> in
    row-major order, or None; upper scans only j >= i (for a = b)."""
    import numpy as np

    value = _products(ctx, _elements(a), _elements(b))
    nonzero = np.triu(value != 0) if upper else value != 0
    hits = np.argwhere(nonzero)
    if hits.size == 0:
        return None
    i, j = (int(x) for x in hits[0])
    return i, j, int(value[i, j])


# --- self-duality -----------------------------------------------------------

def check_self_dual_matrix(ctx: FieldCtx, gen: MatrixGF) -> CheckResult:
    """N = 2k, full row rank, and all pairwise row inner products zero."""
    k, ncols = gen.nrows, gen.ncols
    if ncols != 2 * k:
        return CheckResult("self-dual", "fail",
                           f"block length {ncols} != 2k = {2 * k}", "exact")
    if rank_rows(ctx, gen.rows_list()) != k:
        return CheckResult("self-dual", "fail",
                           f"generator rank below k = {k}", "exact")
    hit = _first_nonzero_product(ctx, gen, gen, upper=True)
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

def check_mds_matrix(ctx: FieldCtx, gen: MatrixGF, mode: str = "exact",
                     budget: int = EXACT_MDS_BUDGET,
                     samples: int = RANDOM_MDS_SAMPLES,
                     seed: int = 0) -> CheckResult:
    """Every k-subset of the k x N generator's columns is nonsingular:
    all of them in lexicographic order (exact), or `samples` seeded
    draws (randomized); the first singular subset is reported.

    The generator is brought to reduced row echelon form once, and each
    subset is tested on its block of that form (`_np_subset_nonsingular`).
    Below rank k every block keeps a zero row, so the first subset fails.
    """
    k, ncols = gen.nrows, gen.ncols
    if k > ncols:
        return CheckResult("mds", "fail",
                           f"dimension {k} exceeds block length {ncols}",
                           "exact" if mode == "exact" else mode)
    if mode == "exact":
        total = math.comb(ncols, k)
        if total > budget:
            raise BudgetExceededError(
                f"C({ncols},{k}) = {total} subsets exceed budget {budget}")
        subsets = combinations(range(ncols), k)
    elif mode == "randomized":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = random.Random(seed)
        subsets = (tuple(sorted(rng.sample(range(ncols), k)))
                   for _ in range(samples))
    else:
        raise ValueError(f"unknown mds mode {mode!r}")
    ops = ctx.np_ops()
    red = _elements(gen).astype("int32")
    slot = [-1] * ncols
    for row, c in enumerate(linalg._np_echelon(red, ops, reduced=True)):
        slot[c] = row
    for cols in subsets:
        if not _np_subset_nonsingular(red, slot, cols, ops):
            return CheckResult("mds", "fail",
                               f"columns {list(cols)} are singular", mode,
                               seed=None if mode == "exact" else seed)
    if mode == "exact":
        return CheckResult("mds", "pass",
                           f"all {total} column {k}-subsets nonsingular",
                           "exact")
    return CheckResult(
        "mds", "pass",
        f"{samples} sampled column {k}-subsets nonsingular "
        "(statistical evidence, not a proof)", "randomized", seed=seed)


def _np_subset_nonsingular(red, slot, cols, ops) -> bool:
    """Nonsingularity of the columns cols of a generator, read off its
    reduced row echelon form red, where slot[c] is the row whose pivot
    lies in column c (-1 for a non-pivot column).

    The pivot columns among cols are unit vectors; expanding the
    determinant along them leaves the block of red whose rows have no
    pivot in cols and whose columns are cols' non-pivot columns.  Rows
    past the rank are zero and belong to every block.
    """
    free = [c for c in cols if slot[c] < 0]
    used = {slot[c] for c in cols}
    rows = [r for r in range(len(red)) if r not in used]
    return linalg._np_nonsingular(red.take(rows, 0).take(free, 1), ops)


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
    if rank_rows(ctx, gk.rows_list()) != k:
        return CheckResult("dual-identity", "fail",
                           "primal generator not full rank", "exact")
    if rank_rows(ctx, gd.rows_list()) != n - k:
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

    The comparison is exact: both sides are rational except for sqrt(q),
    so a positive deviation D is tested via D^2 <= c1^2 * q in Fractions.
    No floating point is involved, which can only make the test stricter.
    """
    if ctx.p == 2:
        raise EvenCharacteristicError("the character needs odd q")
    if len(set(points)) != len(points):
        raise DuplicatePointsError("points must be distinct")
    if not points:
        raise ValueError("need at least one point")
    chi = ctx.character_table()
    sub = ctx.sub
    count = 0
    for b in range(ctx.q):
        if all(chi[sub(b, a)] == 1 for a in points):
            count += 1
    n = len(points) + 1
    q = ctx.q
    center = Fraction(q, 2 ** (n - 1))
    c1 = Fraction(n - 3, 2) + Fraction(1, 2 ** (n - 1))
    c2 = Fraction(n - 1, 2)
    dev = abs(Fraction(count) - center) - c2
    ok = dev <= 0 or dev * dev <= c1 * c1 * q
    detail = (f"N = {count}, center q/2^{n - 1} = {float(center):.4f}, "
              f"allowed radius {float(c1):.4f}*sqrt({q}) + {float(c2):.4f}")
    return CheckResult("character-sum-bound", "pass" if ok else "fail",
                       detail, "exact")


# --- minimum distance oracle ----------------------------------------------------

# messages per chunk times block length: bounds the chunk's int64 arrays
_DISTANCE_CHUNK = 1 << 16


def minimum_distance(code: GrsCode, budget: int = EXACT_MDS_BUDGET) -> int:
    """Exact minimum distance by enumerating all q^k codewords, a chunk of
    messages at a time, as exact products with the generator."""
    import numpy as np

    ctx = code.ctx
    q, k = ctx.q, code.k
    total = q ** k
    if total > budget:
        raise BudgetExceededError(
            f"{total} codewords exceed budget {budget}")
    gen = generator_matrix(code)
    g = _elements(gen)
    best = gen.ncols
    chunk = max(1, _DISTANCE_CHUNK // gen.ncols)
    for start in range(1, total, chunk):  # message 0 is the zero word
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        messages = np.stack([idx // q ** i % q for i in range(k)], axis=1)
        words = _products(ctx, messages, g.T)
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


# --- report assembly --------------------------------------------------------------

def verify_code(code: GrsCode, mds_mode: str = "auto",
                budget: int = EXACT_MDS_BUDGET,
                samples: int = RANDOM_MDS_SAMPLES, seed: int = 0,
                dual_identity: bool = False,
                stored_generator: Optional[MatrixGF] = None,
                ) -> VerificationReport:
    """Self-dual and MDS checks, with optional extras, as one report.

    When a stored generator matrix is supplied, the self-dual and MDS
    checks run against it (so hand-edited matrices fail honestly) and an
    extra consistency check compares it to the matrix implied by (a,v,k).
    """
    checks: list[CheckResult] = []
    ctx = code.ctx
    canonical = generator_matrix(code)
    target = canonical
    if stored_generator is not None:
        target = stored_generator
        if stored_generator.entries == canonical.entries:
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
