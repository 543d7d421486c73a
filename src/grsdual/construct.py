"""Construction families for MDS self-dual codes.

Every family follows the same recipe: pick evaluation points a, compute
the dual coefficients u, exhibit column multipliers v with lam * u_i =
v_i^2 for a single scalar lam, and return GRS_{n/2}(a, v).  That identity
is exactly what makes the code equal to its own dual, so each result
carries the witnesses (u, lam, and where relevant the subfield vector w
and the generators beta/gamma) as a machine-checkable certificate, and is
re-verified before being returned.

Families
  even-char        any even q, any even n <= q: everything is a square.
  extended         odd q: the length-(q+1) extended code over all of GF(q).
  square-set       q = 1 mod 4: points whose pairwise differences are all
                   nonzero squares, a clique in the Paley graph, found by
                   a bitset clique search with a node budget.
  subfield-points  q = r^2: points inside GF(r), so u lands in GF(r).
  roots-of-unity   q = r^2: points {0} plus the (n-1)-st roots of unity.
  theorem-3-5      q = r^2, r = 3 mod 4: 2t translated copies of GF(r)
                   along beta = gamma^((r+1)/2), giving n = 2tr.

FAMILY_TABLE is the one place that describes the families to build, auto,
sweep and the CLI: a new family is a construct_<name> function plus one
Family entry there.
"""

from __future__ import annotations

import math
from typing import (Any, Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .errors import (ConstructionInfeasible, GrsDualError, NotFoundError,
                     SearchGaveUpError)
from .gf import (FieldCtx, Felt, Neighbourhoods, bounded_power, make_field,
                 split_prime_power)
from .grs import (
    GrsCode,
    check_block_length,
    code_to_json,
    difference_products,
    dual_coefficients,
)
from .verify import check_self_dual

class Certificate(NamedTuple):
    """Witnesses for self-duality: lam * u_i = v_i^2 entrywise.

    Fields not used by a family stay None; the extended family needs no
    witnesses beyond its point set.
    """

    alpha_set: tuple[Felt, ...]
    u: Optional[tuple[Felt, ...]] = None
    lam: Optional[Felt] = None
    w: Optional[tuple[Felt, ...]] = None
    beta: Optional[Felt] = None
    gamma: Optional[Felt] = None


class ConstructionResult(NamedTuple):
    code: GrsCode
    family: str
    certificate: Certificate


class ConstructionRequest(NamedTuple):
    """Parameters for one construction; q may be given instead of (r, t)."""

    family: str
    q: Optional[int] = None
    r: Optional[int] = None
    t: Optional[int] = None
    n: Optional[int] = None


# --- subfield rationality of the nullspace line ---------------------------

def find_subfield_scaling(ctx: FieldCtx, u: Sequence[Felt]) -> tuple[Felt, ...]:
    """Scale u onto the subfield GF(r), r = sqrt(q), if possible.

    Any GF(r)-rational nonzero solution of the power-rows system lies on
    the single line spanned by u, so u/u_1 is in GF(r)^n exactly when one
    exists; that scaled vector is returned.
    """
    if ctx.e % 2:
        raise ConstructionInfeasible("q must be a square to have GF(sqrt(q))")
    r = ctx.p ** (ctx.e // 2)
    if not u or any(x == 0 for x in u):
        raise ValueError("u must be a nonzero-coordinate vector")
    scale = ctx.inverse(u[0])
    w = tuple(ctx.mul(ui, scale) for ui in u)
    for i, wi in enumerate(w):
        if not ctx.in_subfield(wi, r):
            raise ConstructionInfeasible(
                f"coordinate {i} of u/u_1 lies outside GF({r})")
    return w


# --- the generic self-dualizing step --------------------------------------

def _certify(ctx: FieldCtx, family: str, points: Sequence[Felt],
             u: Sequence[Felt], lam: Felt,
             w: Optional[tuple[Felt, ...]] = None,
             **witnesses: Felt) -> ConstructionResult:
    """GRS_{n/2}(points, v) with v_i the square root of w_i, or of
    lam * u_i when w is None, re-checked against its certificate and then
    for self-duality."""
    squares = w if w is not None else [ctx.mul(lam, ui) for ui in u]
    code = GrsCode(ctx, points, [ctx.sqrt(x) for x in squares],
                   len(points) // 2)
    cert = Certificate(alpha_set=code.a, u=u, lam=lam, w=w, **witnesses)
    _check_certificate(ctx, code, cert)
    return _check_selfdual_result(ConstructionResult(code, family, cert))


def _check_certificate(ctx: FieldCtx, code: GrsCode, cert: Certificate) -> None:
    for ui, vi in zip(cert.u, code.v):
        if ctx.mul(cert.lam, ui) != ctx.mul(vi, vi):
            raise GrsDualError("certificate identity lam*u = v^2 failed")
    if cert.w is not None:
        for wi, vi in zip(cert.w, code.v):
            if wi != ctx.mul(vi, vi):
                raise GrsDualError("certificate identity w = v^2 failed")


def _check_selfdual_result(result: ConstructionResult) -> ConstructionResult:
    res = check_self_dual(result.code)
    if res.status != "pass":
        raise GrsDualError(f"constructed code is not self-dual: {res.detail}")
    return result


# --- families --------------------------------------------------------------

def construct_even_char(q: int, n: int) -> ConstructionResult:
    """Self-dual [n, n/2] code over even GF(q) on the first n elements."""
    p, e = split_prime_power(q)
    if p != 2:
        raise ConstructionInfeasible(f"q = {q} is not a power of 2")
    if n % 2:
        raise ConstructionInfeasible(f"length must be even, got {n}")
    if n > q:
        raise ConstructionInfeasible(f"need n <= q, got n = {n} > q = {q}")
    if n < 2:
        raise ConstructionInfeasible("length must be at least 2")
    ctx = make_field(p, e)
    points = tuple(range(n))
    u = dual_coefficients(ctx, points)
    return _certify(ctx, "even-char", points, u, 1)


def construct_extended(q: int) -> ConstructionResult:
    """Extended [q+1, (q+1)/2, (q+3)/2] self-dual code over odd GF(q)."""
    p, e = split_prime_power(q)
    if p == 2:
        raise ConstructionInfeasible("extended family needs odd q")
    ctx = make_field(p, e)
    code = GrsCode(ctx, tuple(range(q)), (1,) * q, (q + 1) // 2, extended=True)
    cert = Certificate(alpha_set=code.a)
    return _check_selfdual_result(ConstructionResult(code, "extended", cert))


# Default cap on search nodes (see search_square_difference_set for what a
# node is), so that every search ends in bounded time.  A node costs a few
# bitwise operations on q-bit ints, one set per base-p digit it translates
# by: microseconds for q in the thousands, up to about 0.8 ms in the
# largest fields below 2^20 (3^12, 97^3, 101^3).  Proving that GF(401)
# has no 10-point set takes 19,355 nodes.
SEARCH_NODE_BUDGET = 3 * 10 ** 4


def search_square_difference_set(q: int, n: int,
                                 node_budget: int = SEARCH_NODE_BUDGET,
                                 ) -> Optional[tuple[Felt, ...]]:
    """Lexicographically first n-subset with all pairwise differences
    nonzero squares, or None when the exhaustive search finds none.

    Needs q = 1 mod 4 so that -1 is a square and the difference condition
    is symmetric: such a set is a clique in the Paley graph on GF(q).  The
    first two elements can be pinned to 0 and 1.  For any two points u, v
    of a valid set, x -> (x - u)/(v - u) multiplies every difference by a
    nonzero square, so it maps the set to a valid one containing 0 and 1;
    and every n-set containing 0 and 1 is lex-smaller than every n-set
    that does not.

    Sets of elements are Python ints used as bitsets, bit y for element y,
    and `Neighbourhoods` gives N(x), the elements whose difference with x
    is a nonzero square.  The candidates for the next point are the
    intersection of the chain's neighbourhoods above its last point.  The
    search always extends the chain by the lowest candidate, so it visits
    chains in index order and the first complete one is the lex-first set.  It cuts a branch when
    the chain plus all its candidates is shorter than n, so it cuts only
    subtrees without a solution.

    A node is one point added to the chain after 0 and 1.  Past
    node_budget nodes the search gives up with
    SearchGaveUpError, which proves nothing either way.

    Each node translates the neighbourhood of its point from the last one
    computed.  Memory holds a q-bit int per chain point and per base-p
    digit, and does not grow with the node count.
    """
    p, e = split_prime_power(q)
    if q % 4 != 1:
        raise ConstructionInfeasible(f"q = {q} is not 1 mod 4")
    if n < 2:
        raise ConstructionInfeasible("need n >= 2")
    if n * n > q:
        # the Paley graph is vertex-transitive, so its clique size times
        # its independence number is at most q, and self-complementary,
        # so the two are equal
        return None
    if n == 2:
        return (0, 1)
    nbhd = Neighbourhoods(make_field(p, e))
    chain = [0, 1]
    # levels[i]: the candidates after the first i + 2 chain points, and
    # their count, kept because bit_count is O(q)
    cand = nbhd(0) & nbhd(1)
    levels = [[cand, cand.bit_count()]]
    nodes = 0
    while levels:
        level = levels[-1]
        cand, count = level
        if len(chain) + count < n:
            levels.pop()
            chain.pop()
            continue
        rest = cand & (cand - 1)  # cand without its lowest bit
        x = (cand ^ rest).bit_length() - 1
        level[0], level[1] = rest, count - 1
        nodes += 1
        if nodes > node_budget:
            raise SearchGaveUpError(node_budget)
        chain.append(x)
        if len(chain) == n:
            return tuple(chain)
        child = rest & nbhd(x)
        levels.append([child, child.bit_count()])
    return None


def construct_square_set(q: int, n: int) -> ConstructionResult:
    """Self-dual [n, n/2] code from a square-difference point set."""
    p, e = split_prime_power(q)
    if n % 2:
        raise ConstructionInfeasible(f"length must be even, got {n}")
    points = search_square_difference_set(q, n)
    if points is None:
        raise NotFoundError(
            f"no square-difference set of size {n} exists in GF({q})")
    ctx = make_field(p, e)
    u = dual_coefficients(ctx, points)
    if any(ctx.quadratic_character(ui) != 1 for ui in u):
        raise GrsDualError("square-set coefficients must all be squares")
    return _certify(ctx, "square-set", points, u, 1)


def construct_subfield_points(r: int, n: int) -> ConstructionResult:
    """Self-dual [n, n/2] code over GF(r^2) on the first n points of GF(r).

    With all points inside GF(r) the dual coefficients stay in GF(r), and
    every element of GF(r)* is a square in the quadratic extension.
    """
    p, d = split_prime_power(r)
    if n % 2:
        raise ConstructionInfeasible(f"length must be even, got {n}")
    if n > r:
        raise ConstructionInfeasible(f"need n <= r, got n = {n} > r = {r}")
    if n < 2:
        raise ConstructionInfeasible("length must be at least 2")
    ctx = make_field(p, 2 * d)
    points = tuple(ctx.subfield_elements(r)[:n])
    u = dual_coefficients(ctx, points)
    for ui in u:
        if not ctx.in_subfield(ui, r):
            raise GrsDualError("dual coefficients left the subfield")
    return _certify(ctx, "subfield-points", points, u, 1, w=u)


def construct_roots_of_unity(q: int, n: int) -> ConstructionResult:
    """Self-dual [n, n/2] code over GF(q), q = r^2 odd, on {0} plus the
    (n-1)-st roots of unity; needs (n-1) | (q-1).

    Raising the power-rows system to the r-th power permutes its rows for
    this point set, so the scaled dual coefficients land in GF(r).
    """
    p, e = split_prime_power(q)
    if p == 2:
        raise ConstructionInfeasible("this family needs odd q")
    if e % 2:
        raise ConstructionInfeasible(f"q = {q} is not a square")
    if n % 2:
        raise ConstructionInfeasible(f"length must be even, got {n}")
    if n < 2:
        raise ConstructionInfeasible("length must be at least 2")
    m = n - 1
    if (q - 1) % m != 0:
        raise ConstructionInfeasible(
            f"n - 1 = {m} does not divide q - 1 = {q - 1}")
    check_block_length(n)  # before the n roots are listed
    ctx = make_field(p, e)
    points = tuple([0] + ctx.roots_of_unity(m))
    u = dual_coefficients(ctx, points)
    return _certify(ctx, "roots-of-unity", points, u, ctx.inverse(u[0]),
                    w=find_subfield_scaling(ctx, u))


def construct_theorem_3_5(r: int, t: int) -> ConstructionResult:
    """Self-dual [2tr, tr] code over GF(r^2) for r = 3 mod 4, t <= (r-1)/2.

    Points are a_l * beta + a_k over the canonical labeling a_1..a_r of
    GF(r) and l = 1..2t, where beta = gamma^((r+1)/2) for the canonical
    primitive element gamma.  beta is a square, beta^(r-1) - 1 equals -2,
    and block products of point differences stay in GF(r) up to square
    factors, which makes every dual coefficient a square.
    """
    p, d = split_prime_power(r)
    if r % 4 != 3:
        raise ConstructionInfeasible(f"r = {r} is not 3 mod 4")
    if not 1 <= t <= (r - 1) // 2:
        raise ConstructionInfeasible(
            f"t = {t} outside [1, {(r - 1) // 2}] for r = {r}")
    check_block_length(2 * t * r)  # before the 2tr points are listed
    ctx = make_field(p, 2 * d)
    gamma = ctx.primitive_element()
    beta = ctx.power(gamma, (r + 1) // 2)
    labels = ctx.subfield_elements(r)
    points = tuple(ctx.add(ctx.mul(labels[bl], beta), labels[kk])
                   for bl in range(2 * t) for kk in range(r))
    if len(set(points)) != 2 * t * r:
        raise GrsDualError("coset points collided")
    _check_block_products(ctx, r, t, beta, labels, points)
    return _certify(ctx, "theorem-3-5", points, dual_coefficients(ctx, points),
                    1, beta=beta, gamma=gamma)


def _check_block_products(ctx: FieldCtx, r: int, t: int, beta: Felt,
                          labels: Sequence[Felt],
                          points: Sequence[Felt]) -> None:
    """Exact identities behind the theorem-3-5 certificate.

    For each point: the product of differences within its own block lies
    in GF(r); the product over any other block l equals
    (a_{l0} - a_l) * beta * (beta^(r-1) - 1); and beta^(r-1) - 1 = -2.
    """
    import numpy as np

    minus_two = ctx.neg(ctx.add(1, 1))
    beta_shift = ctx.sub(ctx.power(beta, r - 1), 1)
    if beta_shift != minus_two:
        raise GrsDualError("beta^(r-1) - 1 != -2")
    ops = ctx.np_ops()
    prods = difference_products(ctx, points, blocks=2 * t)
    own = np.repeat(np.arange(2 * t), r)
    if not np.isin(prods[np.arange(own.size), own], labels).all():
        raise GrsDualError("own-block product left GF(r)")
    lab = np.array(labels[:2 * t], dtype=np.int32)
    expected = ops.mul[ops.sub[lab[own, None], lab[None, :]],
                       ctx.mul(beta, beta_shift)]
    cross = own[:, None] != np.arange(2 * t)[None, :]
    if (prods != expected)[cross].any():
        raise GrsDualError("cross-block product mismatch")


# --- dispatch ---------------------------------------------------------------

class NotEligible(Exception):
    """Internal: parameters do not meet a family's entry conditions."""


def _eligible(ok: bool, reason: str) -> None:
    if not ok:
        raise NotEligible(reason)


def _square_root(q: int) -> Optional[int]:
    root = math.isqrt(q)
    return root if root * root == q else None


def _even_char_args(q: int, n: int) -> tuple[int, ...]:
    _eligible(q % 2 == 0, "needs even q")
    _eligible(2 <= n <= q and n % 2 == 0, "needs even n <= q")
    return q, n


def _extended_args(q: int, n: int) -> tuple[int, ...]:
    _eligible(q % 2 == 1, "needs odd q")
    _eligible(n == q + 1, f"needs n = q + 1 = {q + 1}")
    return (q,)


def _square_set_args(q: int, n: int) -> tuple[int, ...]:
    _eligible(q % 4 == 1, "needs q = 1 mod 4")
    _eligible(n >= 2 and n % 2 == 0, "needs even n >= 2")
    return q, n


def _subfield_points_args(q: int, n: int) -> tuple[int, ...]:
    r = _square_root(q)
    _eligible(r is not None, "needs q = r^2")
    _eligible(2 <= n <= r and n % 2 == 0, "needs even n <= r")
    return r, n


def _roots_of_unity_args(q: int, n: int) -> tuple[int, ...]:
    _eligible(_square_root(q) is not None and q % 2 == 1, "needs odd q = r^2")
    _eligible(n >= 2 and n % 2 == 0 and (q - 1) % (n - 1) == 0,
              "needs even n with (n-1) | (q-1)")
    return q, n


def _theorem_3_5_args(q: int, n: int) -> tuple[int, ...]:
    r = _square_root(q)
    _eligible(r is not None and r % 4 == 3, "needs q = r^2 with r = 3 mod 4")
    _eligible(n > 0 and n % (2 * r) == 0 and n // (2 * r) <= (r - 1) // 2,
              "needs n = 2tr with t <= (r-1)/2")
    return r, n // (2 * r)


def _pick(override, default):
    """User-supplied list wins, even when empty; None means the default."""
    return default if override is None else override


class Family(NamedTuple):
    """Everything build, auto and sweep know about one family.

    params names the request fields construct_<name> takes, in order;
    from_q_n maps auto's (q, n) onto them or raises NotEligible; and
    sweep_grid maps overrides (objects with q, r, t, n lists, None for
    the default) to the keyword arguments of each sweep cell.
    """

    name: str
    params: tuple[str, ...]
    from_q_n: Callable[[int, int], tuple[int, ...]]
    sweep_grid: Callable[[Any], Iterable[dict]]

    def construct(self, *args) -> ConstructionResult:
        # looked up at call time, so a rebound construct_<name> is used
        return globals()["construct_" + self.name.replace("-", "_")](*args)

    def check_given(self, fields, needed: bool = True) -> None:
        """ValueError if fields (q, r, t, n attributes, None when unset)
        sets one this family does not take, or, if needed, lacks one."""
        given = [name for name in ("q", "r", "t", "n")
                 if getattr(fields, name) is not None]
        missing = [name for name in self.params if name not in given]
        unread = [name for name in given if name not in self.params]
        for problem, names in (("needs", missing if needed else []),
                               ("does not take", unread)):
            if names:
                raise ValueError(
                    f"family {self.name!r} {problem} {', '.join(names)}")

    def sweep_requests(self, overrides) -> Iterator[ConstructionRequest]:
        # lazy, so an out-of-range override fails at its first cell
        return (ConstructionRequest(self.name, **cell)
                for cell in self.sweep_grid(overrides))


FAMILY_TABLE = {family.name: family for family in (
    Family("even-char", ("q", "n"), _even_char_args,
           lambda g: (dict(q=q, n=n) for q in _pick(g.q, (4, 8, 16))
                      for n in _pick(g.n, range(2, q + 1, 2)))),
    Family("extended", ("q",), _extended_args,
           lambda g: (dict(q=q)
                      for q in _pick(g.q, (5, 7, 9, 13, 17, 25, 27)))),
    Family("square-set", ("q", "n"), _square_set_args,
           lambda g: ([dict(q=13, n=2), dict(q=29, n=4)]
                      if g.q is None and g.n is None else
                      (dict(q=q, n=n) for q in g.q or () for n in g.n or ()))),
    Family("subfield-points", ("r", "n"), _subfield_points_args,
           lambda g: (dict(r=r, n=n) for r in _pick(g.r, (3, 5, 7, 9))
                      for n in _pick(g.n, range(2, r + 1, 2)))),
    Family("roots-of-unity", ("q", "n"), _roots_of_unity_args,
           lambda g: (dict(q=q, n=n) for q in _pick(g.q, (9, 25, 49, 81))
                      for n in _pick(g.n, (m for m in range(2, q + 1, 2)
                                           if (q - 1) % (m - 1) == 0)))),
    Family("theorem-3-5", ("r", "t"), _theorem_3_5_args,
           lambda g: (dict(r=r, t=t) for r in _pick(g.r, (3, 7))
                      for t in _pick(g.t, range(1, (r - 1) // 2 + 1)))),
)}


def construct_auto(q: Optional[int] = None, n: Optional[int] = None,
                   r: Optional[int] = None, t: Optional[int] = None,
                   ) -> ConstructionResult:
    """First family that succeeds, most specific family first."""
    if q is not None and r is not None and q != r * r:
        raise ValueError(f"r = {r} does not fit q = {q}: auto needs q = r^2")
    if q is None and r is not None:
        q = r * r
    if q is None or (n is None and t is None):
        raise ValueError("auto needs q (or r) and a target length n")
    # the field the user named: q, or r, whose square must fit the limit
    if r is None:
        split_prime_power(q)
    else:
        split_prime_power(r)
        bounded_power(r, 2)
    if t is not None:
        # t is read only as n = 2tr, r the square root of q
        r = _square_root(q)
        if r is None:
            raise ValueError(f"t = {t} needs a square q = r^2, got q = {q}")
        if n is not None and n != 2 * t * r:
            raise ValueError(f"n = {n} does not fit t = {t}: "
                             f"auto needs n = 2tr = {2 * t * r}")
        if t < 1:
            raise ConstructionInfeasible(f"t = {t} must be at least 1")
        n = 2 * t * r
    attempts = []
    # the table lists the most general family first, so try it backwards
    for family in reversed(FAMILY_TABLE.values()):
        try:
            return family.construct(*family.from_q_n(q, n))
        except (NotEligible, NotFoundError) as exc:
            attempts.append(f"{family.name}: {exc}")
    raise ConstructionInfeasible(
        f"no family yields a self-dual code for q={q}, n={n} "
        f"({'; '.join(attempts)})")


def build(request: ConstructionRequest) -> ConstructionResult:
    """Dispatch a request to its family; the CLI front end uses this."""
    if request.family == "auto":
        return construct_auto(q=request.q, n=request.n,
                              r=request.r, t=request.t)
    family = FAMILY_TABLE.get(request.family)
    if family is None:
        raise ValueError(f"unknown family {request.family!r}")
    family.check_given(request)
    return family.construct(*(getattr(request, name)
                              for name in family.params))


def result_to_json(result: ConstructionResult) -> dict:
    ctx = result.code.ctx

    def elem(x: Optional[Felt]):
        return None if x is None else ctx.coeffs(x)

    def vec(xs: Optional[tuple[Felt, ...]]):
        return None if xs is None else ctx.coords(xs)

    data = code_to_json(result.code)
    data["family"] = result.family
    data["certificate"] = {
        "u": vec(result.certificate.u),
        "lambda": elem(result.certificate.lam),
        "w": vec(result.certificate.w),
        "beta": elem(result.certificate.beta),
        "gamma": elem(result.certificate.gamma),
        "alpha_set": vec(result.certificate.alpha_set),
    }
    return data
