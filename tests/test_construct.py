"""Construction families, the subfield-scaling machinery, and the
square-difference search, each checked against independent oracles."""

import random
from itertools import combinations

import pytest

from grsdual import construct as con
from grsdual import verify as ver
from grsdual.errors import (
    BadOrderError,
    BadResidueClassError,
    BadSubfieldError,
    BudgetExceededError,
    EvenCharacteristicError,
    InternalCheckError,
    LengthTooLongError,
    NoSubfieldSolutionError,
    NotFoundError,
    NotPrimeError,
    NotSelfDualizableError,
    OddLengthError,
    ParameterRangeError,
    SearchGaveUpError,
    TooLargeError,
)
from grsdual.gf import (FieldCtx, _square_bitset, field_for_order, make_field,
                        split_prime_power)
from grsdual.grs import dual_coefficients, generator_matrix
import oracles
from oracles import backtrack_square_set


def is_prime_power(q):
    try:
        split_prime_power(q)
    except NotPrimeError:
        return False
    return True


def assert_certified(result):
    """Common contract: self-dual, structurally MDS, certificate valid."""
    code = result.code
    ctx = code.ctx
    assert ver.check_self_dual(code).status == "pass"
    assert code.block_length == 2 * code.k
    cert = result.certificate
    assert cert.alpha_set == code.a
    if cert.u is not None and cert.lam is not None:
        for ui, vi in zip(cert.u, code.v):
            assert ctx.mul(cert.lam, ui) == ctx.mul(vi, vi)
    if cert.w is not None:
        for wi, vi in zip(cert.w, code.v):
            assert wi == ctx.mul(vi, vi)


def test_construction_records_are_immutable():
    result = con.construct_theorem_3_5(3, 1)
    request = con.ConstructionRequest("extended", q=5)
    assert request == con.ConstructionRequest("extended", 5, None, None, None)
    family = con.FAMILY_TABLE["extended"]
    for record, name in ((result, "code"), (result, "family"),
                         (result.certificate, "lam"),
                         (result.certificate, "alpha_set"),
                         (request, "q"), (family, "params"),
                         (family, "construct")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert con.build(request).family == "extended"
    assert_certified(result)


# --- subfield scaling --------------------------------------------------------

def test_find_subfield_scaling_constant_points():
    ctx = make_field(3, 2)
    u = dual_coefficients(ctx, (0, 1, 2))
    assert u == (2, 2, 2)  # frozen: each product of differences is 2
    assert con.find_subfield_scaling(ctx, u) == (1, 1, 1)


def test_find_subfield_scaling_failure():
    ctx = make_field(3, 2)
    u = dual_coefficients(ctx, (0, 1, 3))  # 3 is the basis element x
    # frozen: u = (2x, 2+2x, 1+2x); u/u_1 has second coordinate 1+2x
    assert u == (6, 8, 7)
    assert ctx.mul(u[1], ctx.inverse(u[0])) == 7  # outside GF(3)
    with pytest.raises(NoSubfieldSolutionError):
        con.find_subfield_scaling(ctx, u)


def test_find_subfield_scaling_identity_when_already_rational():
    ctx = make_field(5, 2)
    u = (2, 4, 1)  # constants lie in GF(5)
    w = con.find_subfield_scaling(ctx, u)
    assert w == tuple(ctx.mul(x, ctx.inverse(2)) for x in u)
    assert all(ctx.in_subfield(x, 5) for x in w)


def test_find_subfield_scaling_requires_square_field():
    with pytest.raises(BadSubfieldError):
        con.find_subfield_scaling(make_field(5), (1, 2))
    with pytest.raises(ValueError):
        con.find_subfield_scaling(make_field(3, 2), (0, 1))


def test_has_subfield_solution_examples():
    ctx = make_field(3, 2)
    assert oracles.has_subfield_solution(ctx, (0, 1, 2))
    assert oracles.has_subfield_solution(
        ctx, tuple([0] + ctx.roots_of_unity(4)))
    assert not oracles.has_subfield_solution(ctx, (0, 1, 3))


def test_scaling_agrees_with_row_equivalence_exhaustively_gf9():
    # size 2..5 subsets of GF(9): success of the direct scaling must track
    # the row-equivalence criterion exactly
    ctx = make_field(3, 2)
    for size in range(2, 6):
        for points in combinations(range(9), size):
            u = dual_coefficients(ctx, points)
            try:
                con.find_subfield_scaling(ctx, u)
                scaled = True
            except NoSubfieldSolutionError:
                scaled = False
            assert scaled == oracles.has_subfield_solution(ctx, points)


def test_scaling_agrees_with_row_equivalence_random_gf25():
    ctx = make_field(5, 2)
    rnd = random.Random(20)
    for _ in range(120):
        points = tuple(rnd.sample(range(25), rnd.randint(2, 6)))
        u = dual_coefficients(ctx, points)
        try:
            con.find_subfield_scaling(ctx, u)
            scaled = True
        except NoSubfieldSolutionError:
            scaled = False
        assert scaled == oracles.has_subfield_solution(ctx, points)


# --- square-difference search -------------------------------------------------------

def oracle_lex_first_square_set(q, n):
    """Exhaustive subset scan in lex order, on the Euler criterion rather
    than the character table the search reads."""
    ctx = field_for_order(q)
    for cand in combinations(range(q), n):
        if all(ctx.quadratic_character(ctx.sub(b, a)) == 1
               for a, b in combinations(cand, 2)):
            return cand
    return None


def test_search_square_difference_set_frozen_values():
    assert con.search_square_difference_set(13, 2) == (0, 1)
    assert con.search_square_difference_set(13, 3) == (0, 1, 4)
    assert con.search_square_difference_set(29, 4) == (0, 1, 5, 6)
    # value of the per-candidate search this replaced
    assert con.search_square_difference_set(1048573, 10) == \
        (0, 1, 4, 11, 27, 30, 37, 400, 470, 704)


# extension fields translate by base-p digits, not by rotation
@pytest.mark.parametrize("q,n", [(13, 2), (13, 3), (13, 4), (17, 3),
                                 (25, 3), (29, 4), (5, 3), (5, 4),
                                 (49, 4), (81, 4), (125, 4), (169, 4)])
def test_search_matches_exhaustive_lex_scan(q, n):
    assert con.search_square_difference_set(q, n) == \
        oracle_lex_first_square_set(q, n)


SQUARE_SET_FIELDS = [q for q in range(5, 201, 4) if is_prime_power(q)]


@pytest.mark.parametrize("q", SQUARE_SET_FIELDS)
def test_search_matches_backtracking_oracle(q):
    # every n up to the first with no set; one past that n, no set exists
    # either, since any subset of a square-difference set is one
    n = 2
    while True:
        expected = backtrack_square_set(q, n)
        assert con.search_square_difference_set(q, n) == expected
        if expected is None:
            assert con.search_square_difference_set(q, n + 1) is None
            return
        n += 1


def test_long_coset_families_are_refused_before_listing_points(monkeypatch):
    def listed(*args):
        raise AssertionError("points listed before the length check")

    monkeypatch.setattr(FieldCtx, "roots_of_unity", listed)
    monkeypatch.setattr(FieldCtx, "subfield_elements", listed)
    with pytest.raises(TooLargeError, match="block length 130306"):
        con.construct_roots_of_unity(1042441, 130306)
    with pytest.raises(TooLargeError, match="block length 1037342"):
        con.construct_theorem_3_5(1019, 509)


@pytest.mark.parametrize("q", [13, 125, 5 ** 6, 65537])
def test_search_bitset_is_the_set_of_nonzero_squares(q):
    ctx = field_for_order(q)
    chi = ctx.character_table()
    squares = {ctx.mul(y, y) for y in range(1, q)}
    assert _square_bitset(chi) == sum(1 << s for s in squares)


def test_search_rejects_wrong_residue_class():
    with pytest.raises(BadResidueClassError):
        con.search_square_difference_set(11, 4)
    with pytest.raises(BadResidueClassError):
        con.search_square_difference_set(16, 4)


def test_search_differences_are_squares_post_hoc():
    points = con.search_square_difference_set(29, 4)
    ctx = make_field(29)
    for a, b in combinations(points, 2):
        assert ctx.quadratic_character(ctx.sub(b, a)) == 1


def test_search_node_budget():
    # (0, 1, 5, 6) is two nodes past the pinned 0 and 1
    with pytest.raises(BudgetExceededError):
        con.search_square_difference_set(29, 4, node_budget=1)
    assert con.search_square_difference_set(29, 4, node_budget=2) == \
        (0, 1, 5, 6)
    # (401, 10) has no set; proving it takes more than 1,000 nodes
    with pytest.raises(SearchGaveUpError, match="node budget 1000$"):
        con.search_square_difference_set(401, 10, node_budget=1000)
    assert con.search_square_difference_set(401, 10) is None


# --- families -------------------------------------------------------------------------

def test_construct_even_char():
    result = con.construct_even_char(4, 4)
    assert (result.code.block_length, result.code.k) == (4, 2)
    assert result.family == "even-char"
    assert_certified(result)
    assert ver.check_mds(result.code).status == "pass"
    assert oracles.minimum_distance(result.code) == 3

    result = con.construct_even_char(8, 6)
    assert (result.code.block_length, result.code.k) == (6, 3)
    assert ver.check_mds(result.code).status == "pass"

    with pytest.raises(LengthTooLongError):
        con.construct_even_char(4, 6)
    with pytest.raises(OddLengthError):
        con.construct_even_char(8, 5)
    with pytest.raises(ParameterRangeError):
        con.construct_even_char(5, 4)


def test_construct_extended():
    result = con.construct_extended(5)
    code = result.code
    assert (code.block_length, code.k) == (6, 3)
    assert_certified(result)
    assert ver.check_mds(code).status == "pass"
    assert oracles.minimum_distance(code) == 4

    result9 = con.construct_extended(9)
    assert (result9.code.block_length, result9.code.k) == (10, 5)
    assert ver.check_mds(result9.code).status == "pass"

    with pytest.raises(EvenCharacteristicError):
        con.construct_extended(4)


def test_construct_square_set():
    result = con.construct_square_set(29, 4)
    assert result.certificate.alpha_set == (0, 1, 5, 6)
    assert result.certificate.lam == 1
    assert (result.code.block_length, result.code.k) == (4, 2)
    assert_certified(result)
    assert ver.check_mds(result.code).status == "pass"

    tiny = con.construct_square_set(13, 2)
    assert (tiny.code.block_length, tiny.code.k) == (2, 1)
    assert_certified(tiny)

    with pytest.raises(BadResidueClassError):
        con.construct_square_set(11, 4)
    with pytest.raises(NotFoundError):
        con.construct_square_set(5, 4)  # squares mod 5 are too sparse


def test_construct_square_set_rejects_nonsquare_coefficients(monkeypatch):
    # (0, 1, 2, 3) is no square-difference set in GF(13): its dual
    # coefficients (2, 7, 6, 11) are all nonsquares
    ctx = make_field(13)
    u = dual_coefficients(ctx, (0, 1, 2, 3))
    assert [ctx.quadratic_character(x) for x in u] == [-1, -1, -1, -1]
    monkeypatch.setattr(con, "search_square_difference_set",
                        lambda q, n: (0, 1, 2, 3))
    with pytest.raises(InternalCheckError, match="must all be squares"):
        con.construct_square_set(13, 4)


def test_construct_subfield_points():
    result = con.construct_subfield_points(5, 4)
    assert result.code.ctx.q == 25
    assert result.certificate.w == result.certificate.u
    assert_certified(result)
    assert ver.check_mds(result.code).status == "pass"

    tiny = con.construct_subfield_points(3, 2)
    assert (tiny.code.block_length, tiny.code.k) == (2, 1)
    assert tiny.code.ctx.q == 9

    with pytest.raises(LengthTooLongError):
        con.construct_subfield_points(3, 4)


def test_construct_subfield_points_even_characteristic():
    result = con.construct_subfield_points(4, 4)
    assert result.code.ctx.q == 16
    assert_certified(result)


def test_construct_roots_of_unity():
    result = con.construct_roots_of_unity(25, 4)
    code = result.code
    assert code.ctx.q == 25 and (code.block_length, code.k) == (4, 2)
    # points are 0 plus the cube roots of unity
    ctx = code.ctx
    assert code.a[0] == 0
    assert all(ctx.power(z, 3) == 1 for z in code.a[1:])
    assert_certified(result)
    assert ver.check_mds(code).status == "pass"
    r = 5
    assert result.certificate.w is not None
    assert all(ctx.in_subfield(w, r) for w in result.certificate.w)

    tiny = con.construct_roots_of_unity(9, 2)
    assert (tiny.code.block_length, tiny.code.k) == (2, 1)

    with pytest.raises(BadOrderError):
        con.construct_roots_of_unity(25, 6)  # 5 does not divide 24
    with pytest.raises(BadSubfieldError):
        con.construct_roots_of_unity(13, 4)  # not a square
    with pytest.raises(EvenCharacteristicError):
        con.construct_roots_of_unity(16, 4)


def test_construct_theorem_3_5_smallest_case():
    result = con.construct_theorem_3_5(3, 1)
    code = result.code
    ctx = code.ctx
    assert ctx.q == 9 and (code.block_length, code.k) == (6, 3)
    # frozen: gamma = 1+x (index 4), beta = gamma^2 = 2x (index 6),
    # points are GF(3) and beta + GF(3)
    assert result.certificate.gamma == 4
    assert result.certificate.beta == 6
    assert result.certificate.alpha_set == (0, 1, 2, 6, 7, 8)
    assert_certified(result)
    assert ver.check_mds(code).status == "pass"
    # the shift identity behind the certificate
    beta = result.certificate.beta
    assert ctx.sub(ctx.power(beta, 2), 1) == ctx.neg(2)


def test_construct_theorem_3_5_r7():
    for t in (1, 2, 3):
        result = con.construct_theorem_3_5(7, t)
        code = result.code
        assert code.ctx.q == 49
        assert (code.block_length, code.k) == (14 * t, 7 * t)
        assert ver.check_self_dual(code).status == "pass"
        ctx = code.ctx
        beta = result.certificate.beta
        assert ctx.quadratic_character(beta) == 1  # even power of gamma
        assert ctx.sub(ctx.power(beta, 6), 1) == ctx.neg(2)


@pytest.mark.parametrize("r, t", [(3, 1), (7, 2), (43, 1)])
def test_block_products_catch_a_tampered_point_or_beta(r, t, monkeypatch):
    # GF(9) and GF(49) have dense op tables, GF(1849) exp/log arrays
    real, products = con._check_block_products, con.difference_products

    class Checked(Exception):
        pass

    def tamper(ctx, r, t, beta, labels, points):
        real(ctx, r, t, beta, labels, points)
        # 2 lies in GF(r)*, so 2*beta keeps beta^(r-1) - 1 = -2 and only
        # the cross-block products can notice the change
        with pytest.raises(InternalCheckError, match="cross-block"):
            real(ctx, r, t, ctx.mul(beta, 2), labels, points)
        spare = next(x for x in range(ctx.q) if x not in points)
        for i in (0, r // 2, len(points) - 1):
            moved = list(points)
            moved[i] = spare
            with pytest.raises(InternalCheckError):
                real(ctx, r, t, beta, labels, moved)

        # one own-block product moved out of GF(r) by the primitive
        # element, which lies outside it
        def own_block_off(ctx, points, blocks=1):
            prods = products(ctx, points, blocks)
            prods[0, 0] = ctx.mul(int(prods[0, 0]), ctx.primitive_element())
            return prods

        monkeypatch.setattr(con, "difference_products", own_block_off)
        with pytest.raises(InternalCheckError, match="own-block"):
            real(ctx, r, t, beta, labels, points)
        raise Checked

    monkeypatch.setattr(con, "_check_block_products", tamper)
    with pytest.raises(Checked):
        con.construct_theorem_3_5(r, t)


def test_construct_theorem_3_5_parameter_errors():
    with pytest.raises(BadResidueClassError):
        con.construct_theorem_3_5(5, 1)  # 5 = 1 mod 4
    with pytest.raises(ParameterRangeError):
        con.construct_theorem_3_5(7, 4)  # t must stay below (r-1)/2
    with pytest.raises(ParameterRangeError):
        con.construct_theorem_3_5(3, 0)


# --- dispatch -----------------------------------------------------------------------

def test_auto_prefers_explicit_families():
    assert con.construct_auto(q=9, n=6).family == "theorem-3-5"
    assert con.construct_auto(q=25, n=4).family == "roots-of-unity"
    assert con.construct_auto(q=29, n=4).family == "square-set"
    assert con.construct_auto(q=5, n=6).family == "extended"
    assert con.construct_auto(q=4, n=4).family == "even-char"
    assert con.construct_auto(r=3, t=1).family == "theorem-3-5"


def test_auto_reports_honest_failure():
    with pytest.raises(NotSelfDualizableError):
        con.construct_auto(q=7, n=4)
    # here even the square-set search exhausts: GF(25) has no 6-point set
    with pytest.raises(NotSelfDualizableError):
        con.construct_auto(q=25, n=6)


# (family, build request fields, a (q, n) for which auto picks the family)
DISPATCH_CASES = [
    ("even-char", dict(q=8, n=4), (8, 4)),
    ("extended", dict(q=7), (7, 8)),
    ("square-set", dict(q=13, n=2), (13, 2)),
    ("subfield-points", dict(r=7, n=6), (49, 6)),
    ("roots-of-unity", dict(q=25, n=4), (25, 4)),
    ("theorem-3-5", dict(r=3, t=1), (9, 6)),
]


@pytest.mark.parametrize("family, fields, q_n", DISPATCH_CASES)
def test_build_and_auto_call_the_module_level_constructor(
        monkeypatch, family, fields, q_n):
    # rebinding construct_<name> must reach both dispatchers, which is how
    # the traced benchmark sees family attempts
    calls = []
    monkeypatch.setattr(con, "construct_" + family.replace("-", "_"),
                        lambda *args: calls.append(args) or family)
    assert con.build(con.ConstructionRequest(family, **fields)) == family
    assert con.construct_auto(*q_n) == family
    assert calls == [tuple(fields.values())] * 2


def test_request_dispatch_and_missing_parameters():
    result = con.build(con.ConstructionRequest("theorem-3-5", r=3, t=1))
    assert result.family == "theorem-3-5"
    with pytest.raises(ValueError):
        con.build(con.ConstructionRequest("theorem-3-5", r=3))
    with pytest.raises(ValueError):
        con.build(con.ConstructionRequest("no-such-family", q=5))


def test_family_outputs_equal_their_computed_duals():
    # independent of the Gram-matrix check: GRS_{n-k}(a, u/v), from the
    # scalar dual coefficients, must span the same row space, compared by
    # scalar row reduction (the extended family's dual formula gives the
    # code itself, so it is left out)
    results = [
        con.construct_even_char(16, 8),
        con.construct_square_set(29, 4),
        con.construct_subfield_points(9, 6),
        con.construct_roots_of_unity(81, 6),
        con.construct_theorem_3_5(7, 1),
    ]
    for result in results:
        code = result.code
        dual = oracles.dual_code(code)
        assert dual.k == code.k
        assert oracles.row_equivalent(
            code.ctx, generator_matrix(code).entries.tolist(),
            generator_matrix(dual).entries.tolist())


def test_every_family_roundtrips_through_json_and_verifies():
    import json

    from grsdual.grs import code_from_json, stored_generator_from_json

    results = [
        con.construct_even_char(8, 4),
        con.construct_extended(7),
        con.construct_square_set(13, 2),
        con.construct_subfield_points(7, 6),
        con.construct_roots_of_unity(49, 4),
        con.construct_theorem_3_5(3, 1),
    ]
    for result in results:
        blob = json.loads(json.dumps(con.result_to_json(result)))
        code = code_from_json(blob)
        assert code == result.code
        stored = stored_generator_from_json(blob, code)
        report = ver.verify_code(code, stored_generator=stored,
                                 dual_identity=not code.extended)
        assert report.overall, (result.family, report.to_json())


def test_result_json_shape():
    result = con.construct_theorem_3_5(3, 1)
    blob = con.result_to_json(result)
    assert blob["family"] == "theorem-3-5"
    cert = blob["certificate"]
    assert set(cert) == {"u", "lambda", "w", "beta", "gamma", "alpha_set"}
    assert cert["beta"] == [0, 2]
    assert cert["lambda"] == [1, 0]
    assert cert["w"] is None
    assert len(cert["alpha_set"]) == 6
    ext = con.result_to_json(con.construct_extended(5))
    assert ext["certificate"]["u"] is None
    assert ext["certificate"]["lambda"] is None
    assert len(ext["certificate"]["alpha_set"]) == 5
