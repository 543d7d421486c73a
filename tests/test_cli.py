"""Front-end contract: flags, JSON artifacts, exit codes.

Exit codes: 0 pass, 1 usage/parse error, 2 honest construction failure or
a check that gave up at its budget, 3 verification failure.
"""

import argparse
import copy
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import factorint

import grsdual
from grsdual import construct, gf, grs, verify
from grsdual.cli import _build_parser, _cell_label, json_text, main
from grsdual.errors import SearchGaveUpError
from grsdual.grs import MAX_BLOCK_LENGTH

import oracles


def run_cli(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_theorem_3_5(capsys):
    rc, out, _ = run_cli(["construct", "--family", "theorem-3-5",
                          "--r", "3", "--t", "1"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["family"] == "theorem-3-5"
    assert (obj["n"], obj["k"]) == (6, 3)
    assert obj["field"] == {"p": 3, "e": 2, "modulus": [1, 0, 1]}
    assert len(obj["generator"]["entries"]) == 3 * 6


def test_construct_extended_q5(capsys):
    rc, out, _ = run_cli(["construct", "--family", "extended", "--q", "5"],
                         capsys)
    assert rc == 0
    obj = json.loads(out)
    assert (obj["n"], obj["k"], obj["extended"]) == (5, 3, True)


def test_construct_accepts_p_and_e(capsys):
    rc, out, _ = run_cli(["construct", "--family", "extended",
                          "--p", "3", "--e", "2"], capsys)
    assert rc == 0
    assert json.loads(out)["field"]["p"] == 3


def test_construct_infeasible_exits_2(capsys):
    rc, _, err = run_cli(["construct", "--family", "square-set",
                          "--q", "11", "--n", "4"], capsys)
    assert rc == 2
    assert "1 mod 4" in err


def test_construct_usage_errors_exit_1(capsys):
    rc, _, err = run_cli(["construct", "--family", "no-such"], capsys)
    assert rc == 1
    rc, _, err = run_cli(["construct", "--family", "theorem-3-5"], capsys)
    assert rc == 1 and "needs" in err
    rc, _, err = run_cli(["construct", "--family", "extended", "--q", "6"],
                         capsys)
    assert rc == 1  # 6 is not a prime power


@pytest.mark.parametrize("argv, message", [
    # auto without a length or without a field is a usage error, not an
    # infeasible construction
    (["--family", "auto", "--q", "9"], "auto needs q (or r) and a target"),
    (["--family", "auto", "--n", "6"], "auto needs q (or r) and a target"),
    # a flag the named family does not read is refused, not ignored
    (["--family", "even-char", "--q", "8", "--r", "3", "--n", "4"],
     "family 'even-char' does not take r"),
    (["--family", "subfield-points", "--r", "5", "--n", "4", "--t", "1"],
     "family 'subfield-points' does not take t"),
    # auto's r must be the square root of its q
    (["--family", "auto", "--q", "9", "--n", "6", "--r", "5"],
     "r = 5 does not fit q = 9"),
    # auto reads t as n = 2tr; it built the [6, 3] code and dropped t
    (["--family", "auto", "--q", "9", "--n", "6", "--t", "2"],
     "n = 6 does not fit t = 2: auto needs n = 2tr = 12"),
    (["--family", "auto", "--q", "27", "--t", "1"],
     "t = 1 needs a square q = r^2, got q = 27"),
])
def test_construct_rejects_missing_unread_and_conflicting_flags(
        argv, message, capsys):
    rc, out, err = run_cli(["construct", *argv], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    # each exited 1 with "auto needs q (or r) and a target length n"
    ["--q", "9", "--r", "3", "--t", "1"],
    ["--q", "9", "--t", "1"],
])
def test_auto_takes_t_next_to_q(argv, capsys):
    rc, out, _ = run_cli(["construct", "--family", "auto", *argv], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert (obj["family"], obj["n"], obj["k"]) == ("theorem-3-5", 6, 3)


@pytest.mark.parametrize("argv, message", [
    # each exited 2 with "no family yields", leaked an isqrt() message, or
    # named a value the user never typed, depending on the eligible family
    (["auto", "--q", "15", "--n", "4"], "15 is not a prime power"),
    (["auto", "--q", "1048579", "--n", "4"],
     "1048579 exceeds the limit 1048576"),
    (["auto", "--q", "6", "--n", "2"], "6 is not a prime power"),
    (["auto", "--q", "-3", "--n", "4"], "-3 is not a prime power"),
    (["auto", "--r", "0", "--n", "4"], "0 is not a prime power"),
    (["auto", "--q", str(1023 ** 2), "--n", "2046"],
     "1046529 is not a prime power"),
    (["square-set", "--q", "15", "--n", "3"], "15 is not a prime power"),
])
def test_construct_checks_its_field_before_any_family(argv, message, capsys):
    rc, out, err = run_cli(["construct", "--family", *argv], capsys)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    # r is a valid prime power, but GF(r^2) is past the limit: the message
    # names r^2 as the user typed r, and not the product (1031^2 =
    # 1062961) the user never typed; subfield-points already did
    (["auto", "--r", "1031", "--n", "4"], "1031^2 exceeds the limit 1048576"),
    (["subfield-points", "--r", "1031", "--n", "4"],
     "1031^2 exceeds the limit 1048576"),
    (["auto", "--r", "2048", "--n", "4"], "2048^2 exceeds the limit 1048576"),
])
def test_auto_names_r_squared_past_the_field_limit(argv, message, capsys):
    rc, out, err = run_cli(["construct", "--family", *argv], capsys)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_theorem_3_5_above_2_16_round_trip_is_fast(tmp_path, capsys):
    # [526, 263] over GF(263^2) = GF(69169), above 2^16: scalar and bulk
    # arithmetic run on the exp/log arrays
    out_file = tmp_path / "code.json"
    start = time.perf_counter()
    rc, _, err = run_cli(["construct", "--family", "theorem-3-5", "--r", "263",
                          "--t", "1", "-o", str(out_file)], capsys)
    assert rc == 0, err
    rc, out, err = run_cli(["verify", str(out_file), "--mds-mode",
                            "structural", "--dual-identity"], capsys)
    elapsed = time.perf_counter() - start
    assert rc == 0, err
    assert json.loads(out)["overall"] is True
    assert elapsed < 10, elapsed


def test_construct_output_is_deterministic(capsys):
    args = ["construct", "--family", "roots-of-unity", "--q", "25", "--n", "4"]
    rc1, out1, _ = run_cli(args, capsys)
    rc2, out2, _ = run_cli(args, capsys)
    assert rc1 == rc2 == 0 and out1 == out2


@pytest.mark.parametrize("args", [
    ["construct", "--family", "theorem-3-5", "--r", "3", "--t", "1"],
    ["construct", "--family", "extended", "--q", "9"],
    ["construct", "--family", "even-char", "--q", "8", "--n", "6"],
    ["construct", "--family", "subfield-points", "--r", "5", "--n", "4"],
    ["construct", "--family", "square-set", "--q", "29", "--n", "4"],
    ["construct", "--family", "auto", "--q", "9", "--n", "6"],
])
def test_construct_verify_roundtrip(args, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    rc, _, _ = run_cli(args + ["-o", str(out_file)], capsys)
    assert rc == 0
    rc, out, _ = run_cli(["verify", str(out_file), "--dual-identity"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert {c["name"] for c in report["checks"]} >= {"self-dual", "mds"}


def test_verify_corrupted_generator_exits_3(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    rc, _, _ = run_cli(["construct", "--family", "theorem-3-5",
                        "--r", "3", "--t", "1", "-o", str(out_file)], capsys)
    assert rc == 0
    obj = json.loads(out_file.read_text())
    entry = obj["generator"]["entries"][0]
    entry[0] = (entry[0] + 1) % 3
    out_file.write_text(json.dumps(obj))
    rc, out, _ = run_cli(["verify", str(out_file)], capsys)
    assert rc == 3
    report = json.loads(out)
    assert report["overall"] is False
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["self-dual"] == "fail"
    assert statuses["generator-consistency"] == "fail"


def test_dual_identity_names_a_row_that_is_not_orthogonal(
        tmp_path, monkeypatch, capsys):
    # u_0 doubled: the dual generator's row 0, u, has inner product u_0
    # with the primal's row 0 of ones
    def doubled(ctx, points):
        u = grs.dual_coefficients(ctx, points)
        return (ctx.add(u[0], u[0]), *u[1:])

    monkeypatch.setattr(verify, "dual_coefficients", doubled)
    fail = verify.CheckResult(
        "dual-identity", "fail",
        "row 0 of the dual generator is not orthogonal to row 0", "exact")
    assert verify.check_dual_identity(gf.make_field(5), (0, 1, 2), 1) == fail
    out_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "subfield-points", "--r", "5",
             "--n", "4", "-o", str(out_file)], capsys)
    rc, out, _ = run_cli(["verify", str(out_file), "--dual-identity"], capsys)
    assert rc == 3
    assert json.loads(out)["checks"][-1] == fail.to_json()


def test_verify_without_stored_generator(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "subfield-points", "--r", "5",
             "--n", "4", "-o", str(out_file)], capsys)
    obj = json.loads(out_file.read_text())
    del obj["generator"]
    out_file.write_text(json.dumps(obj))
    rc, out, _ = run_cli(["verify", str(out_file)], capsys)
    assert rc == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["self-dual", "mds"]  # no consistency check possible


def test_verify_reads_the_code_json_once(tmp_path, monkeypatch, capsys):
    # code_from_json checks every field, the generator's included, and
    # the stored generator is read from the code it returns
    out_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "9",
             "-o", str(out_file)], capsys)
    calls = []
    for name in ("check_code_json", "field_from_json"):
        def counted(obj, name=name, original=getattr(grs, name)):
            calls.append(name)
            return original(obj)
        monkeypatch.setattr(grs, name, counted)
    rc, out, _ = run_cli(["verify", str(out_file)], capsys)
    assert rc == 0
    assert calls == ["check_code_json", "field_from_json"]
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "generator-consistency" in names


def test_construct_odd_length_exits_2(capsys):
    rc, _, err = run_cli(["construct", "--family", "even-char",
                          "--q", "4", "--n", "3"], capsys)
    assert rc == 2 and "even" in err


def test_verify_unreadable_input_exits_1(tmp_path, capsys):
    # a missing file and a directory
    for path in (tmp_path / "missing.json", tmp_path):
        rc, out, err = run_cli(["verify", str(path)], capsys)
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: cannot read {path}: ")


def test_verify_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc, _, err = run_cli(["verify", str(bad)], capsys)
    assert rc == 1
    assert "line" in err and "column" in err


@pytest.mark.parametrize("text", ["[" * 3000, '{"alpha": ' + "[" * 3000],
                         ids=["top-level", "in-alpha"])
def test_verify_json_nested_past_the_parser_limit_exits_1(text, tmp_path,
                                                         capsys):
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    rc, out, err = run_cli(["verify", str(bad)], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: invalid JSON: nested too deeply\n"


def test_verify_invalid_code_object_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"p": 5, "e": 1, "modulus": [0, 1]},
                               "n": 2, "k": 1, "extended": False,
                               "alpha": [[0], [0]], "v": [[1], [1]]}))
    rc, _, err = run_cli(["verify", str(bad)], capsys)
    assert rc == 1 and "not a valid code object" in err


def test_verify_seeded_report_is_deterministic(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "25",
             "-o", str(out_file)], capsys)
    args = ["verify", str(out_file), "--mds-mode", "randomized",
            "--samples", "50", "--seed", "3"]
    rc1, out1, _ = run_cli(args, capsys)
    rc2, out2, _ = run_cli(args, capsys)
    assert rc1 == rc2 == 0 and out1 == out2
    names = [c["name"] for c in json.loads(out1)["checks"]]
    assert names == ["generator-consistency", "self-dual", "mds"]


def test_verify_structural_mode(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "9",
             "-o", str(out_file)], capsys)
    rc, out, _ = run_cli(["verify", str(out_file),
                          "--mds-mode", "structural"], capsys)
    assert rc == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["mds"]["mode"] == "structural"


@pytest.mark.parametrize("flag, value", [
    ("--samples", "-1"), ("--samples", "0"), ("--budget", "-1"),
])
def test_verify_rejects_out_of_range_counts(flag, value, tmp_path, capsys):
    out_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "5",
             "-o", str(out_file)], capsys)
    rc, out, err = run_cli(["verify", str(out_file), "--mds-mode",
                            "randomized", flag, value], capsys)
    assert rc == 1 and out == ""
    assert f"argument {flag}: must be at least" in err


def test_search_rejects_negative_node_budget(capsys):
    rc, out, err = run_cli(["search", "--q", "29", "--n", "4",
                            "--node-budget", "-1"], capsys)
    assert rc == 1 and out == ""
    assert "argument --node-budget: must be at least 0" in err


@pytest.mark.parametrize("flag, value", [("--samples", "-3"),
                                         ("--budget", "-1")])
def test_sweep_rejects_out_of_range_counts_before_any_cell(flag, value,
                                                           capsys):
    rc, out, err = run_cli(["sweep", "--family", "theorem-3-5", "--r", "3",
                            flag, value], capsys)
    assert rc == 1 and out == ""  # no table
    assert f"argument {flag}: must be at least" in err


@pytest.mark.parametrize("argv, unread", [
    (["--family", "extended", "--t", "11"], "family 'extended' does not take t"),
    (["--family", "theorem-3-5", "--q", "1", "-1", "--r", "27"],
     "family 'theorem-3-5' does not take q"),
])
def test_sweep_rejects_flags_its_family_does_not_read(argv, unread,
                                                      monkeypatch, capsys):
    # refused like construct refuses them, before the grid's first cell
    cells = []
    monkeypatch.setattr(grsdual.cli, "build", cells.append)
    rc, out, err = run_cli(["sweep", *argv], capsys)
    assert (rc, out, cells) == (1, "", [])
    assert err == f"error: {unread}\n"


@pytest.mark.parametrize("argv, value", [
    (["--family", "even-char", "--q", "1"], "1"),
    (["--family", "even-char", "--q", "-4"], "-4"),
    (["--family", "even-char", "--q", "6"], "6"),
    (["--family", "even-char", "--q", "4", "6"], "6"),
    (["--family", "subfield-points", "--r", "1"], "1"),
    (["--family", "theorem-3-5", "--r", "1"], "1"),
    (["--family", "all", "--q", "1"], "1"),
])
def test_sweep_rejects_a_field_order_that_is_no_prime_power(
        argv, value, monkeypatch, capsys):
    # some of these left the grid empty: a header-only table and exit 0
    cells = []
    monkeypatch.setattr(grsdual.cli, "build", cells.append)
    rc, out, err = run_cli(["sweep", *argv], capsys)
    assert (rc, out, cells) == (1, "", [])
    assert err == f"error: {value} is not a prime power\n"


@pytest.mark.parametrize("value", ["-1", "0"])
def test_construct_rejects_e_below_one(value, capsys):
    # argparse names the flag; no float or "1 is not a prime power" leaks
    rc, out, err = run_cli(["construct", "--family", "even-char", "--p", "2",
                            "--e", value, "--n", "2"], capsys)
    assert (rc, out) == (1, "")
    assert f"argument --e: must be at least 1, got {value}" in err


def test_search_found(capsys):
    rc, out, _ = run_cli(["search", "--q", "29", "--n", "4"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["set"] == [[0], [1], [5], [6]]


def test_search_not_found_exits_2(capsys):
    rc, out, _ = run_cli(["search", "--q", "5", "--n", "4"], capsys)
    assert rc == 2
    assert json.loads(out) == {"q": 5, "n": 4, "found": False, "set": None}


GAVE_UP = ("search gave up after {} nodes without finding a set or ruling "
           "one out\n")


def test_search_gives_up_at_node_budget(capsys):
    # (401, 10) has no set, but proving that takes more than 1,000 nodes
    rc, out, err = run_cli(["search", "--q", "401", "--n", "10",
                            "--node-budget", "1000"], capsys)
    assert (rc, out, err) == (2, "", GAVE_UP.format(1000))


def test_search_proves_none_within_the_default_budget(capsys):
    t0 = time.perf_counter()
    rc, out, err = run_cli(["search", "--q", "401", "--n", "10"], capsys)
    assert time.perf_counter() - t0 < 10
    assert (rc, err) == (2, "")
    assert json.loads(out) == {"q": 401, "n": 10, "found": False, "set": None}


def test_construct_square_set_none_exists_is_not_giving_up(capsys):
    rc, out, err = run_cli(["construct", "--family", "square-set",
                            "--q", "5", "--n", "4"], capsys)
    assert (rc, out) == (2, "")
    assert err == ("construction infeasible: no square-difference set of "
                   "size 4 exists in GF(5)\n")


@pytest.fixture
def search_gives_up(monkeypatch):
    def give_up(q, n, node_budget=None):
        raise SearchGaveUpError(7)
    monkeypatch.setattr(construct, "search_square_difference_set", give_up)


@pytest.mark.parametrize("family", ["square-set", "auto"])
def test_construct_reports_a_search_that_gave_up(family, search_gives_up,
                                                 capsys):
    rc, out, err = run_cli(["construct", "--family", family,
                            "--q", "29", "--n", "4"], capsys)
    assert (rc, out, err) == (2, "", GAVE_UP.format(7))


def test_sweep_reports_a_search_that_gave_up(search_gives_up, capsys):
    rc, out, _ = run_cli(["sweep", "--family", "square-set",
                          "--q", "29", "--n", "4"], capsys)
    assert rc == 3
    row = out.strip().splitlines()[1].split()
    assert row[:2] == ["square-set", "square-set_q29_n4"]
    assert "gave-up" in row and "ruling" in row


def _boom(*args, **kwargs):
    raise ValueError("boom")


@pytest.mark.parametrize("argv, target", [
    (["construct", "--family", "extended", "--q", "5"], "build"),
    (["verify", "CODE"], "verify_code"),
    (["search", "--q", "29", "--n", "4"], "search_square_difference_set"),
    (["sweep", "--family", "extended", "--q", "5"], "build"),
])
def test_every_command_exits_1_on_a_value_error(argv, target, tmp_path,
                                                monkeypatch, capsys):
    # cli.main is the one place that turns a failure into an exit code
    code_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "5",
             "-o", str(code_file)], capsys)
    monkeypatch.setattr(grsdual.cli, target, _boom)
    argv = [str(code_file) if arg == "CODE" else arg for arg in argv]
    assert run_cli(argv, capsys) == (1, "", "error: boom\n")


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "extended", "--q", "5", "-o", "MISSING"],
    ["verify", "CODE", "-o", "MISSING"],
    ["search", "--q", "29", "--n", "4", "-o", "MISSING"],
    ["sweep", "--family", "extended", "--q", "5", "--out-dir", "CODE"],
], ids=["construct", "verify", "search", "sweep"])
def test_every_command_exits_1_on_an_unwritable_output(argv, tmp_path,
                                                       capsys):
    # a file in a missing directory, or an output directory that is a file
    code_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "5",
             "-o", str(code_file)], capsys)
    target = {"CODE": str(code_file),
              "MISSING": str(tmp_path / "missing" / "out.json")}
    argv = [target.get(arg, arg) for arg in argv]
    rc, out, err = run_cli(argv, capsys)
    path = argv[-1]
    assert rc == 1 and out == ""
    assert re.fullmatch(f"error: cannot write {re.escape(path)}: [^\n]+\n",
                        err), err
    assert not (tmp_path / "missing").exists()


def test_search_wrong_residue_exits_2(capsys):
    rc, _, err = run_cli(["search", "--q", "11", "--n", "3"], capsys)
    assert rc == 2 and "1 mod 4" in err


def test_sweep_theorem_3_5(capsys):
    rc, out, _ = run_cli(["sweep", "--family", "theorem-3-5", "--r", "3"],
                         capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["family", "cell"]
    assert len(lines) == 2  # header + the single r=3, t=1 cell
    assert "pass" in lines[1]


def test_sweep_empty_range(capsys):
    rc, out, _ = run_cli(["sweep", "--family", "even-char", "--q"], capsys)
    assert rc == 0
    assert len(out.strip().splitlines()) == 1  # header only


@pytest.mark.parametrize("axis, missing", [(["--q", "13"], "n"),
                                           (["--n", "4"], "q")])
def test_sweep_square_set_refuses_a_lone_axis(axis, missing, monkeypatch,
                                              capsys):
    # the grid crossed the given axis with nothing: a header and exit 0
    cells = []
    monkeypatch.setattr(grsdual.cli, "build", cells.append)
    rc, out, err = run_cli(["sweep", "--family", "square-set", *axis], capsys)
    assert (rc, out, cells) == (1, "", [])
    assert err == f"error: family 'square-set' needs {missing}\n"


def test_sweep_writes_artifacts(tmp_path, capsys):
    rc, out, _ = run_cli(["sweep", "--family", "subfield-points",
                          "--r", "3", "--out-dir", str(tmp_path)], capsys)
    assert rc == 0
    artifacts = sorted(p.name for p in tmp_path.glob("*.json"))
    assert artifacts == ["subfield-points_r3_n2.json"]
    payload = json.loads((tmp_path / artifacts[0]).read_text())
    assert payload["family"] == "subfield-points"
    assert payload["report"]["overall"] is True


# Every eligibility message of auto, frozen: (81, 10) reaches the square-set
# search, (9, 7) fails every family on its entry conditions.
AUTO_FAILURES = [
    (81, 10, "construction infeasible: no family yields a self-dual code for "
     "q=81, n=10 (theorem-3-5: needs q = r^2 with r = 3 mod 4; "
     "roots-of-unity: needs even n with (n-1) | (q-1); subfield-points: "
     "needs even n <= r; square-set: no square-difference set of size 10 "
     "exists in GF(81); extended: needs n = q + 1 = 82; even-char: needs "
     "even q)\n"),
    (9, 7, "construction infeasible: no family yields a self-dual code for "
     "q=9, n=7 (theorem-3-5: needs n = 2tr with t <= (r-1)/2; "
     "roots-of-unity: needs even n with (n-1) | (q-1); subfield-points: "
     "needs even n <= r; square-set: needs even n >= 2; extended: needs "
     "n = q + 1 = 10; even-char: needs even q)\n"),
]


@pytest.mark.parametrize("q, n, expected", AUTO_FAILURES)
def test_auto_failure_message_is_frozen(q, n, expected, capsys):
    rc, out, err = run_cli(["construct", "--family", "auto",
                            "--q", str(q), "--n", str(n)], capsys)
    assert (rc, out, err) == (2, "", expected)


def _repeat_alpha(obj):
    return {**obj, "alpha": [obj["alpha"][0], *obj["alpha"][:-1]]}


def _drop_multiplier(obj):
    return {**obj, "v": obj["v"][:-1]}


# One failure per parameter rule or contract the CLI can reach, with its
# exit code and its whole stderr line: 1 for a bad request, 2 for a code
# that does not exist or a search that found none.  A verify row tampers
# with the q = 5 extended code and reads it from stdin.
@pytest.mark.parametrize("argv, rc, line", [
    (["construct", "--family", "extended", "--q", "6"], 1,
     "error: 6 is not a prime power"),
    (["construct", "--family", "even-char", "--p", "4", "--n", "2"], 1,
     "error: --p 4 is not prime"),
    (["construct", "--family", "extended", "--q", "1073741827"], 1,
     "error: 1073741827 exceeds the limit 1048576"),
    (["construct", "--family", "even-char", "--q", "4096", "--n", "2000"], 1,
     f"error: block length 2000 exceeds the limit {MAX_BLOCK_LENGTH}"),
    (["verify", _repeat_alpha], 1,
     "error: not a valid code object: evaluation points must be distinct"),
    (["verify", _drop_multiplier], 1,
     "error: not a valid code object: need one multiplier per point"),
    (["construct", "--family", "even-char", "--q", "8", "--n", "3"], 2,
     "construction infeasible: length must be even, got 3"),
    (["construct", "--family", "even-char", "--q", "8", "--n", "10"], 2,
     "construction infeasible: need n <= q, got n = 10 > q = 8"),
    (["construct", "--family", "even-char", "--q", "9", "--n", "2"], 2,
     "construction infeasible: q = 9 is not a power of 2"),
    (["construct", "--family", "even-char", "--q", "8", "--n", "0"], 2,
     "construction infeasible: length must be at least 2"),
    (["construct", "--family", "extended", "--q", "8"], 2,
     "construction infeasible: extended family needs odd q"),
    (["construct", "--family", "square-set", "--q", "7", "--n", "2"], 2,
     "construction infeasible: q = 7 is not 1 mod 4"),
    (["search", "--q", "7", "--n", "2"], 2,
     "search infeasible: q = 7 is not 1 mod 4"),
    (["construct", "--family", "theorem-3-5", "--r", "3", "--t", "2"], 2,
     "construction infeasible: t = 2 outside [1, 1] for r = 3"),
    (["construct", "--family", "roots-of-unity", "--q", "27", "--n", "2"], 2,
     "construction infeasible: q = 27 is not a square"),
    (["construct", "--family", "roots-of-unity", "--q", "9", "--n", "6"], 2,
     "construction infeasible: n - 1 = 5 does not divide q - 1 = 8"),
    (["construct", "--family", "square-set", "--q", "13", "--n", "4"], 2,
     "construction infeasible: no square-difference set of size 4 exists "
     "in GF(13)"),
    # new rows go last: pytest numbers the ids argv0, argv1, ... by row
    (["construct", "--family", "even-char", "--e", "2", "--n", "2"], 1,
     "error: --e given without --p"),
    (["construct", "--family", "even-char", "--p", "2", "--e", "2",
      "--q", "8", "--n", "2"], 1,
     "error: --q 8 conflicts with --p/--e (4)"),
])
def test_each_failure_keeps_its_exit_code_and_stderr(argv, rc, line,
                                                     monkeypatch, capsys):
    if argv[0] == "verify":
        _, out, _ = run_cli(["construct", "--family", "extended", "--q", "5"],
                            capsys)
        tampered = argv[1](json.loads(out))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(tampered)))
        argv = ["verify", "-"]
    assert run_cli(argv, capsys) == (rc, "", line + "\n")


@pytest.mark.parametrize("t", ["0", "-1"])
def test_auto_refuses_t_below_one(t, capsys):
    # t was read as n = 2tr, and the failure named n = 0 or n = -6
    rc, out, err = run_cli(["construct", "--family", "auto", "--q", "9",
                            "--t", t], capsys)
    assert (rc, out) == (2, "")
    assert err == f"construction infeasible: t = {t} must be at least 1\n"


FAMILY_ORDER =["even-char", "extended", "square-set", "subfield-points",
                "roots-of-unity", "theorem-3-5"]


@pytest.mark.parametrize("command, extra", [("construct", "auto"),
                                            ("sweep", "all")])
def test_family_choices_order(command, extra):
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    family = next(a for a in commands[command]._actions
                  if a.dest == "family")
    assert list(family.choices) == FAMILY_ORDER + [extra]


def test_readme_lists_every_family_in_table_order():
    from grsdual.construct import FAMILY_TABLE

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Construction families (`--family`):\n\n")[1]
    listed = re.findall(r"^- `([a-z0-9-]+)`", section.split("\n\n")[0],
                        flags=re.M)
    assert listed == [*FAMILY_TABLE, "auto"]


DEFAULT_SWEEP_CELLS = (
    [f"even-char_q{q}_n{n}" for q in (4, 8, 16) for n in range(2, q + 1, 2)]
    + [f"extended_q{q}" for q in (5, 7, 9, 13, 17, 25, 27)]
    + ["square-set_q13_n2", "square-set_q29_n4"]
    + [f"subfield-points_r{r}_n{n}"
       for r in (3, 5, 7, 9) for n in range(2, r + 1, 2)]
    + ["roots-of-unity_q9_n2", "roots-of-unity_q25_n2", "roots-of-unity_q25_n4",
       "roots-of-unity_q49_n2", "roots-of-unity_q49_n4", "roots-of-unity_q81_n2",
       "roots-of-unity_q81_n6"]
    + ["theorem-3-5_r3_t1", "theorem-3-5_r7_t1", "theorem-3-5_r7_t2",
       "theorem-3-5_r7_t3"])


def test_default_sweep_cells_come_from_the_family_table():
    from grsdual.construct import FAMILY_TABLE

    no_overrides = argparse.Namespace(q=None, r=None, t=None, n=None)
    labels = [_cell_label(request) for family in FAMILY_TABLE.values()
              for request in family.sweep_requests(no_overrides)]
    assert len(labels) == 44
    assert labels == DEFAULT_SWEEP_CELLS


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "extended", "--q", "10000000000000061"],
    ["construct", "--family", "extended", "--p", "3", "--e", "100000000"],
    ["sweep", "--family", "extended", "--q", "6"],
    ["sweep", "--family", "even-char", "--q", "10000000000000061"],
])
def test_bad_field_size_exits_1_quickly(argv, capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == "" and err.startswith("error: ")


# --- argv fuzzing ------------------------------------------------------------

# negatives, 0 and 1, primes, prime powers, non-prime powers, the square of
# a non-prime power (1023^2), a prime above the field size limit, and 10^30
_ARGV_VALUES = [-3, -1, 0, 1, 2, 3, 5, 13, 4, 8, 9, 25, 27, 49, 81, 6, 15,
                1023 ** 2, 1048579, 10 ** 30]


def _is_field_order(value):
    return 2 <= value <= 1 << 20 and len(factorint(value)) == 1


# an r names GF(r^2); keeping the valid ones to r <= 9 keeps every code
# that can be built at q <= 81, so each case ends in about a second
_R_VALUES = [v for v in _ARGV_VALUES if v <= 9 or not _is_field_order(v)]
# searches also draw extension fields, whose character table walks the
# orbits of multiplication by x
_SEARCH_Q_VALUES = _ARGV_VALUES + [625, 2401, 6561, 15625]


@st.composite
def _argvs(draw):
    """(argv, field values) for construct under every family and auto, for
    search, and for a square-set sweep over a small grid.  A construct's
    field is its first parameter; a search or sweep's fields are its q."""
    command = draw(st.sampled_from([*construct.FAMILY_TABLE, "auto",
                                    "search", "sweep"]))
    if command == "sweep":
        qs = draw(st.lists(st.sampled_from(_SEARCH_Q_VALUES), min_size=1,
                           max_size=2))
        ns = draw(st.lists(st.sampled_from(_ARGV_VALUES), min_size=1,
                           max_size=2))
        argv = ["sweep", "--family", "square-set",
                "--q", *map(str, qs), "--n", *map(str, ns)]
        return argv, qs
    if command == "search":
        params = ("q", "n")
    elif command == "auto":
        params = draw(st.sampled_from([("q", "n"), ("r", "n")]))
    else:
        params = construct.FAMILY_TABLE[command].params
    pools = {"r": _R_VALUES,
             "q": _SEARCH_Q_VALUES if command == "search" else _ARGV_VALUES}
    values = [draw(st.sampled_from(pools.get(name, _ARGV_VALUES)))
              for name in params]
    argv = (["search"] if command == "search"
            else ["construct", "--family", command])
    for name, value in zip(params, values):
        argv += [f"--{name}", str(value)]
    return argv, [] if command == "search" else values[:1]


@given(case=_argvs())
@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_exits_cleanly(case, capsys):
    # a sweep exits 3, not 2, when a cell does not pass
    argv, fields = case
    rc, _, err = run_cli(argv, capsys)
    clean = {0, 1, 3} if argv[0] == "sweep" else {0, 1, 2}
    assert rc in clean and "Traceback" not in err, (argv, err)
    if not all(map(_is_field_order, fields)):
        assert rc == 1, (argv, err)


# the [6, 3] codes the verify fuzz reads: dense tables (GF(9), GF(5))
# and exp/log ops with XOR subtraction (GF(16), GF(2048))
_VERIFY_FUZZ_CODES = {
    "gf9": ["theorem-3-5", "--r", "3", "--t", "1"],
    "gf16": ["even-char", "--q", "16", "--n", "6"],
    "gf2048": ["even-char", "--q", "2048", "--n", "6"],
    "extended-q5": ["extended", "--q", "5"],
}


@pytest.fixture(scope="module")
def verify_fuzz_files(tmp_path_factory):
    """Code JSON files of each `_VERIFY_FUZZ_CODES` code, as built and
    with column 1 of the stored generator a copy of column 0."""
    out = tmp_path_factory.mktemp("verify-fuzz")
    files = {}
    for name, args in _VERIFY_FUZZ_CODES.items():
        built = out / f"{name}.json"
        assert main(["construct", "--family", *args, "-o", str(built)]) == 0
        obj = json.loads(built.read_text())
        gen = obj["generator"]
        entries, cols = gen["entries"], gen["cols"]
        for at in range(0, len(entries), cols):
            entries[at + 1] = entries[at]
        tampered = out / f"{name}-tampered.json"
        tampered.write_text(json.dumps(obj))
        files[name, False], files[name, True] = built, tampered
    return files


@given(code=st.sampled_from(sorted(_VERIFY_FUZZ_CODES)),
       tampered=st.booleans(),
       mode=st.sampled_from(["auto", "exact", "randomized", "structural"]),
       budget=st.integers(0, 100), samples=st.integers(1, 50),
       seed=st.integers(-10 ** 6, 10 ** 12))
@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_verify_flags_exit_cleanly_with_the_oracles_report(
        code, tampered, mode, budget, samples, seed, verify_fuzz_files,
        capsys):
    # an exact walk over budget gives up (exit 2); otherwise the report's
    # exact or randomized MDS check is the oracle's on the stored
    # generator, in the mode the report names ("auto" resolved)
    path = verify_fuzz_files[code, tampered]
    argv = ["verify", str(path), "--mds-mode", mode, "--budget", str(budget),
            "--samples", str(samples), "--seed", str(seed)]
    rc, out, err = run_cli(argv, capsys)
    assert rc in (0, 2, 3) and "Traceback" not in err, (argv, err)
    if rc == 2:
        assert out == "" and "exact MDS check gave up" in err, (argv, err)
        assert mode == "exact" and budget < math.comb(6, 3)
        return
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    mds = checks["mds"]
    assert (rc == 0) == all(c["status"] != "fail" for c in checks.values())
    if mds["mode"] == "structural":
        assert mode == "structural"
        return
    obj = json.loads(path.read_text())
    stored = grs.code_from_json(obj)
    gen = grs.stored_generator_from_json(obj, stored)
    want = oracles.check_mds_matrix(stored.ctx, gen, mode=mds["mode"],
                                    budget=budget, samples=samples, seed=seed)
    assert mds == want.to_json(), argv
    if not tampered:
        assert mds["status"] == "pass"


@pytest.mark.parametrize("key, value", [
    ("extended", "false"), ("extended", 1), ("k", "3"), ("k", True),
    ("n", 5.0), ("n", None),
])
def test_verify_rejects_mistyped_fields(key, value, tmp_path, capsys):
    code_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "5",
             "-o", str(code_file)], capsys)
    obj = json.loads(code_file.read_text())
    obj[key] = value
    code_file.write_text(json.dumps(obj))
    rc, _, err = run_cli(["verify", str(code_file)], capsys)
    assert rc == 1 and "not a valid code object" in err


@pytest.mark.parametrize("tamper, message", [
    (lambda obj: {k: v for k, v in obj.items() if k != "extended"},
     '"extended" is missing'),
    (lambda obj: {**obj, "field": {"p": 5, "e": 1}},
     '"field.modulus" is missing'),
    (lambda obj: [obj], "a code must be a JSON object, got an array"),
    (lambda obj: {**obj, "field": [1]},
     '"field" must be an object, got an array'),
    (lambda obj: {**obj, "generator": {**obj["generator"],
                                       "entries": {"x": 1}}},
     '"generator.entries" must be an array, got an object'),
    (lambda obj: {**obj, "alpha": [[0], [1], 3, [3], [4]]},
     '"alpha[2]" must be an array of coordinates, got an integer'),
    # shapes numpy could not reshape the entries to
    (lambda obj: {**obj, "generator": {"rows": 10 ** 30, "cols": 0,
                                       "entries": []}},
     f"stored generator is {10 ** 30}x0, expected 3x6"),
    (lambda obj: {**obj, "generator": {**obj["generator"],
                                       "rows": -3, "cols": -6}},
     "stored generator is -3x-6, expected 3x6"),
    # the entry count is checked before the shape
    (lambda obj: {**obj, "generator": {
        **obj["generator"], "entries": obj["generator"]["entries"][:-1]}},
     "3x6 matrix needs 18 entries, got 17"),
    # one bad coordinate in the middle of a list, named as the scalar
    # walk names it; a long one abbreviated
    (lambda obj: {**obj, "generator": {**obj["generator"], "entries": [
        *obj["generator"]["entries"][:9], [5],
        *obj["generator"]["entries"][10:]]}},
     '"generator.entries": coordinate 5 out of range [0, 5)'),
    (lambda obj: {**obj, "v": [*obj["v"][:2], [True], *obj["v"][3:]]},
     '"v": coordinate must be an integer, got True'),
    (lambda obj: {**obj, "alpha": [*obj["alpha"][:2], [2, 0],
                                   *obj["alpha"][3:]]},
     '"alpha": expected 1 coordinates, got 2'),
    (lambda obj: {**obj, "alpha": [*obj["alpha"][:2], [10 ** 4000],
                                   *obj["alpha"][3:]]},
     '"alpha": coordinate 100000000000000000...0000000000000000000 out of '
     'range [0, 5)'),
])
def test_verify_schema_names_the_bad_field(tamper, message, monkeypatch,
                                           capsys):
    # each case printed a leaked Python message (a bare key, "list indices
    # must be integers", "coordinate must be an integer, got 'x'")
    _, out, _ = run_cli(["construct", "--family", "extended", "--q", "5"],
                        capsys)
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps(tamper(json.loads(out)))))
    rc, out, err = run_cli(["verify", "-"], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: not a valid code object: {message}\n"


@pytest.mark.parametrize("request_", [
    construct.ConstructionRequest("theorem-3-5", r=3, t=1),
    construct.ConstructionRequest("even-char", q=2048, n=8),
])
def test_verify_reads_a_valid_code_without_the_scalar_walk(
        request_, monkeypatch, capsys):
    # FieldCtx.elements reads every coordinate list of a valid code in
    # numpy; the per-element walk is only its error path
    text = json_text(construct.result_to_json(construct.build(request_)))

    def scalar_walk(self, cs):
        raise AssertionError("FieldCtx.element called")

    monkeypatch.setattr(gf.FieldCtx, "element", scalar_walk)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run_cli(["verify", "-"], capsys)
    assert (rc, err) == (0, "") and json.loads(out)["overall"] is True


def _set_p_e_rows(obj):
    obj["field"]["p"], obj["field"]["e"] = "5", 1.0
    obj["generator"]["rows"] = "3"


def _bool_alpha_coordinate(obj):
    assert obj["alpha"][1] == [1]
    obj["alpha"][1] = [True]


def _float_generator_entry(obj):
    entries = obj["generator"]["entries"]
    entries[entries.index([1])] = [1.0]


@pytest.mark.parametrize("tamper", [
    _set_p_e_rows, _bool_alpha_coordinate, _float_generator_entry,
])
def test_verify_rejects_coerced_field_and_matrix_json(tamper, tmp_path, capsys):
    # each variant names the same q=5 code, so int() coercion would pass it
    code_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "5",
             "-o", str(code_file)], capsys)
    obj = json.loads(code_file.read_text())
    tamper(obj)
    code_file.write_text(json.dumps(obj))
    rc, out, err = run_cli(["verify", str(code_file), "--mds-mode",
                            "structural"], capsys)
    assert rc == 1 and out == "" and "not a valid code object" in err


# --- code-JSON fuzzing ----------------------------------------------------------

# a prime field with an extended code, GF(9), an auto pick over GF(49),
# and even characteristic over GF(2048), above the dense-table limit
_FUZZED_CODES = (
    construct.ConstructionRequest("extended", q=5),
    construct.ConstructionRequest("theorem-3-5", r=3, t=1),
    construct.ConstructionRequest("auto", q=49, n=6),
    construct.ConstructionRequest("even-char", q=2048, n=8),
)
_MUTATION_VALUES = [0, -1, 10 ** 30, 1.5, True, None, "x", [], [[0]], {}]


@functools.cache
def _code_text(request):
    return json_text(construct.result_to_json(construct.build(request)))


@st.composite
def _mutated_codes(draw):
    """One of `_FUZZED_CODES` as a JSON object with one or two fields set
    to a value of `_MUTATION_VALUES` or deleted.  Each field is reached
    by a walk from the root that stops at each level with probability
    1/2, so the many coordinates do not crowd out the top-level keys."""
    obj = json.loads(_code_text(draw(st.sampled_from(_FUZZED_CODES))))
    for _ in range(draw(st.integers(1, 2))):
        node = obj
        while True:
            key = draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child) \
                    or draw(st.booleans()):
                break
            node = child
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(_MUTATION_VALUES)))
    return obj


@given(obj=_mutated_codes(),
       mds_mode=st.sampled_from(["auto", "exact", "randomized",
                                 "structural"]),
       dual_identity=st.booleans())
@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_code_json_exits_cleanly(obj, mds_mode, dual_identity,
                                        monkeypatch, capsys):
    # main is called bare: any exception, SystemExit included, fails
    argv = ["verify", "-", "--samples", "50", "--mds-mode", mds_mode]
    argv += ["--dual-identity"] if dual_identity else []
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    start = time.perf_counter()
    rc = main(argv)
    assert time.perf_counter() - start < 5.0, (argv, obj)
    err = capsys.readouterr().err
    assert rc in {0, 1, 2, 3} and "Traceback" not in err, (argv, obj, err)


@pytest.mark.parametrize("flags", [["--p", "4"], ["--p", "4", "--e", "2"]])
def test_construct_rejects_non_prime_p(flags, capsys):
    rc, out, err = run_cli(["construct", "--family", "even-char", *flags,
                            "--n", "2"], capsys)
    assert rc == 1 and out == ""
    assert err == "error: --p 4 is not prime\n"


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is imported lazily by the kernels that need it, so a command
    # that never reaches them, such as a search, does not pay for the
    # import; the records are named tuples and the character-sum window is
    # tested in integers, so no dataclass or Fraction machinery loads either
    src = Path(grsdual.__file__).resolve().parents[1]
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "numpy")
    probe = ("import sys, grsdual.cli; "
             f"loaded = lambda: [m for m in {heavy!r} if m in sys.modules]; "
             "print(loaded()); "
             "rc = grsdual.cli.main(['search', '--q', '197', '--n', '10', "
             "'-o', sys.argv[1]]); print(rc, loaded())")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "search.json"
        proc = subprocess.run([sys.executable, "-c", probe, str(out)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n2 []\n"
        assert json.loads(out.read_text())["found"] is False


def test_extension_field_searches_leave_numpy_unloaded():
    # the character table and the search run on the scalar product there
    src = Path(grsdual.__file__).resolve().parents[1]
    probe = ("import sys, grsdual.cli; "
             "rcs = [grsdual.cli.main(['search', '--q', q, '--n', n, "
             "'-o', sys.argv[1]]) "
             "for q, n in (('125', '8'), ('15625', '10'))]; "
             "print(rcs, 'numpy' in sys.modules)")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "search.json"
        proc = subprocess.run([sys.executable, "-c", probe, str(out)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[2, 0] False\n"
        assert json.loads(out.read_text())["found"] is True


def test_python_dash_m_runs_the_cli(capsys):
    src = Path(grsdual.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "grsdual", "search", "--q", "29", "--n", "4"],
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    rc, out, _ = run_cli(["search", "--q", "29", "--n", "4"], capsys)
    assert (proc.returncode, rc) == (0, 0)
    assert proc.stdout == out.encode()


@pytest.mark.parametrize("argv, length", [
    (["--family", "extended", "--q", "1048573"], 1048574),
    (["--family", "roots-of-unity", "--q", "1042441", "--n", "130306"],
     130306),
    (["--family", "theorem-3-5", "--r", "1019", "--t", "509"], 1037342),
    (["--family", "even-char", "--q", "2048", "--n", "1282"], 1282),
])
def test_construct_refuses_long_codes_before_building(argv, length, capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(["construct", *argv], capsys)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (1, "")
    assert err == (f"error: block length {length} exceeds the limit "
                   f"{MAX_BLOCK_LENGTH}\n")


@pytest.mark.parametrize("mds_mode", ["structural", "exact"])
@pytest.mark.parametrize("rows, cols", [(0, 0), (1, 6), (3, 5)])
def test_verify_rejects_wrong_generator_shape(rows, cols, mds_mode,
                                              tmp_path, capsys):
    # the q=5 extended code is [6, 3]: its stored generator must be 3 x 6
    code_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "5",
             "-o", str(code_file)], capsys)
    obj = json.loads(code_file.read_text())
    gen = obj["generator"]
    assert (gen["rows"], gen["cols"]) == (3, 6)
    gen["entries"] = [x for i, x in enumerate(gen["entries"])
                      if i // 6 < rows and i % 6 < cols]
    gen["rows"], gen["cols"] = rows, cols
    code_file.write_text(json.dumps(obj))
    rc, out, err = run_cli(["verify", str(code_file), "--mds-mode",
                            mds_mode], capsys)
    assert rc == 1 and out == "" and "not a valid code object" in err


# --- the JSON writer -------------------------------------------------------------

_ints = st.integers(-2 ** 70, 2 ** 70)
_strings = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00é€😀 ')) | st.text()
_scalars = (st.none() | st.booleans() | _ints | st.floats() | _strings)
# lists of ints with bools mixed in, lists of int lists, and coordinate
# lists: equally long int lists, as every code object holds
_int_lists = st.lists(_ints | st.booleans())
_ragged_lists = st.lists(st.lists(_ints, max_size=3))
_coordinate_lists = st.integers(1, 3).flatmap(
    lambda e: st.lists(st.lists(_ints, min_size=e, max_size=e)))
_json_values = st.recursive(
    _scalars | _int_lists | _ragged_lists | _coordinate_lists,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_strings, inner, max_size=4),
    max_leaves=20)


@given(_json_values)
@settings(deadline=None, max_examples=200)
def test_json_writer_matches_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("result", [
    lambda: construct.construct_even_char(8, 4),
    lambda: construct.construct_extended(7),
    lambda: construct.construct_square_set(13, 2),
    lambda: construct.construct_subfield_points(7, 6),
    lambda: construct.construct_roots_of_unity(49, 4),
    lambda: construct.construct_theorem_3_5(3, 1),
])
def test_json_writer_matches_json_dumps_on_every_family(result):
    obj = construct.result_to_json(result())
    assert json_text(obj) == json.dumps(obj, indent=2)


# The README's CLI examples, pinned by exit code and the SHA-256 of what
# they print and write.  The hashes were recorded with json.dumps(obj,
# indent=2) as the writer, so they hold the writer to those bytes.
README_EXAMPLES = (
    (["construct", "--family", "theorem-3-5", "--r", "3", "--t", "1"], 0,
     "0224b8df3e5e513c85e7bdc502564f5bf2dda1a19f2c7da2f51f7705bf796894"),
    (["construct", "--family", "extended", "--q", "5", "-o", "code.json"], 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["verify", "code.json", "--dual-identity"], 0,
     "99b49f15937a860713eeefc80f2c4424e1621dc3acc3433a71a3e91e8d1e0881"),
    (["search", "--q", "29", "--n", "4"], 0,
     "63fad5413646aebe0ecdaa0bec4e6e02847757b851029f8d9fb419202c70087b"),
)
README_CODE_JSON = (
    "2178c883d322af0d3ce3caac8a3bd2aec32995ca2be539976f9a5e4bbc243a55")


def test_readme_cli_examples_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, expected_rc, stdout_sha in README_EXAMPLES:
        rc, out, _ = run_cli(argv, capsys)
        assert rc == expected_rc, argv
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, argv
    written = (tmp_path / "code.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == README_CODE_JSON


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example\n\n```python\n")[1]
    exec(compile(block.split("```")[0], "README.md", "exec"), {})


# `verify --mds-mode randomized --seed 1` of the even-char [28, 14] code
# over GF(256), as built and with one entry raised by 1, pinned by exit
# code and the SHA-256 of what it prints.  The hashes were recorded while
# the check still eliminated one sampled subset at a time.
RANDOMIZED_VERIFY_GOLDENS = (
    (False, 0,
     "7f5d43d81846a8609bf048ddf4e326da6e6a87adabac0f92de31708fd8dbb0d6"),
    (True, 3,
     "ee9870656fcb0f9c27105741f89f5966e9be5950922c182980aa0c56debd7c26"),
)


def test_seeded_randomized_verify_is_byte_identical(tmp_path, capsys):
    import random

    code_file = tmp_path / "code.json"
    rc, _, _ = run_cli(["construct", "--family", "even-char", "--q", "256",
                        "--n", "28", "-o", str(code_file)], capsys)
    assert rc == 0
    obj = json.loads(code_file.read_text())
    for tampered, expected_rc, stdout_sha in RANDOMIZED_VERIFY_GOLDENS:
        if tampered:
            obj["generator"]["entries"][27][0] ^= 1  # row 0, column 27
            code_file.write_text(json.dumps(obj))
        rc, out, _ = run_cli(["verify", str(code_file), "--mds-mode",
                              "randomized", "--seed", "1"], capsys)
        assert rc == expected_rc
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    # the tampered code's first singular sample lies past the first chunk
    detail = json.loads(out)["checks"][-1]["detail"]
    rng = random.Random(1)
    first = next(i for i in range(10 ** 4) if detail ==
                 f"columns {sorted(rng.sample(range(28), 14))} are singular")
    assert first >= verify._MDS_CHUNK // 14 ** 2


# Default `verify` of the even-char [256, 128] code over GF(2048), pinned
# by the SHA-256 of what it prints.  C(256, 128) subsets are far over the
# exact budget, so the MDS check is randomized; the hash was recorded
# while that check still drew its 10^4 subsets (12.6 s on a 2-vCPU host).
# The code's Cauchy form now proves it MDS with no draw.
DEFAULT_VERIFY_2048_SHA = (
    "1193aa7118236c284c1eb5bf836193ca6b81589384a90673a1cc555398ceb8db")


def test_default_verify_of_a_long_grs_code_is_bounded(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    rc, _, _ = run_cli(["construct", "--family", "even-char", "--q", "2048",
                        "--n", "256", "-o", str(code_file)], capsys)
    assert rc == 0
    start = time.perf_counter()
    rc, out, _ = run_cli(["verify", str(code_file)], capsys)
    assert time.perf_counter() - start < 3.0
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_VERIFY_2048_SHA


def test_verify_over_budget_exact_mds_gives_up(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "29",
             "-o", str(code_file)], capsys)
    rc, out, err = run_cli(["verify", str(code_file), "--mds-mode", "exact",
                            "--budget", "10"], capsys)
    assert rc == 2 and out == ""
    assert err == ("exact MDS check gave up: C(30,15) = 155117520 subsets "
                   "exceed budget 10; it proved nothing either way\n")
