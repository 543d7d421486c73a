"""Front-end contract: flags, JSON artifacts, exit codes.

Exit codes: 0 pass, 1 usage/parse error, 2 honest construction failure or
a check that gave up at its budget, 3 verification failure.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grsdual
from grsdual import construct
from grsdual.cli import _build_parser, _cell_label, json_text, main
from grsdual.errors import SearchGaveUpError


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


def test_construct_odd_length_exits_2(capsys):
    rc, _, err = run_cli(["construct", "--family", "even-char",
                          "--q", "4", "--n", "3"], capsys)
    assert rc == 2 and "even" in err


def test_verify_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc, _, err = run_cli(["verify", str(bad)], capsys)
    assert rc == 1
    assert "line" in err and "column" in err


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


FAMILY_ORDER = ["even-char", "extended", "square-set", "subfield-points",
                "roots-of-unity", "theorem-3-5"]


@pytest.mark.parametrize("command, extra", [("construct", "auto"),
                                            ("sweep", "all")])
def test_family_choices_order(command, extra):
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    family = next(a for a in commands[command]._actions
                  if a.dest == "family")
    assert list(family.choices) == FAMILY_ORDER + [extra]


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


@pytest.mark.parametrize("flags", [["--p", "4"], ["--p", "4", "--e", "2"]])
def test_construct_rejects_non_prime_p(flags, capsys):
    rc, out, err = run_cli(["construct", "--family", "even-char", *flags,
                            "--n", "2"], capsys)
    assert rc == 1 and out == ""
    assert err == "error: --p 4 is not prime\n"


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is imported lazily by the kernels that need it, so a command
    # that never reaches them, such as a search, does not pay for the import
    src = Path(grsdual.__file__).resolve().parents[1]
    probe = ("import sys, grsdual.cli; print('numpy' in sys.modules); "
             "rc = grsdual.cli.main(['search', '--q', '197', '--n', '10', "
             "'-o', sys.argv[1]]); print(rc, 'numpy' in sys.modules)")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "search.json"
        proc = subprocess.run([sys.executable, "-c", probe, str(out)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n2 False\n"
        assert json.loads(out.read_text())["found"] is False


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


def test_verify_over_budget_exact_mds_gives_up(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    run_cli(["construct", "--family", "extended", "--q", "29",
             "-o", str(code_file)], capsys)
    rc, out, err = run_cli(["verify", str(code_file), "--mds-mode", "exact",
                            "--budget", "10"], capsys)
    assert rc == 2 and out == ""
    assert err == ("exact MDS check gave up: C(30,15) = 155117520 subsets "
                   "exceed budget 10; it proved nothing either way\n")
