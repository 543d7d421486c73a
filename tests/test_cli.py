"""Front-end contract: flags, JSON artifacts, exit codes.

Exit codes: 0 pass, 1 usage/parse error, 2 honest construction failure,
3 verification failure.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import grsdual
from grsdual.cli import _build_parser, _cell_label, main


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
    # that never reaches them does not pay for the import
    src = Path(grsdual.__file__).resolve().parents[1]
    probe = "import sys, grsdual.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
