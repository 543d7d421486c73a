"""Tests of the benchmark's own machinery: python3 -m pytest bench -q"""

from __future__ import annotations

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import child  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from grsdual import cli, construct, gf, grs, linalg, verify  # noqa: E402,F401
from grsdual.construct import (  # noqa: E402
    construct_extended, construct_theorem_3_5, result_to_json)
from workloads import SEARCH  # noqa: E402


# --- span self-time arithmetic -------------------------------------------------

def _trace(rows, counts=None):
    """rows: (name, start, end, parent, err)."""
    names = sorted({r[0] for r in rows})
    return {"names": names,
            "name": [names.index(r[0]) for r in rows],
            "start_ns": [r[1] for r in rows], "end_ns": [r[2] for r in rows],
            "parent": [r[3] for r in rows], "run": [0] * len(rows),
            "err": [r[4] for r in rows], "sub_calls": [0] * len(rows),
            "counts": counts or {"add": 0}}


def test_self_time_is_parent_minus_direct_children():
    start = [0, 10, 20, 60]
    end = [100, 50, 30, 90]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [100 - 40 - 30, 40 - 10, 10, 30]


def test_layer_self_times_add_up_to_wall():
    rows = [
        ("cli.main", 5, 105, -1, 0),
        ("construct.build", 10, 60, 0, 0),
        ("construct.construct_extended", 12, 58, 1, 0),
        ("verify.check_self_dual", 20, 50, 2, 0),
        ("linalg.rank_rows", 25, 35, 3, 0),
        ("construct.construct_square_set", 60, 70, 0, 1),
        ("verify.check_mds_matrix", 70, 100, 0, 0),
        ("verify._np_subset_nonsingular", 71, 80, 6, 0),
        ("linalg._np_nonsingular", 72, 79, 7, 0),
    ]
    m = spans.layer_metrics(_trace(rows), wall_ns=110)
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
    assert m["trace.unattributed_s"] == pytest.approx(10e-9)
    assert m["linalg.self_s"] == pytest.approx(17e-9)
    assert m["construct.recheck_s"] == pytest.approx(30e-9)
    assert m["verify.self_dual_s"] == 0
    assert m["linalg.eliminations"] == 1 and m["verify.mds_subsets"] == 1
    assert m["construct.family_attempts"] == 2
    assert m["construct.useful_ratio"] == 0.5


# --- wrapping ------------------------------------------------------------------

def test_missing_wrap_target_fails_before_patching():
    before = dict(vars(gf))
    tracer = spans.Tracer(targets=spans.SPAN_TARGETS
                          + (("gf", "gf", "no_such_function"),))
    with pytest.raises(spans.WrapTargetMissing, match="gf.no_such_function"):
        tracer.install()
    assert vars(gf) == before


def test_missing_counted_op_fails():
    with pytest.raises(spans.WrapTargetMissing, match="FieldCtx.no_such_op"):
        spans.Tracer(counted=("add", "no_such_op")).install()


def test_every_binding_is_patched_and_restored():
    orig = grs.dual_coefficients
    orig_elim = linalg._np_nonsingular
    with spans.Tracer() as tracer:
        for module in (grs, construct, verify):
            assert module.dual_coefficients is not orig
            assert module.dual_coefficients.__wrapped__ is orig
        assert linalg._np_nonsingular is not orig_elim
        code = construct.construct_theorem_3_5(3, 1).code
        verify.verify_code(code, mds_mode="exact")
    for module in (grs, construct, verify):
        assert module.dual_coefficients is orig
    assert linalg._np_nonsingular is orig_elim
    assert "add" in gf.FieldCtx.__dict__ and not hasattr(gf.FieldCtx.add, "__wrapped__")
    m = spans.layer_metrics(tracer.export(), wall_ns=1)
    # C(6,3) = 20 subsets, each one elimination through the private binding
    assert m["verify.mds_subsets"] == 20
    assert m["linalg.eliminations"] == 20
    assert m["gf.scalar_ops"] > 0
    assert m["construct.family_attempts"] == 1


# --- output gate -----------------------------------------------------------------

def test_code_check_accepts_self_dual_and_flags_tampering():
    for result in (construct_extended(5), construct_theorem_3_5(3, 1)):
        obj = result_to_json(result)
        assert gate.check_code_json(obj) == []
        bad = copy.deepcopy(obj)
        entry = bad["generator"]["entries"][0]
        entry[0] = (entry[0] + 1) % obj["field"]["p"]
        assert gate.check_code_json(bad) == ["G*G^T != 0"]


def test_canonical_modulus_matches_package():
    for p, e in ((2, 3), (3, 2), (5, 3), (3, 4)):
        assert gate.canonical_modulus(p, e) == gf.make_field(p, e).modulus


def _search_op(stdout: str) -> dict:
    return {"label": "search:q29-n4", "argv": [], "output": None, "rc": 0,
            "error": None, "start_ns": 0, "end_ns": 1,
            "stdout": stdout, "stderr": ""}


def test_gate_flags_tampered_search_output(tmp_path):
    good = json.dumps({"q": 29, "n": 4, "found": True,
                       "set": [[0], [1], [5], [6]]}, indent=2) + "\n"
    golden = {SEARCH: gate.record(SEARCH, 0, [_search_op(good)], tmp_path)}
    assert all(o.ok for o in gate.check_run(SEARCH, 0, [_search_op(good)],
                                            tmp_path, golden))
    # 2 - 0 = 2 is a nonsquare mod 29
    tampered = good.replace("[\n      5\n    ]", "[\n      2\n    ]")
    assert tampered != good
    [out] = gate.check_run(SEARCH, 0, [_search_op(tampered)], tmp_path, golden)
    assert not out.ok
    assert any("differs from golden" in r for r in out.reasons)
    assert any("not a nonzero square" in r for r in out.reasons)


def test_gate_flags_wrong_exit_code_and_exception(tmp_path):
    good = json.dumps({"q": 29, "n": 4, "found": True,
                       "set": [[0], [1], [5], [6]]}, indent=2) + "\n"
    golden = {SEARCH: gate.record(SEARCH, 0, [_search_op(good)], tmp_path)}
    op = _search_op(good) | {"rc": None, "error": "Traceback ..."}
    [out] = gate.check_run(SEARCH, 0, [op], tmp_path, golden)
    assert any("exit code None" in r for r in out.reasons)
    assert any(r.startswith("raised") for r in out.reasons)


def test_gate_counts_unparsable_output_as_failed(tmp_path):
    good = json.dumps({"q": 29, "n": 4, "found": True,
                       "set": [[0], [1], [5], [6]]}, indent=2) + "\n"
    golden = {SEARCH: gate.record(SEARCH, 0, [_search_op(good)], tmp_path)}
    broken = '{"q": 29, "n": 4, "found": true, "set": [[0], "x"]}'
    [out] = gate.check_run(SEARCH, 0, [_search_op(broken)], tmp_path, golden)
    assert any("malformed output" in r for r in out.reasons)
    assert gate._guarded(gate._check_code_text, "{not json") != []


def test_seed_normalisation_rejects_a_wrong_seed():
    text = '{\n  "seed": 7\n}\n'
    assert gate._seedless(text, 7) == ('{\n  "seed": 0\n}\n', 1)
    assert gate._seedless(text, 3)[1] == -1


# --- host-speed rescaling ------------------------------------------------------

def test_probed_times_exclude_ticks_and_rescale_to_nominal_speed():
    probe = {"ref_wall_ns": [3_000_000, 5_000_000], "ref_cpu_ns": [2_000_000],
             "busy_wall_ns": 200, "busy_cpu_ns": 100}
    ops = [{"label": "a", "start_ns": 0, "end_ns": 1200, "cpu_ns": 1100,
            "probe": probe},
           {"label": "b", "start_ns": 0, "end_ns": 500, "cpu_ns": 400,
            "probe": None}]
    t = run._op_times(ops)
    assert t["op_wall_s"] == {"a": pytest.approx(1000e-9), "b": pytest.approx(500e-9)}
    assert t["op_cpu_s"]["a"] == pytest.approx(1000e-9)
    # a host on which the loop takes twice the nominal 2 ms halves the time
    assert t["op_wall_norm_s"] == {"a": pytest.approx(500e-9)}
    assert t["op_cpu_norm_s"] == {"a": pytest.approx(1000e-9)}


def test_setup_time_is_rescaled_by_the_loop_timed_after_import():
    res = {"imported_ns": 1_100_000_000, "setup_ref_wall_ns": [3_000_000, 5_000_000]}
    raw, rescaled = run._setup_times(res, spawned=1_000_000_000)
    assert raw == pytest.approx(0.1) and rescaled == pytest.approx(0.05)


def test_host_probe_samples_during_a_command_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = child.HostProbe()
    with probe.around():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    rec = probe.record()
    ticks = rec["ref_wall_ns"][child.BRACKET:-child.BRACKET]
    assert len(ticks) >= 2
    assert rec["busy_wall_ns"] >= sum(ticks)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
