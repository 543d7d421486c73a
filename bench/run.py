"""Benchmark runner for grsdual.

    python3 bench/run.py --workload sweep-default --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 1      # one table, all workloads

Each iteration of a workload is one fresh child process (`child.py`) that
imports grsdual from this checkout's `src/` and runs the workload's
commands through `grsdual.cli.main`.  Iterations repeat while the next one
is expected to end within `--seconds`; there is always at least one.

With `--trace 0` the run reports the end-to-end metrics: `wall_norm_s`
and `cpu_norm_s`, the median over iterations of the workload's wall and
CPU time rescaled to nominal host speed (each command's time divided by
the reference loop's mean time around and during it, `child.HostProbe`,
times `REF_NOMINAL_S`), the median `peak_rss_mb`, and the median
`setup_s` over `SETUP_PROBES` import-only children before each iteration
plus every iteration's own import, rescaled the same way by the loop
timed right after the import.  The times as measured, `wall_s`, `cpu_s`
and `setup_raw_s`, are printed and kept in the results file.  With `--trace 1`
each iteration is a pair, one untraced child and one traced child whose
spans give the per-layer metrics (`spans.py`); `trace.overhead_s` is the
traced minus the untraced median wall time.

Every operation's output goes through the gate (`gate.py`); a failed
check is printed to stderr and counted in `failed`.  Metric names and
units come from BENCHMARK.json.  Full results, with run metadata, go to
`bench/out/`; the last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3      # import-only children before each untraced iteration
RUN_LIMIT_S = 150.0   # a run must end well inside the 180 s the caller allows
REF_NOMINAL_S = 0.002  # the reference loop's time at nominal host speed
RAW_TIMES = ("wall_s", "cpu_s", "setup_raw_s")  # reported beside the rescaled times


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _spawn(args: list[str], workdir: Path, timeout: float) -> tuple[int, dict]:
    """Run child.py; (spawn timestamp, its result.json)."""
    workdir.mkdir(parents=True)
    spawned = _now_ns()
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(ROOT),
                           *args, str(workdir)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1.0))
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    return spawned, json.loads(result_path.read_text())


class Run:
    """One benchmark run: iterations of one workload until time is up."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 golden: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.traced, self.golden = traced, golden
        self.t0 = time.monotonic()
        self.setup_s: list[float] = []       # rescaled to nominal host speed
        self.setup_raw_s: list[float] = []
        self.samples: list[dict] = []
        self.traced_samples: list[dict] = []
        self.attempted = self.failed = 0
        self.failures: list[dict] = []
        self.inconsistent: list[str] = []

    def _remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.t0)

    def _workdir(self, tag: str) -> Path:
        return OUT / f"work-{self.workload}-{os.getpid()}-{tag}"

    def probe_setup(self, i: int) -> None:
        for j in range(SETUP_PROBES):
            workdir = self._workdir(f"setup{i}-{j}")
            try:
                spawned, res = _spawn(["--setup-only"], workdir, self._remaining())
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            raw, rescaled = _setup_times(res, spawned)
            self.setup_raw_s.append(raw)
            self.setup_s.append(rescaled)

    def iteration(self, i: int, traced: bool) -> dict:
        workdir = self._workdir(f"{i}{'t' if traced else ''}")
        try:
            spawned, res = _spawn([self.workload, str(self.seed),
                                   "1" if traced else "0"],
                                  workdir, self._remaining())
            outcomes = gate.check_run(self.workload, self.seed, res["ops"],
                                      workdir, self.golden)
            sample = {"wall_s": res["wall_ns"] * 1e-9,
                      "peak_rss_mb": res["peak_rss_kb"] / 1024,
                      "traced": traced}
            sample["setup_raw_s"], sample["setup_s"] = _setup_times(res, spawned)
            sample.update(_op_times(res["ops"]))
            if traced:
                trace = json.loads((workdir / "spans.json").read_text())
                sample["layers"] = spans.layer_metrics(trace, res["wall_ns"])
                shutil.copyfile(workdir / "spans.json",
                                OUT / f"spans-{self.workload}-seed{self.seed}.json")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.attempted += len(outcomes)
        for out in outcomes:
            if not out.ok:
                self.failed += 1
                self.failures.append({"iteration": i, "label": out.label,
                                      "reasons": out.reasons})
                print(f"FAILED {self.workload} iteration {i} {out.label}:\n  "
                      + "\n  ".join(out.reasons), file=sys.stderr)
        return sample

    def execute(self) -> None:
        i = 0
        while True:
            started = time.monotonic()
            if not self.traced:
                # spread over the run, so one slow stretch of the host
                # does not set the median
                self.probe_setup(i)
            sample = self.iteration(i, traced=False)
            self.samples.append(sample)
            self.setup_s.append(sample["setup_s"])
            self.setup_raw_s.append(sample["setup_raw_s"])
            if self.traced:
                self.traced_samples.append(self.iteration(i, traced=True))
            i += 1
            last = time.monotonic() - started
            elapsed = time.monotonic() - self.t0
            if elapsed + last > min(self.seconds, RUN_LIMIT_S - 5.0):
                break
        if self.traced:
            first = self.traced_samples[0]["layers"]
            for other in self.traced_samples[1:]:
                for name in spans.COUNT_METRICS:
                    if other["layers"][name] != first[name]:
                        self.inconsistent.append(
                            f"{name}: {first[name]} vs {other['layers'][name]}")

    def metrics(self) -> dict[str, float]:
        med = statistics.median
        if not self.traced:
            return {"wall_norm_s": _median_total(self.samples, "op_wall_norm_s"),
                    "cpu_norm_s": _median_total(self.samples, "op_cpu_norm_s"),
                    "wall_s": _median_total(self.samples, "op_wall_s"),
                    "cpu_s": _median_total(self.samples, "op_cpu_s"),
                    "peak_rss_mb": med(s["peak_rss_mb"] for s in self.samples),
                    "setup_s": med(self.setup_s),
                    "setup_raw_s": med(self.setup_raw_s)}
        layers = [s["layers"] for s in self.traced_samples]
        # counts are equal in every traced iteration (checked in execute)
        out = {name: layers[0][name] if name in spans.COUNT_METRICS
               else med(lay[name] for lay in layers) for name in layers[0]}
        out["trace.overhead_s"] = (_median_total(self.traced_samples, "op_wall_s")
                                   - _median_total(self.samples, "op_wall_s"))
        return out


def _median_total(samples: list[dict], key: str) -> float:
    """Median over iterations of the iteration's summed command times."""
    return statistics.median(sum(s[key].values()) for s in samples)


def _setup_times(res: dict, spawned: int) -> tuple[float, float]:
    """Spawn-to-import time as measured, and rescaled to host speed by the
    reference loop timed right after the import."""
    raw = res["imported_ns"] - spawned
    return raw * 1e-9, raw / statistics.fmean(res["setup_ref_wall_ns"]) * REF_NOMINAL_S


def _op_times(ops: list[dict]) -> dict[str, dict[str, float]]:
    """Each command's wall and CPU time, and both rescaled to host speed.

    A probed command's times exclude the probe's own ticks.  The rescaled
    times divide by the mean reference-loop time measured around and during
    the command, and multiply by REF_NOMINAL_S.
    """
    out = {"op_wall_s": {}, "op_cpu_s": {}, "op_wall_norm_s": {},
           "op_cpu_norm_s": {}, "op_ref_s": {}}
    for op in ops:
        label, probe = op["label"], op["probe"]
        wall, cpu = op["end_ns"] - op["start_ns"], op["cpu_ns"]
        if probe:
            wall -= probe["busy_wall_ns"]
            cpu -= probe["busy_cpu_ns"]
            ref_wall = statistics.fmean(probe["ref_wall_ns"])
            ref_cpu = statistics.fmean(probe["ref_cpu_ns"])
            out["op_ref_s"][label] = ref_wall * 1e-9
            out["op_wall_norm_s"][label] = wall / ref_wall * REF_NOMINAL_S
            out["op_cpu_norm_s"][label] = cpu / ref_cpu * REF_NOMINAL_S
        out["op_wall_s"][label] = wall * 1e-9
        out["op_cpu_s"][label] = cpu * 1e-9
    return out


def _metadata(seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "grsdual").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed,
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _declared(traced: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            golden: dict) -> dict:
    declared = _declared(traced)
    meta = _metadata(seed)
    meta["loadavg_before"] = os.getloadavg()
    run = Run(workload, seed, seconds, traced, golden)
    run.execute()
    meta["loadavg_after"] = os.getloadavg()
    measured = run.metrics()
    missing = set(declared) - set(measured)
    if missing:
        raise BenchError(f"BENCHMARK.json lists metrics the run did not "
                         f"produce: {sorted(missing)}")
    result = {
        "correct": run.failed == 0 and not run.inconsistent,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    for problem in run.inconsistent:
        print(f"FAILED {workload}: counts differ between traced iterations: "
              f"{problem}", file=sys.stderr)
    report = {"workload": workload, "seconds": seconds, "trace": int(traced),
              "meta": meta, "result": result,
              "fail_ratio": run.failed / run.attempted,
              "all_metrics": measured,
              "samples": run.samples + run.traced_samples,
              "setup_samples_s": run.setup_s,
              "setup_raw_samples_s": run.setup_raw_s, "failures": run.failures,
              "inconsistent_counts": run.inconsistent}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    return report


def _summary(report: dict) -> list[str]:
    res = report["result"]
    lines = [f"{report['workload']} seed={report['meta']['seed']} "
             f"trace={report['trace']}: {len(report['samples'])} children, "
             f"fail_ratio {report['fail_ratio']:g} "
             f"({res['failed']} failed of {res['attempted']} operations), "
             f"load {report['meta']['loadavg_before'][0]:.2f} -> "
             f"{report['meta']['loadavg_after'][0]:.2f}"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name in RAW_TIMES:
        if name in report["all_metrics"]:
            lines.append(f"  {name:<28} {report['all_metrics'][name]:>14.6g} s"
                         "  (as measured, not rescaled; no bound)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (ROOT / "src" / "grsdual" / "__init__.py").is_file():
            raise BenchError(f"no grsdual sources under {ROOT / 'src'}")
        golden = json.loads((BENCH / "golden.json").read_text())
        OUT.mkdir(exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [run_one(w, args.seed, args.seconds, bool(args.trace), golden)
                   for w in names]
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print("\n".join(_summary(report)))
    if len(reports) == 1:
        print(json.dumps(reports[0]["result"]))
    else:
        results = [r["result"] for r in reports]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {r["workload"]: r["result"]["metrics"] for r in reports}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
