"""One benchmark child: import grsdual from the checkout, run one workload.

    python3 bench/child.py ROOT WORKLOAD SEED TRACE WORKDIR
    python3 bench/child.py ROOT --setup-only WORKDIR

The child imports `grsdual` from ROOT/src and nowhere else, so a fresh
process starts with cold field caches and lazy tables, as a CLI call does.
It runs the workload's commands through `grsdual.cli.main` inside WORKDIR,
timing each call from outside, and writes `result.json` there (plus
`spans.json` when TRACE is 1).  An untraced child also times a reference
loop around and during every command (`HostProbe`), and every child times
it right after the import, so the parent can rescale the times to nominal
host speed.  It checks nothing; the parent does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path


def _monotonic_ns() -> int:
    # the parent stamps the spawn on the same system-wide clock
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _import_grsdual(root: Path):
    src = (root / "src").resolve()
    if not (src / "grsdual" / "__init__.py").is_file():
        raise SystemExit(f"bench child: no grsdual package under {src}")
    sys.path.insert(0, str(src))
    import grsdual.cli

    if Path(grsdual.__file__).resolve().parent != src / "grsdual":
        raise SystemExit(f"bench child: imported grsdual from "
                         f"{grsdual.__file__}, not from {src}")
    return grsdual.cli


def _peak_rss_kb() -> int:
    """This process's own peak resident set size.

    Not `ru_maxrss`: the parent starts children with vfork, and exec then
    folds the parent's peak into the child's `ru_maxrss`.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


# The reference loop: fixed pure-Python work (dict lookups and integer
# arithmetic, like grsdual's scalar field code) of about 2 ms.
REF_STEPS = 15000
REF_TABLE = {i: (i * i) % 10007 for i in range(4096)}
PROBE_PERIOD_S = 0.05   # timer interval while a command runs
BRACKET = 4             # reference loops just before and just after a command


def _reference_loop() -> int:
    tab, acc = REF_TABLE, 0
    for i in range(REF_STEPS):
        acc = (acc * 31 + tab[i & 4095]) % 10007
    return acc


def _loop_wall_ns() -> int:
    start = time.perf_counter_ns()
    _reference_loop()
    return time.perf_counter_ns() - start


class HostProbe:
    """Gauges the host's speed while one command runs.

    The loop is timed BRACKET times before and after the command, and once
    on every tick of a wall-clock timer during it, so a long command is
    sampled throughout.  The timer handler runs between bytecodes of the
    command; its own wall and CPU time are recorded so the parent can take
    them off the command's.
    """

    def __init__(self) -> None:
        self.ref_wall_ns: list[int] = []
        self.ref_cpu_ns: list[int] = []
        self.busy_wall_ns = self.busy_cpu_ns = 0

    def _sample(self) -> None:
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        _reference_loop()
        self.ref_cpu_ns.append(time.process_time_ns() - cpu)
        self.ref_wall_ns.append(time.perf_counter_ns() - wall)

    def _tick(self, signum, frame) -> None:
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        self._sample()
        self.busy_cpu_ns += time.process_time_ns() - cpu
        self.busy_wall_ns += time.perf_counter_ns() - wall

    @contextlib.contextmanager
    def around(self):
        for _ in range(BRACKET):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(BRACKET):
            self._sample()

    def record(self) -> dict:
        return {"ref_wall_ns": self.ref_wall_ns, "ref_cpu_ns": self.ref_cpu_ns,
                "busy_wall_ns": self.busy_wall_ns,
                "busy_cpu_ns": self.busy_cpu_ns}


def _run_ops(main, ops, tracer) -> list[dict]:
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = i
        # a traced child is not probed: the probe's ticks would land in spans
        probe = HostProbe() if tracer is None else None
        out, err = io.StringIO(), io.StringIO()
        error = None
        with probe.around() if probe else contextlib.nullcontext():
            cpu = time.process_time_ns()
            start = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # counted as a failed operation by the parent
                rc, error = None, traceback.format_exc()
            end = time.perf_counter_ns()
            cpu = time.process_time_ns() - cpu
        records.append({"label": op.label, "argv": list(op.argv),
                        "output": op.output, "rc": rc, "error": error,
                        "start_ns": start, "end_ns": end, "cpu_ns": cpu,
                        "probe": probe.record() if probe else None,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return records


def main(argv: list[str]) -> int:
    root = Path(argv[0])
    if argv[1] == "--setup-only":
        workdir = Path(argv[2])
        _import_grsdual(root)
        imported = _monotonic_ns()
        setup_ref = [_loop_wall_ns() for _ in range(2 * BRACKET)]
        (workdir / "result.json").write_text(json.dumps(
            {"imported_ns": imported, "setup_ref_wall_ns": setup_ref}))
        return 0
    workload, seed, traced, workdir = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
    cli = _import_grsdual(root)
    imported = _monotonic_ns()
    setup_ref = [_loop_wall_ns() for _ in range(2 * BRACKET)]

    import workloads

    ops = workloads.ops(workload, seed)
    os.chdir(workdir)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():   # the tracer patches on enter
        records = _run_ops(cli.main, ops, tracer)
    result = {
        "imported_ns": imported,
        "setup_ref_wall_ns": setup_ref,
        "wall_ns": records[-1]["end_ns"] - records[0]["start_ns"],
        "peak_rss_kb": _peak_rss_kb(),
        "ops": records,
    }
    if tracer is not None:
        Path("spans.json").write_text(json.dumps(tracer.export()))
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
