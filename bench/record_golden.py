"""Record bench/golden.json from the sources in this checkout.

    python3 bench/record_golden.py

Runs every workload once at seed 0 and stores exit codes and output
digests.  The golden file is the reference for "same behaviour", so record
it only at a commit whose outputs are known good; the independent checks
in gate.py must pass on the recorded outputs, or nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, OUT, _metadata, _spawn
import gate
from workloads import WORKLOADS


def main() -> int:
    golden = {"recorded_from": {k: v for k, v in _metadata(0).items()
                                if k in ("git_rev", "src_sha256", "python",
                                         "numpy")}}
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        workdir = OUT / f"golden-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            _, res = _spawn([workload, "0", "0"], workdir, 600.0)
            golden[workload] = gate.record(workload, 0, res["ops"], workdir)
            bad = [o for o in gate.check_run(workload, 0, res["ops"], workdir,
                                             golden) if not o.ok]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if bad:
            for o in bad:
                print(f"{o.label}: {o.reasons}", file=sys.stderr)
            return 1
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
