"""Record golden.json: the seed-0 outputs the benchmark checks jobs against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Runs each workload's seed-0 job once through phoscil.cli.main, keeps the
values that workloads.check compares, and cross-checks two of them
against the library: the scan's Hopf-point count, which the check counts
from trace sign changes in the CSV, and the reference cell.  Re-record
only when a change is meant to move these numbers, and say so.
"""
import json
import math
import sys
import tempfile
from pathlib import Path

import workloads
from phoscil import cli
from phoscil.gspt import stability_scan
from phoscil.params import UREASE_VESICLE, derive_dimensionless


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        args = workloads.cli_args(workload, 0)
        with tempfile.TemporaryDirectory() as tmp:
            if cli.main(args + ["--out", tmp]) != 0:
                raise SystemExit(f"{workload}: phoscil {' '.join(args)} failed")
            golden[workload] = workloads.check(workload, args, Path(tmp), None)
    dp = derive_dimensionless(UREASE_VESICLE)
    ref = (dp.K_h / dp.K_s, 1.0 / dp.alpha)
    if ref != workloads.REFERENCE_CELL:
        raise SystemExit(f"workloads.REFERENCE_CELL should be {ref!r}")
    hopf = len(stability_scan(dp, (1.0, 20.0), (1.0, 12.0), (200, 200)).hopf)
    if hopf != golden["scan"]["hopf_points"]:
        raise SystemExit(f"library has {hopf} Hopf points, the CSV shows "
                         f"{golden['scan']['hopf_points']}")
    golden["scan"]["cells"] = [[k, *(None if math.isnan(v) else v for v in tr_det)]
                               for k, *tr_det in golden["scan"]["cells"]]
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in golden.items()]
    workloads.GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
