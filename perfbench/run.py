"""phoscil benchmark: time to a solution of phoscil CLI jobs, end to end and per layer.

    python3 perfbench/run.py --workload timescales --seed 0 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each was chosen):

    timescales  phoscil timescales --eps-list 1e-3,1e-4
    fold-B      phoscil fold-scaling --chart B
    scan        phoscil scan --grid 200x200

``--seed`` 0 runs these canonical inputs; other seeds perturb them (see
workloads.cli_args).  Each run times ``SETUP_SAMPLES`` fresh interpreters
for ``setup_s``, then starts one fresh worker process that sets up once
more and runs jobs back to back through ``phoscil.cli.main`` for
``--seconds`` of job time.  run.py then checks every job's output
(``workloads.check``).  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run (spans.py).  Everything the run leaves is under
``perfbench/out/``: the result file ``<workload>-seed<n>-trace<t>.json``
and a directory of the same name with the worker's files.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: fresh interpreters timed for setup_s besides the worker's own set-up
SETUP_SAMPLES = 2
#: a run must end within this many seconds of its start
DEADLINE_S = 170.0


def _machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "loadavg_at_start": os.getloadavg()}


def _tail(walls: list[float]) -> dict | None:
    """The highest whole percentile of job wall time with ten jobs beyond it."""
    n = len(walls)
    if n <= 10:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100.0))
    return {"percentile": pct, "job_s": sorted(walls)[rank - 1], "jobs": n}


def _check(workload: str, seed: int, cli_args: list[str], jobs: list[dict], outputs: Path) -> None:
    """Check each distinct job output once; failed checks become job errors."""
    golden = workloads.load_golden()[workload] if seed == 0 else None
    verdicts: dict[str, str | None] = {}
    for job in jobs:
        if job["error"] is not None:
            continue
        digest = str(job["digest"])
        if digest not in verdicts:
            try:
                workloads.check(workload, cli_args, outputs / digest, golden)
                verdicts[digest] = None
            except workloads.CheckError as exc:
                verdicts[digest] = f"check: {exc}"
        job["error"] = verdicts[digest]
    shutil.rmtree(outputs, ignore_errors=True)


def _child(argv: list[str], env: dict, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise subprocess.TimeoutExpired(argv, 0)
    return subprocess.run([sys.executable, str(WORKER), *argv], env=env, cwd=ROOT,
                          timeout=timeout, check=True, **kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    src = ROOT / "src"
    if not (src / "phoscil" / "cli.py").is_file():
        print(f"perfbench: no phoscil sources in {src}", file=sys.stderr)
        return 2
    machine = _machine()
    env = dict(os.environ)
    env.pop("PHOSCIL_THREADS", None)  # the pools run at their default size
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = HERE / "out" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "args": workloads.cli_args(args.workload, args.seed)}
    (run_dir / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")

    try:
        setup = [json.loads(_child(["setup"], env, deadline, capture_output=True,
                                   text=True).stdout)["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
        with open(run_dir / "worker.log", "w") as log:
            _child(["run", str(run_dir)], env, deadline, stdout=log, stderr=subprocess.STDOUT)
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: worker failed with exit code {exc.returncode}; "
              f"see {run_dir}/worker.log", file=sys.stderr)
        if exc.stderr:
            print(exc.stderr, file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "result.json").read_text())
    setup.append(result["setup_s"])
    jobs = result["jobs"]
    _check(args.workload, args.seed, spec["args"], jobs, run_dir / "outputs")
    failed = sum(job["error"] is not None for job in jobs)
    untraced = [job for job in jobs if not job["traced"]]
    walls = [job["wall_s"] for job in untraced]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = spans.layer_metrics(spans.read_spans(run_dir / "spans.jsonl"))
        declared = declared["per_layer"]
    else:
        values = {
            "job_s": statistics.median(walls),
            "job_cpu_s": statistics.median(job["cpu_s"] for job in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        declared = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    fail_frac = failed / len(jobs)

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cli_args": spec["args"],
        "machine": {**machine, "numpy": result["numpy"], "scipy": result["scipy"]},
        "setup_samples_s": setup, "jobs": jobs, "fail_frac": fail_frac,
        "job_s_tail": _tail(walls), "metrics": metrics,
    }
    (HERE / "out" / f"{name}.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"{args.workload} (seed {args.seed}): phoscil {' '.join(spec['args'])}")
    print(f"  {len(jobs)} jobs ({len(untraced)} untraced), {failed} failed")
    for error in sorted({job['error'] for job in jobs if job['error']}):
        print(f"  failure: {error}")
    for key, metric in [*metrics.items(), ("fail_frac", {"value": fail_frac, "unit": "ratio"})]:
        print(f"  {key:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
