"""Child process of the phoscil benchmark.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run RUN_DIR

``setup`` times what a fresh interpreter does before its first job
(``import phoscil.cli`` plus ``RunConfig.resolve``) and prints it as JSON.

``run`` does the same set-up, then reads ``RUN_DIR/spec.json`` (written
by run.py) and runs the jobs in a closed loop through ``phoscil.cli.main``
until their wall time adds up to the spec's seconds, at least one job.
With tracing, the loop runs twice: untraced for half the seconds, then
with the wrappers of spans.py installed for the other half; the spans go
to ``RUN_DIR/spans.jsonl``.  The result goes to ``RUN_DIR/result.json``.
The worker does not check outputs, so that its peak memory is the
program's: each job records a digest of the files it wrote, and the
first output with each digest is kept in ``RUN_DIR/outputs/<digest>``
for run.py to check.  phoscil must be importable (run.py puts the
checkout's ``src`` first on PYTHONPATH).
"""
import sys
import time


def setup():
    """(phoscil.cli module, seconds from here until the first job could start)."""
    t0 = time.perf_counter()
    from pathlib import Path

    from phoscil import cli

    cli.RunConfig(params_path=None, eps=1e-3, rtol=None, atol=None,
                  out_dir=Path("."), fmt="csv").resolve()
    return cli, time.perf_counter() - t0


def _digest(out_dir) -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
    return digest.hexdigest()


def run_jobs(cli, args, run_dir, seconds, tracer=None, traced=False, first_job=0):
    """Closed loop of jobs numbered from ``first_job``; one record per job."""
    import shutil
    from contextlib import nullcontext

    out_dir = run_dir / "cli_out"
    args = args + ["--out", str(out_dir)]
    jobs, busy = [], 0.0
    while not jobs or busy < seconds:
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.job = first_job + len(jobs)
        with (tracer.span("job") if tracer is not None else nullcontext({})) as info:
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                code, error = cli.main(list(args)), None
            except SystemExit as exc:  # argparse usage errors
                code, error = exc.code, None
            except Exception as exc:  # a failed job is counted, not fatal
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        busy += wall
        if error is None and code != 0:
            error = f"exit code {code}"
        digest, out_bytes = None, 0
        if out_dir.is_dir():
            out_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
            digest = _digest(out_dir)
            kept = run_dir / "outputs" / digest
            if not kept.exists():
                shutil.copytree(out_dir, kept)
        info.update(traced=traced, out_bytes=out_bytes)
        jobs.append({"wall_s": wall, "cpu_s": cpu, "out_bytes": out_bytes, "digest": digest,
                     "traced": traced, "error": error})
    shutil.rmtree(out_dir, ignore_errors=True)
    return jobs


def run(run_dir):
    import json
    import resource
    from pathlib import Path

    cli, setup_s = setup()
    import numpy
    import scipy

    import spans

    run_dir = Path(run_dir)
    spec = json.loads((run_dir / "spec.json").read_text())
    if spec["trace"]:
        tracer = spans.Tracer()
        half = spec["seconds"] / 2.0
        jobs = run_jobs(cli, spec["args"], run_dir, half, tracer)
        tracer.install()
        try:
            jobs += run_jobs(cli, spec["args"], run_dir, half, tracer,
                             traced=True, first_job=len(jobs))
        finally:
            tracer.uninstall()
        tracer.write(run_dir / "spans.jsonl")
    else:
        jobs = run_jobs(cli, spec["args"], run_dir, spec["seconds"])
    result = {
        "setup_s": setup_s,
        "jobs": jobs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")


def main(argv):
    if argv[1:] == ["setup"]:
        _, setup_s = setup()
        print('{"setup_s": %r}' % setup_s)
        return 0
    if len(argv) == 3 and argv[1] == "run":
        run(argv[2])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
