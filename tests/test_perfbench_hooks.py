"""The benchmark's hooks into phoscil still resolve.

``perfbench/spans.py`` finds the functions, methods and field factories it
traces by name (``_FUNCTIONS``, ``_METHODS``, ``_FIELD_FACTORIES``), and
``perfbench/worker.py`` builds ``cli.RunConfig(...).resolve()``.  A rename
in phoscil would break only the benchmark, so these tests run small traced
jobs the way the worker does, check that uninstalling the tracer puts
every original binding back, and check the counts ``_COUNTS`` reads from
return values such as ``CycleReport``.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans) -> dict:
    """Every module-level binding of phoscil, and every traced method, by identity."""
    out = {(name, attr): value for name, module in list(sys.modules.items())
           if name == "phoscil" or name.startswith("phoscil.")
           for attr, value in vars(module).items()}
    for targets in spans._METHODS.values():
        for mod_name, cls_name, attr in targets:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            out[(cls, attr)] = cls.__dict__[attr]
    return out


@pytest.fixture(scope="module")
def perfbench():
    return _load("spans"), _load("worker")


def test_every_traced_name_exists(perfbench):
    spans, _ = perfbench
    for targets in spans._FUNCTIONS.values():
        for mod_name, attr in targets:
            assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
    for targets in spans._METHODS.values():
        for mod_name, cls_name, attr in targets:
            assert attr in getattr(importlib.import_module(mod_name), cls_name).__dict__
    model = importlib.import_module("phoscil.model")
    for attr in spans._FIELD_FACTORIES:
        assert callable(getattr(model, attr)), attr


def _untraced_then_traced(spans, worker, args, run_dir) -> dict:
    """Run ``args`` once untraced and once traced, as the worker does; the layer metrics.

    Both jobs must succeed and write the same files.
    """
    cli, _ = worker.setup()
    tracer = spans.Tracer()
    jobs = worker.run_jobs(cli, args, run_dir, 0.0, tracer)
    tracer.install()
    try:
        jobs += worker.run_jobs(cli, args, run_dir, 0.0, tracer, traced=True, first_job=1)
    finally:
        tracer.uninstall()
    assert [job["error"] for job in jobs] == [None, None]
    assert jobs[0]["digest"] == jobs[1]["digest"]
    tracer.write(run_dir / "spans.jsonl")
    return spans.layer_metrics(spans.read_spans(run_dir / "spans.jsonl"))


def test_a_traced_job_counts_its_layers_and_uninstalls_cleanly(perfbench, tmp_path):
    spans, worker = perfbench
    worker.setup()
    before = _bindings(spans)
    metrics = _untraced_then_traced(spans, worker, ["simulate", "--t-span", "0:1"], tmp_path)

    after = _bindings(spans)
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []

    assert metrics["integrator.calls"] == 1 and metrics["integrator.steps"] > 0
    assert metrics["model.f_calls"] > 0 and metrics["model.jac_calls"] > 0
    assert metrics["params.resolve_s"] > 0.0 and metrics["cli.write_s"] > 0.0


def test_a_traced_cycle_job_reads_the_reports_transient_periods(perfbench, tmp_path):
    # spans.py counts CycleReport.n_transient_periods of every find_limit_cycle call
    metrics = _untraced_then_traced(*perfbench, ["cycle", "--eps", "1e-3"], tmp_path)
    assert metrics["cycle.transient_periods"] == 2
