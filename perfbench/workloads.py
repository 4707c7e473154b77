"""Workload inputs and output checks of the phoscil benchmark.

Standard library only: run.py uses this module without loading the
program, and the checks read the files the CLI wrote, never its objects.

Seed 0 is the canonical input set and is checked against ``golden.json``
(recorded by ``record_golden.py``); every seed is also checked by
invariants that hold for any valid input.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("timescales", "fold-B", "scan")

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: phoscil.gspt.DEFAULT_EPS_B: five log-spaced eps from 1e-7 to 1e-5
_EPS_B = tuple(10.0 ** (-7.0 + 0.5 * k) for k in range(5))
#: acceptance 5's band for the fitted fold-passage slope
SLOPE_BAND = (0.57, 0.77)
#: every SCAN_STRIDE-th cell of the scan keeps golden trace/det values
SCAN_STRIDE = 41
#: (K_h/K_s, 1/alpha) of phoscil's built-in parameter set, which oscillates
REFERENCE_CELL = (6.428571428571429, 5.846153846153847)


class CheckError(Exception):
    """A job's output is missing or outside the correctness check."""


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def cli_args(workload: str, seed: int) -> list[str]:
    """The phoscil argument list of one job (without ``--out``).

    Other seeds scale each eps by a log-uniform factor, in [0.97, 1.03]
    for ``timescales`` and in [0.97, 1.0] for ``fold-B`` (which keeps it
    inside chart B's regime, eps <= 1e-5), or draw the scan rectangle's
    upper bounds from [15, 17].  Job time goes roughly as 1/eps, so wider
    eps factors would make seeds differ by more than the bound on job_s.
    """
    rng = random.Random(seed)
    if workload == "timescales":
        eps = (1e-3, 1e-4)
        if seed:
            eps = tuple(e * _log_uniform(rng, 0.97, 1.03) for e in eps)
        return ["timescales", "--eps-list", ",".join(map(repr, eps))]
    if workload == "fold-B":
        if not seed:
            return ["fold-scaling", "--chart", "B"]
        eps = [e * _log_uniform(rng, 0.97, 1.0) for e in _EPS_B]
        return ["fold-scaling", "--chart", "B", "--eps-list", ",".join(map(repr, eps))]
    if workload == "scan":
        if not seed:
            return ["scan", "--grid", "200x200"]
        return ["scan", "--kh-over-ks", f"1:{rng.uniform(15.0, 17.0)!r}",
                "--inv-alpha", f"1:{rng.uniform(15.0, 17.0)!r}", "--grid", "200x200"]
    raise ValueError(f"unknown workload {workload!r}")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# --- reading the CLI's output ----------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """(provenance lines, header, rows) of a phoscil CSV file."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from exc
    comments = [line[2:] for line in lines if line.startswith("# ")]
    table = [line.split(",") for line in lines if not line.startswith("#")]
    if not table:
        raise CheckError(f"{path.name} has no header")
    return comments, table[0], table[1:]


def _columns(header: list[str], rows: list[list[str]], names) -> list[list[float]]:
    try:
        index = [header.index(name) for name in names]
        return [[float(row[i]) for i in index] for row in rows]
    except (ValueError, IndexError) as exc:
        raise CheckError(f"malformed table: {exc}") from exc


def _arg(args: list[str], flag: str) -> str | None:
    return args[args.index(flag) + 1] if flag in args else None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(value: float, golden: float | None, rel: float, what: str) -> None:
    if golden is None:
        _require(math.isnan(value), f"{what}: expected nan, got {value!r}")
    else:
        _require(abs(value - golden) <= rel * abs(golden),
                 f"{what}: {value!r} differs from golden {golden!r} by more than {rel:g} relative")


# --- per-workload checks ------------------------------------------------------------

def _check_timescales(args, out: Path, golden) -> dict:
    _, header, rows = read_csv(out / "timescales.csv")
    eps_in = [float(e) for e in _arg(args, "--eps-list").split(",")]
    values = _columns(header, rows, ("eps", "period", "tau_B_to_A", "tau_A_to_B"))
    _require(len(values) == len(eps_in), f"{len(values)} rows for {len(eps_in)} eps values")
    for (eps, period, tau_ba, tau_ab), eps_wanted in zip(values, eps_in):
        _require(eps == eps_wanted, f"row eps {eps!r} is not the input {eps_wanted!r}")
        # nan segment times mark a row whose terminus is not limit_cycle
        _require(all(math.isfinite(v) for v in (period, tau_ba, tau_ab)),
                 f"eps {eps!r}: no limit cycle")
        _require(period == tau_ba + tau_ab,
                 f"eps {eps!r}: period {period!r} != tau_B_to_A + tau_A_to_B")
    if golden is not None:
        for row, gold in zip(values, golden["rows"]):
            for name, value, ref in zip(("period", "tau_B_to_A", "tau_A_to_B"), row[1:], gold[1:]):
                _close(value, ref, 1e-9, f"eps {row[0]!r} {name}")
    return {"rows": values}


def _check_fold_b(args, out: Path, golden) -> dict:
    comments, header, rows = read_csv(out / "fold_scaling_b.csv")
    slopes = [c.split("=", 1)[1] for c in comments if c.startswith("slope = ")]
    _require(len(slopes) == 1, "no slope line in fold_scaling_b.csv")
    slope = float(slopes[0])
    entries = _columns(header, rows, ("eps", "offset"))
    eps_arg = _arg(args, "--eps-list")
    eps_in = sorted(float(e) for e in eps_arg.split(",")) if eps_arg else list(_EPS_B)
    _require(len(entries) == len(eps_in), f"{len(entries)} entries for {len(eps_in)} eps values")
    for (eps, offset), eps_wanted in zip(entries, eps_in):
        _require(math.isclose(eps, eps_wanted, rel_tol=1e-15), f"entry eps {eps!r} not in the input")
        _require(math.isfinite(offset) and offset > 0.0, f"eps {eps!r}: offset {offset!r}")
    _require(SLOPE_BAND[0] <= slope <= SLOPE_BAND[1], f"slope {slope!r} outside {SLOPE_BAND}")
    if golden is not None:
        for (eps, offset), (eps_ref, offset_ref) in zip(entries, golden["entries"]):
            _require(eps == eps_ref, f"entry eps {eps!r} is not the golden {eps_ref!r}")
            _close(offset, offset_ref, 1e-9, f"eps {eps!r} offset")
    return {"entries": entries, "slope": slope}


def _check_scan(args, out: Path, golden) -> dict:
    _, header, rows = read_csv(out / "scan.csv")
    nx, ny = (int(n) for n in _arg(args, "--grid").split("x"))
    _require(len(rows) == nx * ny, f"{len(rows)} cells for a {nx}x{ny} grid")
    cells = _columns(header, rows, ("kh_over_ks", "inv_alpha", "trace", "det", "oscillates"))
    for x, y, trace, det, osc in cells:
        if x <= y:  # no positive equilibrium below the diagonal
            _require(math.isnan(trace) and math.isnan(det) and osc == 0.0,
                     f"cell ({x!r}, {y!r}) below the diagonal is not inadmissible")
    xs = [cells[i * ny][0] for i in range(nx)]
    ys = [cells[j][1] for j in range(ny)]
    i = min(range(nx), key=lambda k: abs(xs[k] - REFERENCE_CELL[0]))
    j = min(range(ny), key=lambda k: abs(ys[k] - REFERENCE_CELL[1]))
    _require(cells[i * ny + j][4] == 1.0, f"reference cell ({xs[i]!r}, {ys[j]!r}) does not oscillate")
    # one Hopf point per trace sign change along inv_alpha (nan products compare false)
    hopf = sum(1 for i in range(nx) for j in range(ny - 1)
               if cells[i * ny + j][2] * cells[i * ny + j + 1][2] < 0.0)
    mask = format(int("".join("1" if c[4] else "0" for c in cells), 2), "x")
    if golden is not None:
        _require(mask == golden["oscillates"], "oscillates mask differs from golden")
        _require(hopf == golden["hopf_points"],
                 f"{hopf} Hopf points, golden has {golden['hopf_points']}")
        for k, trace_ref, det_ref in golden["cells"]:
            _close(cells[k][2], trace_ref, 1e-12, f"cell {k} trace")
            _close(cells[k][3], det_ref, 1e-12, f"cell {k} det")
    return {"oscillates": mask, "hopf_points": hopf,
            "cells": [[k, c[2], c[3]] for k, c in enumerate(cells) if k % SCAN_STRIDE == 0]}


_CHECKS = {"timescales": _check_timescales, "fold-B": _check_fold_b, "scan": _check_scan}


def check(workload: str, args: list[str], out: Path, golden: dict | None) -> dict:
    """Check one job's output files; raise CheckError on any violation.

    ``golden`` is the workload's entry of golden.json for seed 0 and
    None otherwise.  Returns the values that golden.json records.
    """
    return _CHECKS[workload](args, out, golden)
