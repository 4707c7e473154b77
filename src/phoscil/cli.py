"""Command-line front end: every analysis as a reproducible subcommand.

Each subcommand wraps one library operation and serializes its result to
the output directory as plot-ready CSV or JSON.  Every output file opens
with a deterministic provenance header (the subcommand and all effective
settings, echoed as ``#`` comment lines or a ``"provenance"`` key), so
identical invocations produce byte-identical files: there is no clock
and no randomness in any output.

Exit codes:

====  =========================================================
0     success
1     numeric failure (model, integrator, or analysis errors)
2     I/O failure (unreadable input, unwritable output)
3     invalid arguments or malformed parameter-file contents
====  =========================================================

Every subcommand runs in one thread.  JSON files may contain ``NaN``
tokens for undefined entries (Python's :mod:`json` reads them back
natively).
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from ._fmt import fmt17, write_csv, write_json
from .errors import (
    DomainError,
    NoPositiveEquilibriumError,
    ParameterFileError,
    PhoscilError,
)
from .gspt import (
    DEFAULT_EPS_A,
    DEFAULT_EPS_B,
    export_fold_report,
    fixed_point,
    fold_passage_offset,
    stability_scan,
    verify_generic_fold,
)
from .integrator import IntegratorConfig, Trajectory, export_trajectory, integrate
from .model import make_field, to_chart_A, to_log
from .params import (
    UREASE_VESICLE,
    derive_dimensionless,
    derive_eps_split,
    load_physical,
    split_dimless,
)
from .cycle import _event_pair, _start_point, compare, find_limit_cycle

__all__ = [
    "RunConfig",
    "cmd_simulate",
    "cmd_scan",
    "cmd_fold_check",
    "cmd_cycle",
    "cmd_timescales",
    "cmd_fold_scaling",
    "cmd_fixed_point",
    "main",
]

#: exit codes, in one place so tests and docs cannot drift
EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_IO = 2
EXIT_USAGE = 3


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings shared by all subcommands.

    ``params_path is None`` selects the built-in urease-vesicle set.
    ``rtol``/``atol`` of ``None`` keep the integrator defaults.  Runs are
    seed-free: nothing here (or downstream) consumes randomness.
    """

    params_path: Path | None
    eps: float
    rtol: float | None
    atol: float | None
    out_dir: Path
    fmt: str

    def __post_init__(self) -> None:
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise DomainError(f"eps override must be positive, got {self.eps!r}")
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} override must be positive, got {value!r}")
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.fmt!r}")

    def resolve(self):
        """(phys, dp, es, cfg): load parameters and apply every override."""
        phys = UREASE_VESICLE if self.params_path is None else load_physical(self.params_path)
        dp = derive_dimensionless(phys)
        es = derive_eps_split(dp).at_eps(self.eps)
        cfg = IntegratorConfig()
        overrides = {k: v for k, v in (("rtol", self.rtol), ("atol", self.atol)) if v is not None}
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        return phys, dp, es, cfg

    def out(self, name: str) -> Path:
        return self.out_dir / name

    def provenance(self, subcommand: str, *extra: str) -> list[str]:
        """Deterministic header lines echoed into every output file."""
        cfg_default = IntegratorConfig()
        lines = [
            f"phoscil {subcommand}",
            "params = " + ("builtin urease-vesicle set" if self.params_path is None
                           else str(self.params_path)),
            f"eps = {fmt17(self.eps)}",
            f"rtol = {fmt17(self.rtol if self.rtol is not None else cfg_default.rtol)}",
            f"atol = {fmt17(self.atol if self.atol is not None else cfg_default.atol)}",
        ]
        lines.extend(extra)
        return lines


def _key_value_csv(path: Path, pairs, provenance) -> None:
    rows = [[key, value if isinstance(value, str) else fmt17(value)] for key, value in pairs]
    write_csv(path, ["quantity", "value"], rows, provenance=provenance)


# --- subcommand bodies --------------------------------------------------------

def cmd_simulate(run: RunConfig, t_span: tuple[float, float],
                 x0: tuple[float, float] | None) -> int:
    """Integrate the eps-split system and export the trajectory.

    Writes the same samples in all three coordinate systems --
    ``simulate_state.csv`` (s, h), ``simulate_chart_a.csv`` (sigma, h),
    ``simulate_log.csv`` (pS, pH) -- plus ``simulate_events.json``
    recording the substrate turning points (event 0 = s-maximum,
    event 1 = s-minimum).  A zero-length t_span exports the single
    initial sample without integrating.
    """
    phys, dp, es, cfg = run.resolve()
    dpe = split_dimless(dp, es)
    if x0 is None:
        try:
            x0 = _start_point(dpe)
        except NoPositiveEquilibriumError:
            x0 = (1.0, 0.5)
    if t_span[1] == t_span[0]:
        traj = Trajectory.single(t_span[0], list(x0), names=("s", "h"))
    else:
        traj = integrate(make_field(dpe), x0, t_span, cfg,
                         events=_event_pair(dpe))
    prov = run.provenance(
        "simulate",
        f"t_span = {fmt17(t_span[0])} .. {fmt17(t_span[1])}",
        f"x0 = ({fmt17(x0[0])}, {fmt17(x0[1])})",
        "event 0 = s-maximum, event 1 = s-minimum (zeros of ds/dt)",
    )
    export_trajectory(traj, run.out("simulate_state.csv"), run.out("simulate_events.json"),
                      names=("s", "h"), provenance=prov)
    export_trajectory(traj, run.out("simulate_chart_a.csv"),
                      names=("sigma", "h"), transform=lambda y: tuple(to_chart_A(y, es)),
                      provenance=prov)
    export_trajectory(traj, run.out("simulate_log.csv"),
                      names=("pS", "pH"), transform=lambda y: tuple(to_log(y, phys)),
                      provenance=prov)
    print(f"simulate: {len(traj.t)} samples, {len(traj.events)} turning points "
          f"-> {run.out('simulate_state.csv')}")
    return EXIT_OK


def cmd_scan(run: RunConfig, kh_over_ks: tuple[float, float],
             inv_alpha: tuple[float, float], grid: tuple[int, int]) -> int:
    """Stability scan over the (K_h/K_s, 1/alpha) rectangle."""
    _, dp, _, _ = run.resolve()
    smap = stability_scan(dp, kh_over_ks, inv_alpha, grid)
    prov = run.provenance(
        "scan",
        f"kh_over_ks = {fmt17(kh_over_ks[0])} .. {fmt17(kh_over_ks[1])}",
        f"inv_alpha = {fmt17(inv_alpha[0])} .. {fmt17(inv_alpha[1])}",
        f"grid = {grid[0]}x{grid[1]}",
    )
    if run.fmt == "csv":
        smap.to_csv(run.out("scan.csv"), provenance=prov)
    else:
        write_json(run.out("scan.json"), {"provenance": prov, **smap.to_json_dict()})
    n_osc = int(smap.oscillates.sum())
    print(f"scan: {grid[0]}x{grid[1]} cells, {n_osc} oscillatory "
          f"-> {run.out('scan.' + run.fmt)}")
    return EXIT_OK


def cmd_fold_check(run: RunConfig, chart: str) -> int:
    """Generic-fold verification report for chart A or B."""
    _, dp, es, _ = run.resolve()
    report = verify_generic_fold(chart, es, dp)
    prov = run.provenance("fold-check", f"chart = {chart}")
    name = f"fold_report_{chart.lower()}.{run.fmt}"
    if run.fmt == "json":
        export_fold_report(report, run.out(name), provenance=prov)
    else:
        _key_value_csv(run.out(name), [
            ("chart", report.chart),
            ("fold_slow", report.fold_location[0]),
            ("fold_fast", report.fold_location[1]),
            ("g0_value", report.g0_value),
            ("dg0_fast", report.dg0_fast),
            ("d2g0_fast", report.d2g0_fast),
            ("dg0_slow", report.dg0_slow),
            ("f0_value", report.f0_value),
            ("is_generic", str(report.is_generic)),
        ], prov)
    print(f"fold-check chart {chart}: is_generic={report.is_generic} -> {run.out(name)}")
    return EXIT_OK


def cmd_cycle(run: RunConfig) -> int:
    """Detect the limit cycle at the configured eps and export its record."""
    _, dp, es, cfg = run.resolve()
    report = find_limit_cycle(dp, es, cfg=cfg)
    prov = run.provenance("cycle")
    payload = report.to_json_dict()
    name = f"cycle_report.{run.fmt}"
    if run.fmt == "json":
        write_json(run.out(name), {"provenance": prov, **payload})
    else:
        tp = payload.pop("turning_points")
        pairs = list(payload.items())
        if tp is not None:
            pairs += [("s_max_s", tp["s_max"][0]), ("s_max_h", tp["s_max"][1]),
                      ("s_min_s", tp["s_min"][0]), ("s_min_h", tp["s_min"][1])]
        pairs = [(k, v) for k, v in pairs if not isinstance(v, dict)]
        pairs += [(f"analytic_{k}", v) for k, v in payload["analytic"].items()]
        _key_value_csv(run.out(name), [(k, str(v) if isinstance(v, bool) else v)
                                       for k, v in pairs], prov)
    if report.trajectory is not None:
        export_trajectory(report.trajectory, run.out("cycle_trajectory.csv"),
                          run.out("cycle_events.json"), names=("s", "h"), provenance=prov)
    print(f"cycle: terminus={report.terminus} period={fmt17(report.period)} "
          f"-> {run.out(name)}")
    return EXIT_OK


def cmd_timescales(run: RunConfig, eps_list: tuple[float, ...]) -> int:
    """Analytic vs measured timescale table over a list of eps values."""
    _, dp, es0, cfg = run.resolve()
    table = compare(dp, [es0.at_eps(e) for e in eps_list], cfg=cfg)
    prov = run.provenance("timescales",
                          "eps_list = " + ",".join(fmt17(e) for e in eps_list))
    name = f"timescales.{run.fmt}"
    if run.fmt == "csv":
        table.to_csv(run.out(name), provenance=prov)
    else:
        table.to_json(run.out(name), provenance=prov)
    print(table.format_text())
    return EXIT_OK


def cmd_fold_scaling(run: RunConfig, chart: str,
                     eps_list: tuple[float, ...] | None) -> int:
    """Fold-passage offsets and the fitted log-log slope for one chart."""
    _, dp, es, cfg = run.resolve()
    if eps_list is None:
        eps_list = DEFAULT_EPS_A if chart == "A" else DEFAULT_EPS_B
    scaling = fold_passage_offset(chart, eps_list, es, dp, cfg=cfg)
    prov = run.provenance("fold-scaling", f"chart = {chart}",
                          f"slope = {fmt17(scaling.slope)}")
    name = f"fold_scaling_{chart.lower()}.{run.fmt}"
    if run.fmt == "csv":
        write_csv(run.out(name), ["eps", "offset"],
                  [[fmt17(e), fmt17(o)] for e, o in scaling.entries], provenance=prov)
    else:
        write_json(run.out(name), {
            "provenance": prov,
            "chart": scaling.chart,
            "slope": scaling.slope,
            "entries": [[e, o] for e, o in scaling.entries],
        })
    print(f"fold-scaling chart {chart}: slope={scaling.slope:.4f} -> {run.out(name)}")
    return EXIT_OK


def cmd_fixed_point(run: RunConfig) -> int:
    """Locate and classify the positive fixed point."""
    _, dp, _, _ = run.resolve()
    fp = fixed_point(dp)
    prov = run.provenance("fixed-point")
    name = f"fixed_point.{run.fmt}"
    pairs = [("s_star", fp.s_star), ("h_star", fp.h_star), ("trace", fp.trace),
             ("det", fp.det), ("classification", fp.classification)]
    if run.fmt == "json":
        write_json(run.out(name), {"provenance": prov, **dict(pairs)})
    else:
        _key_value_csv(run.out(name), pairs, prov)
    print(f"fixed point (s_*, h_*) = ({fp.s_star:.4f}, {fp.h_star:.4f})  {fp.classification}")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(name: str, upper: float | None = None):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        if not (value > 0.0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {text!r}")
        if upper is not None and value > upper:
            raise argparse.ArgumentTypeError(f"{name} must be <= {upper:g}, got {text!r}")
        return value
    return parse


def _span(text: str) -> tuple[float, float]:
    """t0:t1 with t1 >= t0 (equality selects the single-sample export)."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a0:a1, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers in a0:a1, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi >= lo):
        raise argparse.ArgumentTypeError(f"need finite a1 >= a0, got {text!r}")
    return lo, hi


def _interval(text: str) -> tuple[float, float]:
    lo, hi = _span(text)
    if hi <= lo:
        raise argparse.ArgumentTypeError(f"need a1 > a0, got {text!r}")
    return lo, hi


def _grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected NxM, got {text!r}")
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in NxM, got {text!r}")
    if nx < 2 or ny < 2:
        raise argparse.ArgumentTypeError(f"grid must be at least 2x2, got {text!r}")
    return nx, ny


def _state(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected s,h with two numbers, got {text!r}")
    try:
        s, h = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers in s,h, got {text!r}")
    if not (math.isfinite(s) and math.isfinite(h) and s >= 0.0 and h >= 0.0):
        raise argparse.ArgumentTypeError(f"state coordinates must be >= 0, got {text!r}")
    return s, h


def _eps_list(text: str) -> tuple[float, ...]:
    parse_one = _positive("eps")
    values = tuple(parse_one(part) for part in text.split(",") if part)
    if not values:
        raise argparse.ArgumentTypeError("eps list must not be empty")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="phoscil",
                     description="Urea-urease pH-oscillator analyses with reproducible outputs.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", type=Path, default=None, metavar="FILE",
                        help="parameter file (.txt key=value or .json); default: built-in set")
    common.add_argument("--eps", type=_positive("eps", upper=1.0), default=1e-3,
                        help="timescale-separation parameter (default 1e-3)")
    common.add_argument("--rtol", type=_positive("rtol", upper=1e-3), default=None,
                        help="integrator relative tolerance (default 1e-10)")
    common.add_argument("--atol", type=_positive("atol"), default=None,
                        help="integrator absolute tolerance (default 1e-12)")
    common.add_argument("--out", type=Path, default=Path("."), metavar="DIR",
                        help="output directory (created if missing; default .)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="serialization for report-style outputs (default csv)")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate and export the trajectory in three coordinate systems")
    p.add_argument("--t-span", type=_span, default=(0.0, 300.0), metavar="T0:T1",
                   help="integration window (default 0:300); T0:T0 exports one sample")
    p.add_argument("--x0", type=_state, default=None, metavar="S,H",
                   help="initial state (default: near the fixed point, displaced in h)")

    p = sub.add_parser("scan", parents=[common],
                       help="trace/det stability scan over (K_h/K_s, 1/alpha)")
    p.add_argument("--kh-over-ks", type=_interval, default=(1.0, 20.0), metavar="A:B")
    p.add_argument("--inv-alpha", type=_interval, default=(1.0, 12.0), metavar="A:B")
    p.add_argument("--grid", type=_grid, default=(200, 200), metavar="NxM")

    p = sub.add_parser("fold-check", parents=[common],
                       help="verify the generic-fold conditions in one chart")
    p.add_argument("--chart", choices=("A", "B"), required=True)

    sub.add_parser("cycle", parents=[common],
                   help="detect the limit cycle and export period, segments, trajectory")

    p = sub.add_parser("timescales", parents=[common],
                       help="analytic vs measured timescale table over several eps")
    p.add_argument("--eps-list", type=_eps_list, default=(1e-3, 1e-4, 1e-5),
                   metavar="E1,E2,...")

    p = sub.add_parser("fold-scaling", parents=[common],
                       help="fold-passage offset vs eps and its log-log slope")
    p.add_argument("--chart", choices=("A", "B"), required=True)
    p.add_argument("--eps-list", type=_eps_list, default=None, metavar="E1,E2,...",
                   help="default: five log-spaced eps in the chart's scaling regime")

    sub.add_parser("fixed-point", parents=[common],
                   help="locate and classify the positive fixed point")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = RunConfig(params_path=args.params, eps=args.eps, rtol=args.rtol,
                    atol=args.atol, out_dir=args.out, fmt=args.format)
    try:
        run.out_dir.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "simulate":
            return cmd_simulate(run, args.t_span, args.x0)
        if args.subcommand == "scan":
            return cmd_scan(run, args.kh_over_ks, args.inv_alpha, args.grid)
        if args.subcommand == "fold-check":
            return cmd_fold_check(run, args.chart)
        if args.subcommand == "cycle":
            return cmd_cycle(run)
        if args.subcommand == "timescales":
            return cmd_timescales(run, args.eps_list)
        if args.subcommand == "fold-scaling":
            return cmd_fold_scaling(run, args.chart, args.eps_list)
        if args.subcommand == "fixed-point":
            return cmd_fixed_point(run)
        parser.error(f"unknown subcommand {args.subcommand!r}")
    except ParameterFileError as exc:
        print(f"phoscil: parameter file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"phoscil: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PhoscilError as exc:
        print(f"phoscil: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
