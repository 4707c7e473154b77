"""Command-line front end: every analysis as a reproducible subcommand.

Each subcommand wraps one library operation and serializes its result to
the output directory as plot-ready CSV or JSON.  Every output file opens
with a deterministic provenance header (the subcommand and the settings
it reads, echoed as ``#`` comment lines or a ``"provenance"`` key), so
identical invocations produce byte-identical files: there is no clock
and no randomness in any output.

Besides ``--params`` and ``--out``, a subcommand takes only the flags its
handler reads: ``--eps`` (simulate, cycle), ``--rtol``/``--atol`` (also
timescales, fold-scaling) and ``--format`` (all but simulate, which always
writes CSV plus JSON events).  Any other flag is a usage error.
Each subparser carries its handler, called as ``handler(run, args)``, and
itself, so that a usage error prints the subcommand's own usage line.
The parser checks each value as it reads it; ``--rtol`` and ``--atol``
are read through ``IntegratorConfig``, the only statement of their
ranges, and ``EpsSplit`` checks eps once more.  Every report
file goes through ``_write_report``, which names it ``<stem>.<fmt>`` and
picks the CSV or the JSON writer; a JSON report is
``{"provenance": [...], **payload}``.

Exit codes:

====  =========================================================
0     success
1     numeric failure (model, integrator, or analysis errors)
2     I/O failure (unreadable input, unwritable output)
3     invalid arguments or malformed parameter-file contents
====  =========================================================

``timescales`` and ``fold-scaling`` run their eps rows or passages on
forked processes, at most one per entry and per CPU; every other
subcommand runs in one process.  No flag sets a worker count.  Where
fork() fails (an OS process limit) the entries run in this process and
the run exits 0 with the same bytes; a worker process that dies (an
out-of-memory kill) is a numeric failure, ``WorkerError``, exit 1; an
entry that raises exits with its error's code, as in one process.  JSON
files may contain ``NaN`` tokens for undefined entries (Python's
:mod:`json` reads them back natively).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from ._fmt import fmt17, write_csv, write_json
from .errors import NoPositiveEquilibriumError, ParameterFileError, PhoscilError, PreconditionError
from .gspt import (
    DEFAULT_EPS_A,
    DEFAULT_EPS_B,
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

__all__ = ["RunConfig", "main"]

#: exit codes, in one place so tests and docs cannot drift
EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_IO = 2
EXIT_USAGE = 3


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings shared by all subcommands.

    ``params_path is None`` selects the built-in urease-vesicle set.  A
    setting the subcommand does not take is ``None``: ``provenance`` skips
    it, and ``resolve`` uses eps 1e-3 and the integrator defaults.  Runs are
    seed-free: nothing here (or downstream) consumes randomness.  The
    values are checked by the parser, and again where they are used, by
    ``EpsSplit`` and ``IntegratorConfig``.
    """

    params_path: Path | None
    eps: float | None
    rtol: float | None
    atol: float | None
    out_dir: Path
    fmt: str | None

    @functools.cached_property
    def _cfg(self) -> IntegratorConfig:
        return IntegratorConfig(**{k: v for k, v in (("rtol", self.rtol), ("atol", self.atol))
                                   if v is not None})

    def resolve(self):
        """(phys, dp, es, cfg): load parameters and apply every override."""
        phys = UREASE_VESICLE if self.params_path is None else load_physical(self.params_path)
        dp = derive_dimensionless(phys)
        es = derive_eps_split(dp)
        return phys, dp, es if self.eps is None else es.at_eps(self.eps), self._cfg

    def out(self, name: str) -> Path:
        """Path of the output file ``name``; the first call creates ``out_dir``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def provenance(self, subcommand: str, *extra: str) -> list[str]:
        """Deterministic header lines echoed into every output file."""
        settings = (("eps", self.eps), ("rtol", self.rtol), ("atol", self.atol))
        return [
            f"phoscil {subcommand}",
            "params = " + ("builtin urease-vesicle set" if self.params_path is None
                           else str(self.params_path)),
            *(f"{name} = {fmt17(value)}" for name, value in settings if value is not None),
            *extra,
        ]


def _write_report(run: RunConfig, stem: str, prov: list[str], to_csv, to_json) -> Path:
    """Write the report ``<stem>.<fmt>`` as ``to_csv(path, prov)`` or ``to_json(path, prov)``."""
    path = run.out(f"{stem}.{run.fmt}")
    (to_csv if run.fmt == "csv" else to_json)(path, prov)
    return path


def _json(payload):
    """JSON report writer: ``{"provenance": prov, **payload()}``, built only when written."""
    return lambda path, prov: write_json(path, {"provenance": prov, **payload()})


def _csv(header: list[str], spec: str, rows):
    """CSV report writer of rows in the row format ``spec``."""
    return lambda path, prov: write_csv(path, header, spec, rows, provenance=prov)


def _key_values(pairs):
    """``quantity,value`` CSV report writer: strings verbatim, numbers as fmt17."""
    return _csv(["quantity", "value"], "%s,%s",
                [[key, value if isinstance(value, str) else fmt17(value)] for key, value in pairs])


# --- subcommand handlers: (run, parsed arguments) -----------------------------

def _simulate(run: RunConfig, args) -> None:
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
    t_span, x0 = args.t_span, args.x0
    if x0 is None:
        try:
            x0 = _start_point(dpe)
        except NoPositiveEquilibriumError:
            x0 = (1.0, 0.5)
    if t_span[1] == t_span[0]:
        traj = Trajectory.single(t_span[0], list(x0), names=("s", "h"))
    else:
        traj = integrate(make_field(dpe), x0, t_span, cfg,
                         events=_event_pair(dpe), keep_dense=False)
    prov = run.provenance(
        args.subcommand,
        f"t_span = {fmt17(t_span[0])} .. {fmt17(t_span[1])}",
        f"x0 = ({fmt17(x0[0])}, {fmt17(x0[1])})",
        "event 0 = s-maximum, event 1 = s-minimum (zeros of ds/dt)",
    )
    export_trajectory(traj, run.out("simulate_state.csv"), run.out("simulate_events.json"),
                      provenance=prov)
    export_trajectory(traj, run.out("simulate_chart_a.csv"),
                      names=("sigma", "h"), transform=lambda y: to_chart_A(y, es),
                      provenance=prov)
    export_trajectory(traj, run.out("simulate_log.csv"),
                      names=("pS", "pH"), transform=lambda y: to_log(y, phys),
                      provenance=prov)
    print(f"simulate: {len(traj.t)} samples, {len(traj.events)} turning points "
          f"-> {run.out('simulate_state.csv')}")


def _scan(run: RunConfig, args) -> None:
    """Stability scan over the (K_h/K_s, 1/alpha) rectangle."""
    _, dp, _, _ = run.resolve()
    kh, ia, (nx, ny) = args.kh_over_ks, args.inv_alpha, args.grid
    smap = stability_scan(dp, kh, ia, (nx, ny))
    prov = run.provenance(args.subcommand, f"kh_over_ks = {fmt17(kh[0])} .. {fmt17(kh[1])}",
                          f"inv_alpha = {fmt17(ia[0])} .. {fmt17(ia[1])}", f"grid = {nx}x{ny}")
    path = _write_report(run, "scan", prov, smap.to_csv, _json(smap.to_json_dict))
    print(f"scan: {nx}x{ny} cells, {int(smap.oscillates.sum())} oscillatory -> {path}")


def _fold_check(run: RunConfig, args) -> None:
    """Generic-fold verification report for chart A or B."""
    _, dp, es, _ = run.resolve()
    report = verify_generic_fold(args.chart, es, dp)
    prov = run.provenance(args.subcommand, f"chart = {args.chart}")
    path = _write_report(run, f"fold_report_{args.chart.lower()}", prov, _key_values([
        ("chart", report.chart),
        ("fold_slow", report.fold_location[0]),
        ("fold_fast", report.fold_location[1]),
        ("g0_value", report.g0_value),
        ("dg0_fast", report.dg0_fast),
        ("d2g0_fast", report.d2g0_fast),
        ("dg0_slow", report.dg0_slow),
        ("f0_value", report.f0_value),
        ("is_generic", str(report.is_generic)),
    ]), _json(report.to_json_dict))
    print(f"fold-check chart {args.chart}: is_generic={report.is_generic} -> {path}")


def _cycle(run: RunConfig, args) -> None:
    """Detect the limit cycle at the configured eps and export its record."""
    _, dp, es, cfg = run.resolve()
    report = find_limit_cycle(dp, es, cfg=cfg)
    prov = run.provenance(args.subcommand)
    pairs = [("eps", report.eps), ("terminus", report.terminus),
             ("converged", str(report.converged)), ("period", report.period),
             ("tau_B_to_A", report.tau_B_to_A), ("tau_A_to_B", report.tau_A_to_B),
             ("n_transient_periods", report.n_transient_periods)]
    if report.turning_points is not None:
        (s_max_s, s_max_h), (s_min_s, s_min_h) = report.turning_points
        pairs += [("s_max_s", s_max_s), ("s_max_h", s_max_h),
                  ("s_min_s", s_min_s), ("s_min_h", s_min_h)]
    pairs += [(f"analytic_{k}", v) for k, v in dataclasses.asdict(report.analytic).items()]
    path = _write_report(run, "cycle_report", prov, _key_values(pairs),
                         _json(report.to_json_dict))
    if report.trajectory is not None:
        export_trajectory(report.trajectory, run.out("cycle_trajectory.csv"),
                          run.out("cycle_events.json"), provenance=prov)
    print(f"cycle: terminus={report.terminus} period={fmt17(report.period)} -> {path}")


def _timescales(run: RunConfig, args) -> None:
    """Analytic vs measured timescale table over a list of eps values."""
    _, dp, es0, cfg = run.resolve()
    table = compare(dp, [es0.at_eps(e) for e in args.eps_list], cfg=cfg)
    prov = run.provenance(args.subcommand,
                          "eps_list = " + ",".join(fmt17(e) for e in args.eps_list))
    _write_report(run, "timescales", prov, table.to_csv, table.to_json)
    print(table.format_text())


def _fold_scaling(run: RunConfig, args) -> None:
    """Fold-passage offsets and the fitted log-log slope for one chart."""
    _, dp, es, cfg = run.resolve()
    eps_list = args.eps_list or (DEFAULT_EPS_A if args.chart == "A" else DEFAULT_EPS_B)
    scaling = fold_passage_offset(args.chart, eps_list, es, dp, cfg=cfg)
    prov = run.provenance(args.subcommand, f"chart = {args.chart}",
                          f"slope = {fmt17(scaling.slope)}")
    path = _write_report(
        run, f"fold_scaling_{args.chart.lower()}", prov,
        _csv(["eps", "offset"], "%.17g,%.17g", scaling.entries),
        _json(lambda: {"chart": scaling.chart, "slope": scaling.slope,
                       "entries": [[e, o] for e, o in scaling.entries]}))
    print(f"fold-scaling chart {args.chart}: slope={scaling.slope:.4f} -> {path}")


def _fixed_point(run: RunConfig, args) -> None:
    """Locate and classify the positive fixed point."""
    _, dp, _, _ = run.resolve()
    fp = fixed_point(dp)
    payload = dataclasses.asdict(fp)
    _write_report(run, "fixed_point", run.provenance(args.subcommand),
                  _key_values(payload.items()), _json(lambda: payload))
    print(f"fixed point (s_*, h_*) = ({fp.s_star:.4f}, {fp.h_star:.4f})  {fp.classification}")


# --- argument parsing ---------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _pair(sep: str, kind, shape: str, holds, need: str):
    """Parser of ``a<sep>b``: two ``kind`` values (a, b) with ``holds(a, b)``."""
    def parse(text: str) -> tuple:
        try:
            a, b = map(kind, text.lower().split(sep))
        except ValueError:  # not two parts, or a part ``kind`` cannot read
            raise argparse.ArgumentTypeError(f"expected {shape}, got {text!r}")
        if not holds(a, b):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return a, b
    return parse


#: t0:t1 with t1 >= t0 (equality selects the single-sample export)
_span = _pair(":", float, "T0:T1", lambda a, b: -math.inf < a <= b < math.inf, "finite T0 <= T1")
#: a scan range of K_h/K_s or 1/alpha
_interval = _pair(":", float, "a0:a1", lambda a, b: 0.0 < a < b < math.inf, "0 < a0 < a1 < inf")
_grid = _pair("x", int, "NxM", lambda nx, ny: nx >= 2 and ny >= 2, "N >= 2 and M >= 2")
#: simulate's log export (pS, pH) needs s > 0 and h > 0
_state = _pair(",", float, "S,H", lambda s, h: 0.0 < s < math.inf and 0.0 < h < math.inf,
               "finite S > 0 and H > 0")


def _tolerance(name: str):
    """Parser of ``--rtol`` or ``--atol``: a value IntegratorConfig accepts; its range
    is stated there only."""
    def parse(text: str) -> float:
        try:
            return getattr(IntegratorConfig(**{name: float(text)}), name)
        except ValueError as exc:  # float's, or IntegratorConfig's DomainError
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _eps(text: str) -> float:
    """One eps bound, 0 < eps <= 1, for --eps and every --eps-list entry."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"eps must be a number, got {text!r}")
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"eps must be positive, got {text!r}")
    if value > 1.0:
        raise argparse.ArgumentTypeError(f"eps must be <= 1, got {text!r}")
    return value


def _eps_list(text: str) -> tuple[float, ...]:
    values = tuple(_eps(part) for part in text.split(",") if part)
    if not values:
        raise argparse.ArgumentTypeError("eps list must not be empty")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="phoscil",
                     description="Urea-urease pH-oscillator analyses with reproducible outputs.")
    # a subcommand takes a flag group only if its handler reads it, and flags only
    # in full: an abbreviation would read a dropped --eps as --eps-list
    common, report, eps, tol = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    common.add_argument("--params", type=Path, default=None, metavar="FILE",
                        help="parameter file (.txt key=value or .json); default: built-in set")
    common.add_argument("--out", type=Path, default=Path("."), metavar="DIR",
                        help="output directory (created if missing; default .)")
    report.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="serialization for report-style outputs (default csv)")
    eps.add_argument("--eps", type=_eps, default=1e-3,
                     help="timescale-separation parameter (default 1e-3)")
    tol.add_argument("--rtol", type=_tolerance("rtol"), default=IntegratorConfig.rtol,
                     help="integrator relative tolerance (default %(default)g)")
    tol.add_argument("--atol", type=_tolerance("atol"), default=IntegratorConfig.atol,
                     help="integrator absolute tolerance (default %(default)g)")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    def command(name: str, handler, summary: str, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *groups], help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("simulate", _simulate,
                "integrate and export the trajectory in three coordinate systems", eps, tol)
    p.add_argument("--t-span", type=_span, default=(0.0, 300.0), metavar="T0:T1",
                   help="integration window (default 0:300); T0:T0 exports one sample")
    p.add_argument("--x0", type=_state, default=None, metavar="S,H",
                   help="initial state, s > 0 and h > 0 "
                        "(default: near the fixed point, displaced in h)")

    p = command("scan", _scan, "trace/det stability scan over (K_h/K_s, 1/alpha)", report)
    p.add_argument("--kh-over-ks", type=_interval, default=(1.0, 20.0), metavar="A:B")
    p.add_argument("--inv-alpha", type=_interval, default=(1.0, 12.0), metavar="A:B")
    p.add_argument("--grid", type=_grid, default=(200, 200), metavar="NxM")

    p = command("fold-check", _fold_check, "check the generic-fold conditions in one chart", report)
    p.add_argument("--chart", choices=("A", "B"), required=True)

    command("cycle", _cycle, "detect the limit cycle and export period, segments, trajectory",
            report, eps, tol)

    p = command("timescales", _timescales,
                "analytic vs measured timescale table over several eps", report, tol)
    p.add_argument("--eps-list", type=_eps_list, default=(1e-3, 1e-4, 1e-5),
                   metavar="E1,E2,...")

    p = command("fold-scaling", _fold_scaling,
                "fold-passage offset vs eps and its log-log slope", report, tol)
    p.add_argument("--chart", choices=("A", "B"), required=True)
    p.add_argument("--eps-list", type=_eps_list, default=None, metavar="E1,E2,...",
                   help="default: five log-spaced eps in the chart's scaling regime")

    command("fixed-point", _fixed_point, "locate and classify the positive fixed point", report)
    return parser


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # reported with the subcommand's own usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    run = RunConfig(args.params, *(getattr(args, name, None) for name in ("eps", "rtol", "atol")),
                    args.out, getattr(args, "format", None))
    try:
        args.handler(run, args)
    except ParameterFileError as exc:
        print(f"phoscil: parameter file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:  # only fold-scaling's --eps-list raises it here
        print(f"phoscil: invalid argument: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"phoscil: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PhoscilError as exc:
        print(f"phoscil: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
