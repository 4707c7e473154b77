"""Command-line interface: outputs, formats, determinism and exit codes."""
import argparse
import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phoscil
from phoscil import cycle
from phoscil._fmt import fmt17
from phoscil.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _build_parser, main
from phoscil.gspt import verify_generic_fold
from phoscil.params import UREASE_VESICLE
from test_cli_sweep import budget

PARAM_KEYS = ("S_ext", "H_ext", "v_max", "k_M", "k_E1", "k_E2",
              "k2", "k2r", "k_H", "k_S", "k", "k_plus")


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    return comments, data[0].split(","), [row.split(",") for row in data[1:]]


# --- fixed-point ------------------------------------------------------------------

def test_fixed_point_prints_and_writes(tmp_path, capsys):
    assert main(["fixed-point", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(0.0762, 0.0906)" in out
    assert "repelling node" in out
    comments, header, rows = read_csv_rows(tmp_path / "fixed_point.csv")
    assert comments[0].startswith("# phoscil fixed-point")
    assert header == ["quantity", "value"]
    values = dict((r[0], r[1]) for r in rows)
    assert math.isclose(float(values["s_star"]), 0.076184035356110749, rel_tol=1e-15)
    assert values["classification"] == "repelling node"


def test_fixed_point_json_format(tmp_path):
    assert main(["fixed-point", "--out", str(tmp_path), "--format", "json"]) == EXIT_OK
    payload = json.loads((tmp_path / "fixed_point.json").read_text())
    assert math.isclose(payload["h_star"], 0.090598290598290498, rel_tol=1e-15)
    assert payload["classification"] == "repelling node"
    assert any(line.startswith("phoscil fixed-point") for line in payload["provenance"])


@pytest.mark.parametrize("argv", [
    ["fixed-point"],
    ["scan", "--kh-over-ks", "2:10", "--inv-alpha", "1.5:8", "--grid", "9x7"],
    ["timescales", "--eps-list", "1e-3"],
    ["timescales", "--eps-list", "1e-3,3e-3"],
    ["fold-scaling", "--chart", "A", "--eps-list", "1e-6,1e-5,1e-4"],
], ids=["fixed-point", "scan", "timescales", "timescales-rows", "fold-scaling"])
def test_outputs_are_byte_deterministic(tmp_path, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# --- fold-check --------------------------------------------------------------------

def test_fold_check_json(tmp_path, dp, es):
    assert main(["fold-check", "--chart", "A", "--out", str(tmp_path),
                 "--format", "json"]) == EXIT_OK
    payload = json.loads((tmp_path / "fold_report_a.json").read_text())
    assert next(iter(payload)) == "provenance"
    assert payload["provenance"][0] == "phoscil fold-check"
    body = payload.get("report", payload)
    assert body["chart"] == "A"
    assert body["is_generic"] is True
    assert math.isclose(body["d2g0_fast"], -0.58378378378378382, rel_tol=1e-12)
    assert body["d2g0_fast"] == verify_generic_fold("A", es.at_eps(1e-3), dp).d2g0_fast


def test_fold_check_csv_keeps_the_location(tmp_path):
    assert main(["fold-check", "--chart", "B", "--out", str(tmp_path)]) == EXIT_OK
    _, header, rows = read_csv_rows(tmp_path / "fold_report_b.csv")
    values = dict((r[0], r[1]) for r in rows)
    assert header == ["quantity", "value"]
    assert {"chart", "fold_slow", "fold_fast", "g0_value", "dg0_fast",
            "d2g0_fast", "dg0_slow", "f0_value", "is_generic"} <= set(values)
    assert math.isclose(float(values["fold_fast"]), 0.76923076923076927, rel_tol=1e-13)


def test_fold_check_answers_where_the_chart_b_fold_is_narrow(tmp_path, chart_b_edge_params):
    for name, phys in chart_b_edge_params.items():
        params = tmp_path / f"{name}.json"
        params.write_text(json.dumps(dataclasses.asdict(phys)))
        out = tmp_path / name
        assert main(["fold-check", "--chart", "B", "--params", str(params), "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        assert json.loads((out / "fold_report_b.json").read_text())["is_generic"] is True


# --- simulate ----------------------------------------------------------------------

def test_simulate_exports_all_coordinate_systems(tmp_path):
    assert main(["simulate", "--t-span", "0:300", "--out", str(tmp_path)]) == EXIT_OK
    for name in ("simulate_state.csv", "simulate_chart_a.csv", "simulate_log.csv"):
        comments, header, rows = read_csv_rows(tmp_path / name)
        assert len(rows) > 100
        assert any("t_span = 0 .. 300" in c for c in comments)
    assert read_csv_rows(tmp_path / "simulate_state.csv")[1] == ["t", "s", "h"]
    assert read_csv_rows(tmp_path / "simulate_chart_a.csv")[1] == ["t", "sigma", "h"]
    assert read_csv_rows(tmp_path / "simulate_log.csv")[1] == ["t", "pS", "pH"]


def test_simulate_coordinate_files_follow_from_the_state_file(tmp_path):
    assert main(["simulate", "--t-span", "0:50", "--out", str(tmp_path)]) == EXIT_OK
    _, _, states = read_csv_rows(tmp_path / "simulate_state.csv")
    _, _, chart_a = read_csv_rows(tmp_path / "simulate_chart_a.csv")
    _, _, logs = read_csv_rows(tmp_path / "simulate_log.csv")
    assert len(states) > 100 and len(chart_a) == len(logs) == len(states)
    eps, S_ext, H_ext = 1e-3, UREASE_VESICLE.S_ext, UREASE_VESICLE.H_ext
    for (t, s, h), (t_a, sigma, h_a), (t_l, pS, pH) in zip(states, chart_a, logs):
        assert t_a == t_l == t
        assert sigma == fmt17(eps * float(s)) and h_a == h
        assert pS == fmt17(-math.log10(float(s) * S_ext))
        assert pH == fmt17(-math.log10(float(h) * H_ext))


def test_simulate_turning_points_space_one_period(tmp_path):
    assert main(["simulate", "--t-span", "0:300", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "simulate_events.json").read_text())
    maxima = [e["t"] for e in payload["events"] if e["index"] == 0]
    assert len(maxima) >= 2
    assert math.isclose(maxima[-1] - maxima[-2], 90.23818925684358, rel_tol=1e-10)



def test_simulate_keeps_no_dense_output(tmp_path, monkeypatch):
    # simulate writes samples and events only, so it must not hold the
    # per-step interpolants of the whole run in memory
    import phoscil.cli as cli
    exported = []
    monkeypatch.setattr(cli, "export_trajectory",
                        lambda traj, *args, **kwargs: exported.append(traj))
    assert main(["simulate", "--t-span", "0:10", "--out", str(tmp_path)]) == EXIT_OK
    assert len(exported) == 3
    assert all(len(traj.t) > 2 and not traj.segments for traj in exported)

def test_simulate_zero_length_span_exports_initial_sample(tmp_path):
    assert main(["simulate", "--t-span", "5:5", "--x0", "0.3,0.4",
                 "--out", str(tmp_path)]) == EXIT_OK
    _, _, rows = read_csv_rows(tmp_path / "simulate_state.csv")
    assert len(rows) == 1
    assert [float(v) for v in rows[0]] == [5.0, 0.3, 0.4]


def test_simulate_honours_explicit_tolerances(tmp_path):
    assert main(["simulate", "--t-span", "0:10", "--rtol", "1e-6", "--atol", "1e-9",
                 "--out", str(tmp_path)]) == EXIT_OK
    comments, _, _ = read_csv_rows(tmp_path / "simulate_state.csv")
    assert any("rtol = 9.9999999999999995e-07" in c for c in comments)


# --- cycle -------------------------------------------------------------------------

#: the quantity column of cycle_report.csv for a limit cycle, in order
CYCLE_QUANTITIES = ["eps", "terminus", "converged", "period", "tau_B_to_A", "tau_A_to_B",
                    "n_transient_periods", "s_max_s", "s_max_h", "s_min_s", "s_min_h",
                    "analytic_T_acid", "analytic_T_basic", "analytic_T_total",
                    "analytic_ratio"]


def cycle_report_pairs(out):
    """(quantity, value) rows of cycle_report.csv, each checked against cycle_report.json."""
    _, header, rows = read_csv_rows(out / "cycle_report.csv")
    assert header == ["quantity", "value"]
    payload = json.loads((out / "cycle_report.json").read_text())
    for quantity, text in rows:
        if quantity.startswith("analytic_"):
            value = payload["analytic"][quantity[len("analytic_"):]]
        elif quantity.startswith(("s_max_", "s_min_")):
            value = payload["turning_points"][quantity[:5]]["sh".index(quantity[-1])]
        else:
            value = payload[quantity]
        if isinstance(value, (str, bool)):
            assert text == str(value), quantity
        else:
            assert float(text) == value or (math.isnan(value) and text == "nan"), quantity
    return rows


def test_cycle_writes_report_and_trajectory(tmp_path):
    assert main(["cycle", "--out", str(tmp_path), "--format", "json"]) == EXIT_OK
    payload = json.loads((tmp_path / "cycle_report.json").read_text())
    body = payload.get("report", payload)
    assert body["terminus"] == "limit_cycle"
    assert math.isclose(body["period"], 90.238189256981258, rel_tol=1e-10)
    assert main(["cycle", "--out", str(tmp_path)]) == EXIT_OK
    assert [q for q, _ in cycle_report_pairs(tmp_path)] == CYCLE_QUANTITIES
    _, header, rows = read_csv_rows(tmp_path / "cycle_trajectory.csv")
    assert header == ["t", "s", "h"] and len(rows) > 50
    events = json.loads((tmp_path / "cycle_events.json").read_text())
    assert len(events["events"]) >= 2


# --- timescales ---------------------------------------------------------------------

def test_timescales_prints_table_and_writes_files(tmp_path, capsys):
    assert main(["timescales", "--eps-list", "1e-3", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio_measured" in out
    _, header, rows = read_csv_rows(tmp_path / "timescales.csv")
    assert header[0] == "eps" and len(rows) == 1
    assert math.isclose(float(rows[0][header.index("period")]),
                        90.238189256981258, rel_tol=1e-10)


# --- scan ---------------------------------------------------------------------------

def test_scan_csv_grid(tmp_path):
    assert main(["scan", "--kh-over-ks", "2:10", "--inv-alpha", "1.5:8",
                 "--grid", "8x6", "--out", str(tmp_path)]) == EXIT_OK
    _, header, rows = read_csv_rows(tmp_path / "scan.csv")
    assert header == ["kh_over_ks", "inv_alpha", "trace", "det", "oscillates"]
    assert len(rows) == 48
    flags = {row[4] for row in rows}
    assert flags <= {"0", "1"} and "1" in flags


def test_scan_json_carries_the_grid(tmp_path):
    assert main(["scan", "--kh-over-ks", "2:10", "--inv-alpha", "1.5:8",
                 "--grid", "6x5", "--format", "json", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert len(payload["kh_over_ks"]) == 6
    assert len(payload["inv_alpha"]) == 5
    assert len(payload["trace"]) == 6 and len(payload["trace"][0]) == 5


# --- fold-scaling -------------------------------------------------------------------

def test_fold_scaling_quick_window(tmp_path):
    assert main(["fold-scaling", "--chart", "A", "--eps-list", "1e-6,1e-5,1e-4",
                 "--out", str(tmp_path)]) == EXIT_OK
    comments, header, rows = read_csv_rows(tmp_path / "fold_scaling_a.csv")
    assert header == ["eps", "offset"]
    assert len(rows) == 3
    slope_lines = [c for c in comments if "slope" in c]
    assert slope_lines
    slope = float(slope_lines[0].split("=")[-1])
    assert math.isclose(slope, 0.61130810056059381, rel_tol=1e-9)


def test_fold_scaling_json_carries_the_csvs_entries_and_slope(tmp_path):
    argv = ["fold-scaling", "--chart", "A", "--eps-list", "1e-6,1e-5,1e-4"]
    assert main(argv + ["--out", str(tmp_path / "csv")]) == EXIT_OK
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "json")]) == EXIT_OK
    comments, _, rows = read_csv_rows(tmp_path / "csv" / "fold_scaling_a.csv")
    payload = json.loads((tmp_path / "json" / "fold_scaling_a.json").read_text())
    assert payload["chart"] == "A"
    assert payload["entries"] == [[float(e), float(o)] for e, o in rows]
    assert f"# slope = {fmt17(payload['slope'])}" in comments


# --- forked rows and passages -------------------------------------------------------

def _no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def test_a_fork_that_fails_runs_the_passages_here_with_the_same_bytes(tmp_path, capsys,
                                                                      monkeypatch, cpus):
    argv = ["fold-scaling", "--chart", "B"]
    cpus({0})
    assert main(argv + ["--out", str(tmp_path / "serial")]) == EXIT_OK
    cpus({0, 1})
    monkeypatch.setattr(os, "fork", _no_fork)  # as at a process limit
    with budget(argv):
        assert main(argv + ["--out", str(tmp_path / "forked")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert ((tmp_path / "forked" / "fold_scaling_b.csv").read_bytes()
            == (tmp_path / "serial" / "fold_scaling_b.csv").read_bytes())


_compare_row = cycle._compare_row


def _row_or_exit(dp, cfg, es):
    if es.eps == 1e-4:
        os._exit(1)  # as an out-of-memory kill ends a worker
    return _compare_row(dp, cfg, es)


def test_a_worker_that_dies_is_a_numeric_failure_that_writes_nothing(tmp_path, capsys,
                                                                      monkeypatch, cpus):
    cpus({0, 1})
    monkeypatch.setattr(cycle, "_compare_row", _row_or_exit)  # the fork inherits it
    out = tmp_path / "out"
    argv = ["timescales", "--eps-list", "1e-3,1e-4", "--out", str(out)]
    with budget(argv):
        assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("phoscil: WorkerError: a worker process died, and items[")
    assert "Traceback" not in err
    assert not out.exists()


# --- parameter files ----------------------------------------------------------------

def test_params_file_override_changes_results(tmp_path):
    params = tmp_path / "custom.txt"
    defaults = {k: v for k, v in zip(PARAM_KEYS, (
        3.8e-4, 1.3e-4, 1.85e-4, 3e-3, 5e-6, 2e-9, 4.3e10, 2.4e1,
        9e-3, 1.4e-3, 1.4e-3, 1.4e-3))}
    defaults["k_H"] = 1.2e-2  # faster acid transport moves the equilibrium
    params.write_text("\n".join(f"{k} = {v}" for k, v in defaults.items()) + "\n")
    out = tmp_path / "out"
    assert main(["fixed-point", "--params", str(params), "--out", str(out)]) == EXIT_OK
    _, _, rows = read_csv_rows(out / "fixed_point.csv")
    values = dict((r[0], r[1]) for r in rows)
    assert not math.isclose(float(values["h_star"]), 0.090598290598290498, rel_tol=1e-6)


def test_cycle_and_timescales_classify_h_star_above_one_half(tmp_path):
    # k_H = 1.8e-2 gives h_* = 0.545: no analytic timescales, attracting focus
    shipped = Path(__file__).parent.parent / "params" / "urease_vesicle.txt"
    params = tmp_path / "fast_acid.txt"
    params.write_text(re.sub(r"(?m)^k_H\s*=\s*\S+", "k_H = 1.8e-2", shipped.read_text()))
    out = tmp_path / "out"
    common = ["--params", str(params), "--out", str(out), "--format", "json"]
    assert main(["cycle", *common]) == EXIT_OK
    report = json.loads((out / "cycle_report.json").read_text())
    assert report["terminus"] == "equilibrium"
    assert math.isnan(report["analytic"]["T_total"])
    # the CSV form has no turning-point rows when there is no cycle
    assert main(["cycle", *common[:-2]]) == EXIT_OK
    rows = cycle_report_pairs(out)
    assert [q for q, _ in rows] == [q for q in CYCLE_QUANTITIES if not q.startswith("s_")]
    assert ["converged", "False"] in rows and ["period", "nan"] in rows
    assert main(["timescales", "--eps-list", "1e-3", *common]) == EXIT_OK
    row = json.loads((out / "timescales.json").read_text())["rows"][0]
    assert row["error"] == "no limit cycle: equilibrium"
    assert math.isnan(row["T_analytic"]) and math.isnan(row["period"])


# --- exit codes ---------------------------------------------------------------------

#: the flags of each subcommand: --params and --out everywhere, --eps where
#: the handler runs at one eps, --rtol/--atol where it integrates, and
#: --format where it writes a report
_COMMON = {"--params", "--out"}
SUBCOMMAND_FLAGS = {
    "simulate": _COMMON | {"--eps", "--rtol", "--atol", "--t-span", "--x0"},
    "cycle": _COMMON | {"--eps", "--rtol", "--atol", "--format"},
    "timescales": _COMMON | {"--rtol", "--atol", "--format", "--eps-list"},
    "fold-scaling": _COMMON | {"--rtol", "--atol", "--format", "--chart", "--eps-list"},
    "scan": _COMMON | {"--format", "--kh-over-ks", "--inv-alpha", "--grid"},
    "fold-check": _COMMON | {"--format", "--chart"},
    "fixed-point": _COMMON | {"--format"},
}


def test_each_subcommand_takes_exactly_the_flags_its_handler_reads():
    parser = _build_parser()
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    flags = {name: {flag for action in p._actions for flag in action.option_strings}
             - {"-h", "--help"} for name, p in sub.choices.items()}
    assert flags == SUBCOMMAND_FLAGS


def test_provenance_echoes_the_settings_the_subcommand_reads(tmp_path):
    for argv, name in ((["fixed-point"], "fixed_point.csv"),
                       (["fold-check", "--chart", "A"], "fold_report_a.csv"),
                       (["simulate", "--t-span", "0:0"], "simulate_state.csv")):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        echoed = [c.split()[1] for c in read_csv_rows(tmp_path / name)[0]
                  if re.match(r"# (eps|rtol|atol) = ", c)]
        assert echoed == [f for f in ("eps", "rtol", "atol")
                          if f"--{f}" in SUBCOMMAND_FLAGS[argv[0]]]


def test_an_abbreviated_flag_is_a_usage_error(tmp_path):
    # an abbreviation would read a dropped --eps as timescales' --eps-list
    for argv in (["simulate", "--t", "0:10"], ["timescales", "--eps", "1e-4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_unknown_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fixed-point", "--out", str(tmp_path), "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMAND_FLAGS))
def test_an_unknown_flag_prints_the_subcommands_own_usage(tmp_path, capsys, subcommand):
    required = ["--chart", "A"] if "--chart" in SUBCOMMAND_FLAGS[subcommand] else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *required, "--frobnicate", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines()[0].startswith(f"usage: phoscil {subcommand} ")
    assert captured.err.splitlines()[-1] == (
        f"phoscil {subcommand}: error: unrecognized arguments: --frobnicate")
    assert captured.out == "" and not out.exists()


def test_malformed_grid_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--kh-over-ks", "2:10", "--inv-alpha", "1.5:8",
              "--grid", "8", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("flag, value", [
    ("--kh-over-ks", "0:5"), ("--kh-over-ks", "-2:5"), ("--inv-alpha", "0:5"),
    ("--inv-alpha", "-1:-0.5"),
])
def test_a_non_positive_scan_range_is_a_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["scan", f"{flag}={value}", "--grid", "4x4", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "need 0 < a0 < a1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x0", ["0,0.5", "0.5,0"])
def test_a_start_off_the_log_chart_is_a_usage_error(tmp_path, x0):
    # simulate exports log coordinates, which need s > 0 and h > 0
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--t-span", "0:10", "--x0", x0, "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["cycle", "--eps", "abc"], "eps must be a number, got 'abc'"),
    (["cycle", "--eps", "0"], "eps must be positive, got '0'"),
    (["timescales", "--eps-list", ","], "eps list must not be empty"),
], ids=["eps-abc", "eps-0", "eps-list-empty"])
def test_a_bad_eps_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_workers_flag_is_a_usage_error(tmp_path):
    # no subcommand has a worker count to set: compare and the fold passages
    # fork one process per item and per CPU, up to the CPUs they may run on
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


def test_bad_parameter_file_is_a_usage_error(tmp_path, capsys):
    params = tmp_path / "bad.txt"
    params.write_text("k_banana = 7\n")
    code = main(["fixed-point", "--params", str(params), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "parameter file error" in capsys.readouterr().err


def _params_text(values):
    return "\n".join(f"{k} = {v!r}" for k, v in values.items()) + "\n"


_REFERENCE = {k: getattr(UREASE_VESICLE, k) for k in PARAM_KEYS}


@pytest.mark.parametrize("name, text, message", [
    ("bad.json", "{not json", "invalid JSON"),
    ("list.json", json.dumps(list(_REFERENCE.values())), "expected a JSON object"),
    ("true.json", json.dumps({**_REFERENCE, "k_S": True}), "value for 'k_S' is not a number"),
    ("negative.json", json.dumps({**_REFERENCE, "k_S": -1.0}),
     "k_S must be positive and finite, got -1.0"),
    ("nan.json", json.dumps({**_REFERENCE, "k_S": math.nan}),
     "k_S must be positive and finite, got nan"),
    ("huge-int.json", json.dumps({**_REFERENCE, "k_S": 10 ** 400}),
     "k_S must be positive and finite, got inf"),
    ("negative.txt", _params_text({**_REFERENCE, "k_S": -1.0}),
     "k_S must be positive and finite, got -1.0"),
    ("nan.txt", _params_text({**_REFERENCE, "k_S": math.nan}),
     "k_S must be positive and finite, got nan"),
    ("inf.txt", _params_text({**_REFERENCE, "k_S": math.inf}),
     "k_S must be positive and finite, got inf"),
], ids=["invalid-json", "json-list", "json-true", "json-negative", "json-nan", "json-huge-int",
        "text-negative", "text-nan", "text-inf"])
def test_a_rejected_parameter_file_is_a_usage_error_and_writes_nothing(tmp_path, capsys, name,
                                                                       text, message):
    params, out = tmp_path / name, tmp_path / "out"
    params.write_text(text)
    assert main(["fixed-point", "--params", str(params), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"phoscil: parameter file error: {params}: ") and message in err
    assert not out.exists()


def test_missing_parameter_file_is_an_io_error(tmp_path, capsys):
    code = main(["fixed-point", "--params", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path)])
    assert code == EXIT_IO
    assert "I/O error" in capsys.readouterr().err


def test_unwritable_out_dir_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["fixed-point", "--out", str(blocker / "sub")])
    assert code == EXIT_IO


def test_numeric_failure_maps_to_its_own_code(tmp_path, capsys):
    # no positive equilibrium: fixed-point analysis fails numerically
    params = tmp_path / "calm.txt"
    values = dict(zip(PARAM_KEYS, (
        3.8e-4, 1.3e-4, 1.85e-4, 3e-3, 5e-6, 2e-9, 4.3e10, 2.4e1,
        9e-3, 1.4e-3, 1.4e-3, 1.4e-3)))
    values["k_S"] = 0.1  # overwhelming substrate inflow
    params.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    code = main(["fixed-point", "--params", str(params), "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC
    assert "NoPositiveEquilibriumError" in capsys.readouterr().err


@pytest.mark.parametrize("argv, params, code", [
    (["fixed-point"], {"k_S": 0.1}, EXIT_NUMERIC),
    (["cycle", "--eps", "1e-300"], None, EXIT_NUMERIC),
    (["simulate", "--t-span", "0:10", "--rtol", "1e-20"], None, EXIT_USAGE),
    (["fixed-point"], {"k_banana": 7}, EXIT_USAGE),
], ids=["no-equilibrium", "eps2-underflow", "rtol-below-floor", "unknown-key"])
def test_a_failed_run_leaves_no_out_dir(tmp_path, capsys, argv, params, code):
    if params is not None:
        values = {**{k: getattr(UREASE_VESICLE, k) for k in PARAM_KEYS}, **params}
        path = tmp_path / "params.txt"
        path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
        argv = argv + ["--params", str(path)]
    out = tmp_path / "out"
    try:
        assert main(argv + ["--out", str(out)]) == code
    except SystemExit as exc:  # the parser's usage errors
        assert exc.code == code
    assert not out.exists()


@pytest.mark.parametrize("rtol", ["1e-20", "2.2e-14", "2e-3", "nan", "abc"])
@pytest.mark.parametrize("subcommand", ["simulate", "cycle"])
def test_an_rtol_outside_the_integrators_range_is_a_usage_error(tmp_path, capsys, subcommand,
                                                                 rtol):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--rtol", rtol, "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --rtol: " in err
    if rtol != "abc":
        assert "rtol must lie in [2.220446049250313e-14, 1e-3]" in err
    assert not out.exists()


@pytest.mark.parametrize("atol", ["inf", "nan", "0", "-1e-12", "1e300"])
@pytest.mark.parametrize("subcommand", ["simulate", "cycle"])
def test_an_atol_outside_the_integrators_range_is_a_usage_error(tmp_path, capsys, subcommand,
                                                                 atol):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([subcommand, f"--atol={atol}", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "argument --atol: atol must lie in (0, 1e-3]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rtol", ["2.220446049250313e-14", "1e-3"])
def test_the_ends_of_the_rtol_range_are_accepted(tmp_path, rtol):
    assert main(["simulate", "--t-span", "0:1", "--rtol", rtol,
                 "--out", str(tmp_path)]) == EXIT_OK
    comments, _, _ = read_csv_rows(tmp_path / "simulate_state.csv")
    assert f"# rtol = {fmt17(float(rtol))}" in comments


@pytest.mark.parametrize("eps_list, reason", [
    ("1e-5", "eps_list needs at least two entries"),
    ("1e-5,1e-4", "eps_list must span >= 1.5 decades, got 1.000"),
], ids=["one-entry", "one-decade"])
def test_a_narrow_fold_scaling_eps_list_is_a_usage_error(tmp_path, capsys, eps_list, reason):
    out = tmp_path / "out"
    assert main(["fold-scaling", "--chart", "A", "--eps-list", eps_list,
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert reason in err and "parameter file" not in err
    assert not out.exists()


def test_an_eps_out_of_float_range_is_named(tmp_path, capsys):
    # eps2 = eps^2/A underflows to 0 or overflows to inf
    assert main(["cycle", "--eps", "1e-300", "--out", str(tmp_path)]) == EXIT_NUMERIC
    assert "DomainError: eps = 1e-300 gives eps2 = eps^2/A = 0.0," in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["timescales", "--eps-list", "1e-300", "--out", str(tmp_path)]) == EXIT_OK
    assert "! DomainError: eps = 1e-300 gives eps2 = eps^2/A = 0.0," in capsys.readouterr().out
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["timescales", "--eps-list", "1e300", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "eps must be <= 1, got '1e300'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["timescales", "--eps-list", "5"],
    ["fold-scaling", "--chart", "A", "--eps-list", "1e-6,5"],
], ids=["timescales", "fold-scaling"])
def test_an_eps_list_entry_above_one_is_a_usage_error(tmp_path, capsys, argv):
    # the same bound as --eps: eps <= 1
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "eps must be <= 1, got '5'" in capsys.readouterr().err
    assert not out.exists()


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a new interpreter that imports this checkout's phoscil."""
    src = str(Path(phoscil.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_python_dash_m_runs_the_cli(tmp_path):
    done = _fresh_python("-m", "phoscil", "fixed-point", "--out", str(tmp_path))
    assert done.returncode == EXIT_OK, done.stderr
    assert "repelling node" in done.stdout
    assert [p.name for p in tmp_path.iterdir()] == ["fixed_point.csv"]
    done = _fresh_python("-m", "phoscil", "scan", "--grid", "8", "--out", str(tmp_path))
    assert done.returncode == EXIT_USAGE
    assert done.stderr.splitlines()[0].startswith("usage: phoscil scan")


def test_rtol_below_100_eps_is_a_usage_error_without_a_scipy_warning(tmp_path):
    # scipy would clamp it to 100 eps with a UserWarning and run on
    done = _fresh_python("-c", "import sys; from phoscil.cli import main; sys.exit(main(sys.argv[1:]))",
                         "simulate", "--t-span", "0:10", "--rtol", "1e-20", "--out", str(tmp_path))
    assert done.returncode == EXIT_USAGE
    assert done.stderr.splitlines()[-1] == (
        "phoscil simulate: error: argument --rtol: "
        "rtol must lie in [2.220446049250313e-14, 1e-3], got 1e-20")
    assert "Warning" not in done.stderr and "scipy" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_jobs_load_no_scipy_module(tmp_path):
    # the stepper restates scipy's Radau on floats, so a CLI process needs no
    # scipy; the Floquet rule is closed-form, so it needs no numpy.polynomial
    code = """
import json, sys
from phoscil.cli import main
out = sys.argv[1]
for argv in (["fixed-point"], ["scan", "--grid", "9x7"], ["fold-check", "--chart", "A"],
             ["simulate", "--t-span", "0:50"], ["cycle"], ["timescales", "--eps-list", "1e-3"],
             ["fold-scaling", "--chart", "A", "--eps-list", "1e-6,1e-5,1e-4"]):
    assert main(argv + ["--out", out]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m in ("scipy", "numpy.polynomial")
                        or m.startswith(("scipy.", "numpy.polynomial.")))))
"""
    done = _fresh_python("-c", code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert {"fixed_point.csv", "scan.csv", "fold_report_a.csv", "simulate_state.csv",
            "cycle_report.csv", "timescales.csv",
            "fold_scaling_a.csv"} <= {p.name for p in tmp_path.iterdir()}


def test_fold_scaling_chart_b_runs_without_scipy(tmp_path):
    code = """
import json, sys
from phoscil.cli import main
assert main(["fold-scaling", "--chart", "B", "--eps-list", "3e-7,1e-6,1e-5",
             "--out", sys.argv[1]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    done = _fresh_python("-c", code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    _, header, rows = read_csv_rows(tmp_path / "fold_scaling_b.csv")
    assert header == ["eps", "offset"] and len(rows) == 3


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_NUMERIC, EXIT_IO, EXIT_USAGE) == (0, 1, 2, 3)
