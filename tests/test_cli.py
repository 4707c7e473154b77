"""Command-line interface: outputs, formats, determinism and exit codes."""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from phoscil.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

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
    ["fold-scaling", "--chart", "A", "--eps-list", "1e-6,1e-5,1e-4"],
], ids=["fixed-point", "scan", "timescales", "fold-scaling"])
def test_outputs_are_byte_deterministic(tmp_path, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# --- fold-check --------------------------------------------------------------------

def test_fold_check_json(tmp_path):
    assert main(["fold-check", "--chart", "A", "--out", str(tmp_path),
                 "--format", "json"]) == EXIT_OK
    payload = json.loads((tmp_path / "fold_report_a.json").read_text())
    body = payload.get("report", payload)
    assert body["chart"] == "A"
    assert body["is_generic"] is True
    assert math.isclose(body["d2g0_fast"], -0.58378378378378382, rel_tol=1e-12)


def test_fold_check_csv_keeps_the_location(tmp_path):
    assert main(["fold-check", "--chart", "B", "--out", str(tmp_path)]) == EXIT_OK
    _, header, rows = read_csv_rows(tmp_path / "fold_report_b.csv")
    values = dict((r[0], r[1]) for r in rows)
    assert header == ["quantity", "value"]
    assert {"chart", "fold_slow", "fold_fast", "g0_value", "dg0_fast",
            "d2g0_fast", "dg0_slow", "f0_value", "is_generic"} <= set(values)
    assert math.isclose(float(values["fold_fast"]), 0.76923076923076927, rel_tol=1e-13)


# --- simulate ----------------------------------------------------------------------

def test_simulate_exports_all_coordinate_systems(tmp_path):
    assert main(["simulate", "--t", "0:300", "--out", str(tmp_path)]) == EXIT_OK
    for name in ("simulate_state.csv", "simulate_chart_a.csv", "simulate_log.csv"):
        comments, header, rows = read_csv_rows(tmp_path / name)
        assert len(rows) > 100
        assert any("t_span = 0 .. 300" in c for c in comments)
    assert read_csv_rows(tmp_path / "simulate_state.csv")[1] == ["t", "s", "h"]
    assert read_csv_rows(tmp_path / "simulate_chart_a.csv")[1] == ["t", "sigma", "h"]
    assert read_csv_rows(tmp_path / "simulate_log.csv")[1] == ["t", "pS", "pH"]


def test_simulate_turning_points_space_one_period(tmp_path):
    assert main(["simulate", "--t", "0:300", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "simulate_events.json").read_text())
    maxima = [e["t"] for e in payload["events"] if e["index"] == 0]
    assert len(maxima) >= 2
    assert math.isclose(maxima[-1] - maxima[-2], 90.23818925684358, rel_tol=1e-10)


def test_simulate_zero_length_span_exports_initial_sample(tmp_path):
    assert main(["simulate", "--t", "5:5", "--x0", "0.3,0.4",
                 "--out", str(tmp_path)]) == EXIT_OK
    _, _, rows = read_csv_rows(tmp_path / "simulate_state.csv")
    assert len(rows) == 1
    assert [float(v) for v in rows[0]] == [5.0, 0.3, 0.4]


def test_simulate_honours_explicit_tolerances(tmp_path):
    assert main(["simulate", "--t", "0:10", "--rtol", "1e-6", "--atol", "1e-9",
                 "--out", str(tmp_path)]) == EXIT_OK
    comments, _, _ = read_csv_rows(tmp_path / "simulate_state.csv")
    assert any("rtol = 9.9999999999999995e-07" in c for c in comments)


# --- cycle -------------------------------------------------------------------------

def test_cycle_writes_report_and_trajectory(tmp_path):
    assert main(["cycle", "--out", str(tmp_path), "--format", "json"]) == EXIT_OK
    payload = json.loads((tmp_path / "cycle_report.json").read_text())
    body = payload.get("report", payload)
    assert body["terminus"] == "limit_cycle"
    assert math.isclose(body["period"], 90.238189256981258, rel_tol=1e-10)
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
    assert main(["timescales", "--eps-list", "1e-3", *common]) == EXIT_OK
    row = json.loads((out / "timescales.json").read_text())["rows"][0]
    assert row["error"] == "no limit cycle: equilibrium"
    assert math.isnan(row["T_analytic"]) and math.isnan(row["period"])


# --- exit codes ---------------------------------------------------------------------

def test_unknown_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fixed-point", "--out", str(tmp_path), "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_malformed_grid_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--kh-over-ks", "2:10", "--inv-alpha", "1.5:8",
              "--grid", "8", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


def test_workers_flag_is_a_usage_error(tmp_path):
    # every subcommand runs in one thread; there is no worker count to set
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE


def test_bad_parameter_file_is_a_usage_error(tmp_path, capsys):
    params = tmp_path / "bad.txt"
    params.write_text("k_banana = 7\n")
    code = main(["fixed-point", "--params", str(params), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "parameter file error" in capsys.readouterr().err


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


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_NUMERIC, EXIT_IO, EXIT_USAGE) == (0, 1, 2, 3)
