"""Every subcommand is total over scaled parameter files.

A sweep calls ``cli.main`` in-process on parameter files whose values
are the built-in set's, each scaled by 10^U(-2, 2) with ``random.Random(k)``
for file k.  Every case
must end in a documented exit code, no exception may escape ``main``, and
every exit 1 must name a ``PhoscilError`` subclass.  The fast
subcommands run on every file; ``cycle``, ``simulate`` and
``timescales`` run on fewer files, each at one eps of ``EPS`` and one end
of the ``--rtol`` range, so that every pair of the two occurs.  Each
``main`` call has a wall-time budget, so a case that hangs fails instead.
"""
import contextlib
import dataclasses
import json
import random
import re
import signal

import pytest

from phoscil import errors
from phoscil.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from phoscil.params import UREASE_VESICLE

N_FAST, N_INTEGRATING = 40, 12
EPS = ("1", "0.3", "1e-2", "1e-3")
RTOL_ENDS = ("2.220446049250313e-14", "1e-3")
#: the smallest subnormal and the largest atol IntegratorConfig accepts
ATOL_ENDS = ("5e-324", "1e-3")
#: wall seconds one ``main`` call may take; the slowest case takes under 1.5 s
BUDGET_S = 30


class _OverBudget(Exception):
    """Raised by the interval timer in a case that outlives BUDGET_S."""


def _over_budget(signum, frame):
    raise _OverBudget


def _scaled_params(k: int) -> dict:
    rng = random.Random(k)
    return {name: value * 10.0 ** rng.uniform(-2.0, 2.0)
            for name, value in dataclasses.asdict(UREASE_VESICLE).items()}


@contextlib.contextmanager
def budget(what):
    """Fail the test, naming ``what``, if the block runs past BUDGET_S wall seconds."""
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        yield
    except _OverBudget:
        pytest.fail(f"{what} ran past its budget of {BUDGET_S} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run(argv, capsys) -> int:
    """The exit code of ``main(argv)``, checked against the documented set."""
    with budget(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's usage errors
            code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_NUMERIC, EXIT_IO, EXIT_USAGE), (argv, code, err)
    if code == EXIT_NUMERIC:
        name = re.match(r"phoscil: (\w+): ", err)
        assert name and issubclass(getattr(errors, name.group(1), type(None)),
                                   errors.PhoscilError), (argv, err)
    return code


def _params_file(tmp_path, k: int) -> str:
    path = tmp_path / f"scaled_{k}.json"
    path.write_text(json.dumps(_scaled_params(k)))
    return str(path)


@pytest.mark.parametrize("k", range(N_FAST))
def test_the_fast_subcommands_answer_on_a_scaled_parameter_file(tmp_path, capsys, k):
    common = ["--params", _params_file(tmp_path, k), "--out", str(tmp_path / "out")]
    for argv in (["fixed-point"], ["scan", "--grid", "6x5"],
                 ["fold-check", "--chart", "A"], ["fold-check", "--chart", "B"]):
        _run(argv + common, capsys)


@pytest.mark.parametrize("k", range(N_INTEGRATING))
def test_the_integrating_subcommands_answer_on_a_scaled_parameter_file(tmp_path, capsys, k):
    eps, rtol = EPS[k % len(EPS)], RTOL_ENDS[k // len(EPS) % len(RTOL_ENDS)]
    common = ["--params", _params_file(tmp_path, k), "--rtol", rtol, "--out",
              str(tmp_path / "out")]
    for argv in (["cycle", "--eps", eps], ["simulate", "--eps", eps, "--t-span", "0:20"],
                 ["timescales", "--eps-list", eps]):
        _run(argv + common, capsys)


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-span", "0:20", "--x0", x0]
    for x0 in ("1e300,0.5", "0.5,1e300", "1e300,1e300", "1e-300,1e-300")
] + [
    [*subcommand, f"--atol={atol}"]
    for subcommand in (["simulate", "--t-span", "0:20"], ["cycle"])
    for atol in ATOL_ENDS
], ids=" ".join)
def test_the_integrating_subcommands_answer_at_the_ends_of_the_start_and_atol_ranges(
        tmp_path, capsys, argv):
    _run(argv + ["--out", str(tmp_path / "out")], capsys)


@pytest.mark.parametrize("subcommand, flag, value", [
    (subcommand, flag, value)
    for subcommand in ("timescales", "fold-scaling", "scan", "fold-check", "fixed-point")
    for flag, value in (("--eps", "1e-3"), ("--rtol", "1e-10"), ("--atol", "1e-12"))
    if flag == "--eps" or subcommand not in ("timescales", "fold-scaling")
] + [("simulate", "--format", "csv")])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, subcommand,
                                                              flag, value):
    required = ["--chart", "A"] if subcommand in ("fold-scaling", "fold-check") else []
    out = tmp_path / "out"
    assert _run([subcommand, *required, flag, value, "--out", str(out)], capsys) == EXIT_USAGE
    assert not out.exists()
