"""Command line interface: formats, exit codes, round trips.

Every test runs cli.main in this process through run_main, except those
whose subject is the process itself: the module entry point, a reader
that closes stdout, and imports in a fresh interpreter."""

import argparse
import contextlib
import csv
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infbvp
from conftest import count_jacobians
from infbvp import (PROBLEMS, GridMap, SolveResult, SolverConfig, build_grid, cli,
                    initial_field, newton, newton_solve, observed_order, pile, report_scalar)

EXE = [sys.executable, "-m", "infbvp"]
# The child interpreter imports the same infbvp as this process, which
# may come from the source tree rather than an installed copy.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(Path(infbvp.__file__).parent.parent), os.environ.get("PYTHONPATH")))))


def run_main(capsys, *argv):
    """cli.main in-process; returns (exit code, stdout, stderr) with the
    line endings exactly as written."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return [row for row in csv.reader(text.splitlines())]


def test_module_entry_point_help():
    # the shell sees main's exit code: 0 after --help, 2 after a usage error
    proc = subprocess.run(EXE + ["--help"], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    for word in ("solve", "sweep", "extrapolate", "grid"):
        assert word in proc.stdout
    proc = subprocess.run(EXE + ["bogus"], capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: infbvp") and "invalid choice: 'bogus'" in proc.stderr


def test_help_returns_zero_in_process(capsys):
    code, out, err = run_main(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: infbvp")
    for word in ("solve", "sweep", "extrapolate", "grid"):
        assert word in out


def test_grid_table_frozen_rows(capsys):
    code, out, _ = run_main(capsys, "grid", "--map", "log", "--c", "5", "--N", "20")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "xi", "x"]
    assert rows[1] == ["0", "0.000000", "0.000000"]
    assert rows[20] == ["19", "0.950000", "14.978661"]
    assert rows[21] == ["20", "1.000000", "inf"]
    assert len(rows) == 22


def test_grid_whole_line_table(capsys):
    # there is no whole-line map: tan is an unknown --map choice
    code, out, err = run_main(capsys, "grid", "--map", "tan", "--c", "2", "--N", "3")
    assert (code, out) == (2, "")
    assert "invalid choice: 'tan'" in err


def test_solve_rejects_whole_line_map(capsys):
    # --map is one option of every command that solves on a grid
    for command in ("solve", "sweep"):
        code, out, err = run_main(capsys, command, "--problem", "pile", "--map", "tan",
                                  "--N", "20")
        assert (code, out) == (2, ""), command
        assert "invalid choice: 'tan'" in err, command


def test_solve_writes_node_table_and_summary(capsys):
    code, out, _ = run_main(capsys, "solve", "--problem", "pile", "--N", "80")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "x"] + [f"u{k}" for k in (1, 2, 3, 4)]
    assert rows[1][:2] == ["0", "0.000000"]
    summary = {row[0]: row[1] for row in rows if len(row) == 2}
    assert summary["problem"] == "pile"
    assert summary["converged"] == "true"
    assert summary["N"] == "80"
    assert summary["u0"] == "1.421469"
    assert summary["du0"] == "-0.808094"
    assert int(summary["iterations"]) <= 8


def test_solving_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter that
    # solves through the library and through the CLI must not pull scipy in
    script = "\n".join([
        "import contextlib, io, sys",
        "import infbvp",
        "from infbvp import GridMap, build_grid, cli, newton_solve, pile",
        "assert newton_solve(pile(), build_grid(GridMap('log', 5.0), 40)).converged",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['solve', '--problem', 'falkner-skan', '--N', '40']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solve_json_document(capsys):
    code, out, _ = run_main(capsys, "solve", "--problem", "falkner-skan", "--N", "20",
                            "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"] == "falkner-skan"
    assert doc["converged"] is True
    assert doc["fpp0"] == pytest.approx(1.238724, abs=2e-5)
    assert doc["nodes"]["x"][-1] == "inf"
    assert list(doc["nodes"]) == ["n", "x", "u1", "u2", "u3"]
    assert all(len(column) == 21 for column in doc["nodes"].values())


def test_solve_raw_out_round_trips_every_node_value(tmp_path, monkeypatch, capsys):
    # the fine-grid table, on a fixed random field over 600 decades with
    # the solve stubbed out: every value reads back bitwise through float()
    N = 10240
    rng = np.random.default_rng(18)
    solution = rng.standard_normal((N + 1, 4)) * 10.0 ** rng.integers(-300, 300, (N + 1, 4))
    monkeypatch.setattr(cli, "newton_solve", lambda problem, grid, initial=None, config=None:
                        SolveResult(solution=solution, increments=[0.1]))
    out = tmp_path / "out.csv"
    assert run_main(capsys, "solve", "--problem", "pile", "--N", str(N), "--raw",
                    "--out", str(out))[0] == 0
    rows = parse_csv(out.read_text())
    assert len(rows) == N + 2 and rows[0] == ["n", "x", "u1", "u2", "u3", "u4"]
    assert [int(row[0]) for row in rows[1:]] == list(range(N + 1))
    assert rows[-1][1] == "inf"
    nodes = build_grid(GridMap("log", 5.0), N).nodes
    assert np.array([float(row[1]) for row in rows[1:]]).tobytes() == nodes.tobytes()
    values = np.array([[float(cell) for cell in row[2:]] for row in rows[1:]])
    assert values.tobytes() == solution.tobytes()


def assert_refuses_grid_sizes(capsys, command, *argv):
    # argparse reads --N, so a bad one gets the command's usage line
    code, out, err = run_main(capsys, command, *argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith(f"usage: infbvp {command}"), argv
    assert "argument --N: invalid" in err, argv


def test_solve_rejects_multiple_grids(capsys):
    assert_refuses_grid_sizes(capsys, "solve", "--problem", "pile", "--N", "20,40")


@pytest.mark.parametrize("argv", [
    "grid --N 4,8",
    "solve --problem pile --N abc",
    "sweep --problem pile --N abc",
    "sweep --problem pile --N 20,,40",
    "sweep --problem pile --N 20,40,",
])
def test_a_malformed_or_misplaced_grid_size_is_a_usage_error(argv, capsys):
    assert_refuses_grid_sizes(capsys, *argv.split())


def test_only_sweep_help_offers_a_comma_list(capsys):
    for command, offered in (("solve", False), ("grid", False), ("sweep", True)):
        code, out, _ = run_main(capsys, command, "--help")
        assert code == 0
        assert ("comma list" in " ".join(out.split())) is offered, command


def test_solve_nonconvergence_exit_code(capsys):
    assert run_main(capsys, "solve", "--problem", "falkner-skan", "--N", "20",
                    "--max-iter", "1")[0] == 1


def test_sweep_table_layout_and_orders(capsys):
    code, out, _ = run_main(capsys, "sweep", "--problem", "falkner-skan", "--N", "20,40,80")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["N", "iterations", "converged",
                       "fpp0", "fpp0_order", "fpp_inf", "fpp_inf_order"]
    assert [row[0] for row in rows[1:]] == ["20", "40", "80"]
    assert [row[3] for row in rows[1:]] == ["1.238724", "1.234124", "1.232972"]
    assert all(row[2] == "true" for row in rows[1:])
    # order entries exist only on interior rows and are computed from the
    # printed values against the finest one
    expected = observed_order(1.238724, 1.234124, 1.232972)
    assert rows[1][4] == "" and rows[3][4] == ""
    assert rows[2][4] == f"{expected:.6f}"


def test_sweep_raw_orders_come_from_the_printed_values(capsys):
    # under --raw, and in JSON, which prints every value in full, the
    # order column agrees, bitwise, with the values printed beside it,
    # not with values rounded to --decimals
    for mode in ("--raw", "--format=json"):
        code, out, _ = run_main(capsys, "sweep", "--problem", "pile", "--N", "20,40,80", mode)
        assert code == 0
        if mode == "--raw":
            header, *rows = parse_csv(out)
            columns = {name: [row[k] for row in rows] for k, name in enumerate(header)}
        else:
            columns = json.loads(out)["rows"]
        for q in ("u0", "du0"):
            printed = [float(value) for value in columns[q]]
            order = float(columns[f"{q}_order"][1])
            assert order.hex() == observed_order(*printed).hex(), (mode, q)


def test_sweep_requires_doubling(capsys):
    code, _, err = run_main(capsys, "sweep", "--problem", "pile", "--N", "20,50")
    assert code == 2
    assert "double" in err


def test_sweep_keeps_rows_on_nonconvergence(capsys):
    code, out, err = run_main(capsys, "sweep", "--problem", "falkner-skan", "--N", "20,40",
                              "--max-iter", "2")
    assert code == 1
    assert "did not converge" in err
    rows = parse_csv(out)
    assert [row[0] for row in rows[1:]] == ["20", "40"]
    assert all(row[2] == "false" for row in rows[1:])


def test_sweep_reports_a_failed_row_like_an_unconverged_one(capsys):
    # P = 1e200 gives a first correction of order 1e198 on every grid, and
    # f overflows at that iterate: each row gets one warning with the
    # solve's reason, its iterations, false and the report values of the
    # iterate it kept, finite and with no order
    code, out, err = run_main(capsys, "sweep", "--problem", "falkner-skan", "--P", "1e200",
                              "--N", "20,40")
    assert code == 1
    assert err == ("warning: N=20 iteration 2: non-finite right-hand side on interval 0\n"
                   "warning: N=40 iteration 2: non-finite right-hand side on interval 0\n")
    rows = parse_csv(out)[1:]
    assert [row[:3] + row[4::2] for row in rows] == [["20", "2", "false", "", ""],
                                                     ["40", "2", "false", "", ""]]
    assert all(math.isfinite(float(value)) for row in rows for value in row[3::2])


def test_sweep_orders_read_only_converged_rows(capsys):
    # every row stops at max_iter: no order cell is filled, in CSV or JSON
    argv = ["sweep", "--problem", "falkner-skan", "--N", "20,40,80", "--max-iter", "2"]
    code, out, _ = run_main(capsys, *argv)
    assert code == 1
    header, *rows = parse_csv(out)
    assert [row[2] for row in rows] == ["false"] * 3
    for q in ("fpp0", "fpp_inf"):
        assert [row[header.index(f"{q}_order")] for row in rows] == [""] * 3
    code, out, _ = run_main(capsys, *argv, "--format", "json")
    assert code == 1
    columns = json.loads(out)["rows"]
    assert columns["fpp0_order"] == columns["fpp_inf_order"] == [None] * 3


@pytest.mark.parametrize("fail_on, ordered", [
    ((), [False, True, True, True, False]),
    ((40,), [False, False, False, True, False]),
    ((320,), [False] * 5),
], ids=["none", "N=40", "finest"])
def test_sweep_orders_need_the_row_before_and_the_finest_converged(fail_on, ordered,
                                                                   monkeypatch, capsys):
    record_newton_solve(monkeypatch, fail_on=fail_on)
    code, out, _ = run_main(capsys, "sweep", "--problem", "pile", "--N", "20,40,80,160,320",
                            "--format", "json")
    assert code == (1 if fail_on else 0)
    columns = json.loads(out)["rows"]
    for q in ("u0", "du0"):
        assert [order is not None for order in columns[f"{q}_order"]] == ordered, q


def test_solve_prints_its_table_and_a_warning_when_it_does_not_converge(capsys):
    code, out, err = run_main(capsys, "solve", "--problem", "pile", "--N", "16", "--max-iter", "2")
    assert code == 1
    assert err == "warning: did not converge in 2 iterations\n"
    rows = parse_csv(out)
    assert rows[0] == ["n", "x", "u1", "u2", "u3", "u4"] and rows[17][:2] == ["16", "inf"]
    summary = {row[0]: row[1] for row in rows[19:]}
    assert summary["converged"] == "false" and summary["iterations"] == "2"


@pytest.mark.parametrize("jacobian", ["analytic", "fd"])
def test_a_solve_whose_problem_overflows_warns_without_a_runtime_warning(jacobian, capsys):
    # P3 = -1e3 overflows exp(-P2*u1) at the pile's start; the run-wide
    # filter turns a leaked RuntimeWarning into an error. The table is
    # the start, the one finite iterate.
    code, out, err = run_main(capsys, "solve", "--problem", "pile", "--P3=-1e3", "--N", "20",
                              "--jacobian", jacobian, "--raw")
    assert code == 1
    assert err == "warning: iteration 1: non-finite right-hand side on interval 0\n"
    rows = parse_csv(out)
    start = initial_field(pile(P3=-1e3), build_grid(GridMap("log", 5.0), 20))
    assert np.array_equal([[float(v) for v in row[2:]] for row in rows[1:22]], start)
    summary = {row[0]: row[1] for row in rows[23:]}
    assert summary["converged"] == "false" and summary["final_increment"] == "inf"


def test_sweep_then_extrapolate_round_trip(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.csv"
    assert run_main(capsys, "sweep", "--problem", "pile", "--N", "40,80,160",
                    "--raw", "--out", str(sweep_file))[0] == 0
    assert sweep_file.exists()

    code, out, _ = run_main(capsys, "extrapolate", str(sweep_file), "--quantity", "u0")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["N", "T0", "T1", "T2"]
    assert rows[1] == ["40", "1.421243", "", ""]
    assert rows[2] == ["80", "1.421469", "1.421544", ""]
    assert rows[3] == ["160", "1.421526", "1.421545", "1.421545"]

    rows = parse_csv(run_main(capsys, "extrapolate", str(sweep_file), "--quantity", "du0")[1])
    assert rows[2][2] == "-0.808147"
    assert rows[3][2] == "-0.808149"
    assert rows[3][3] == "-0.808149"


def test_extrapolate_json_reports_stop_rule(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.csv"
    run_main(capsys, "sweep", "--problem", "pile", "--N", "40,80,160",
             "--raw", "--out", str(sweep_file))
    code, out, _ = run_main(capsys, "extrapolate", str(sweep_file), "--quantity", "u0",
                            "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["stop_rule"] == "nest"
    assert doc["ns"] == [40, 80, 160]
    assert doc["columns"][0] == [1.421243, 1.421469, 1.421526]


def test_extrapolate_unknown_column(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.csv"
    sweep_file.write_text("N,u0\n40,1.0\n80,1.1\n")
    code, _, err = run_main(capsys, "extrapolate", str(sweep_file), "--quantity", "bogus")
    assert code == 2
    assert "bogus" in err


def test_extrapolate_reports_bad_line(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.csv"
    sweep_file.write_text("N,u0\n40,1.0\n80,oops\n")
    code, _, err = run_main(capsys, "extrapolate", str(sweep_file), "--quantity", "u0")
    assert code == 2
    assert "line 3" in err


def test_extrapolate_refuses_grid_sizes_below_one(tmp_path, capsys):
    # N = 0, 0, 0 "doubles", but no grid has zero intervals
    source = tmp_path / "sweep.csv"
    source.write_text("N,u0\n0,1.0\n0,1.1\n0,1.2\n")
    assert run_main(capsys, "extrapolate", str(source), "--quantity", "u0") == (
        2, "", "error: grid sizes must be at least 1, got 0\n")


@pytest.mark.parametrize("command", [["solve", "--problem", "pile"], ["grid"]])
def test_a_grid_of_one_interval_is_refused(capsys, command):
    # the size is read by the library's integer reader, which names it
    assert run_main(capsys, *command, "--N", "1") == (
        2, "", "error: grid size N must be at least 2, got 1\n")


def test_extrapolate_refuses_an_empty_file(tmp_path, capsys):
    source = tmp_path / "sweep.csv"
    source.write_text("")
    assert run_main(capsys, "extrapolate", str(source), "--quantity", "u0") == (
        2, "", f"error: {source}: empty file\n")


def test_extrapolate_skips_blank_lines(tmp_path, capsys):
    source = tmp_path / "sweep.csv"
    source.write_text(EXTRAPOLATE_INPUT.replace("\n80,", "\n\n80,"))
    _, stdout, _ = FROZEN_OUTPUT["extrapolate-csv"]
    assert run_main(capsys, "extrapolate", str(source), "--quantity", "u0") == (0, stdout, "")


def test_extrapolate_missing_file(tmp_path, capsys):
    assert run_main(capsys, "extrapolate", str(tmp_path / "nope.csv"), "--quantity", "u0")[0] == 2


def test_usage_errors_exit_two(capsys):
    # argparse's refusals are returned, not raised, with the usage on stderr
    for argv in ([], ["solve", "--problem", "unknown", "--N", "8"], ["solve", "--problem", "pile"]):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage: infbvp"), argv
    # an infinite map constant is refused up front, without a leaked warning
    assert run_main(capsys, "grid", "--N", "4", "--c", "inf") == (
        2, "", "error: map parameter c must be positive and finite, got inf\n")
    # so is one that overflows the grid's last fractional node
    assert run_main(capsys, "grid", "--map", "alg", "--c", "1e308", "--N", "4") == (
        2, "", "error: map parameter c = 1e+308 overflows a grid of 4 intervals\n")
    # and one so small that neighbouring nodes coincide
    assert run_main(capsys, "grid", "--c", "5e-324", "--N", "4") == (
        2, "", "error: generating map produced a non-monotone grid\n")


def test_a_reader_that_closes_stdout_ends_the_command_quietly():
    # `infbvp grid --N 200000 --raw | head -1`: the write that finds the pipe
    # closed ends the command with 141, the shell's status for SIGPIPE, and
    # nothing on stderr, not even at interpreter exit. The child runs with
    # buffered stdout, as from a shell, and unbuffered: there a write cut
    # short by the reader's exit returns its partial count, which the CLI
    # must not take for the whole
    buffered = {name: value for name, value in ENV.items() if name != "PYTHONUNBUFFERED"}
    for env in (buffered, dict(buffered, PYTHONUNBUFFERED="1")):
        proc = subprocess.Popen(EXE + ["grid", "--N", "200000", "--raw"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"n,xi,x\r\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), stderr) == (141, b""), env.get("PYTHONUNBUFFERED")


def test_a_grid_too_large_for_memory_is_a_usage_error(monkeypatch, capsys):
    # the allocation failure of a huge --N, raised by a stand-in so that
    # nothing is allocated
    message = ("Unable to allocate 89.4 GiB for an array with shape (12000000001,) "
               "and data type float64")

    def out_of_memory(grid_map, N, continuation=True):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_grid", out_of_memory)
    for argv in (["solve", "--problem", "pile"], ["sweep", "--problem", "pile"], ["grid"]):
        assert run_main(capsys, *argv, "--N", "3000000000") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["--problem", "pile", "--tol", "inf"], "tolerance must be positive and finite, got inf"),
    (["--problem", "falkner-skan", "--P", "nan"],
     "pressure-gradient parameter P must be finite, got nan"),
    (["--problem", "falkner-skan", "--P", "inf"],
     "pressure-gradient parameter P must be finite, got inf"),
    (["--problem", "pile", "--P1", "inf"],
     "pile parameter P1 must be positive and finite, got inf"),
    (["--problem", "pile", "--P2", "nan"],
     "pile parameter P2 must be positive and finite, got nan"),
    (["--problem", "pile", "--P3", "nan"], "pile parameter P3 must be finite, got nan"),
    (["--problem", "falkner-skan", "--P1", "3"],
     "problem falkner-skan takes no --P1; its options: --P"),
    (["--problem", "pile", "--P", "0.3"],
     "problem pile takes no --P; its options: --P1, --P2, --P3"),
])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_bad_problem_and_solver_options_exit_two(capsys, command, argv, message):
    # refused before any output, as usage errors rather than solver failures
    assert cli.main([command, "--N", "20", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


PILE_OPTIONS = ["solve", "--problem", "pile", "--P1", "2", "--P2", "0.25", "--P3", "1",
                "--N", "8", "--raw"]


def test_each_pile_option_reaches_the_factory(capsys):
    code, out, _ = run_main(capsys, *PILE_OPTIONS)
    assert code == 0
    result = newton_solve(pile(2.0, 0.25, 1.0), build_grid(GridMap("log", 5.0), 8))
    rows = parse_csv(out)
    values = np.array([[float(cell) for cell in row[2:]] for row in rows[1:10]])
    assert values.tobytes() == result.solution.tobytes()
    summary = {row[0]: row[1] for row in rows if len(row) == 2}
    assert int(summary["iterations"]) == result.iterations
    assert float(summary["final_increment"]) == result.increments[-1]


def test_options_follow_the_factories_registered_before_import():
    # stand-ins registered before infbvp.cli is imported: an int default
    # gives an int option, and a factory without parameters takes none
    script = "\n".join([
        "import contextlib, io, json",
        "from infbvp import problems",
        "seen = []",
        "def rings(n=3):",
        "    seen.append(n)",
        "    return problems.pile(P3=0.5 * n)",
        "problems.PROBLEMS.update(rings=rings, bare=lambda: problems.pile())",
        "from infbvp import cli",
        "err = io.StringIO()",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):",
        "    codes = [cli.main(['solve', '--problem', 'rings', '--n', '2', '--N', '8']),",
        "             cli.main(['solve', '--problem', 'bare', '--P', '1', '--N', '8'])]",
        "print(json.dumps([codes, [type(n).__name__ for n in seen], err.getvalue()]))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [0, 2], ["int"], "error: problem bare takes no --P; it takes no options\n"]


def test_problem_option_help_states_the_factory_defaults():
    # --help spells each problem option's default, which the factory's
    # signature owns; "1/2" is read as an exact fraction
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for command in ("solve", "sweep"):
        helps = {action.dest: action.help for action in commands.choices[command]._actions}
        for problem, names in cli.PROBLEM_OPTIONS.items():
            parameters = inspect.signature(PROBLEMS[problem]).parameters
            for name in names:
                stated = re.fullmatch(r".*\(default (\S+)\)", helps[name]).group(1)
                assert Fraction(stated) == parameters[name].default, (command, name)


def record_newton_solve(monkeypatch, fail_on=()):
    """Replace newton_solve, as sweep looks it up, by a recorder of (N,
    initial, result); grids whose N is in fail_on fail in their first
    iteration instead, keeping their start."""
    calls = []

    def recorder(problem, grid, initial=None, config=None):
        if grid.N in fail_on:
            start = initial_field(problem, grid) if initial is None else initial.copy()
            result = SolveResult(solution=start, increments=[math.inf],
                                 reason="iteration 1: injected failure")
            calls.append((grid.N, initial, result))
            return result
        result = newton_solve(problem, grid, initial=initial, config=config)
        calls.append((grid.N, None if initial is None else initial.copy(), result))
        return result

    monkeypatch.setattr(newton, "newton_solve", recorder)
    return calls


@pytest.mark.parametrize("jacobian", ["analytic", "fd"])
@pytest.mark.parametrize("name", ["falkner-skan", "pile"])
def test_warm_started_sweep_matches_cold_solves(name, jacobian, capsys):
    ns = (20, 40, 80, 160, 320, 640, 1280)
    assert cli.main(["sweep", "--problem", name, "--N", ",".join(map(str, ns)),
                     "--jacobian", jacobian, "--raw"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    header = rows[0]
    problem = PROBLEMS[name]()
    for n, row in zip(ns, rows[1:]):
        cold = newton_solve(problem, build_grid(GridMap("log", 5.0), n),
                            config=SolverConfig(jacobian_mode=jacobian))
        assert int(row[0]) == n and row[2] == "true"
        if n != ns[0]:
            assert int(row[1]) <= 3
        for q in problem.reports:
            assert abs(float(row[header.index(q)]) - report_scalar(problem, cold, q)) <= 1e-10


@pytest.mark.parametrize("argv, kept_end, reused_from", [(["falkner-skan"], 1, 160),
                                                         (["falkner-skan", "--P", "0.5"], 0, 160),
                                                         (["pile"], 1, 80)],
                         ids=["falkner-skan", "falkner-skan-P0.5", "pile"])
def test_warm_started_grids_reuse_one_jacobian(argv, kept_end, reused_from, monkeypatch, capsys):
    # the paper's sweeps: from N = 80 on every row takes 2 iterations,
    # and from reused_from on the first step's factors also take the step
    # that ends the solve. Falkner-Skan's N = 80 end step is refused: over
    # u2 and u3, its limits, it contracts too slowly to end at Newton
    # accuracy. The cold first grid ends on the factors of its
    # second-to-last step, except falkner-skan P = 0.5, whose 3
    # iterations are too few to predict the end
    counts = count_jacobians(monkeypatch)
    ns = (20, 40, 80, 160, 320, 640, 1280)
    assert cli.main(["sweep", "--problem", *argv, "--N", ",".join(map(str, ns)), "--c", "5"]) == 0
    rows = parse_csv(capsys.readouterr().out)[1:]
    assert counts[20] == int(rows[0][1]) - kept_end
    assert all(int(row[1]) == 2 for row in rows[2:])
    assert [counts[n] for n in ns[2:]] == [1 if n >= reused_from else 2 for n in ns[2:]]


def record_grid_rules(monkeypatch):
    """Replace newton_solve, as solve and sweep look it up, by a
    pass-through that records (N, grid.continuation) of every grid it is
    handed."""
    seen = []

    def recorder(problem, grid, initial=None, config=None):
        seen.append((grid.N, grid.continuation))
        return newton_solve(problem, grid, initial=initial, config=config)

    monkeypatch.setattr(cli, "newton_solve", recorder)
    monkeypatch.setattr(newton, "newton_solve", recorder)
    return seen


def test_solve_without_continuation_solves_on_a_grid_without_the_rule(monkeypatch, capsys):
    seen = record_grid_rules(monkeypatch)
    assert cli.main(["solve", "--problem", "pile", "--N", "12", "--no-continuation",
                     "--raw"]) == 0
    assert seen == [(12, False)]
    rows = parse_csv(capsys.readouterr().out)
    solution = np.array([[float(v) for v in row[2:]] for row in rows[1:14]])
    problem = PROBLEMS["pile"]()
    without = newton_solve(problem, build_grid(GridMap("log", 5.0), 12, continuation=False))
    assert np.array_equal(solution, without.solution)
    # the flag reaches the scheme: the default grid gives another answer
    assert not np.array_equal(solution,
                              newton_solve(problem, build_grid(GridMap("log", 5.0), 12)).solution)


@pytest.mark.parametrize("name", ["falkner-skan", "pile"])
def test_sweep_without_continuation_matches_cold_solves(name, monkeypatch, capsys):
    seen = record_grid_rules(monkeypatch)
    ns = (20, 40, 80, 160)
    assert cli.main(["sweep", "--problem", name, "--N", ",".join(map(str, ns)),
                     "--no-continuation", "--raw"]) == 0
    assert seen == [(n, False) for n in ns]
    rows = parse_csv(capsys.readouterr().out)
    header = rows[0]
    problem = PROBLEMS[name]()
    for n, row in zip(ns, rows[1:]):
        cold = newton_solve(problem, build_grid(GridMap("log", 5.0), n, continuation=False))
        assert int(row[0]) == n and row[2] == "true" and cold.converged
        for q in problem.reports:
            assert abs(float(row[header.index(q)]) - report_scalar(problem, cold, q)) <= 1e-10


def test_solve_json_stays_valid_for_a_nonfinite_iterate(monkeypatch, capsys):
    def diverged(problem, grid, initial=None, config=None):
        solution = np.zeros((grid.N + 1, problem.d))
        solution[1, 0], solution[2, 1], solution[3, 2] = np.inf, -np.inf, np.nan
        return SolveResult(solution=solution, increments=[np.inf],
                           reason="iteration 1: correction is not finite")

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr(cli, "newton_solve", diverged)
    assert cli.main(["solve", "--problem", "pile", "--N", "4", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["converged"] is False and doc["final_increment"] == "inf"
    assert [[doc["nodes"][f"u{k}"][n] for k in (1, 2, 3)] for n in (1, 2, 3)] == [
        ["inf", 0.0, 0.0], [0.0, "-inf", 0.0], [0.0, 0.0, "nan"]]


EXTRAPOLATE_INPUT = "N,u0\n40,1.421243\n80,1.421469\n160,1.421526\n"

SOLVE_PILE_8_TABLE = (
    "n,x,u1,u2,u3,u4\r\n"
    "0,0.000000,1.413440,-0.802084,0.000000,0.500000\r\n"
    "1,0.667657,0.903293,-0.725228,0.238436,0.205209\r\n"
    "2,1.438410,0.423531,-0.513382,0.315040,-0.014598\r\n"
    "3,2.350018,0.069525,-0.253046,0.254553,-0.123331\r\n"
    "4,3.465736,-0.100213,-0.040325,0.120487,-0.117410\r\n"
    "5,4.904146,-0.096367,0.052342,0.000421,-0.045223\r\n"
    "6,6.931472,-0.018523,0.022207,-0.033911,0.017301\r\n"
    "7,10.397208,0.020690,-0.003220,0.029587,0.021085\r\n"
    "8,inf,0.000000,0.000000,-0.040994,-0.045197\r\n")
SOLVE_PILE_8_SUMMARY = (
    "key,value\r\nproblem,pile\r\nmap,log\r\nc,5.000000\r\nN,8\r\nconverged,true\r\n"
    "iterations,3\r\nfinal_increment,9.5194938767889558e-07\r\ndu0,-0.802084\r\n"
    "u0,1.413440\r\n")
SOLVE_PILE_8_JSON = (
    '{\n  "problem": "pile",\n  "map": "log",\n  "c": 5.0,\n  "N": 8,\n'
    '  "converged": true,\n  "iterations": 3,\n'
    '  "final_increment": 9.519493876788956e-07,\n  "du0": -0.80208356302185,\n'
    '  "u0": 1.413440487445804,\n  "nodes": {\n    "n": [\n      0,\n      1,\n      2,\n'
    '      3,\n      4,\n      5,\n      6,\n      7,\n      8\n    ],\n    "x": [\n'
    '      0.0,\n      0.6676569631226131,\n      1.4384103622589044,\n'
    '      2.350018146228678,\n      3.4657359027997265,\n      4.904146265058631,\n'
    '      6.931471805599453,\n      10.39720770839918,\n      "inf"\n    ],\n    "u1": [\n'
    '      1.413440487445804,\n      0.9032931309349784,\n      0.4235311034378553,\n'
    '      0.0695245971158244,\n      -0.10021279722165895,\n      -0.09636673158794903,\n'
    '      -0.018523131272510825,\n      0.02069038418486672,\n'
    '      -1.2271177796522528e-23\n    ],\n    "u2": [\n      -0.80208356302185,\n'
    '      -0.7252277458741287,\n      -0.5133822415837128,\n      -0.2530455544567394,\n'
    '      -0.04032489568099113,\n      0.05234201371015206,\n      0.02220748531150922,\n'
    '      -0.0032195566853990124,\n      9.484548974486071e-24\n    ],\n    "u3": [\n'
    '      -6.622100276485832e-24,\n      0.2384357899876441,\n      0.315040048470654,\n'
    '      0.25455277273249394,\n      0.12048662768431916,\n      0.0004205054471478018,\n'
    '      -0.03391076918112907,\n      0.02958666958698257,\n      -0.04099397182287162\n'
    '    ],\n    "u4": [\n      0.5,\n      0.20520869189140495,\n'
    '      -0.014598346558702987,\n      -0.12333119860095573,\n'
    '      -0.11740973622269307,\n      -0.04522264508495551,\n'
    '      0.017300955010297808,\n      0.021085116578844144,\n      -0.04519719157841208\n'
    '    ]\n  }\n}\n')

# argv ("{input}" is the extrapolate input file, "{out}" an --out path),
# expected stdout, expected --out file contents or None
FROZEN_OUTPUT = {
    "grid-csv": (
        ["grid", "--map", "log", "--c", "5", "--N", "4"],
        "n,xi,x\r\n0,0.000000,0.000000\r\n1,0.250000,1.438410\r\n2,0.500000,3.465736\r\n"
        "3,0.750000,6.931472\r\n4,1.000000,inf\r\n", None),
    "grid-json": (
        ["grid", "--map", "log", "--c", "5", "--N", "4", "--format", "json"],
        '{\n  "map": "log",\n  "c": 5.0,\n  "N": 4,\n  "nodes": {\n    "n": [\n      0,\n'
        '      1,\n      2,\n      3,\n      4\n    ],\n    "xi": [\n      0.0,\n'
        '      0.25,\n      0.5,\n      0.75,\n      1.0\n    ],\n    "x": [\n      0.0,\n'
        '      1.4384103622589044,\n      3.4657359027997265,\n      6.931471805599453,\n'
        '      "inf"\n    ]\n  }\n}\n', None),
    "grid-decimals": (
        ["grid", "--map", "log", "--c", "5", "--N", "4", "--decimals", "3"],
        "n,xi,x\r\n0,0.000,0.000\r\n1,0.250,1.438\r\n2,0.500,3.466\r\n3,0.750,6.931\r\n"
        "4,1.000,inf\r\n", None),
    "grid-raw": (
        ["grid", "--map", "log", "--c", "2", "--N", "3", "--raw"],
        "n,xi,x\r\n0,0,0\r\n1,0.33333333333333331,0.81093021621632866\r\n"
        "2,0.66666666666666663,2.1972245773362191\r\n3,1,inf\r\n", None),
    "extrapolate-csv": (
        ["extrapolate", "{input}", "--quantity", "u0"],
        "N,T0,T1,T2\r\n40,1.421243,,\r\n80,1.421469,1.421544,\r\n"
        "160,1.421526,1.421545,1.421545\r\n", None),
    "extrapolate-json": (
        ["extrapolate", "{input}", "--quantity", "u0", "--format", "json"],
        '{\n  "quantity": "u0",\n  "print_decimals": 6,\n  "stop_rule": "nest",\n'
        '  "ns": [\n    40,\n    80,\n    160\n  ],\n  "columns": [\n'
        '    [\n      1.421243,\n      1.421469,\n      1.421526\n    ],\n'
        '    [\n      1.4215443333333333,\n      1.421545\n    ],\n'
        '    [\n      1.4215450952380952\n    ]\n  ]\n}\n', None),
    "solve-stdout": (
        ["solve", "--problem", "pile", "--N", "8"],
        SOLVE_PILE_8_TABLE + "\n" + SOLVE_PILE_8_SUMMARY, None),
    "solve-out": (
        ["solve", "--problem", "pile", "--N", "8", "--out", "{out}"],
        SOLVE_PILE_8_SUMMARY, SOLVE_PILE_8_TABLE),
    "solve-json": (
        ["solve", "--problem", "pile", "--N", "8", "--format", "json"], SOLVE_PILE_8_JSON, None),
    "sweep-csv": (
        ["sweep", "--problem", "pile", "--N", "20,40"],
        "N,iterations,converged,du0,du0_order,u0,u0_order\r\n"
        "20,4,true,-0.807289,,1.420337,\r\n40,2,true,-0.807934,,1.421243,\r\n", None),
    "sweep-decimals": (
        ["sweep", "--problem", "pile", "--N", "20,40", "--decimals", "3"],
        "N,iterations,converged,du0,du0_order,u0,u0_order\r\n"
        "20,4,true,-0.807,,1.420,\r\n40,2,true,-0.808,,1.421,\r\n", None),
    "sweep-json": (
        ["sweep", "--problem", "pile", "--N", "20,40", "--format", "json"],
        '{\n  "problem": "pile",\n  "rows": {\n    "N": [\n      20,\n      40\n    ],\n'
        '    "iterations": [\n      4,\n      2\n    ],\n    "converged": [\n      true,\n'
        '      true\n    ],\n    "du0": [\n      -0.8072891571918911,\n'
        '      -0.8079336378726136\n    ],\n    "du0_order": [\n      null,\n      null\n'
        '    ],\n    "u0": [\n      1.4203374354812217,\n      1.4212429637552384\n    ],\n'
        '    "u0_order": [\n      null,\n      null\n    ]\n  }\n}\n', None),
}


@pytest.mark.parametrize("case", sorted(FROZEN_OUTPUT))
def test_output_bytes_are_frozen(case, tmp_path, capsys):
    argv, stdout, file_text = FROZEN_OUTPUT[case]
    source, out = tmp_path / "sweep.csv", tmp_path / "out.csv"
    source.write_text(EXTRAPOLATE_INPUT)
    argv = [arg.format(input=source, out=out) for arg in argv]
    assert run_main(capsys, *argv) == (0, stdout, "")
    if file_text is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == file_text.encode()


def test_a_stdout_without_a_binary_layer_takes_the_text(capsys):
    # perfbench's call_cli redirects stdout to a StringIO, which has no .buffer
    argv, stdout, _ = FROZEN_OUTPUT["solve-stdout"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(argv) == 0
    assert text.getvalue() == stdout
    assert capsys.readouterr() == ("", "")


def cell_reads_as(cell: str, value) -> bool:
    """Whether a --raw CSV cell holds the JSON value: "" is null, true and
    false are booleans, strings (inf, -inf and nan among them) are
    themselves, and a number is float() of the cell, bitwise."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == str(value).lower()
    if isinstance(value, str):
        return cell == value
    return float(cell).hex() == float(value).hex()


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "pile", "--N", "8"],
    ["grid", "--map", "alg", "--c", "2", "--N", "5"],
    ["sweep", "--problem", "pile", "--N", "20,40,80"],
])
def test_json_table_is_the_raw_csv_table(argv, tmp_path, capsys):
    # one table, two formats: JSON's named columns hold what --raw CSV
    # prints cell by cell, and solve's top-level keys its summary pairs
    csv_out, json_out = tmp_path / "table.csv", tmp_path / "table.json"
    code, summary, _ = run_main(capsys, *argv, "--raw", "--out", str(csv_out))
    assert run_main(capsys, *argv, "--raw", "--format", "json", "--out", str(json_out)) == (
        code, "", "")
    header, *rows = parse_csv(csv_out.read_text())
    doc = json.loads(json_out.read_text())
    table = doc["rows" if argv[0] == "sweep" else "nodes"]
    assert list(table) == header
    assert all(len(column) == len(rows) for column in table.values())
    assert all(cell_reads_as(cell, value)
               for row, values in zip(rows, zip(*table.values()))
               for cell, value in zip(row, values))
    if argv[0] == "solve":
        pairs = parse_csv(summary)[1:]
        assert [key for key, _ in pairs] == list(doc)[:-1]
        assert all(cell_reads_as(cell, doc[key]) for key, cell in pairs)


# int(1e300) exactly: the default table prints every digit of a float
BIG = ("1000000000000000052504760255204420248704468581108159154915854115511802457988908195"
       "786371375080447864043704443832883878176942523235360430575644792184786706982848387"
       "200926575803737830233794788090059368953234970799945081119038967640880074652742780"
       "142494579258788820056842838115669472196386865459400540160")
# solve --problem pile --N 2 --out, with the hand-made solution below:
# argv extras, expected --out table, expected stdout summary
EDGE_VALUE_OUTPUT = {
    "default": (
        [],
        "n,x,u1,u2,u3,u4\r\n"
        "0,0.000000,0.000000,0.000000,0.500000,0.000000\r\n"
        f"1,3.465736,inf,-inf,nan,{BIG}.000000\r\n"
        "2,inf,0.000000,1.250000,0.000000,2.000000\r\n",
        "key,value\r\nproblem,pile\r\nmap,log\r\nc,5.000000\r\nN,2\r\nconverged,true\r\n"
        "iterations,3\r\nfinal_increment,0.10000000000000001\r\ndu0,0.000000\r\n"
        "u0,0.000000\r\n"),
    "raw": (
        ["--raw"],
        "n,x,u1,u2,u3,u4\r\n"
        "0,0,-4.0000000000000002e-25,1e-300,0.5,-0\r\n"
        "1,3.4657359027997265,inf,-inf,nan,1.0000000000000001e+300\r\n"
        "2,inf,-0,1.25,-4.0000000000000002e-25,2\r\n",
        "key,value\r\nproblem,pile\r\nmap,log\r\nc,5\r\nN,2\r\nconverged,true\r\n"
        "iterations,3\r\nfinal_increment,0.10000000000000001\r\ndu0,1e-300\r\n"
        "u0,-4.0000000000000002e-25\r\n"),
}


@pytest.mark.parametrize("mode", sorted(EDGE_VALUE_OUTPUT))
def test_csv_writer_pins_edge_values(mode, tmp_path, monkeypatch, capsys):
    # the writer alone, on a solution no solver produces: non-finite
    # values, signed zeros and extreme magnitudes in the node table; a
    # bool, a full-precision float and strings in the summary
    def edge_values(problem, grid, initial=None, config=None):
        solution = np.array([[-4e-25, 1e-300, 0.5, -0.0],
                             [np.inf, -np.inf, np.nan, 1e300],
                             [-0.0, 1.25, -4e-25, 2.0]])
        return SolveResult(solution=solution, increments=[0.4, 0.2, 0.1])

    extra, table, summary = EDGE_VALUE_OUTPUT[mode]
    out = tmp_path / "out.csv"
    monkeypatch.setattr(cli, "newton_solve", edge_values)
    assert run_main(capsys, "solve", "--problem", "pile", "--N", "2", "--out", str(out),
                    *extra) == (0, summary, "")
    assert out.read_bytes() == table.encode()


@pytest.mark.parametrize(("options", "expected"), [
    ({"raw": False, "decimals": 6},
     "0.000000,0.000000,0.000000,-0.000001,-1.000000,0.000000\r\n"
     "0,0.000000,x-0.000000,true\r\n"),
    ({"raw": False, "decimals": 0},
     "0,0,0,0,-1,0\r\n0,0,x-0.000000,true\r\n"),
    ({"raw": True, "decimals": 6},
     "-4.0000000000000002e-25,-0,-3.9999999999999998e-07,-5.9999999999999997e-07,-1,0\r\n"
     "0,-0,x-0.000000,true\r\n"),
], ids=["decimals-6", "decimals-0", "raw"])
def test_csv_text_prints_no_signed_zero(options, expected):
    # rows go cell by cell through _cell and csv.writer, the first all
    # floats, the second with an int, a string and a bool; a sign inside
    # a cell stays, and --raw keeps every sign for the round trip
    rows = [(-4e-25, -0.0, -4e-7, -6e-7, -1.0, 0.0), (0, -0.0, "x-0.000000", True)]
    assert cli._csv_text(rows, argparse.Namespace(**options)) == expected


EDGE_FLOATS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -4e-25]


@st.composite
def node_columns(draw):
    """Equal-length columns, each all int or all float."""
    rows = draw(st.integers(1, 12))
    cells = {int: st.integers(), float: st.floats() | st.sampled_from(EDGE_FLOATS)}
    kinds = draw(st.lists(st.sampled_from([int, float]), min_size=1, max_size=6))
    return [draw(st.lists(cells[kind], min_size=rows, max_size=rows)) for kind in kinds]


@settings(max_examples=300, deadline=None, database=None)
@given(node_columns(), st.sampled_from([{"raw": True, "decimals": 6}] + [
    {"raw": False, "decimals": decimals} for decimals in (0, 6, 17)]))
def test_node_table_template_writes_the_cell_rule(columns, options):
    # the reference: _cell per cell, without --raw a cell that reads as a
    # signed zero loses its sign, then csv.writer
    args = argparse.Namespace(**options)
    float_format = "%.17g" if args.raw else f"%.{args.decimals}f"
    zero = float_format % 0.0
    cells = [[cli._cell(value, float_format) for value in row] for row in zip(*columns)]
    if not args.raw:
        cells = [[zero if cell == "-" + zero else cell for cell in row] for row in cells]
    header = [f"c{k}" for k in range(len(columns))]
    expected = io.StringIO()
    csv.writer(expected).writerows([header, *cells])
    assert cli._csv_text([header], args, columns) == expected.getvalue()


def test_extrapolate_json_stays_valid_for_nonfinite_input(tmp_path, capsys):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    source = tmp_path / "sweep.csv"
    source.write_text("N,q\n20,1.0\n40,inf\n80,1.2\n")
    code, out, _ = run_main(capsys, "extrapolate", str(source), "--quantity", "q",
                            "--format", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=reject)
    assert doc["columns"] == [[1.0, "inf", 1.2], ["inf", "-inf"]]


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "pile", "--N", "8"],
    ["sweep", "--problem", "pile", "--N", "8,16"],
    ["extrapolate", "sweep.csv", "--quantity", "u0"],
    ["grid", "--N", "4"],
])
def test_negative_decimals_is_a_usage_error(argv, capsys):
    code, out, err = run_main(capsys, *argv, "--decimals", "-1")
    assert (code, out) == (2, "")
    assert "--decimals" in err


def test_non_integer_decimals_is_a_usage_error(capsys):
    code, out, err = run_main(capsys, "grid", "--N", "4", "--decimals", "abc")
    assert (code, out) == (2, "")
    assert err.startswith("usage: infbvp grid")
    assert "argument --decimals: invalid int value: 'abc'" in err


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    return importlib.import_module(name)


def test_a_usage_error_in_a_benchmark_case_is_its_exit_code(monkeypatch):
    # perfbench calls cli.main in its own process and grades what it
    # returns: a usage error comes back as exit 2, not as the end of the run
    workloads = import_perfbench(monkeypatch, "workloads")
    code, out, err, warned = workloads.call_cli(
        ["solve", "--problem", "pile", "--N", "8", "--decimals", "-1"])
    assert (code, out, warned) == (2, "", False)
    assert "--decimals" in err


def test_trace_hooks_find_the_names_they_patch(tmp_path, monkeypatch, capsys):
    # perfbench/tracing.py rebinds CLI, Newton and grid names by attribute;
    # renaming one of them would make the traced benchmark run raise
    tracing = import_perfbench(monkeypatch, "tracing")
    from infbvp import grids, newton, problems

    patched = [(cli, "main"), (cli, "build_grid"), (cli, "newton_solve"),
               (cli, "extrapolate_table"), (grids, "build_grid"),
               (grids.QuasiUniformGrid, "stencil_arrays"), (newton, "initial_field"),
               (newton, "assemble_residual"), (newton, "assemble_jacobian"),
               (newton, "linear_solve"), (newton, "newton_solve"),
               (problems, "falkner_skan"), (problems, "pile")]
    originals = [getattr(owner, attr) for owner, attr in patched]
    factories = dict(problems.PROBLEMS)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        sweep = tmp_path / "sweep.csv"
        assert cli.main(["solve", "--problem", "pile", "--N", "8"]) == 0
        assert cli.main(["sweep", "--problem", "pile", "--N", "8,16", "--raw",
                         "--out", str(sweep)]) == 0
        assert cli.main(["extrapolate", str(sweep), "--quantity", "u0"]) == 0
    finally:
        restore()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "newton.solve", "scheme.residual", "scheme.jacobian",
            "newton.linear", "grids.build", "grids.stencil", "problems.initial_field",
            "richardson.extrapolate"} <= names
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(patched, originals))
    assert problems.PROBLEMS == factories


def test_traced_solve_records_the_coarse_start_grids(monkeypatch, capsys):
    # the CLI's grid, its N/8 start and the two grids it is prolonged through
    tracing = import_perfbench(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.main(["solve", "--problem", "pile", "--N", "2560"]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert [span[0] for span in tracer.spans].count("grids.build") == 4


def test_problem_options_survive_a_tracer_installed_before_the_first_main(capsys):
    # the tracer wraps every PROBLEMS entry in a (*args, **kwargs) lambda;
    # the options were read from the factories before that
    script = "\n".join([
        "import sys",
        "import tracing",
        "from infbvp import cli",
        "tracing.install(tracing.Tracer())",
        f"sys.exit(cli.main({PILE_OPTIONS!r}))",
    ])
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(PERFBENCH), ENV["PYTHONPATH"]]))
    proc = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == run_main(capsys, *PILE_OPTIONS)[1]


def test_parser_is_built_once_and_keeps_no_option(capsys):
    # the second call shares the cached parser but none of the first's options
    assert cli._build_parser() is cli._build_parser()
    assert run_main(capsys, "grid", "--N", "4", "--raw", "--format", "json")[0] == 0
    argv, stdout, _ = FROZEN_OUTPUT["grid-csv"]
    assert run_main(capsys, *argv) == (0, stdout, "")
