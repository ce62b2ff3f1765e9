"""Command line surface: subcommand output formats, exit codes, sweep CSV.

Exit codes are part of the contract: 0 success, 1 validation/usage error,
2 guard refusal.  Sweep CSV must be byte-identical across worker counts.
"""

import csv
import io
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from pcg import equilibria
from pcg.cli import main
from pcg.stateio import parse_state
from pcg.sweep import CSV_COLUMNS, SweepSpec, run_sweep, sweep_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_star(tmp_path, n="5", alpha="3", beta="5/2", kind="periphery-star"):
    path = tmp_path / "state.txt"
    code = main(
        ["construct", "--kind", kind, "--n", n, "--alpha", alpha, "--beta", beta,
         "--out", str(path)]
    )
    assert code == 0
    return path


# -- construct / cost / checks -----------------------------------------------------------


def test_construct_writes_parseable_state(tmp_path, capsys):
    path = write_star(tmp_path)
    state, params = parse_state(path.read_text())
    assert params.n == 5 and params.alpha == 3
    assert state.strategies[1] == frozenset({0})


def test_construct_stdout_and_center(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--kind", "center-star", "--n", "4",
        "--alpha", "1", "--beta", "2", "--center", "2",
    )
    assert code == 0
    assert "buys 2 : 0 1 3" in out


def test_construct_center_rejected_for_cycle(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--kind", "cycle:3", "--n", "4",
        "--alpha", "1", "--beta", "2", "--center", "1",
    )
    assert code == 1
    assert "star kinds" in err


def test_cost_output(tmp_path, capsys):
    path = write_star(tmp_path)
    code, out, _ = run_cli(capsys, "cost", "--state", str(path), "--player", "1")
    assert code == 0
    assert out.splitlines() == [
        "social 44",
        "player 1 edge 3 distance 7 penalty 0 total 10",
    ]


def test_check_nash_true(tmp_path, capsys):
    path = write_star(tmp_path)
    code, out, _ = run_cli(capsys, "check-nash", "--state", str(path))
    assert code == 0
    assert out.splitlines()[0] == "nash true"


def test_check_nash_witness(tmp_path, capsys):
    path = write_star(tmp_path, alpha="1/2")  # leaf-to-leaf shortcut beats the detour
    code, out, _ = run_cli(capsys, "check-nash", "--state", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nash false"
    assert lines[1].startswith("deviation player ")
    assert any(line.startswith("deviation old-cost ") for line in lines)


def test_check_strong_witness(tmp_path, capsys):
    path = write_star(tmp_path, alpha="6", beta="3")
    code, out, _ = run_cli(capsys, "check-strong", "--state", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "strong false"
    assert lines[1] == "coalition 1"
    assert "member 1 old-cost 13 new-cost 12" in lines


def test_check_strong_true(tmp_path, capsys):
    path = write_star(tmp_path, alpha="4", beta="3")
    code, out, _ = run_cli(capsys, "check-strong", "--state", str(path))
    assert code == 0
    assert out.strip() == "strong true"


# -- enumerate / optimum / poa / classify ---------------------------------------------------


def test_enumerate_summary(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "4", "--alpha", "1", "--beta", "3")
    assert code == 0
    lines = out.splitlines()
    assert "states-examined 4096" in lines
    assert "equilibria 528" in lines
    assert "disconnected 0" in lines
    assert "poa 7/6" in lines
    assert lines.count("pcg-state v1") == 528


def test_enumerate_dedupe_prints_representatives(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "4", "--alpha", "1", "--beta", "3", "--dedupe-iso")
    assert code == 0
    classes = next(l for l in out.splitlines() if l.startswith("iso-classes "))
    count = int(classes.split()[1])
    assert out.count("pcg-state v1") == count < 528


def test_enumerate_strong_summary(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "3", "--alpha", "2", "--beta", "inf", "--mode", "strong")
    assert code == 0
    assert "strong-equilibria 12" in out
    assert "spoa 1" in out


def test_optimum_output(capsys):
    code, out, _ = run_cli(capsys, "optimum", "--n", "4", "--alpha", "1/2", "--beta", "7/5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cost 15"
    assert lines[1] == "class complete"
    assert lines[2] == "edges : 0-1 0-2 0-3 1-2 1-3 2-3"
    state, _ = parse_state("\n".join(lines[4:]) + "\n")
    assert state.strategies[0] == frozenset({1, 2, 3})


def test_poa_summary(capsys):
    code, out, _ = run_cli(capsys, "poa", "--n", "5", "--alpha", "3", "--beta", "5/2")
    assert code == 0
    assert "poa 25/22" in out
    assert "found true" in out


def test_poa_no_strong_equilibria(capsys):
    code, out, _ = run_cli(
        capsys, "poa", "--n", "4", "--alpha", "3", "--beta", "5/2", "--mode", "strong")
    assert code == 0
    assert "found false" in out
    assert "poa none" in out


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "5", "--alpha", "3", "--beta", "5/2")
    assert code == 0
    assert "optimum-class star" in out
    assert "disconnected-ne true" in out
    assert "empty-ne-ratio 25/22" in out
    assert "excluded pair : alpha <= 1" in out


def test_bounds_from_state(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    main(["construct", "--kind", "cycle:5", "--n", "7", "--alpha", "7/2",
          "--beta", "12/5", "--out", str(path)])
    code, out, _ = run_cli(capsys, "bounds", "--state", str(path))
    assert code == 0
    assert "component 0 1 2 3 4 : cycle:5" in out
    assert "bounds non-empty disconnected NE (n_l=5, diam_l=2)" in out
    assert "check beta-diameter satisfied" in out


def test_bounds_direct_mode(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--n", "20", "--alpha", "3", "--beta", "12",
        "--min-size", "4", "--min-diameter", "2")
    assert code == 0
    assert "check beta-half-n violated" in out


def test_bounds_connected_state(tmp_path, capsys):
    path = write_star(tmp_path)
    code, out, _ = run_cli(capsys, "bounds", "--state", str(path))
    assert code == 0
    assert "component 0 1 2 3 4 : star" in out


# -- dynamics --------------------------------------------------------------------------------


def test_dynamics_run(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    main(["construct", "--kind", "empty", "--n", "4", "--alpha", "1",
          "--beta", "5", "--out", str(path)])
    code, out, _ = run_cli(capsys, "dynamics", "--state", str(path))
    assert code == 0
    assert out.startswith("converged steps ")


def test_dynamics_policy_flags(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    main(["construct", "--kind", "empty", "--n", "4", "--alpha", "1",
          "--beta", "5", "--out", str(path)])
    code, out, _ = run_cli(
        capsys, "dynamics", "--state", str(path), "--policy", "first",
        "--order", "random", "--seed", "9", "--max-steps", "50")
    assert code == 0
    assert out.startswith("converged") or out.startswith("budget-exhausted")


def test_dynamics_cycle_search(capsys):
    code, out, _ = run_cli(
        capsys, "dynamics", "--cycle-search", "3", "--n", "4",
        "--alpha", "5/4", "--beta", "inf", "--seed", "1")
    assert code == 0
    assert out.startswith("no-cycle trials 3") or out.startswith("cycle-found trial ")


def test_dynamics_flag_conflicts(tmp_path, capsys):
    path = write_star(tmp_path)
    code, _, err = run_cli(
        capsys, "dynamics", "--state", str(path), "--cycle-search", "2")
    assert code == 1 and "mutually exclusive" in err
    code, _, err = run_cli(capsys, "dynamics")
    assert code == 1


# -- sweep -----------------------------------------------------------------------------------


def test_sweep_csv_contract(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "4", "--alpha", "1/2,1,3/2,2,3",
        "--beta", "3/2,2,5/2,3", "--mode", "nash")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 21  # header + 5x4 grid
    by_point = {(r[0], r[1], r[2]): r for r in rows[1:]}
    r = by_point[("4", "1", "3")]
    assert r[CSV_COLUMNS.index("disconnected_ne_count")] == "0"
    # nash mode leaves the strong columns empty
    assert r[CSV_COLUMNS.index("se_count")] == ""


def test_sweep_workers_byte_identical(capsys):
    args = ["sweep", "--n", "3,4", "--alpha", "1,2", "--beta", "2,inf"]
    _, out1, _ = run_cli(capsys, *args, "--workers", "1")
    _, out4, _ = run_cli(capsys, *args, "--workers", "4")
    assert out1 == out4


def test_sweep_guard_points_skipped(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "4,7", "--alpha", "1", "--beta", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    skipped = [r for r in rows[1:] if r[-1] == "skipped:guard"]
    assert len(skipped) == 1 and skipped[0][0] == "7"
    assert skipped[0][CSV_COLUMNS.index("optimum_class")] == ""


def test_sweep_n6_override_skips_only_the_state_budget_point(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "6", "--alpha", "1,3", "--beta", "3", "--override-guard")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[-1] for r in rows] == ["skipped:guard", ""]
    assert rows[1][CSV_COLUMNS.index("ne_count")] == "2887"


def test_sweep_records_api_matches_cli(tmp_path, capsys):
    spec = SweepSpec(ns=[4], alphas=[F(1)], betas=[F(3)])
    rows = list(sweep_records(spec))
    assert rows[0][CSV_COLUMNS.index("ne_count")] == "528"
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "4", "--alpha", "1", "--beta", "3",
                 "--out", str(out_path)])
    assert code == 0
    disk = list(csv.reader(out_path.open()))
    assert disk[1] == list(rows[0])


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(ns=[], alphas=[F(1)], betas=[F(2)])
    with pytest.raises(ValueError):
        SweepSpec(ns=[3], alphas=[F(0)], betas=[F(2)])
    with pytest.raises(ValueError):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2)], mode="mixed")


def test_sweep_spec_refuses_bool_prices():
    with pytest.raises(ValueError, match="expected a rational p/q, got True"):
        SweepSpec(ns=[3], alphas=[F(1), True], betas=[F(2)])
    with pytest.raises(ValueError, match="expected a rational p/q, got True"):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2), True])


def test_sweep_spec_max_coalition_checked_at_every_n():
    with pytest.raises(ValueError, match="max_coalition must be in 1..3, got 0"):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2)], max_coalition=0)
    with pytest.raises(ValueError, match="max_coalition must be in 1..3, got 4"):
        SweepSpec(ns=[4, 3], alphas=[F(1)], betas=[F(2)], max_coalition=4)
    assert SweepSpec(ns=[3, 4], alphas=[F(1)], betas=[F(2)], max_coalition=3).max_coalition == 3


def test_sweep_spec_refuses_bool_options():
    # True == 1, so without a type check these ran one worker and singleton coalitions
    with pytest.raises(ValueError, match="workers must be >= 1, got True"):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2)], workers=True)
    with pytest.raises(ValueError, match="max_coalition must be in 1..3, got True"):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2)], mode="strong", max_coalition=True)


def test_sweep_spec_refuses_non_integer_workers():
    with pytest.raises(ValueError, match="workers must be >= 1, got 1.5"):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2)], workers=1.5)


def test_sweep_spec_refuses_non_integer_n():
    # int(4.7) used to run n = 4 without a word
    with pytest.raises(ValueError, match="n must be an integer >= 2, got 4.7"):
        SweepSpec(ns=(4.7,), alphas=[F(1)], betas=[F(2)])


def test_run_sweep_returns_row_count():
    spec = SweepSpec(ns=[3], alphas=[F(1), F(2)], betas=[F(2)])
    buf = io.StringIO()
    assert run_sweep(spec, buf) == 2


# -- exit codes ------------------------------------------------------------------------------


def test_validation_exit_codes(capsys):
    code, _, err = run_cli(capsys, "classify", "--n", "4", "--alpha", "0", "--beta", "2")
    assert code == 1 and "alpha must be positive" in err
    code, _, err = run_cli(capsys, "classify", "--n", "4", "--alpha", "1", "--beta", "1")
    assert code == 1 and "beta must exceed 1" in err
    code, _, err = run_cli(capsys, "classify", "--n", "4", "--alpha", "x", "--beta", "2")
    assert code == 1 and "rational" in err
    code, _, err = run_cli(capsys, "classify", "--n", "4", "--alpha", "1/0", "--beta", "2")
    assert code == 1 and "rational" in err
    code, _, err = run_cli(capsys, "sweep", "--n", "3", "--alpha", "1", "--beta", "2,1/0")
    assert code == 1 and "rational" in err


@pytest.mark.parametrize("command, workers", [("enumerate", "-2"), ("poa", "0")])
def test_workers_below_one_rejected(capsys, command, workers):
    code, out, err = run_cli(
        capsys, command, "--n", "3", "--alpha", "1", "--beta", "2", "--workers", workers)
    assert code == 1 and out == ""
    assert f"workers must be >= 1, got {workers}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("poa", "--max-coalition", "-1"),
        ("enumerate", "--max-coalition", "0"),
        ("sweep", "--max-coalition", "0"),
        ("poa", "--max-coalition", "0", "--mode", "strong"),
    ],
)
def test_max_coalition_out_of_range_exits_1(capsys, argv):
    command, *flags = argv
    code, out, err = run_cli(capsys, command, "--n", "3", "--alpha", "1", "--beta", "2", *flags)
    assert code == 1 and out == ""
    assert f"max_coalition must be in 1..3, got {flags[1]}" in err


def test_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "7", "--alpha", "1", "--beta", "2")
    assert code == 2 and "guard" in err.lower()
    code, _, _ = run_cli(capsys, "optimum", "--n", "9", "--alpha", "1", "--beta", "2")
    assert code == 2


@pytest.mark.parametrize("command", ["enumerate", "poa"])
def test_nash_state_budget_exit_code(capsys, command):
    code, out, err = run_cli(capsys, command, "--n", "6", "--alpha", "1", "--beta", "3", "--override-guard")
    assert code == 2 and out == ""
    assert "Nash states, over the budget of 59049" in err


def test_optimum_n8_exit_code(capsys, monkeypatch):
    def no_graph_scan(*args):
        raise AssertionError("the optimum guard admitted the graph loop")

    monkeypatch.setattr(equilibria, "adjacency_masks", no_graph_scan)
    code, out, err = run_cli(capsys, "optimum", "--n", "8", "--alpha", "1", "--beta", "2")
    assert code == 2 and out == ""
    assert "2^C(8,2) = 2^28 graphs" in err


def test_canonical_form_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(equilibria, "CANONICAL_FORM_BUDGET", 528 * 24 - 1)
    for flag in (["--dedupe-iso"], ["--mode", "strong"]):
        code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--alpha", "1", "--beta", "3", *flag)
        assert code == 2 and out == ""
        assert "guard: canonical forms of 528 Nash states" in err and "budget of 12671" in err


def test_import_leaves_the_process_pool_unloaded():
    # only workers > 1 needs concurrent.futures.process (and multiprocessing, pickle, socket)
    src = str(Path(equilibria.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, pcg, pcg.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_unknown_subcommand_and_missing_args(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "enumerate", "--n", "4", "--alpha", "1")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_missing_state_file(capsys):
    code, _, err = run_cli(capsys, "cost", "--state", "/no/such/file")
    assert code == 1


def test_malformed_state_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 : 0\nbuys 1 :\n")
    code, _, err = run_cli(capsys, "check-nash", "--state", str(bad))
    assert code == 1
    assert "line 5" in err
    bad.write_bytes(b"pcg-state v1\nn 2\nalpha 1\nbeta 2\nbuys 0 : \xff\nbuys 1 :\n")
    code, _, err = run_cli(capsys, "check-nash", "--state", str(bad))
    assert code == 1
    assert "line 5: not UTF-8: byte 0xff" in err


def readme_commands():
    """The ``pcg`` lines of the README's "Command line" block, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pcg ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 12
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
    assert (tmp_path / "star.txt").exists() and (tmp_path / "sweep.csv").exists()
