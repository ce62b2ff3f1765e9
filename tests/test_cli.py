"""Command line surface: subcommand output formats, exit codes, sweep CSV.

Exit codes are part of the contract: 0 success, 1 validation/usage error,
2 guard refusal.  Sweep CSV must be byte-identical across runs.
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
from pcg.game import GameParams
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


WITNESS_BYTES = [
    (("check-nash", "periphery-star", "5", "1/2", "5/2"),
     "nash false\ndeviation player 1\ndeviation old : 0\ndeviation new : 0 2\n"
     "deviation old-cost 15/2 new-cost 7\n"),
    (("check-nash", "empty", "5", "1", "3"),
     "nash false\ndeviation player 0\ndeviation old :\ndeviation new : 1\ndeviation old-cost 12 new-cost 11\n"),
    (("check-strong", "center-star", "6", "1", "3"),
     "strong false\ncoalition 1 2 3\nmember 1 new : 2\nmember 1 old-cost 9 new-cost 8\n"
     "member 2 new : 3\nmember 2 old-cost 9 new-cost 8\nmember 3 new : 1\nmember 3 old-cost 9 new-cost 8\n"),
    (("check-strong", "empty", "6", "1/2", "3/2"),
     "strong false\ncoalition 0 1 2\nmember 0 new : 1\nmember 0 old-cost 15/2 new-cost 7\n"
     "member 1 new : 2\nmember 1 old-cost 15/2 new-cost 7\nmember 2 new : 0\nmember 2 old-cost 15/2 new-cost 7\n"),
]


@pytest.mark.parametrize("argv, expected", WITNESS_BYTES, ids=["nash-star", "nash-empty", "strong-star", "strong-empty"])
def test_witness_bytes(tmp_path, capsys, argv, expected):
    command, kind, n, alpha, beta = argv
    path = write_star(tmp_path, n=n, alpha=alpha, beta=beta, kind=kind)
    code, out, _ = run_cli(capsys, command, "--state", str(path))
    assert code == 0 and out == expected


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


@pytest.mark.parametrize(
    "flags, given",
    [
        (["--policy", "best"], "--policy"),
        (["--order", "roundrobin"], "--order"),
        (["--tie", "prefer-current"], "--tie"),
        (["--order", "random", "--tie", "canonical-first", "--policy", "best"], "--policy/--order/--tie"),
    ],
)
def test_cycle_search_refuses_the_flags_it_would_ignore(capsys, flags, given):
    # cycle search always runs first-improving, round-robin, prefer-current dynamics
    args = ["dynamics", "--cycle-search", "2", "--n", "4", "--alpha", "3", "--beta", "2", *flags]
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err == f"error: --cycle-search and {given} are mutually exclusive\n"


@pytest.mark.parametrize(
    "command, flags",
    [
        ("bounds", ["--alpha", "100"]),
        ("bounds", ["--n", "9"]),
        ("bounds", ["--min-size", "3"]),
        ("bounds", ["--min-diameter", "1"]),
        ("dynamics", ["--beta", "7"]),
        ("dynamics", ["--n", "9", "--alpha", "100"]),
    ],
)
def test_state_refuses_the_flags_it_would_ignore(tmp_path, capsys, command, flags):
    # the file sets n, alpha and beta; these runs used to report at the file's values in silence
    path = write_star(tmp_path)
    code, out, err = run_cli(capsys, command, "--state", str(path), *flags)
    assert code == 1 and out == ""
    assert err.startswith("error: --state and --") and "are mutually exclusive" in err


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


def report_lines(capsys, *argv):
    """The ``key value`` lines that head a report, by key."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return dict(line.split(" ", 1) for line in out.split("\n\n")[0].splitlines())


@pytest.mark.parametrize("mode", ["nash", "strong"])
def test_poa_enumerate_and_sweep_report_the_same_prices(capsys, mode):
    grid = ["--n", "3,4", "--alpha", "1/2,1,3/2,2,3", "--beta", "3/2,2,5/2,3,inf", "--mode", mode]
    code, out, _ = run_cli(capsys, "sweep", *grid)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 50
    for row in rows:
        point = ["--n", row["n"], "--alpha", row["alpha"], "--beta", row["beta"], "--mode", mode]
        poa, enum = report_lines(capsys, "poa", *point), report_lines(capsys, "enumerate", *point)
        row = {column: value or "none" for column, value in row.items()}  # the CSV leaves an undefined value empty
        assert poa["mode"] == enum["mode"] == mode
        assert poa["optimum-cost"] == enum["optimum-cost"] == row["optimum_cost"]
        nash = [enum[key] for key in ("equilibria", "worst-cost", "poa", "pos")]
        assert nash == [row[column] for column in ("ne_count", "worst_ne_cost", "poa", "pos")]
        if mode == "strong":
            count, price = enum["strong-equilibria"], enum["spoa"]
            strong = [count, enum["worst-strong-cost"], price]
            assert strong == [row[column] for column in ("se_count", "worst_se_cost", "spoa")]
        else:
            count, price = enum["equilibria"], enum["poa"]
            assert poa["pos"] == enum["pos"]
        assert (poa["equilibria"], poa["poa"]) == (count, price)
        assert poa["found"] == ("false" if count == "0" else "true")


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
    with pytest.raises(ValueError, match="max_coalition must be an integer in 1..3, got 0"):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2)], max_coalition=0)
    with pytest.raises(ValueError, match="max_coalition must be an integer in 1..3, got 4"):
        SweepSpec(ns=[4, 3], alphas=[F(1)], betas=[F(2)], max_coalition=4)
    assert SweepSpec(ns=[3, 4], alphas=[F(1)], betas=[F(2)], mode="strong", max_coalition=3).max_coalition == 3


def test_sweep_spec_refuses_bool_options():
    # True == 1, so without a type check this ran singleton coalitions
    with pytest.raises(ValueError, match="max_coalition must be an integer in 1..3, got True"):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2)], mode="strong", max_coalition=True)


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


@pytest.mark.parametrize("command", ["enumerate", "poa", "sweep"])
def test_workers_flag_is_unrecognised(capsys, command):
    # enumeration runs in one process; there is no worker count to choose
    code, out, err = run_cli(capsys, command, "--n", "3", "--alpha", "1", "--beta", "2", "--workers", "1")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --workers 1" in err


def test_workers_keyword_is_a_type_error():
    p = GameParams(3, F(1), F(2))
    with pytest.raises(TypeError, match="workers"):
        equilibria.enumerate_equilibria(p, workers=1)
    with pytest.raises(TypeError, match="workers"):
        equilibria.price_metrics(p, workers=1)
    with pytest.raises(TypeError, match="workers"):
        SweepSpec(ns=[3], alphas=[F(1)], betas=[F(2)], workers=1)


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
    assert f"max_coalition must be an integer in 1..3, got {flags[1]}" in err


@pytest.mark.parametrize("command", ["enumerate", "poa", "sweep"])
def test_max_coalition_outside_strong_mode_exits_1(capsys, command):
    code, out, err = run_cli(capsys, command, "--n", "4", "--alpha", "1", "--beta", "3", "--max-coalition", "2")
    assert code == 1 and out == ""
    assert err == "error: max_coalition needs mode 'strong', got mode 'nash'\n"


def test_dynamics_refuses_canonical_first_under_first_improving(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    main(["construct", "--kind", "empty", "--n", "4", "--alpha", "1", "--beta", "5", "--out", str(path)])
    code, out, err = run_cli(capsys, "dynamics", "--state", str(path), "--policy", "first", "--tie", "canonical-first")
    assert code == 1 and out == ""
    assert err == "error: tie rule canonical-first needs move rule best, got first\n"


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


@pytest.mark.parametrize("flags", [[], ["--mode", "strong"], ["--dedupe-iso"], ["--mode", "strong", "--dedupe-iso"]])
def test_every_enumeration_mode_stops_at_the_state_budget(capsys, flags):
    args = ["enumerate", "--n", "6", "--alpha", "1", "--beta", "3", "--override-guard", *flags]
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert "stopped at 59136 Nash states, over the budget of 59049" in err


def test_optimum_n8_exit_code(capsys, monkeypatch):
    def no_graph_scan(*args):
        raise AssertionError("the optimum guard admitted the graph loop")

    monkeypatch.setattr(equilibria, "graph_signatures", no_graph_scan)
    code, out, err = run_cli(capsys, "optimum", "--n", "8", "--alpha", "1", "--beta", "2")
    assert code == 2 and out == ""
    assert "2^C(8,2) = 2^28 graphs" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimum", "--n", "200", "--alpha", "1", "--beta", "3"],
        ["enumerate", "--n", "200", "--alpha", "1", "--beta", "3"],
        ["check-strong", "--state", "200"],
        ["check-nash", "--state", "20000"],
    ],
    ids=["optimum", "enumerate", "check-strong", "check-nash"],
)
def test_guard_refusals_exit_2_at_large_n(tmp_path, capsys, argv):
    # estimates of more than 4,300 digits used to end in exit 1 from str()
    if argv[1] == "--state":
        argv = [argv[0], "--state", str(write_star(tmp_path, n=argv[2], kind="empty"))]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("guard: ") and " at least 2^" in err


def test_sweep_writes_skipped_guard_at_large_n(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "4200", "--alpha", "1", "--beta", "3")
    assert code == 0 and out.splitlines()[1].startswith("4200,1,3,nash,")
    assert out.splitlines()[1].endswith(",skipped:guard") and len(out.splitlines()) == 2


def test_non_ascii_or_exponent_rationals_exit_1(tmp_path, capsys):
    for value in ("1e3", "1.5", "\uff11\uff12", "3 / 2", "1" * 1001):
        code, out, err = run_cli(capsys, "classify", "--n", "3", "--alpha", value, "--beta", "2")
        assert code == 1 and out == "" and "expected a rational p/q" in err
    path = tmp_path / "huge.txt"
    path.write_text("pcg-state v1\nn 2\nalpha 1e3000000\nbeta 2\nbuys 0 :\nbuys 1 :\n")
    code, out, err = run_cli(capsys, "cost", "--state", str(path))
    assert code == 1 and out == "" and "line 3: alpha: expected a rational p/q, got '1e3000000'" in err


BAD_INTEGERS = ["\u0665", "1_0", "\uff13", "0x5", "5.0", "1e1", "5/1", "1" * 1001]


@pytest.mark.parametrize("value", BAD_INTEGERS, ids=["arabic", "underscore", "full-width", "hex", "decimal",
                                                     "exponent", "fraction", "1001-digits"])
def test_integer_options_take_ascii_digits_only(capsys, value):
    cases = [
        (["classify", "--n", value, "--alpha", "3", "--beta", "5/2"], "argument --n: expected an integer"),
        (["dynamics", "--cycle-search", "2", "--seed", value, "--n", "4", "--alpha", "3", "--beta", "2"],
         "argument --seed: expected an integer"),
        (["dynamics", "--cycle-search", value, "--n", "4", "--alpha", "3", "--beta", "2"],
         "argument --cycle-search: expected an integer"),
        (["sweep", "--n", f"3,{value}", "--alpha", "1", "--beta", "2"], "argument --n: expected an integer"),
        (["construct", "--kind", f"cycle:{value}", "--n", "5", "--alpha", "3", "--beta", "5/2"],
         "in construction kind 'cycle:"),
        (["construct", "--kind", f"clique-of-stars:3:{value}", "--n", "6", "--alpha", "3", "--beta", "5/2"],
         "in construction kind 'clique-of-stars:3:"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and message in err, argv


def test_integer_options_take_a_sign_and_spaces(capsys):
    for value in ("+5", " 5 "):
        code, out, _ = run_cli(capsys, "classify", "--n", value, "--alpha", "3", "--beta", "5/2")
        assert code == 0 and out.splitlines()[0] == "n 5 alpha 3 beta 5/2"
    code, out, _ = run_cli(capsys, "construct", "--kind", "cycle:+3", "--n", " 4", "--alpha", "3", "--beta", "5/2")
    assert code == 0 and "buys 2 : 0" in out
    code, out, err = run_cli(capsys, "dynamics", "--cycle-search", "-1", "--n", "4", "--alpha", "3", "--beta", "2")
    assert code == 1 and out == "" and "trials must be an integer >= 0, got -1" in err


def test_import_leaves_the_process_pool_unloaded():
    # pcg starts no process pool, so it never loads multiprocessing, pickle or socket
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
