"""Command-line behaviour: exit codes, output formats, determinism, and
robustness against malformed input.  Heavy classic-plan runs live in the
acceptance suite; commands here use small instances."""

from __future__ import annotations

import io
import random
import string
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inglenook.cli import run

SMALL_SPEC = "wagons = 4\nheadshunt = 2\nsidings = 2 2 1\n"


def run_cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse rejects malformed flags with 2
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def test_check_solvable(fixtures_dir):
    code, out, _ = run_cli("check", "--spec", str(fixtures_dir / "classic.spec"))
    assert code == 0
    assert "solvable = yes" in out
    assert "slack = 0" in out


def test_check_unsolvable_inline():
    code, out, _ = run_cli("check", "--wagons", "9", "--headshunt", "3", "--sidings", "3 3 5")
    assert code == 1
    assert "solvable = no" in out


def test_check_bad_spec_is_input_error(tmp_path):
    spec = write(tmp_path, "bad.spec", "wagons = 8\nheadshunt = 3\nsidings = 0\n")
    code, _, err = run_cli("check", "--spec", spec)
    assert code == 2
    assert "error" in err


def test_solve_identity_start(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    start = "H:[]|S1:[1,2]|S2:[3,4]|S3:[]"
    code, out, _ = run_cli("solve", "--spec", spec, "--start", start, "--goal", start)
    assert code == 0
    assert "length = 0" in out
    assert out.count(start) == 2  # trace file shows start and finish


def test_solve_reports_bound_and_length(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    code, out, _ = run_cli(
        "solve", "--spec", spec,
        "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--goal", "H:[]|S1:[4,3]|S2:[2,1]|S3:[]",
    )
    assert code == 0
    assert "bound = 70" in out  # 2*16 + 12*4 - 10
    length = int(next(ln.split("=")[1] for ln in out.splitlines() if ln.startswith("length")))
    assert 0 < length <= 70


def test_solve_unsolvable_spec_exits_one(tmp_path):
    spec = write(tmp_path, "s.spec", "wagons = 2\nheadshunt = 5\nsidings = 5\n")
    code, _, err = run_cli(
        "solve", "--spec", spec, "--start", "H:[]|S1:[1,2]", "--goal", "H:[]|S1:[2,1]"
    )
    assert code == 1
    assert "error" in err


def test_optimal_small_exact(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    code, out, _ = run_cli(
        "optimal", "--spec", spec,
        "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--goal", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
    )
    assert code == 0
    assert "distance = 0" in out


def test_optimal_unknown_wagon_in_goal_is_input_error(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    code, _, err = run_cli(
        "optimal", "--spec", spec,
        "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--goal", "S1 = [9]",
    )
    assert code == 2
    assert "error" in err


def test_optimal_unreachable_exits_one(tmp_path):
    spec = write(tmp_path, "s.spec", "wagons = 2\nheadshunt = 5\nsidings = 5\n")
    code, out, _ = run_cli(
        "optimal", "--spec", spec, "--start", "H:[]|S1:[1,2]", "--goal", "H:[]|S1:[2,1]"
    )
    assert code == 1
    assert "distance = unreachable" in out


def test_optimal_unsatisfiable_goal_exits_one(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    code, out, _ = run_cli(
        "optimal", "--spec", spec, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--goal", "S1 = [1,2,3]",
    )
    assert code == 1
    assert "distance = unreachable" in out


def test_failed_internal_check_exits_four(tmp_path, monkeypatch):
    from inglenook import Position, search

    def wrong_origin(spec, levels, end, distance):
        return [], Position(((), (2, 1), (3, 4), ()))

    monkeypatch.setattr(search, "_reconstruct", wrong_origin)
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    code, out, err = run_cli(
        "optimal", "--spec", spec, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--goal", "S1 = [2,1]",
    )
    assert code == 4
    assert out == ""
    assert err == "error: the optimal trace must lead back to the start\n"


@pytest.mark.parametrize("wrong", ["truncated", "illegal"])
def test_trace_that_does_not_replay_exits_four(tmp_path, monkeypatch, wrong):
    from inglenook import PUSH, ShuntMove, search

    reconstruct = search._reconstruct

    def wrong_moves(spec, levels, end, distance):
        moves, origin = reconstruct(spec, levels, end, distance)
        if wrong == "truncated":
            return moves[:-1], origin
        return [ShuntMove(1, PUSH, 1)] + moves, origin  # the headshunt starts empty

    monkeypatch.setattr(search, "_reconstruct", wrong_moves)
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    code, out, err = run_cli(
        "optimal", "--spec", spec, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--goal", "S1 = [2,1]",
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error: the optimal trace must replay")


@pytest.mark.parametrize("wrong", ["truncated", "illegal"])
def test_solve_trace_that_does_not_replay_exits_four(tmp_path, monkeypatch, wrong):
    from inglenook import PUSH, ShuntMove, constructive

    lift = constructive._lift_card_move
    lifted = []

    def wrong_lift(spec, mv):
        lifted.append(mv)
        if wrong == "truncated":
            return []
        head = [ShuntMove(1, PUSH, 1)] if len(lifted) == 1 else []  # the headshunt starts empty
        return head + lift(spec, mv)

    monkeypatch.setattr(constructive, "_lift_card_move", wrong_lift)
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    code, out, err = run_cli(
        "solve", "--spec", spec, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--goal", "S1 = [2,1]",
    )
    assert lifted
    assert (code, out) == (4, "")
    if wrong == "truncated":
        assert err == "error: the shunt trace must replay to its finish\n"
    else:
        assert err == ("error: the shunt trace must replay: "
                       "cannot push 1 wagons, headshunt holds 0\n")


@pytest.mark.parametrize("n", [17, 18, 20])
def test_optimal_prints_the_published_traces(fixtures_dir, n):
    code, out, err = run_cli(
        "optimal", "--spec", str(fixtures_dir / "classic.spec"),
        "--start", str(fixtures_dir / f"solution{n}.start"),
        "--goal", str(fixtures_dir / f"solution{n}.finish"),
    )
    assert code == 0, err
    printed = [line for line in out.splitlines() if line.startswith(("PULL", "PUSH"))]
    assert printed == (fixtures_dir / f"solution{n}.moves").read_text().splitlines()


def test_decimal_tokens_other_than_one_to_w_get_their_own_labels():
    # `01`, `2`, `3` are three distinct wagons, not the identity labels
    code, out, err = run_cli(
        "solve", "--wagons", "3", "--headshunt", "2", "--sidings", "2 2 1",
        "--start", "H:[]|S1:[01,2]|S2:[3]|S3:[]", "--goal", "S3 = [2]",
    )
    assert code == 0, err
    assert out.splitlines()[-1].endswith("S3:[2]")


def test_worst_small(tmp_path):
    spec = write(tmp_path, "s.spec", "wagons = 3\nheadshunt = 2\nsidings = 2 2\n")
    code, out, _ = run_cli(
        "worst", "--spec", spec, "--start", "*", "--goal", "H:[]|S1:[1,2]|S2:[3]"
    )
    assert code == 0
    assert "distance =" in out
    assert "start = " in out


def test_diameter_cards_flags():
    code, out, _ = run_cli("diameter", "--cards", "4", "--piles", "3 3 1")
    assert code == 0
    assert "diameter = 13" in out
    assert "states = 168" in out


def test_diameter_disconnected_exits_one():
    code, _, err = run_cli("diameter", "--cards", "2", "--piles", "2 2")
    assert code == 1
    assert "disconnected" in err


def test_diameter_budget_refusal():
    code, _, err = run_cli("diameter", "--cards", "4", "--piles", "3 3 1", "--budget", "100")
    assert code == 3
    assert "budget" in err


TINY_FLAGS = ("--wagons", "3", "--headshunt", "2", "--sidings", "2 2 1")


@pytest.mark.parametrize("budget,exit_code", [("-5", 2), ("abc", 2), ("0", 3)])
def test_budget_must_be_a_non_negative_integer(budget, exit_code):
    # a negative budget is an input error, as a non-integer one is; zero
    # is a budget that refuses every search
    code, out, err = run_cli("worst", *TINY_FLAGS, "--start", "*", "--goal", "S1 = [1]",
                             "--budget", budget)
    assert code == exit_code
    assert out == ""
    if exit_code == 2:
        assert f"argument --budget: invalid non_negative_int value: '{budget}'" in err
    else:
        assert err.startswith("error: worst-case sweep needs about 78 states")


@pytest.mark.parametrize("clause", ["S1 = [1,1]", "S1 ~ {1,1}"])
def test_repeated_wagon_in_a_clause_is_named(clause):
    # an exact list and an any-order set refuse a repeat alike, at parse time
    code, out, err = run_cli("gen", *TINY_FLAGS, "--start", clause)
    assert code == 2
    assert out == ""
    assert err == f"error: {clause[5:]} repeats a wagon (line 1)\n"


def test_gen_is_reproducible(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    runs = [run_cli("gen", "--spec", spec, "--start", "H = []", "--seed", "42")
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert runs[0][1].startswith("H:[]")


def test_gen_seeds_vary(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    outputs = {run_cli("gen", "--spec", spec, "--start", "*", "--seed", str(seed))[1]
               for seed in range(100)}
    assert len(outputs) > 50  # different seeds give spread-out samples


def test_gen_single_wagon(tmp_path):
    spec = write(tmp_path, "s.spec", "wagons = 1\nheadshunt = 1\nsidings = 1\n")
    code, out, _ = run_cli("gen", "--spec", spec, "--start", "*", "--seed", "7")
    assert code == 0
    assert out.strip() in ("H:[1]|S1:[]", "H:[]|S1:[1]")


def test_gen_unsatisfiable_exits_two(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    code, _, err = run_cli("gen", "--spec", spec, "--start", "S3 = [1,2]", "--seed", "1")
    assert code == 2
    assert "error" in err


def test_verify_accepts_own_solver_output(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    start = "H:[]|S1:[1,2]|S2:[3,4]|S3:[]"
    goal = "H:[]|S1:[2,1]|S2:[4,3]|S3:[]"
    code, out, _ = run_cli("solve", "--spec", spec, "--start", start, "--goal", goal)
    assert code == 0
    moves = write(tmp_path, "trace.txt", out)
    code, out2, _ = run_cli("verify", "--spec", spec, "--start", start, "--moves", moves)
    assert code == 0
    assert goal in out2


def test_verify_reports_illegal_move_line(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    moves = write(tmp_path, "bad.moves", "PULL 1 S1\nPULL 9 S2\n")
    code, _, err = run_cli(
        "verify", "--spec", spec, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--moves", moves,
    )
    assert code == 1
    assert "line 2" in err


def test_verify_checks_embedded_positions(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    moves = write(tmp_path, "bad.trace",
                  "H:[]|S1:[2,1]|S2:[3,4]|S3:[]\nPULL 1 S1\n")
    code, _, err = run_cli(
        "verify", "--spec", spec, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]",
        "--moves", moves,
    )
    assert code == 1
    assert "does not match" in err


VERIFY_PLAN = ("--wagons", "3", "--headshunt", "2", "--sidings", "2 2 1",
               "--start", "H:[]|S1:[1,2]|S2:[3]|S3:[]")


def test_verify_checks_a_position_after_moves_against_the_replayed_state():
    code, out, err = run_cli("verify", *VERIFY_PLAN,
                             "--moves", "PULL 1 S1\nH:[]|S1:[1,2]|S2:[3]|S3:[]")
    assert (code, out) == (1, "")
    assert err == ("error: position at line 2 does not match the replayed state: "
                   "'H:[]|S1:[1,2]|S2:[3]|S3:[]'\n")


def test_verify_accepts_a_finish_line_without_a_start_line():
    code, out, err = run_cli("verify", *VERIFY_PLAN,
                             "--moves", "PULL 1 S1\nH:[1]|S1:[2]|S2:[3]|S3:[]")
    assert (code, out, err) == (0, "moves = 1\nH:[1]|S1:[2]|S2:[3]|S3:[]\n", "")


def test_verify_names_the_line_of_a_malformed_position():
    code, out, err = run_cli(
        "verify", *VERIFY_PLAN,
        "--moves", "H:[]|S1:[1,2]|S2:[3]|S3:[]\nPULL 1 S1\nH:[1,2]|S1:[]|S2:[3]",
    )
    assert (code, out) == (2, "")
    assert err == "error: expected 4 tracks separated by '|', got 3 (line 3)\n"


def test_verify_fixture_move_lists_land_on_published_finishes(fixtures_dir):
    for stem, count in (("solution17", 17), ("solution18", 18), ("solution20", 20)):
        code, out, _ = run_cli(
            "verify", "--spec", str(fixtures_dir / "classic.spec"),
            "--start", str(fixtures_dir / f"{stem}.start"),
            "--moves", str(fixtures_dir / f"{stem}.moves"),
        )
        assert code == 0
        assert f"moves = {count}" in out
        assert (fixtures_dir / f"{stem}.finish").read_text().strip() in out


def test_missing_required_flags_are_input_errors(tmp_path):
    spec = write(tmp_path, "s.spec", SMALL_SPEC)
    assert run_cli("solve", "--spec", spec)[0] == 2
    assert run_cli("verify", "--spec", spec)[0] == 2
    assert run_cli("gen", "--spec", spec)[0] == 2
    assert run_cli("check")[0] == 2


@given(st.text(alphabet=string.printable, max_size=60))
@settings(max_examples=80, deadline=None)
def test_fuzzed_start_never_crashes(text):
    code, _, err = run_cli(
        "optimal", "--wagons", "3", "--headshunt", "2", "--sidings", "2 2",
        "--start", text.replace("\x00", ""), "--goal", "*",
    )
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.strip()


@given(st.text(alphabet=string.printable, max_size=80))
@example("wagons = \u00b2\nheadshunt = 3\nsidings = 3 3 5")
@settings(max_examples=80, deadline=None)
def test_fuzzed_spec_never_crashes(text):
    code, _, err = run_cli("check", "--spec", text.replace("\x00", ""))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.strip()


def test_directory_or_undecodable_flag_values_are_input_errors(tmp_path):
    code, _, err = run_cli("check", "--spec", str(tmp_path))
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(
        "optimal", "--wagons", "3", "--headshunt", "2", "--sidings", "2 2",
        "--start", str(tmp_path), "--goal", "*",
    )
    assert code == 2
    assert "error" in err
    binary = tmp_path / "binary.spec"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run_cli("check", "--spec", str(binary))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("argv", [
    ("check", "--spec", "wagons = \u00b2\nheadshunt = 3\nsidings = 3 3 5"),
    ("check", "--wagons", "8", "--headshunt", "3", "--sidings", "3 3 \u00b2"),
    ("diameter", "--cards", "3", "--piles", "2 2 \u00b9"),
])
def test_superscript_digits_are_input_errors(argv):
    # str.isdigit accepts superscripts, which int() rejects
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_siding_zero_in_a_pattern_is_an_input_error(fixtures_dir):
    code, out, err = run_cli("gen", "--spec", str(fixtures_dir / "classic.spec"),
                             "--start", "S0 = [1,2,3]")
    assert code == 2
    assert out == ""
    assert "no track S0" in err


@pytest.mark.parametrize("argv", [
    ("check", "--seed", "1"),
    ("solve", "--budget", "5"),
    ("optimal", "--threads", "2"),
    ("check", "--format", "text"),
])
def test_flags_a_command_does_not_read_are_rejected(fixtures_dir, argv):
    code, out, err = run_cli(*argv, "--spec", str(fixtures_dir / "classic.spec"))
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err
