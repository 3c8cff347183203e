"""Command-line behaviour: exit codes, output formats, determinism, and
robustness against malformed input.  Heavy classic-plan runs live in the
acceptance suite; commands here use small instances."""

from __future__ import annotations

import argparse
import io
import os
import random
import string
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inglenook import PuzzleSpec, format_position, model, parse_position
from inglenook.cli import run

from conftest import legal_moves

SMALL_SPEC = "wagons = 4\nheadshunt = 2\nsidings = 2 2 1\n"


def run_cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse rejects malformed flags with 2
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def fixture_args(fixtures_dir, argv):
    """`argv` with each argument that starts with "@" read as a file under
    fixtures/."""
    return [str(fixtures_dir / arg[1:]) if arg.startswith("@") else arg for arg in argv]


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
    from inglenook import Position, SolutionTrace, search

    def wrong_origin(spec, layers, end):
        wrong = Position(((), (2, 1), (3, 4), ()))
        return SolutionTrace(wrong, wrong, ())

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
    from dataclasses import replace

    from inglenook import PUSH, ShuntMove, search

    reconstruct = search._reconstruct

    def wrong_moves(spec, layers, end):
        trace = reconstruct(spec, layers, end)
        if wrong == "truncated":
            return replace(trace, moves=trace.moves[:-1])
        # the headshunt starts empty
        return replace(trace, moves=(ShuntMove(1, PUSH, 1),) + trace.moves)

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


def test_diameter_card_flags_need_each_other():
    code, out, err = run_cli("diameter", "--cards", "4")
    assert (code, out, err) == (2, "", "error: --cards needs --piles for the pile capacities\n")
    code, out, err = run_cli("diameter", "--piles", "3 3 1")
    assert (code, out, err) == (2, "", "error: --piles needs --cards for the card count\n")


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


def test_gen_samples_a_plan_too_large_to_list():
    # 20 wagons on 35 places: more than 20! matching positions
    flags = ("--wagons", "20", "--headshunt", "5", "--sidings", "10 10 10")
    code, out, err = run_cli("gen", *flags, "--start", "*", "--seed", "3")
    assert (code, err) == (0, "")
    spec = PuzzleSpec(20, 5, (10, 10, 10))
    assert format_position(parse_position(spec, out.strip())) == out.strip()


def test_gen_check_survives_python_O():
    # `python -O` strips assert statements; a drawn code that misses the
    # pattern must still be refused as a failed internal check
    script = (
        "import sys\n"
        "from inglenook import cli, search\n"
        "assert False, 'assert statements must be stripped'\n"
        "search._Plan.code = lambda self, i: 0\n"
        "sys.exit(cli.run(['gen', '--wagons', '3', '--headshunt', '2',\n"
        "                  '--sidings', '2 2 1', '--start', 'S1 = [1]']))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (4, ""), done.stderr
    assert done.stderr == "error: the drawn position does not match the pattern\n"


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


def _verify_validations(monkeypatch, fixtures_dir, moves) -> int:
    """How many whole positions `verify` validates while it replays `moves`
    from solution20's start on the classic plan."""
    calls = []
    real = model.validate_position
    monkeypatch.setattr(model, "validate_position",
                        lambda spec, p: calls.append(p) or real(spec, p))
    code, _, err = run_cli("verify", "--spec", str(fixtures_dir / "classic.spec"),
                           "--start", str(fixtures_dir / "solution20.start"),
                           "--moves", moves)
    monkeypatch.undo()
    assert (code, err) == (0, "")
    return len(calls)


def test_verify_validations_do_not_grow_with_the_trace(monkeypatch, fixtures_dir,
                                                       classic_spec):
    # one for --start, one for the replay's start and one per position line;
    # each move is checked for legality alone
    assert _verify_validations(monkeypatch, fixtures_dir,
                               str(fixtures_dir / "solution20.moves")) == 2
    cur = parse_position(classic_spec, (fixtures_dir / "solution20.start").read_text())
    rng = random.Random(0)
    lines = []
    for i in range(240):
        if i % 60 == 0:
            lines.append(format_position(cur))
        mv = rng.choice(legal_moves(classic_spec, cur))
        lines.append(model.format_move(mv))
        cur = model.apply_move(classic_spec, cur, mv)
    lines.append(format_position(cur))
    assert _verify_validations(monkeypatch, fixtures_dir, "\n".join(lines)) == 2 + 5


@pytest.mark.parametrize("moves,code,err", [
    ("PULL 9 S1\nH:[", 1,
     "error: illegal move at line 1: 'PULL 9 S1': cannot pull 9 wagons, siding 1 holds 2\n"),
    ("H:[\nPULL 9 S1", 2, "error: expected 4 tracks separated by '|', got 1 (line 1)\n"),
])
def test_verify_reads_lines_in_order_and_stops_at_the_first_fault(moves, code, err):
    # a move file is read lazily: the later fault is never reached
    assert run_cli("verify", *VERIFY_PLAN, "--moves", moves) == (code, "", err)


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



@pytest.mark.parametrize("argv,err", [
    (("check", "--wagons", "12", "--spec", "@classic.spec"),
     "give --spec or the inline flags (--wagons), not both"),
    (("optimal", "--headshunt", "2", "--sidings", "3 3", "--spec", "@classic.spec",
      "--start", "H:[]|S1:[]|S2:[]|S3:[]", "--goal", "*"),
     "give --spec or the inline flags (--headshunt --sidings), not both"),
    (("diameter", "--cards", "4", "--spec", "@classic.spec"),
     "give the card flags (--cards) or the spec flags (--spec), not both"),
    (("diameter", "--cards", "4", "--piles", "3 3 1", "--spec", "@classic.spec"),
     "give the card flags (--cards --piles) or the spec flags (--spec), not both"),
    (("diameter", "--piles", "3 3 1", "--wagons", "3"),
     "give the card flags (--piles) or the spec flags (--wagons), not both"),
])
def test_spec_file_and_inline_plan_flags_are_not_mixed(fixtures_dir, argv, err):
    # the spec file once won silently: `check --wagons 12` printed the
    # 8-wagon verdict, and `diameter --cards 4` the 8-card graph
    assert run_cli(*fixture_args(fixtures_dir, argv)) == (2, "", f"error: {err}\n")


WIDE_START = "H:[]|S1:[" + ",".join(map(str, range(1, 256))) + "]|S2:[256]"


@pytest.mark.parametrize("argv", [
    ("diameter", "--cards", "256", "--piles", "255 255 1"),
    ("optimal", "--wagons", "256", "--headshunt", "2", "--sidings", "255 255",
     "--start", WIDE_START, "--goal", "S2 = [1]"),
    # before listing a goal family of more than 255! positions
    ("worst", "--wagons", "256", "--headshunt", "2", "--sidings", "255 255",
     "--start", WIDE_START, "--goal", "H = []"),
])
def test_searches_refuse_more_than_255_wagons_by_name(argv):
    # a budget that admits the search reaches the move table, whose labels
    # and places are bytes
    code, out, err = run_cli(*argv, "--budget", str(10 ** 700))
    assert (code, out) == (2, "")
    assert err == "error: searches handle at most 255 wagons or cards, got 256\n"


def test_gen_and_solve_work_past_255_wagons():
    flags = ("--wagons", "256", "--headshunt", "2", "--sidings", "255 255 1")
    code, out, err = run_cli("gen", *flags, "--start", "S3 = [256]", "--seed", "1")
    assert (code, err) == (0, "")
    assert out.endswith("|S3:[256]\n")
    code, out, err = run_cli("solve", *flags, "--start", WIDE_START + "|S3:[]",
                             "--goal", "S3 = [256]")
    assert (code, err) == (0, "")
    assert out.endswith("|S3:[256]\n")

# --- golden outputs ----------------------------------------------------------

# Every subcommand and every consumer of goal patterns, with stdout, stderr
# and exit code compared byte for byte against fixtures/golden/<name>.txt.
# An argument that starts with "@" names a file under fixtures/.
GOLDEN_SMALL = ("--wagons", "5", "--headshunt", "2", "--sidings", "2 2 2")
GOLDEN_CLASSIC = ("--spec", "@classic.spec")
GOLDEN_FAMILY = ("H = []; S1 ~ {1,2,3}; S2 = []; S3 = [4,5,6,7,8]\n"
                 "H = []; S1 = []; S2 ~ {1,2,3}; S3 = [4,5,6,7,8]")
GOLDEN = {
    "check": ("check", *GOLDEN_CLASSIC),
    "check_unsolvable": ("check", "--wagons", "9", "--headshunt", "3", "--sidings", "3 3 5"),
    # the two plans the card-pile form cannot name: a one-wagon headshunt
    # with one siding, or with two
    "check_single_siding": ("check", "--wagons", "2", "--headshunt", "1", "--sidings", "2"),
    "check_tiny_headshunt": ("check", "--wagons", "2", "--headshunt", "1", "--sidings", "2 2"),
    "gen_classic": ("gen", *GOLDEN_CLASSIC, "--start", "@classic_start.pattern",
                    "--seed", "42"),
    # seed 18 draws twice: its first draw also matches the first line
    "gen_redraw": ("gen", *GOLDEN_SMALL, "--start", "S1 ~ {1,2}\nH = []", "--seed", "18"),
    "gen_unsatisfiable": ("gen", *GOLDEN_SMALL, "--start", "S1 = [1,2,3]"),
    "solve_family": ("solve", *GOLDEN_CLASSIC, "--start", "@solution17.start",
                     "--goal", GOLDEN_FAMILY),
    "solve_start_matches": ("solve", *GOLDEN_SMALL, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[5]",
                            "--goal", "S1 = [2,1]\nS2 ~ {3,4}; S3 = [5]"),
    "optimal_family": ("optimal", *GOLDEN_CLASSIC, "--start", "@solution17.start",
                       "--goal", GOLDEN_FAMILY),
    "optimal_exact": ("optimal", *GOLDEN_SMALL, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[5]",
                      "--goal", "H:[]|S1:[5,4]|S2:[3,2]|S3:[1]"),
    # one goal with the start's track lengths: the published 20-move deal,
    # and a start whose side runs out before the sides meet
    "optimal_ordered20": ("optimal", *GOLDEN_CLASSIC, "--start", "@solution20.start",
                          "--goal", "@ordered_goal.pattern"),
    "optimal_unreachable": ("optimal", "--wagons", "2", "--headshunt", "5", "--sidings", "5",
                            "--start", "H:[1,2]|S1:[]", "--goal", "H:[2,1]|S1:[]"),
    # a 40,320-position family that the start side meets before listing it
    "optimal_lazy_family": ("optimal", *GOLDEN_CLASSIC,
                            "--start", "H:[1,2,3]|S1:[4,5,6]|S2:[7]|S3:[8]",
                            "--goal", "H = []; S1 = []"),
    "optimal_unsatisfiable": ("optimal", *GOLDEN_SMALL,
                              "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[5]",
                              "--goal", "S1 = [1,2,3]"),
    "worst_two_line": ("worst", *GOLDEN_SMALL, "--start", "H = []; S1 = []\nS3 ~ {4,5}",
                       "--goal", "H:[]|S1:[1,2]|S2:[3,4]|S3:[5]"),
    "worst_unreachable": ("worst", "--wagons", "2", "--headshunt", "5", "--sidings", "5",
                          "--start", "*", "--goal", "H:[1,2]|S1:[]"),
    "worst_unsatisfiable_start": ("worst", *GOLDEN_SMALL, "--start", "S1 = [1,2,3]",
                                  "--goal", "*"),
    "worst_unsatisfiable_goal": ("worst", *GOLDEN_SMALL, "--start", "*",
                                 "--goal", "S1 ~ {1,2,3}"),
    "diameter": ("diameter", "--cards", "4", "--piles", "3 3 1"),
    "diameter_disconnected": ("diameter", "--cards", "3", "--piles", "3 3"),
    # a plan's flags give its card graph
    "diameter_plan": ("diameter", *GOLDEN_SMALL),
    "diameter_plan_disconnected": ("diameter", "--wagons", "3", "--headshunt", "1",
                                   "--sidings", "2 2"),
    "verify": ("verify", *GOLDEN_CLASSIC, "--start", "@solution17.start",
               "--moves", "@solution17.moves"),
    "verify_illegal": ("verify", *GOLDEN_SMALL, "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[5]",
                       "--moves", "PULL 1 S1\nPULL 9 S2"),
    # argparse's own texts: the top-level usage, its invalid choice and
    # unrecognized-argument errors, a subcommand's usage error and its help
    "argparse_no_command": (),
    "argparse_invalid_choice": ("bogus",),
    "argparse_unrecognized": ("solve", "--budget", "5"),
    "argparse_bad_value": ("worst", "--budget", "-1"),
    "argparse_help": ("solve", "--help"),
}


@pytest.mark.parametrize("argv, built", [
    (("check", "--spec", "@classic.spec"), 1),
    ((), 7),
    (("-h",), 7),
    (("bogus",), 7),
])
def test_run_builds_only_the_parser_of_the_named_command(fixtures_dir, monkeypatch,
                                                         argv, built):
    # a named command builds its own subparser alone; anything else builds
    # all seven, for the top-level help and errors
    names = []
    real = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: names.append(name) or real(self, name, **kw))
    run_cli(*fixture_args(fixtures_dir, argv))
    assert len(names) == built
    if built == 1:
        assert names == [argv[0]]


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_outputs(fixtures_dir, name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    code, out, err = run_cli(*fixture_args(fixtures_dir, GOLDEN[name]))
    got = f"exit = {code}\n--- stdout\n{out}--- stderr\n{err}"
    assert got == (fixtures_dir / "golden" / f"{name}.txt").read_text()


def test_golden_commands_are_the_recorded_files(fixtures_dir):
    # no recorded file without its command, and no command without its file
    assert set(GOLDEN) == {path.stem for path in (fixtures_dir / "golden").glob("*.txt")}


CLI_SMALL = ("--wagons", "4", "--headshunt", "2", "--sidings", "2 2 1")
CLI_SMALL_START = ("--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[]")


@pytest.mark.parametrize("argv, line", [
    pytest.param(("check", "--wagons", "0", "--headshunt", "3", "--sidings", "3 3 5"),
                 "wagon count must be positive, got 0", id="inline_spec"),
    pytest.param(("solve", *CLI_SMALL, *CLI_SMALL_START), "--goal is required",
                 id="solve_without_goal"),
    pytest.param(("optimal", *CLI_SMALL, *CLI_SMALL_START), "--goal is required",
                 id="optimal_without_goal"),
    pytest.param(("worst", *CLI_SMALL, "--start", "*"),
                 "worst needs --start and --goal patterns", id="worst_without_goal"),
    pytest.param(("diameter", "--cards", "9", "--piles", "1 1"),
                 "card count 9 exceeds total pile capacity 2", id="card_spec"),
    pytest.param(("verify", *CLI_SMALL, *CLI_SMALL_START), "verify needs --moves",
                 id="verify_without_moves"),
])
def test_input_refusals_exit_2_with_their_line(argv, line):
    assert run_cli(*argv) == (2, "", f"error: {line}\n")


def test_verify_skips_blank_and_comment_lines():
    moves = "# a comment\n\nPULL 1 S1\n   # an indented one\nPUSH 1 S3\n"
    assert run_cli("verify", *CLI_SMALL, *CLI_SMALL_START, "--moves", moves) == (
        0, "moves = 2\nH:[]|S1:[2]|S2:[3,4]|S3:[1]\n", "")
