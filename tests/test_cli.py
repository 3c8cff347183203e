"""Command-line behaviour: exit codes, output formats, determinism, and
robustness against malformed input.  Heavy classic-plan runs live in the
acceptance suite; commands here use small instances."""

from __future__ import annotations

import io
import random
import string
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
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
