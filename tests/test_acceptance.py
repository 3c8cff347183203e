"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line.  Run with `pytest -v -s tests/test_acceptance.py`.

The classic-plan searches each sweep about 2.1 million positions; the full
suite takes a few minutes of CPU.
"""

from __future__ import annotations

import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from inglenook import (
    CardsSpec,
    CardsState,
    Position,
    PuzzleSpec,
    cards_component_census,
    cards_connected,
    cards_diameter,
    cards_distance,
    cards_move_bound,
    cards_spec,
    inglenook_move_bound,
    inglenook_solvable,
    max_wagons,
    optimal_solve,
    ordering_displacement,
    parse_pattern,
    parse_position,
    replay,
    replay_cards,
    reversal_distance,
    solve_cards,
    solve_inglenook,
    worst_case_moves,
)
from inglenook.cli import run
from inglenook.search import GoalPattern

CLASSIC = PuzzleSpec(8, 3, (3, 3, 5))


def _report(number: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance criterion {number} ({name}): PASS{suffix}")


def _classic_goal_family():
    # the published finishing set: headshunt and Siding 1 empty, wagons 4..8
    # ordered in the long siding, wagons 1..3 in Siding 2 in any order
    return parse_pattern(CLASSIC, "H = []; S1 = []; S2 ~ {1,2,3}; S3 = [4,5,6,7,8]")


def _ordered_goal():
    return GoalPattern.exact_position(
        parse_position(CLASSIC, "H:[]|S1:[]|S2:[1,2,3]|S3:[4,5,6,7,8]")
    )


def test_criterion_1_feasibility_fixtures():
    assert inglenook_solvable(PuzzleSpec(8, 3, (3, 3, 5))).solvable is True
    assert inglenook_solvable(PuzzleSpec(9, 3, (3, 3, 5))).solvable is False
    assert max_wagons(4, (4, 5, 6)) == 12
    _report(1, "feasibility fixtures")


def test_criterion_2_oracle_equivalence():
    # card-pile graphs: the closed-form verdict against exhaustive census
    cards_checked = 0
    for npiles in (2, 3, 4):
        for m in itertools.product((1, 2, 3), repeat=npiles):
            for w in range(1, min(6, sum(m)) + 1):
                spec = CardsSpec(w, m)
                census = cards_component_census(spec)
                assert cards_connected(spec).solvable == (census.components == 1), spec
                cards_checked += 1
    assert cards_checked >= 300

    # inglenook graphs: the verdict against exhaustive reachability of a
    # fixed natural goal from every start
    def natural_goal(spec: PuzzleSpec) -> Position:
        tracks = [[] for _ in range(spec.s + 1)]
        caps = [spec.h] + list(spec.m)
        wagon = 1
        for i in list(range(1, spec.s + 1)) + [0]:
            while wagon <= spec.w and len(tracks[i]) < caps[i]:
                tracks[i].append(wagon)
                wagon += 1
        return Position(tuple(tuple(t) for t in tracks))

    puzzles_checked = 0
    every_start = None
    for h in (1, 2, 3):
        for s in (1, 2, 3):
            for m in itertools.product((1, 2, 3), repeat=s):
                for w in range(1, min(5, h + sum(m) - 1) + 1):
                    spec = PuzzleSpec(w, h, m)
                    goal = GoalPattern.exact_position(natural_goal(spec))
                    every_start = GoalPattern.all_positions(spec)
                    sweep = worst_case_moves(spec, every_start, goal)
                    reach_all = sweep.distance is not None
                    assert inglenook_solvable(spec).solvable == reach_all, spec
                    puzzles_checked += 1
    assert puzzles_checked >= 300
    _report(2, "oracle equivalence", f"{cards_checked} card specs, {puzzles_checked} puzzle specs")


def test_criterion_3_optimal_distance_fixtures():
    goal_family = _classic_goal_family()

    start17 = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    r17 = optimal_solve(CLASSIC, start17, goal_family)
    assert r17.distance == 17
    assert goal_family.matches(CLASSIC, replay(CLASSIC, start17, r17.trace.moves)[-1])

    start18 = parse_position(CLASSIC, "H:[1,6]|S1:[4,7]|S2:[3,5,8]|S3:[2]")
    r18 = optimal_solve(CLASSIC, start18, goal_family)
    assert r18.distance == 18
    assert goal_family.matches(CLASSIC, replay(CLASSIC, start18, r18.trace.moves)[-1])

    start20 = parse_position(CLASSIC, "H:[]|S1:[]|S2:[6,1,8]|S3:[5,4,7,2,3]")
    r20 = optimal_solve(CLASSIC, start20, _ordered_goal())
    assert r20.distance == 20
    final = replay(CLASSIC, start20, r20.trace.moves)[-1]
    assert final == parse_position(CLASSIC, "H:[]|S1:[]|S2:[1,2,3]|S3:[4,5,6,7,8]")
    _report(3, "optimal distances 17/18/20")


def test_criterion_3_note_either_short_siding_family_is_cheaper():
    # Documented measurement: if the three loose wagons may end in either
    # short siding (not just Siding 2), the published 17-move deal admits a
    # 16-move solution, so the published counts require the Siding-2 form.
    loose = parse_pattern(
        CLASSIC,
        "H = []; S1 ~ {1,2,3}; S2 = []; S3 = [4,5,6,7,8]\n"
        "H = []; S1 = []; S2 ~ {1,2,3}; S3 = [4,5,6,7,8]",
    )
    start17 = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    report = optimal_solve(CLASSIC, start17, loose)
    assert report.distance == 16
    final = replay(CLASSIC, start17, report.trace.moves)[-1]
    assert loose.matches(CLASSIC, final)


def test_criterion_4_worst_case_sweeps():
    goal_family = _classic_goal_family()
    classic_starts = parse_pattern(CLASSIC, "H = []; S1 = []")
    all_starts = GoalPattern.all_positions(CLASSIC)

    r17 = worst_case_moves(CLASSIC, classic_starts, goal_family)
    assert r17.distance == 17
    assert not r17.start.headshunt and not r17.start.siding(1)

    r18 = worst_case_moves(CLASSIC, all_starts, goal_family)
    assert r18.distance == 18

    # the 20-move bound is over the published deal family (headshunt and
    # Siding 1 empty); its worst witness is the published 20-move start
    r20 = worst_case_moves(CLASSIC, classic_starts, _ordered_goal())
    assert r20.distance == 20
    assert r20.start == parse_position(CLASSIC, "H:[]|S1:[]|S2:[6,1,8]|S3:[5,4,7,2,3]")
    _report(4, "worst cases 17/18/20")


def test_criterion_4_note_unrestricted_starts_need_21_when_fully_ordered():
    # Documented measurement: over every start (headshunt included) the
    # fully ordered goal needs 21 moves in the worst case, one more than
    # the published deal family's 20.
    r21 = worst_case_moves(CLASSIC, GoalPattern.all_positions(CLASSIC), _ordered_goal())
    assert r21.distance == 21


def test_criterion_5_constructive_bounds():
    rng = random.Random(20260808)

    def random_state(spec: CardsSpec) -> CardsState:
        cards = list(range(1, spec.w + 1))
        rng.shuffle(cards)
        piles = [[] for _ in spec.m]
        for c in cards:
            open_piles = [i for i in range(len(spec.m)) if len(piles[i]) < spec.m[i]]
            piles[rng.choice(open_piles)].append(c)
        return CardsState(tuple(tuple(p) for p in piles))

    def random_position(spec: PuzzleSpec) -> Position:
        wagons = list(range(1, spec.w + 1))
        rng.shuffle(wagons)
        caps = [spec.h] + list(spec.m)
        tracks = [[] for _ in caps]
        for w in wagons:
            open_tracks = [i for i in range(len(caps)) if len(tracks[i]) < caps[i]]
            tracks[rng.choice(open_tracks)].append(w)
        return Position(tuple(tuple(t) for t in tracks))

    shunts = 0
    while shunts < 1000:
        s = rng.randint(1, 4)
        h = rng.randint(1, 4)
        m = tuple(rng.randint(1, 5) for _ in range(s))
        w = rng.randint(1, min(8, h + sum(m) - 1))
        spec = PuzzleSpec(w, h, m)
        if not inglenook_solvable(spec).solvable:
            continue
        start, goal = random_position(spec), random_position(spec)
        trace = solve_inglenook(spec, start, goal)
        assert replay(spec, start, trace.moves)[-1] == goal
        assert trace.length <= inglenook_move_bound(w)
        shunts += 1

    cards = 0
    while cards < 1000:
        npiles = rng.randint(2, 5)
        m = tuple(rng.randint(1, 4) for _ in range(npiles))
        w = rng.randint(1, min(8, sum(m)))
        spec = CardsSpec(w, m)
        if not cards_connected(spec).solvable:
            continue
        start, goal = random_state(spec), random_state(spec)
        trace = solve_cards(spec, start, goal)
        assert replay_cards(spec, start, trace.moves)[-1] == goal
        assert trace.length <= cards_move_bound(w)
        cards += 1

    worst_classic = 0
    for _ in range(100):
        start, goal = random_position(CLASSIC), random_position(CLASSIC)
        trace = solve_inglenook(CLASSIC, start, goal)
        assert replay(CLASSIC, start, trace.moves)[-1] == goal
        worst_classic = max(worst_classic, trace.length)
    assert worst_classic <= 214
    _report(5, "constructive bounds", f"classic worst seen {worst_classic} <= 214")


def test_criterion_6_lower_bound_verification():
    diameters = {}
    for w in range(2, 6):
        spec = CardsSpec(w, (w - 1, w - 1, 1))
        d = cards_diameter(spec)
        diameters[w] = d
        assert d >= (w * w + 2) // 4  # ceil((w*w - 1) / 4)
    assert diameters == {2: 3, 3: 8, 4: 13, 5: 20}

    reversals = {}
    for w in range(2, 5):
        d = reversal_distance(w)  # internally asserts d = 2 * card distance
        reversals[w] = d
        assert d >= (w * w) // 2  # ceil((w*w - 1) / 2)
        cspec = CardsSpec(w, (w - 1, w - 1, 1))
        ordered = CardsState((tuple(range(1, w)), (w,), ()))
        flipped = CardsState((tuple(range(w, 1, -1)), (1,), ()))
        assert d == 2 * cards_distance(cspec, ordered, flipped)
    assert reversals == {2: 6, 3: 14, 4: 26}

    # displacement metric: triangle inequality and the single-relocation law
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(2, 9)
        a = rng.sample(range(n), n)
        b = rng.sample(range(n), n)
        c = rng.sample(range(n), n)
        assert ordering_displacement(a, c) <= (
            ordering_displacement(a, b) + ordering_displacement(b, c)
        )
        u = rng.randrange(n - 1)
        v = rng.randrange(u + 1, n)
        moved = a[:u] + a[u + 1 : v + 1] + [a[u]] + a[v + 1 :]
        assert ordering_displacement(a, moved) == 2 * (v - u)
    _report(6, "lower bounds at desk scale",
            f"diameters {diameters}, reversals {reversals}")


def _run_cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_7_replay_fixtures(fixtures_dir):
    finishes = {
        "solution17": "H:[]|S1:[]|S2:[1,3,2]|S3:[4,5,6,7,8]",
        "solution18": "H:[]|S1:[]|S2:[2,1,3]|S3:[4,5,6,7,8]",
        "solution20": "H:[]|S1:[]|S2:[1,2,3]|S3:[4,5,6,7,8]",
    }
    for stem, moves in (("solution17", 17), ("solution18", 18), ("solution20", 20)):
        code, out, _ = _run_cli(
            "verify", "--spec", str(fixtures_dir / "classic.spec"),
            "--start", str(fixtures_dir / f"{stem}.start"),
            "--moves", str(fixtures_dir / f"{stem}.moves"),
        )
        assert code == 0
        assert f"moves = {moves}" in out
        assert finishes[stem] in out
    _report(7, "replay fixtures 17/18/20")


def test_cli_optimal_on_twenty_move_fixture(fixtures_dir):
    code, out, _ = _run_cli(
        "optimal", "--spec", str(fixtures_dir / "classic.spec"),
        "--start", str(fixtures_dir / "solution20.start"),
        "--goal", str(fixtures_dir / "solution20.finish"),
    )
    assert code == 0
    assert "distance = 20" in out
    # the printed trace must itself replay cleanly
    code, out2, _ = _run_cli(
        "verify", "--spec", str(fixtures_dir / "classic.spec"),
        "--start", str(fixtures_dir / "solution20.start"), "--moves", out,
    )
    assert code == 0
    assert "moves = 20" in out2


def test_criterion_8_determinism(fixtures_dir, tmp_path):
    spec_file = str(fixtures_dir / "classic.spec")
    small = tmp_path / "small.spec"
    small.write_text("wagons = 5\nheadshunt = 2\nsidings = 2 2 2\n")
    commands = [
        ("check", "--spec", spec_file),
        ("gen", "--spec", spec_file, "--start", str(fixtures_dir / "classic_start.pattern"),
         "--seed", "42"),
        ("verify", "--spec", spec_file, "--start", str(fixtures_dir / "solution17.start"),
         "--moves", str(fixtures_dir / "solution17.moves")),
        ("solve", "--spec", str(small), "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[5]",
         "--goal", "H:[]|S1:[5,4]|S2:[3,2]|S3:[1]"),
        ("optimal", "--spec", str(small), "--start", "H:[]|S1:[1,2]|S2:[3,4]|S3:[5]",
         "--goal", "S1 = [2,1]"),
        ("worst", "--spec", str(small), "--start", "*", "--goal",
         "H:[]|S1:[1,2]|S2:[3,4]|S3:[5]"),
        ("diameter", "--cards", "4", "--piles", "3 3 1"),
    ]
    for argv in commands:
        first = _run_cli(*argv)
        second = _run_cli(*argv)
        assert first == second, argv

    _report(8, "byte-identical reruns")
