"""Constructive solver: replay validity, enforced bounds, and the lift
between card moves and shunt moves."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inglenook import (
    PULL,
    PUSH,
    CardMove,
    CardsSpec,
    CardsState,
    IllegalMoveError,
    InternalCheckError,
    InvalidStateError,
    Position,
    PuzzleSpec,
    UnsatisfiablePatternError,
    UnsolvableError,
    apply_card_move,
    cards_move_bound,
    cards_spec,
    inglenook_move_bound,
    inglenook_solvable,
    is_convertible,
    parse_position,
    replay,
    replay_cards,
    solve_cards,
    solve_inglenook,
    solve_to_pattern,
    to_cards,
)
from inglenook import constructive, model
from inglenook.constructive import format_card_move, format_move_list, format_trace
from inglenook.model import position_codec
from inglenook.search import parse_pattern, sample_code

from conftest import (
    FIXTURES,
    all_card_states,
    all_positions,
    cards_specs,
    pattern_matches,
    positions,
    refused,
    specs_with_patterns,
)

CLASSIC = PuzzleSpec(8, 3, (3, 3, 5))


def _random_state(rng, spec: CardsSpec) -> CardsState:
    cards = list(range(1, spec.w + 1))
    rng.shuffle(cards)
    piles = [[] for _ in spec.m]
    for c in cards:
        open_piles = [i for i in range(len(spec.m)) if len(piles[i]) < spec.m[i]]
        piles[rng.choice(open_piles)].append(c)
    return CardsState(tuple(tuple(p) for p in piles))


def _random_position(rng, spec: PuzzleSpec) -> Position:
    wagons = list(range(1, spec.w + 1))
    rng.shuffle(wagons)
    caps = [spec.h] + list(spec.m)
    tracks = [[] for _ in caps]
    for w in wagons:
        open_tracks = [i for i in range(len(caps)) if len(tracks[i]) < caps[i]]
        tracks[rng.choice(open_tracks)].append(w)
    return Position(tuple(tuple(t) for t in tracks))


def test_solve_cards_identity():
    spec = CardsSpec(3, (2, 2, 2))
    state = CardsState(((1, 2), (3,), ()))
    assert solve_cards(spec, state, state).moves == ()


def test_solve_cards_transposition_costs_three_moves():
    # every slot is one card wide: swapping two cards takes three moves
    # through the free pile
    spec = CardsSpec(3, (1, 1, 1, 1))
    start = CardsState(((1,), (2,), (3,), ()))
    goal = CardsState(((2,), (1,), (3,), ()))
    trace = solve_cards(spec, start, goal)
    assert trace.length == 3
    assert replay_cards(spec, start, trace.moves)[-1] == goal


def test_solve_cards_rejects_disconnected():
    spec = CardsSpec(2, (2, 2))
    a = CardsState(((1, 2), ()))
    b = CardsState(((2, 1), ()))
    with pytest.raises(UnsolvableError) as err:
        solve_cards(spec, a, b)
    assert err.value.verdict.branch == "s=1"


def test_solve_cards_single_card_is_one_move():
    spec = CardsSpec(1, (1, 2))
    trace = solve_cards(spec, CardsState(((1,), ())), CardsState(((), (1,))))
    assert trace.length == 1


def test_solve_cards_randoms_replay_within_bound():
    rng = random.Random(99)
    solved = 0
    while solved < 1000:
        npiles = rng.randint(2, 5)
        m = tuple(rng.randint(1, 4) for _ in range(npiles))
        w = rng.randint(1, min(8, sum(m)))
        spec = CardsSpec(w, m)
        from inglenook import cards_connected

        if not cards_connected(spec).solvable:
            continue
        start, goal = _random_state(rng, spec), _random_state(rng, spec)
        trace = solve_cards(spec, start, goal)  # replay + bound asserted inside
        assert trace.length <= cards_move_bound(w)
        assert replay_cards(spec, start, trace.moves)[-1] == goal
        solved += 1


def test_solve_cards_exhaustive_pairs_small():
    spec = CardsSpec(3, (2, 2, 1))
    states = all_card_states(spec)
    bound = cards_move_bound(3)
    for a in states:
        for b in states:
            trace = solve_cards(spec, a, b)
            assert trace.length <= bound
            assert replay_cards(spec, a, trace.moves)[-1] == b


def test_solve_cards_adversarial_crowded_plan():
    # one tall empty pile, one full pile hiding the anchor at the bottom,
    # one single-slot pile: the transfer spills into the target pile
    spec = CardsSpec(5, (1, 4, 4))
    start = CardsState(((5,), (), (4, 3, 2, 1)))
    goal = CardsState(((1,), (2, 3, 4, 5), ()))
    trace = solve_cards(spec, start, goal)
    assert replay_cards(spec, start, trace.moves)[-1] == goal
    assert trace.length <= cards_move_bound(5)


@given(cards_specs(max_w=6, max_piles=4, max_cap=3))
@settings(max_examples=150, deadline=None)
def test_solve_cards_property(spec):
    from inglenook import cards_connected

    if not cards_connected(spec).solvable:
        return
    rng = random.Random(spec.w * 1009 + sum(spec.m))
    start, goal = _random_state(rng, spec), _random_state(rng, spec)
    trace = solve_cards(spec, start, goal)
    path = replay_cards(spec, start, trace.moves)
    assert path[-1] == goal
    assert trace.length <= cards_move_bound(spec.w)


def test_anchor_never_moves_after_seating():
    # replay the trace and check that once the goal's bottom card reaches
    # the bottom of its pile it stays there to the end
    spec = CardsSpec(5, (2, 3, 3))
    start = CardsState(((3,), (5, 2, 4), (1,)))
    goal = CardsState(((2, 1), (5,), (4, 3)))
    trace = solve_cards(spec, start, goal)
    path = replay_cards(spec, start, trace.moves)
    assert path[-1] == goal
    # the first pile with capacity >= 2 is pile 0; its goal bottom is 2
    seated = None
    for idx, state in enumerate(path):
        if state.piles[0][:1] == (2,):
            seated = idx
        elif seated is not None:
            break
    assert seated is not None
    for state in path[seated:]:
        assert state.piles[0][:1] == (2,)


@pytest.mark.parametrize("spec, start, goal, moves", [
    # three borrowed goal cards, put back last-in first-out as the last
    # three moves: 2 -> 3, then 1 -> 2, then 0 -> 2
    (CardsSpec(5, (3, 2, 3, 2)), ((5,), (1, 2), (), (3, 4)), ((4,), (), (5, 3), (2, 1)),
     [(3, 0), (0, 2), (2, 3), (0, 2), (3, 0), (3, 0), (1, 0), (2, 1), (1, 2), (1, 3),
      (2, 1), (3, 2), (0, 3), (2, 3), (1, 2), (0, 2)]),
    # three seatings leave every pile one card wide
    (CardsSpec(5, (2, 1, 2, 2)), ((1, 3), (), (4, 5), (2,)), ((4, 1), (3,), (5,), (2,)),
     [(0, 1), (2, 3), (2, 0), (1, 2), (0, 1), (1, 2), (0, 1), (2, 0), (3, 2), (2, 0),
      (0, 3), (2, 0), (3, 2), (0, 2), (1, 0), (2, 1)]),
    # four seatings leave one card to move
    (CardsSpec(5, (2, 3, 3)), ((4, 5), (2, 3), (1,)), ((4,), (3, 1), (5, 2)),
     [(0, 2), (1, 0), (0, 2), (1, 0), (2, 1), (2, 1), (2, 1), (0, 2), (1, 0), (1, 2),
      (0, 1), (2, 0), (0, 1), (2, 0), (1, 2), (0, 2)]),
])
def test_solve_cards_pinned_moves(spec, start, goal, moves):
    trace = solve_cards(spec, CardsState(start), CardsState(goal))
    assert [(mv.source, mv.dest) for mv in trace.moves] == moves


def test_solve_cards_stack_depth_does_not_grow_with_the_cards():
    # reversing 80 cards seats 80 anchors; a frame per anchor would pass
    # a recursion limit 40 frames above the caller
    spec = CardsSpec(80, (80, 80, 1))
    start = CardsState((tuple(range(1, 81)), (), ()))
    goal = CardsState((tuple(range(80, 0, -1)), (), ()))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        trace = solve_cards(spec, start, goal)
    finally:
        sys.setrecursionlimit(limit)
    assert trace.length <= cards_move_bound(80)
    assert replay_cards(spec, start, trace.moves)[-1] == goal


def test_solve_inglenook_identity_even_when_blocked():
    p = parse_position(CLASSIC, "H:[1,6,4]|S1:[]|S2:[7,8]|S3:[2,3,5]")
    assert solve_inglenook(CLASSIC, p, p).moves == ()


def test_solve_inglenook_seventeen_move_endpoints():
    start = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    goal = parse_position(CLASSIC, "H:[]|S1:[]|S2:[1,3,2]|S3:[4,5,6,7,8]")
    trace = solve_inglenook(CLASSIC, start, goal)
    assert replay(CLASSIC, start, trace.moves)[-1] == goal
    assert trace.length <= 214 == inglenook_move_bound(8)


def test_solve_inglenook_rejects_unsolvable():
    spec = PuzzleSpec(9, 3, (3, 3, 5))
    rng = random.Random(5)
    start, goal = _random_position(rng, spec), _random_position(rng, spec)
    with pytest.raises(UnsolvableError):
        solve_inglenook(spec, start, goal)


def test_solve_inglenook_non_convertible_endpoints():
    start = parse_position(CLASSIC, "H:[1,6,4]|S1:[]|S2:[7,8]|S3:[2,3,5]")
    goal = parse_position(CLASSIC, "H:[8,7,5]|S1:[1,2,3]|S2:[6]|S3:[4]")
    assert not is_convertible(CLASSIC, start)
    assert not is_convertible(CLASSIC, goal)
    trace = solve_inglenook(CLASSIC, start, goal)
    assert replay(CLASSIC, start, trace.moves)[-1] == goal
    # the first move must leave the full headshunt; the last must refill it
    assert trace.moves[0].direction == PUSH
    assert trace.moves[-1].direction == PULL


@pytest.mark.parametrize("start, goal", [
    ("H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]", "H:[]|S1:[]|S2:[1,3,2]|S3:[4,5,6,7,8]"),
    ("H:[1,6,4]|S1:[]|S2:[7,8]|S3:[2,3,5]", "H:[]|S1:[]|S2:[1,3,2]|S3:[4,5,6,7,8]"),
    ("H:[1,6,4]|S1:[]|S2:[7,8]|S3:[2,3,5]", "H:[8,7,5]|S1:[1,2,3]|S2:[6]|S3:[4]"),
], ids=["no_full_headshunt", "full_start", "full_both"])
def test_solve_inglenook_validates_each_endpoint_once(monkeypatch, start, goal):
    # the two endpoints up front and the start of the trace check's replay;
    # neither a full headshunt nor the card map checks an endpoint again
    start, goal = parse_position(CLASSIC, start), parse_position(CLASSIC, goal)
    calls = []
    real = model.validate_position

    def counting(spec, p):
        calls.append(p)
        real(spec, p)

    monkeypatch.setattr(model, "validate_position", counting)
    monkeypatch.setattr(constructive, "validate_position", counting)
    trace = solve_inglenook(CLASSIC, start, goal)
    assert len(calls) <= 3
    assert replay(CLASSIC, start, trace.moves)[-1] == goal


def test_one_wagon_headshunt_lifts_each_card_move_to_two_shunts():
    spec = PuzzleSpec(3, 1, (2, 2, 1))
    start = parse_position(spec, "H:[]|S1:[1,2]|S2:[3]|S3:[]")
    goal = parse_position(spec, "H:[]|S1:[3,2]|S2:[1]|S3:[]")
    trace = solve_inglenook(spec, start, goal)
    assert replay(spec, start, trace.moves)[-1] == goal
    assert trace.length % 2 == 0
    for i in range(0, trace.length, 2):
        assert trace.moves[i].direction == PULL
        assert trace.moves[i].count == 1
        assert trace.moves[i + 1].direction == PUSH
        assert trace.moves[i + 1].count == 1
    # and the lift mirrors the card solution move for move
    ctrace = solve_cards(cards_spec(spec), to_cards(spec, start), to_cards(spec, goal))
    assert trace.length == 2 * ctrace.length


def test_lift_fidelity_on_classic():
    start = parse_position(CLASSIC, "H:[1,6]|S1:[4,7]|S2:[3,5,8]|S3:[2]")
    goal = parse_position(CLASSIC, "H:[]|S1:[]|S2:[2,1,3]|S3:[4,5,6,7,8]")
    trace = solve_inglenook(CLASSIC, start, goal)
    path = replay(CLASSIC, start, trace.moves)
    # convertible waypoints after whole card-move units reproduce the card
    # trace edge for edge
    ctrace = solve_cards(cards_spec(CLASSIC), to_cards(CLASSIC, start), to_cards(CLASSIC, goal))
    waypoints = [to_cards(CLASSIC, path[0])]
    at = 0
    for cm in ctrace.moves:
        at += 1 if 0 in (cm.source, cm.dest) else 2
        waypoints.append(to_cards(CLASSIC, path[at]))
    assert at == trace.length
    states = replay_cards(cards_spec(CLASSIC), waypoints[0], ctrace.moves)
    assert states == waypoints


def test_solve_inglenook_randoms_replay_within_bound():
    rng = random.Random(123)
    solved = 0
    while solved < 300:
        s = rng.randint(1, 4)
        h = rng.randint(1, 4)
        m = tuple(rng.randint(1, 5) for _ in range(s))
        if h + sum(m) - 1 < 1:
            continue
        w = rng.randint(1, min(8, h + sum(m) - 1))
        spec = PuzzleSpec(w, h, m)
        if not inglenook_solvable(spec).solvable:
            continue
        start, goal = _random_position(rng, spec), _random_position(rng, spec)
        trace = solve_inglenook(spec, start, goal)
        assert replay(spec, start, trace.moves)[-1] == goal
        assert trace.length <= inglenook_move_bound(w)
        solved += 1


def _pinned_traces() -> dict:
    """Solve 100 seeded pairs of classic deals, then 100 seeded pairs of any
    classic positions (which reach full-headshunt ends), and return each
    trace's length and one sha256 over every trace file's text."""
    codec = position_codec(CLASSIC)
    deals = parse_pattern(CLASSIC, (FIXTURES / "classic_start.pattern").read_text())
    traces = []
    for seed in range(100):
        rng = random.Random(seed)
        start, goal = (Position(codec.decode(sample_code(CLASSIC, deals, rng, "a deal")))
                       for _ in range(2))
        traces.append(solve_inglenook(CLASSIC, start, goal))
    for seed in range(100):
        rng = random.Random(seed)
        start, goal = _random_position(rng, CLASSIC), _random_position(rng, CLASSIC)
        traces.append(solve_inglenook(CLASSIC, start, goal))
    text = "".join(format_trace(trace) for trace in traces)
    return {"lengths": [trace.length for trace in traces],
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_constructive_traces_match_the_pinned_fixture():
    # A change that shortens traces on purpose rewrites the fixture with
    # json.dumps(_pinned_traces()) and says so in CHANGES.md; a refactor
    # leaves it as it is.
    pinned = json.loads((FIXTURES / "constructive_traces.json").read_text())
    assert _pinned_traces() == pinned


def test_solve_to_pattern_reaches_classic_goal():
    start = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    pattern = parse_pattern(CLASSIC, "H = []; S1 = []; S2 ~ {1,2,3}; S3 = [4,5,6,7,8]")
    trace = solve_to_pattern(CLASSIC, start, pattern)
    final = replay(CLASSIC, start, trace.moves)[-1]
    assert pattern_matches(CLASSIC, pattern, final)


def test_solve_to_pattern_matching_start_is_empty_trace():
    start = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    pattern = parse_pattern(CLASSIC, "S3 = [1,6,2,3,5]")
    assert solve_to_pattern(CLASSIC, start, pattern).moves == ()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_solve_to_pattern_start_check_agrees_with_object_level_match(data):
    # the start check runs the compiled goal test on the start's code; a
    # start that fails it is solved to the matching position of least code
    spec, pattern = data.draw(specs_with_patterns().filter(
        lambda case: inglenook_solvable(case[0]).solvable))
    start = data.draw(positions(spec))
    codec = position_codec(spec)
    matching = [codec.encode(p.tracks) for p in all_positions(spec)
                if pattern_matches(spec, pattern, p)]
    if not matching:
        with pytest.raises(UnsatisfiablePatternError):
            solve_to_pattern(spec, start, pattern)
        return
    trace = solve_to_pattern(spec, start, pattern)
    if pattern_matches(spec, pattern, start):
        assert trace.moves == () and trace.finish == start
        return
    assert trace.moves != ()
    assert replay(spec, start, trace.moves)[-1] == trace.finish
    assert pattern_matches(spec, pattern, trace.finish)
    assert codec.encode(trace.finish.tracks) == min(matching)


def test_solve_to_pattern_unsatisfiable_reports_conflicts():
    start = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    pattern = parse_pattern(CLASSIC, "S1 = [1,2,3,4]")
    with pytest.raises(UnsatisfiablePatternError,
                       match="^no valid position matches the goal pattern: .*capacity"):
        solve_to_pattern(CLASSIC, start, pattern)


def _refused_under_python_O(patch: str, message: str) -> None:
    # `python -O` strips assert statements; with `patch` applied, solve_cards
    # must still be refused by its trace check, with `message`
    script = (
        "from inglenook import CardsSpec, CardsState, constructive\n"
        "assert False, 'assert statements must be stripped'\n"
        f"constructive.{patch}\n"
        "try:\n"
        "    constructive.solve_cards(CardsSpec(3, (2, 2, 1)),\n"
        "                             CardsState(((1, 2), (3,), ())),\n"
        "                             CardsState(((2, 1), (3,), ())))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, message + "\n"), done.stderr


def test_constructive_checks_survive_python_O():
    _refused_under_python_O("_cards_path = lambda caps, cur, goal: []",
                            "the card trace must replay to its finish")


def test_constructive_checks_survive_python_O_on_an_illegal_move():
    _refused_under_python_O("_cards_path = lambda caps, cur, goal: [constructive.CardMove(2, 0)]",
                            "the card trace must replay: pile 2 is empty")


def test_constructive_checks_survive_python_O_on_the_move_bound():
    _refused_under_python_O("cards_move_bound = lambda w: 0",
                            "5 card moves exceed the bound 0")


def test_solve_cards_refuses_a_trace_over_its_bound(monkeypatch):
    spec = CardsSpec(3, (2, 2, 1))
    start, goal = CardsState(((1, 2), (3,), ())), CardsState(((2, 1), (3,), ()))
    monkeypatch.setattr(constructive, "cards_move_bound", lambda w: 0)
    with pytest.raises(InternalCheckError, match="^5 card moves exceed the bound 0$"):
        solve_cards(spec, start, goal)


@pytest.mark.parametrize("start, goal", [
    ("H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]", "H:[]|S1:[]|S2:[1,3,2]|S3:[4,5,6,7,8]"),
    ("H:[1,6,4]|S1:[]|S2:[7,8]|S3:[2,3,5]", "H:[8,7,5]|S1:[1,2,3]|S2:[6]|S3:[4]"),
], ids=["convertible_ends", "full_headshunt_ends"])
def test_solve_inglenook_refuses_a_trace_over_its_bound(monkeypatch, start, goal):
    # the card trace keeps its own bound, so only the shunt bound refuses
    start, goal = parse_position(CLASSIC, start), parse_position(CLASSIC, goal)
    length = solve_inglenook(CLASSIC, start, goal).length
    monkeypatch.setattr(constructive, "inglenook_move_bound", lambda w: 0)
    with pytest.raises(InternalCheckError,
                       match=f"^{length} shunt moves exceed the bound 0$"):
        solve_inglenook(CLASSIC, start, goal)


def test_the_shunt_bound_is_the_lifted_card_bound():
    # two shunt moves a card move and one push at each full-headshunt end
    for w in range(1, 30):
        assert inglenook_move_bound(w) == 2 * w * w + 12 * w - 10


def test_replay_cards_refuses_an_invalid_start_even_with_no_moves():
    spec = CardsSpec(3, (2, 2, 1))
    with pytest.raises(InvalidStateError, match="exactly once"):
        replay_cards(spec, CardsState(((1, 2), (2,), ())), [])


def test_apply_card_move_still_refuses_an_invalid_state():
    spec = CardsSpec(3, (2, 2, 1))
    with pytest.raises(InvalidStateError, match="pile 2 holds 2 cards"):
        apply_card_move(spec, CardsState(((1,), (), (2, 3))), CardMove(2, 0))


def test_solve_cards_reports_an_illegal_card_path_as_an_internal_error(monkeypatch):
    monkeypatch.setattr(constructive, "_cards_path", lambda caps, cur, goal: [CardMove(2, 0)])
    spec = CardsSpec(3, (2, 2, 1))
    with pytest.raises(InternalCheckError,
                       match="^the card trace must replay: pile 2 is empty$"):
        solve_cards(spec, CardsState(((1, 2), (3,), ())), CardsState(((2, 1), (3,), ())))


def test_card_move_formatting():
    assert format_card_move(CardMove(0, 2)) == "CARD 0 -> 2"
    spec = CardsSpec(2, (1, 1, 1))
    state = CardsState(((1,), (2,), ()))
    moved = apply_card_move(spec, state, CardMove(0, 2))
    assert moved.piles == ((), (2,), (1,))


def test_trace_file_format():
    start = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    goal = parse_position(CLASSIC, "H:[1,6]|S1:[]|S2:[4,7,8]|S3:[2,3,5]")
    trace = solve_inglenook(CLASSIC, start, goal)
    text = format_trace(trace)
    lines = text.strip().splitlines()
    assert lines[0] == "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]"
    assert lines[-1] == "H:[1,6]|S1:[]|S2:[4,7,8]|S3:[2,3,5]"
    assert len(lines) == trace.length + 2
    assert format_move_list(trace.moves).splitlines() == lines[1:-1]


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: CardMove(1, 1), IllegalMoveError, "card move must change pile",
                 id="card_move_same_pile"),
    pytest.param(lambda: replay_cards(CardsSpec(2, (1, 1, 1)), CardsState(((1,), (2,), ())),
                                      [CardMove(0, 3)]),
                 IllegalMoveError, "no pile 3", id="replay_no_pile"),
    pytest.param(lambda: replay_cards(CardsSpec(2, (1, 1, 1)), CardsState(((1,), (2,), ())),
                                      [CardMove(0, 1)]),
                 IllegalMoveError, "pile 1 is full", id="replay_full_pile"),
])
def test_card_move_refusals_name_their_rule(make, error, message):
    refused(make, error, message)
