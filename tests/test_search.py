"""Search behaviour on small instances: exactness against a naive oracle,
pattern machinery, deterministic tie-breaks, censuses, and diameters.

The classic-plan fixtures (17/18/20-move searches and full sweeps) live in
the acceptance suite; everything here runs in seconds.
"""

from __future__ import annotations

import ast
import collections
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inglenook import (
    PULL,
    CardsSpec,
    CardsState,
    FormatError,
    InvalidStateError,
    Position,
    PuzzleSpec,
    UnsatisfiablePatternError,
    apply_move,
    cards_component_census,
    cards_connected,
    cards_diameter,
    cards_distance,
    count_positions,
    count_states,
    inglenook_solvable,
    matching_codes,
    optimal_solve,
    ordering_displacement,
    parse_pattern,
    parse_position,
    replay,
    reversal_distance,
    solve_cards,
    solve_inglenook,
    solve_to_pattern,
    search,
    worst_case_moves,
)
from inglenook.cli import run
from inglenook.model import InglenookError, InternalCheckError, position_codec, state_codec
from inglenook.search import (
    ANY,
    EMPTY,
    EXACT,
    SET_ANY_ORDER,
    BudgetExceededError,
    DisconnectedGraphError,
    GoalPattern,
    TrackRule,
    _Plan,
    _RankMoves,
    _alternative_conflict,
    _card_moves,
    _census,
    _depth_map,
    _depths,
    _eccentricities,
    _goal_test,
    _iter_codes,
    _level,
    _mask,
    _next_level,
    _occupancies,
    _orbit_firsts,
    _plans,
    _processes,
    _rank_table,
    _shortest_layers,
    _shunt_moves,
    _track_lengths,
    pattern_conflicts,
    sample_code,
)

from conftest import (
    all_card_states,
    all_positions,
    card_neighbors,
    card_states,
    cards_specs,
    legal_moves,
    naive_alternative_positions,
    naive_card_distances,
    naive_cards_components,
    naive_distances,
    naive_explored,
    naive_first_match,
    naive_rank_table,
    naive_shortest_layers,
    naive_worst,
    pattern_matches,
    patterns,
    positions,
    puzzle_specs,
    refused,
    specs_with_patterns,
    specs_with_positions,
)

SMALL = PuzzleSpec(4, 2, (2, 2, 1))


def test_optimal_zero_when_start_matches():
    p = Position(((), (1, 2), (3, 4), ()))
    report = optimal_solve(SMALL, p, GoalPattern.exact_position(p))
    assert report.distance == 0
    assert report.trace.moves == ()
    assert report.explored == 1


@given(specs_with_positions(max_w=5, max_h=3, max_s=3, max_cap=2))
@settings(max_examples=40, deadline=None)
def test_optimal_matches_naive_oracle(case):
    spec, start = case
    if count_positions(spec) > 4000:
        return
    dist = naive_distances(spec, start)
    # farthest reachable position, via the oracle only
    codec = position_codec(spec)
    target = max(dist, key=lambda p: (dist[p], codec.encode(p.tracks)))
    report = optimal_solve(spec, start, GoalPattern.exact_position(target))
    assert report.distance == dist[target]
    path = replay(spec, start, report.trace.moves)
    assert path[-1] == target
    assert len(report.trace.moves) == report.distance


@given(specs_with_positions(max_w=4, max_h=2, max_s=2, max_cap=2))
@settings(max_examples=30, deadline=None)
def test_distance_is_symmetric(case):
    spec, start = case
    dist = naive_distances(spec, start)
    codec = position_codec(spec)
    reachable = sorted(dist, key=lambda p: codec.encode(p.tracks))[:3]
    for other in reachable:
        fwd = optimal_solve(spec, start, GoalPattern.exact_position(other))
        back = optimal_solve(spec, other, GoalPattern.exact_position(start))
        assert fwd.distance == back.distance == dist[other]


def test_optimal_unreachable_goal_is_a_report_not_an_error():
    spec = PuzzleSpec(2, 5, (5,))  # single siding: order can never change
    start = Position(((), (1, 2)))
    goal = Position(((), (2, 1)))
    report = optimal_solve(spec, start, GoalPattern.exact_position(goal))
    assert report.distance is None
    assert report.trace is None
    assert report.explored > 0


def test_optimal_trace_tie_break_is_deterministic():
    start = Position(((), (1, 2), (3, 4), ()))
    goal_set = GoalPattern(
        ((TrackRule("empty"), TrackRule("any"), TrackRule("any"), TrackRule("exact", (4,))),)
    )
    first = optimal_solve(SMALL, start, goal_set)
    second = optimal_solve(SMALL, start, goal_set)
    assert first.trace.moves == second.trace.moves
    assert first.explored == second.explored


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_optimal_trace_is_the_first_forward_move_back_to_the_start(data):
    # rebuilt from the oracle's distances alone: walk back from the goal,
    # taking the first forward move in (siding, pull before push, count)
    # order whose predecessor is one step nearer the start
    spec, start = data.draw(specs_with_positions(max_w=4, max_h=2, max_s=3, max_cap=2))
    dist = naive_distances(spec, start)
    codec = position_codec(spec)
    goal = data.draw(st.sampled_from(sorted(dist, key=lambda p: codec.encode(p.tracks))))
    report = optimal_solve(spec, start, GoalPattern.exact_position(goal))
    assert list(report.trace.moves) == _first_forward_moves_back(spec, dist, goal)


def test_budget_refusal_is_clean():
    with pytest.raises(BudgetExceededError) as err:
        optimal_solve(SMALL, Position(((), (1, 2), (3, 4), ())),
                      GoalPattern.all_positions(SMALL), budget=10)
    assert err.value.budget == 10
    assert err.value.estimate == count_positions(SMALL)


def test_optimality_never_beats_constructive():
    rng = random.Random(3)
    for _ in range(20):
        spec = PuzzleSpec(4, 2, (2, 2, 2))
        wagons = list(range(1, 5))
        rng.shuffle(wagons)
        start = Position(((), tuple(wagons[:2]), tuple(wagons[2:]), ()))
        goal = Position(((), tuple(sorted(wagons[:2])), (), tuple(sorted(wagons[2:]))))
        best = optimal_solve(spec, start, GoalPattern.exact_position(goal))
        built = solve_inglenook(spec, start, goal)
        assert best.distance <= built.length


# --- patterns ---------------------------------------------------------------

def test_pattern_matching_and_enumeration():
    pattern = parse_pattern(SMALL, "H = []; S1 ~ {1,2}; S3 = [3]")
    codec = position_codec(SMALL)
    matches = [Position(codec.decode(code))
               for code in matching_codes(SMALL, pattern, "the pattern")]
    # S1 holds {1,2} in some order, S3 is exactly (3), wagon 4 goes anywhere
    # with space outside the headshunt (H pinned empty): S2 has 2 slots
    assert all(pattern_matches(SMALL, pattern, p) for p in matches)
    assert len(matches) == 2 * 1 * 1  # two orders of S1, wagon 4 must fill S2
    seen = {codec.encode(p.tracks) for p in matches}
    assert len(seen) == len(matches)


def test_pattern_enumeration_handles_alternatives_without_duplicates():
    pattern = parse_pattern(SMALL, "H = *\n*")
    everything = matching_codes(SMALL, pattern, "the pattern")
    assert len(everything) == len(set(everything)) == count_positions(SMALL)


def test_pattern_enumeration_keeps_first_alternative_order():
    # overlapping alternatives: each position comes once, where the first
    # alternative that matches it would yield it
    pattern = parse_pattern(SMALL, "S1 ~ {1,2}\nH = []\nS1 ~ {1,2}; S3 = [3]")
    expected = []
    for alt in pattern.alternatives:
        for code in matching_codes(SMALL, GoalPattern((alt,)), "the pattern"):
            if code not in expected:
                expected.append(code)
    assert matching_codes(SMALL, pattern, "the pattern") == expected


def test_pattern_enumeration_order_is_locked():
    # any-order tracks' orders slowest, then permutations of the loose
    # wagons, then their layouts; the second alternative skips the codes
    # the first one matches
    pattern = parse_pattern(SMALL, "S1 ~ {1,2}; S3 = [3]\nS3 = [3]; H = []")
    assert matching_codes(SMALL, pattern, "the pattern") == [
        0x102040003, 0x4000102000003, 0x201040003, 0x4000201000003, 0x100020403,
        0x100040203, 0x104020003, 0x200010403, 0x200040103, 0x204010003,
        0x400010203, 0x401020003, 0x400020103, 0x402010003,
    ]


def test_pattern_enumeration_with_sixteen_bit_slots():
    spec = PuzzleSpec(300, 2, (300,))
    assert position_codec(spec).bits == 16
    pinned = tuple(range(300, 2, -1))
    pattern = GoalPattern(((TrackRule(ANY), TrackRule(EXACT, pinned)),))
    expected = [Position(((1, 2), pinned)), Position(((2, 1), pinned))]
    assert matching_codes(spec, pattern, "the pattern") == [
        position_codec(spec).encode(p.tracks) for p in expected
    ]


@given(specs_with_patterns())
@settings(max_examples=150, deadline=None)
def test_compiled_goal_agrees_with_object_level_match(case):
    spec, pattern = case
    codec = position_codec(spec)
    match = _goal_test(_plans(spec, pattern))
    for p in all_positions(spec):
        assert match(codec.encode(p.tracks)) == pattern_matches(spec, pattern, p), p


@given(specs_with_patterns())
@settings(max_examples=150, deadline=None)
def test_matching_codes_are_the_matching_positions(case):
    spec, pattern = case
    codec = position_codec(spec)
    want = {codec.encode(p.tracks) for p in all_positions(spec)
            if pattern_matches(spec, pattern, p)}
    if not want:
        with pytest.raises(UnsatisfiablePatternError, match="no valid position matches it"):
            matching_codes(spec, pattern, "it")
        return
    codes = matching_codes(spec, pattern, "it")
    assert len(codes) == len(set(codes))
    assert set(codes) == want


@given(specs_with_patterns())
@example((PuzzleSpec(5, 2, (2, 2, 1)), parse_pattern(PuzzleSpec(5, 2, (2, 2, 1)),
                                                      "H ~ {1,2}; S1 ~ {3,4}")))
@settings(max_examples=150, deadline=None)
def test_plan_counts_lists_and_unranks_each_alternative(case):
    spec, pattern = case
    codec = position_codec(spec)
    for alt in pattern.alternatives:
        if _alternative_conflict(spec, alt):
            continue
        plan = _Plan(codec, alt, spec.w)
        want = [codec.encode(p.tracks) for p in naive_alternative_positions(spec, alt)]
        assert plan.count == len(want) == len(set(want))
        assert [plan.code(i) for i in range(plan.count)] == want
        assert plan.code(0) == min(want)
        alone = GoalPattern((alt,))
        assert plan.count == sum(pattern_matches(spec, alone, p) for p in all_positions(spec))
        # the plan's goal test accepts exactly the codes it lists
        match = _goal_test([plan])
        assert all(map(match, want))
        assert plan.count == sum(match(codec.encode(p.tracks)) for p in all_positions(spec))


@given(specs_with_patterns())
@settings(max_examples=150, deadline=None)
def test_least_code_is_the_least_matching_code(case):
    # each alternative's least code is its plan's index 0: `solve`'s target
    spec, pattern = case
    try:
        codes = matching_codes(spec, pattern, "it")
    except UnsatisfiablePatternError as exc:
        with pytest.raises(UnsatisfiablePatternError, match=f"^{re.escape(str(exc))}$"):
            _plans(spec, pattern, "it")
        return
    assert min(plan.code(0) for plan in _plans(spec, pattern, "it")) == min(codes)


def test_each_search_compiles_each_pattern_once(monkeypatch):
    # one conflict check per alternative, so one `_Plan` per satisfiable one
    checked = []

    def counted(spec, alt):
        checked.append(alt)
        return _alternative_conflict(spec, alt)

    monkeypatch.setattr(search, "_alternative_conflict", counted)
    two = parse_pattern(SMALL, "S1 ~ {1,2}; S3 = [3]\nS3 = [3]; H = []")
    start = Position(((), (1, 2), (3, 4), ()))
    goal = parse_pattern(SMALL, "H = []; S1 = [4,3]")
    for solve, alternatives in ((lambda: worst_case_moves(SMALL, two, goal), 3),
                                (lambda: optimal_solve(SMALL, start, two), 2),
                                (lambda: solve_to_pattern(SMALL, start, two), 2)):
        checked.clear()
        solve()
        assert len(checked) == alternatives, checked


def test_sample_code_is_uniform_over_the_matching_positions():
    # 16 indices over two alternatives name 14 positions: the two the
    # second alternative shares with the first are drawn again
    pattern = parse_pattern(SMALL, "S1 ~ {1,2}; S3 = [3]\nS3 = [3]; H = []")
    codes = matching_codes(SMALL, pattern, "the pattern")
    draws = 2800
    counts = collections.Counter(sample_code(SMALL, pattern, random.Random(seed), "it")
                                 for seed in range(draws))
    assert sorted(counts) == sorted(codes)
    # each count is Binomial(2800, 1/14): mean 200, standard deviation 13.6;
    # allow five standard deviations
    assert all(abs(n - 200) <= 68 for n in counts.values()), counts


def test_sample_code_takes_one_draw_for_one_alternative():
    # the index of one `randrange(count)` call, in enumeration order
    pattern = parse_pattern(SMALL, "S3 = [3]; H = []")
    codes = matching_codes(SMALL, pattern, "the pattern")
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert sample_code(SMALL, pattern, rng, "it") == codes[ref.randrange(len(codes))]
        assert rng.getstate() == ref.getstate()


def _first_forward_moves_back(spec, dist, goal):
    """The trace rebuilt from oracle distances alone: walk back from the
    goal, taking the first forward move in (siding, pull before push, count)
    order whose predecessor is one step nearer the start."""
    want, cur = [], goal
    while dist[cur]:
        back = []
        for mv in legal_moves(spec, cur):
            fwd, pred = mv.inverse(), apply_move(spec, cur, mv)
            if dist[pred] == dist[cur] - 1:
                back.append(((fwd.siding, fwd.direction != PULL, fwd.count), fwd, pred))
        _key, fwd, cur = min(back, key=lambda b: b[0])
        want.append(fwd)
    return want[::-1]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_optimal_goal_family_keeps_the_forward_hit(data):
    # the two-sided search must finish where a forward search in move order
    # first meets the goal family, and print the same trace
    spec, pattern = data.draw(specs_with_patterns())
    start = data.draw(positions(spec))
    report = optimal_solve(spec, start, pattern)
    assert report.explored <= count_positions(spec)
    first = naive_first_match(spec, start, lambda p: pattern_matches(spec, pattern, p))
    if first is None:
        assert report.distance is None and report.trace is None
        return
    finish, depth = first
    assert report.distance == depth
    assert report.trace.finish == finish
    dist = naive_distances(spec, start)
    assert list(report.trace.moves) == _first_forward_moves_back(spec, dist, finish)


@st.composite
def _specs_with_starts_and_patterns(draw):
    spec, pattern = draw(specs_with_patterns())
    return spec, draw(positions(spec)), pattern


_TWO_IN_ONE_SIDING = PuzzleSpec(2, 2, (2,))  # disconnected: the order never changes


@given(_specs_with_starts_and_patterns())
@example((SMALL, Position(((), (1, 2), (3, 4), ())), parse_pattern(SMALL, "S1 = [1,2,3]")))
@example((SMALL, Position(((), (1, 2), (3, 4), ())), parse_pattern(SMALL, "S3 = [1]")))
@example((SMALL, Position(((), (1, 2), (3, 4), ())),
          parse_pattern(SMALL, "S1 = [2,1]; S2 = [3,4]\nS1 = [4,3]; S2 = [1,2]")))
@example((_TWO_IN_ONE_SIDING, Position(((), (1, 2))),
          parse_pattern(_TWO_IN_ONE_SIDING, "H = [2]; S1 = [1]\nH = [2,1]")))
@example((_TWO_IN_ONE_SIDING, Position(((), (1, 2))),
          parse_pattern(_TWO_IN_ONE_SIDING, "H = [2]; S1 = [1]\nH = [2,1]\nS1 = [2,1]")))
@settings(max_examples=150, deadline=None)
def test_optimal_family_explored_matches_the_oracle(case):
    # the states labelled while the family is met lazily and after it seeds
    # the goal side; the examples are an empty family, one met lazily, one
    # that seeds the goal side and two unreachable ones, seeded and not
    spec, start, pattern = case
    family = [p for p in all_positions(spec) if pattern_matches(spec, pattern, p)]
    want = naive_explored(naive_distances(spec, start), naive_distances(spec, *family))
    assert optimal_solve(spec, start, pattern).explored == want


@given(_specs_with_starts_and_patterns())
@example((SMALL, Position(((), (1, 2), (3, 4), ())), parse_pattern(SMALL, "S3 = [1]")))
@example((SMALL, Position(((), (1, 2), (3, 4), ())),
          parse_pattern(SMALL, "S1 = [2,1]; S2 = [3,4]\nS1 = [4,3]; S2 = [1,2]")))
@example((SMALL, Position(((), (1, 2), (3, 4), ())),
          parse_pattern(SMALL, "H = []; S1 = [2,1]; S2 = [4,3]; S3 = []")))
@example((_TWO_IN_ONE_SIDING, Position(((), (1, 2))),
          parse_pattern(_TWO_IN_ONE_SIDING, "H = [2]; S1 = [1]\nH = [2,1]")))
@settings(max_examples=100, deadline=None)
def test_family_layers_are_the_oracle_layers(case):
    # layer j is every x with d(s, x) = j and d(x, G) = d - j, on each goal
    # side; the examples are a family met before it is listed, one that
    # seeds the goal side, one goal with the start's track lengths and an
    # unreachable family
    spec, start, pattern = case
    family = [p for p in all_positions(spec) if pattern_matches(spec, pattern, p)]
    from_start, from_goal = naive_distances(spec, start), naive_distances(spec, *family)
    moves, plans = _shunt_moves(spec), _plans(spec, pattern)
    first = moves.codec.encode(start.tracks)
    layers = _shortest_layers(moves, first, _goal_test(plans), _iter_codes(plans))[0]
    distance = min((from_start[p] for p in family if p in from_start), default=None)
    assert optimal_solve(spec, start, pattern).distance == distance
    if distance is None:
        assert layers is None
        return
    want = [set() for _ in range(distance + 1)]
    for x, j in from_start.items():
        if from_goal.get(x) == distance - j:
            want[j].add(moves.codec.encode(x.tracks))
    assert [_codes(moves, layer) for layer in layers] == want


@pytest.mark.parametrize("spec,start,finish,distance", [
    (PuzzleSpec(4, 4, (3, 3, 1)),
     "H:[2]|S1:[1]|S2:[4]|S3:[3]", "H:[3]|S1:[4]|S2:[2]|S3:[1]", 7),
    (PuzzleSpec(5, 3, (3, 4)), "H:[3,5]|S1:[2,1]|S2:[4]", "H:[4,5]|S1:[2,3]|S2:[1]", 12),
])
def test_optimal_trace_breaks_ties_within_a_siding(spec, start, finish, distance):
    # with a headshunt longer than two, a code has several forward moves
    # into it on one siding; the trace prefers a pull, then the smaller block
    start, finish = parse_position(spec, start), parse_position(spec, finish)
    report = optimal_solve(spec, start, GoalPattern.exact_position(finish))
    assert report.distance == distance
    want = _first_forward_moves_back(spec, naive_distances(spec, start), finish)
    assert list(report.trace.moves) == want


@given(specs_with_positions(max_w=5, max_h=3, max_s=3, max_cap=3), st.data())
@settings(max_examples=80, deadline=None)
def test_optimal_explores_at_most_every_position(case, data):
    spec, start = case
    goal = data.draw(positions(spec))
    report = optimal_solve(spec, start, GoalPattern.exact_position(goal))
    assert report.explored <= count_positions(spec)


def test_optimal_lists_the_goal_family_lazily():
    # `H = []` matches over a million classic positions, but the start side
    # meets it at its first level, so the search labels only that level
    spec = PuzzleSpec(8, 3, (3, 3, 5))
    start = parse_position(spec, "H:[1,2,3]|S1:[4,5,6]|S2:[7,8]|S3:[]")
    report = optimal_solve(spec, start, parse_pattern(spec, "H = []"))
    assert report.distance == 1
    assert report.explored == 5


def test_optimal_unsatisfiable_goal_is_a_report_not_an_error():
    start = Position(((), (1, 2), (3, 4), ()))
    report = optimal_solve(SMALL, start, parse_pattern(SMALL, "S1 = [1,2,3]"))
    assert report.distance is None
    assert report.trace is None


def test_compiled_goal_with_labels_past_the_slot_high_bit():
    spec = PuzzleSpec(200, 1, (200,))
    codec = position_codec(spec)
    rest = tuple(w for w in range(1, 201) if w != 128)
    starts = [Position(((), tuple(range(200, 0, -1)))),
              Position(((128,), rest[::-1])),
              Position(((200,), tuple(range(1, 200))))]
    patterns = [
        parse_pattern(spec, "H = []"),
        parse_pattern(spec, "H = [128]"),
        parse_pattern(spec, "H ~ {200}"),
        parse_pattern(spec, "H ~ {129}\nH = [128]"),
        GoalPattern(((TrackRule(EMPTY), TrackRule(SET_ANY_ORDER, range(1, 201))),)),
        GoalPattern(((TrackRule(ANY), TrackRule(SET_ANY_ORDER, rest)),)),
        GoalPattern(((TrackRule(ANY), TrackRule(EXACT, range(200, 0, -1))),)),
    ]
    seen = set()
    for pattern in patterns:
        match = _goal_test(_plans(spec, pattern))
        for p in starts:
            got = match(codec.encode(p.tracks))
            assert got == pattern_matches(spec, pattern, p), (pattern, p)
            seen.add(got)
    assert seen == {True, False}


def test_pattern_conflicts_report():
    pattern = parse_pattern(SMALL, "S3 = [1,2]")
    assert any("capacity" in c for c in pattern_conflicts(SMALL, pattern))
    pattern = parse_pattern(SMALL, "S1 = [1,2]; S2 ~ {2,3}")
    assert any("pinned to two tracks" in c for c in pattern_conflicts(SMALL, pattern))
    pattern = parse_pattern(SMALL, "H = []; S1 = []; S2 = []; S3 = [1]")
    assert any("free capacity" in c for c in pattern_conflicts(SMALL, pattern))


def test_parse_pattern_errors():
    for clause in ("S9 = [1]", "S0 = [1]", "S00 = [1]"):
        with pytest.raises(FormatError, match="no track S"):
            parse_pattern(SMALL, clause)
    with pytest.raises(FormatError):
        parse_pattern(SMALL, "S1 ~ [1,2]")
    with pytest.raises(FormatError):
        parse_pattern(SMALL, "S1 = [1]; S1 = [2]")
    with pytest.raises(FormatError):
        parse_pattern(SMALL, "")


def test_pattern_errors_name_the_line_of_a_wagon():
    # an unknown token and a repeated wagon both sit on line 2
    for text, message in (("H = *\nS1 = [9]", "unknown wagon token '9'"),
                          ("H = *\nS1 = [2,2]", "repeats a wagon")):
        with pytest.raises(FormatError, match=message) as err:
            parse_pattern(SMALL, text)
        assert err.value.line == 2
        assert str(err.value).endswith("(line 2)")


def test_wrong_track_count_is_a_format_error_everywhere(monkeypatch):
    # a hand-built alternative for a two-track plan is malformed on a
    # three-track one, not unsatisfiable; `worst` refuses it before sweeping
    spec = PuzzleSpec(3, 2, (2, 2))
    short = GoalPattern(((TrackRule(ANY), TrackRule(ANY)),))
    start = Position(((), (1, 2), (3,)))
    everything = GoalPattern.all_positions(spec)
    message = "alternative has 2 tracks, spec has 3"
    with pytest.raises(FormatError, match=message):
        matching_codes(spec, short, "the pattern")
    with pytest.raises(FormatError, match=message):
        optimal_solve(spec, start, short)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(search, "_bfs_levels", no_sweep)
    for starts, goal in ((short, everything), (everything, short)):
        with pytest.raises(FormatError, match=message):
            worst_case_moves(spec, starts, goal)


# --- worst case -------------------------------------------------------------

def test_worst_case_matches_naive_eccentricity():
    spec = PuzzleSpec(3, 2, (2, 2))
    goal = Position(((), (1, 2), (3,)))
    dist = naive_distances(spec, goal)
    assert len(dist) == len(all_positions(spec))  # connected
    expect = max(dist.values())
    report = worst_case_moves(spec, GoalPattern.all_positions(spec),
                              GoalPattern.exact_position(goal))
    assert report.distance == expect
    assert dist[report.start] == expect


def test_worst_case_restricted_starts():
    spec = PuzzleSpec(3, 2, (2, 2))
    goal = Position(((), (1, 2), (3,)))
    dist = naive_distances(spec, goal)
    starts = parse_pattern(spec, "H = []")
    report = worst_case_moves(spec, starts, GoalPattern.exact_position(goal))
    expect = max(d for p, d in dist.items() if not p.headshunt)
    assert report.distance == expect
    assert not report.start.headshunt


def test_worst_case_unreachable_start_reported():
    spec = PuzzleSpec(2, 5, (5,))  # disconnected graph
    goal = Position(((), (1, 2)))
    report = worst_case_moves(spec, GoalPattern.all_positions(spec),
                              GoalPattern.exact_position(goal))
    assert report.distance is None
    # the witness is the first start, in enumeration order, that cannot
    # reach the goal
    dist = naive_distances(spec, goal)
    codec = position_codec(spec)
    starts = [Position(codec.decode(code)) for code in
              matching_codes(spec, GoalPattern.all_positions(spec), "the start pattern")]
    assert report.start == next(p for p in starts if p not in dist)


@st.composite
def _specs_with_start_and_goal_patterns(draw):
    # a single goal position and every start, half of the time each, so that
    # disconnected specs show unreached starts
    spec, goal = draw(specs_with_patterns())
    if draw(st.booleans()):
        goal = GoalPattern.exact_position(draw(positions(spec)))
    starts = draw(st.one_of(patterns(spec), st.just(GoalPattern.all_positions(spec))))
    return spec, starts, goal


_ONE_SIDING = PuzzleSpec(2, 2, (2,))  # disconnected: the order never changes


@given(_specs_with_start_and_goal_patterns())
@example((_ONE_SIDING, GoalPattern.all_positions(_ONE_SIDING),
          GoalPattern.exact_position(Position(((), (1, 2))))))
@example((_ONE_SIDING, parse_pattern(_ONE_SIDING, "H = [2]\nS1 = [1,2]"),
          parse_pattern(_ONE_SIDING, "H = []")))
@settings(max_examples=150, deadline=None)
def test_worst_case_matches_naive_sweep(case):
    # distance, witness, explored count and the first unreached start, on
    # connected and disconnected specs alike
    spec, starts, goal = case
    try:
        distance, start, explored, unreached = naive_worst(spec, starts, goal)
    except UnsatisfiablePatternError as exc:
        with pytest.raises(UnsatisfiablePatternError) as err:
            worst_case_moves(spec, starts, goal)
        assert str(err.value) == str(exc)
        return
    report = worst_case_moves(spec, starts, goal)
    if unreached is not None:
        assert (report.distance, report.start, report.explored) == (None, unreached, explored)
    else:
        assert (report.distance, report.start, report.explored) == (distance, start, explored)


def test_worst_case_witness_is_first_in_move_order_not_the_smallest_code():
    # nine starts with an empty headshunt need the worst 10 moves; a
    # level-order search from the goal meets S2:[2,3]|S3:[1] first among
    # them, while S2:[1,3]|S3:[2] has the smallest code
    spec = PuzzleSpec(3, 1, (2, 2, 2))
    goal = GoalPattern.exact_position(parse_position(spec, "H:[]|S1:[]|S2:[1]|S3:[2,3]"))
    starts = parse_pattern(spec, "H = []")
    report = worst_case_moves(spec, starts, goal)
    assert report.distance == 10
    assert report.start == parse_position(spec, "H:[]|S1:[]|S2:[2,3]|S3:[1]")
    assert naive_worst(spec, starts, goal)[:3] == (10, report.start, report.explored)
    dist = naive_distances(spec, parse_position(spec, "H:[]|S1:[]|S2:[1]|S3:[2,3]"))
    codec = position_codec(spec)
    deepest = sorted(codec.encode(p.tracks) for p, d in dist.items() if d == 10 and not p.headshunt)
    assert len(deepest) == 9
    assert Position(codec.decode(deepest[0])) == parse_position(spec, "H:[]|S1:[]|S2:[1,3]|S3:[2]")


def test_worst_case_unsatisfiable_start_is_refused():
    for spec in (PuzzleSpec(2, 5, (5,)), PuzzleSpec(2, 1, (2, 1))):  # disconnected, connected
        with pytest.raises(UnsatisfiablePatternError,
                           match="no valid position matches the start pattern"):
            worst_case_moves(spec, parse_pattern(spec, "H = [1]; S1 = [1]"),
                             parse_pattern(spec, "S1 = [1,2]"))


# --- card analyses ----------------------------------------------------------

def test_census_fixtures():
    assert cards_component_census(CardsSpec(1, (1, 1))).components == 1
    assert cards_component_census(CardsSpec(2, (2, 2))).components > 1
    assert cards_component_census(CardsSpec(4, (3, 3, 1))).components == 1


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_census_matches_union_find(seed):
    rng = random.Random(seed)
    npiles = rng.randint(2, 3)
    m = tuple(rng.randint(1, 3) for _ in range(npiles))
    w = rng.randint(1, min(4, sum(m)))
    spec = CardsSpec(w, m)
    components = naive_cards_components(spec)
    assert cards_component_census(spec).components == components
    if components > 1:
        with pytest.raises(DisconnectedGraphError) as err:
            cards_diameter(spec)
        assert err.value.census.components == components


def test_census_sizes_sum_to_state_count():
    spec = CardsSpec(3, (2, 2))
    report = cards_component_census(spec)
    assert sum(report.sizes) == report.states == count_states(spec)
    assert report.sizes == tuple(sorted(report.sizes, reverse=True))


@pytest.mark.parametrize("w,expect", [(2, 3), (3, 8), (4, 13), (5, 20), (6, 27), (7, 36)])
def test_two_wide_pile_family_diameters(w, expect):
    # frozen values, originally computed by this exhaustive search and
    # cross-checked against the quadratic lower bound (w*w+2)//4; each is
    # floor((w*w + 4w - 5) / 2), the closed form README conjectures, and
    # w = 6 and 7 are past the fork threshold
    spec = CardsSpec(w, (w - 1, w - 1, 1))
    d = cards_diameter(spec)
    assert d == expect == (w * w + 4 * w - 5) // 2
    assert d >= (w * w + 2) // 4
    assert d <= w * w + 6 * w - 6


def test_single_card_diameter_is_one():
    assert cards_diameter(CardsSpec(1, (1, 1, 1))) == 1


def test_diameter_rejects_disconnected_with_census():
    with pytest.raises(DisconnectedGraphError) as err:
        cards_diameter(CardsSpec(2, (2, 2)))
    assert err.value.census.components == 2


@given(cards_specs(max_w=4, max_piles=3, max_cap=3)
       .filter(lambda spec: cards_connected(spec).solvable))
@example(CardsSpec(3, (2, 2, 1)))
@settings(max_examples=25, deadline=None)
def test_diameter_matches_naive_bfs_small(spec):
    # all-pairs through the naive route; the kernel searches one start per
    # pile-size composition and relies on card renaming being an automorphism
    naive = max(max(naive_card_distances(spec, src).values())
                for src in all_card_states(spec))
    assert cards_diameter(spec) == naive


def test_diameter_budget_counts_one_search_per_composition():
    # 9 compositions in 5 orbits of pile swaps, times 1,080 states, is
    # 5,400; the squared state count, 1,166,400, would be refused
    assert cards_diameter(CardsSpec(5, (4, 4, 1)), budget=5400) == 20
    with pytest.raises(BudgetExceededError) as err:
        cards_diameter(CardsSpec(5, (4, 4, 1)), budget=5399)
    assert err.value.estimate == 5400
    # one search's states are checked first, so a plan past the budget is
    # refused before its orbits are listed or its move table is built
    with pytest.raises(BudgetExceededError, match="one diameter search") as err:
        cards_diameter(CardsSpec(5, (4, 4, 1)), budget=1079)
    assert err.value.estimate == 1080
    with pytest.raises(BudgetExceededError):
        cards_diameter(CardsSpec(256, (255, 255, 1)))


# --- census and eccentricities, on either move rule --------------------------

def _naive_sizes(states, reach) -> tuple[int, ...]:
    """Component sizes, descending, by naive reachability from each state
    that no earlier one reached."""
    left, sizes = set(states), []
    for state in states:
        if state in left:
            found = reach(state)
            left.difference_update(found)
            sizes.append(len(found))
    return tuple(sorted(sizes, reverse=True))


def _check_census_and_eccentricities(ranks, states, decode, reach):
    # the census against repeated naive reachability; on a connected graph
    # each mask's eccentricity against the naive farthest state from its
    # rank 0, and on a disconnected one the first sweep's census
    total = len(states)
    census = _census(ranks, _depth_map(ranks), [], total)
    assert census.states == total
    assert census.sizes == _naive_sizes(states, reach)
    if census.components == 1:
        want = [max(reach(decode(ranks.code(occ, 0))).values()) for occ in ranks]
        assert list(_eccentricities(ranks, ranks, total)) == want
    else:
        with pytest.raises(DisconnectedGraphError) as err:
            list(_eccentricities(ranks, ranks, total))
        assert err.value.census == census
    return census


@given(puzzle_specs(max_w=4, max_h=2, max_s=3, max_cap=2))
@example(PuzzleSpec(4, 2, (2, 2, 1)))  # connected, equal sidings
@example(PuzzleSpec(4, 2, (2, 2)))  # below the threshold, equal sidings
@settings(max_examples=30, deadline=None)
def test_shunt_census_and_eccentricities_match_naive(spec):
    codec = position_codec(spec)
    _check_census_and_eccentricities(
        _RankMoves(_shunt_moves(spec)), all_positions(spec),
        lambda code: Position(codec.decode(code)), lambda p: naive_distances(spec, p))


@given(cards_specs(max_w=4, max_piles=3, max_cap=3))
@example(CardsSpec(3, (2, 2, 2)))  # connected, equal piles
@example(CardsSpec(3, (3, 3)))  # below the threshold, equal piles
@settings(max_examples=30, deadline=None)
def test_card_census_and_eccentricities_match_naive(spec):
    codec = state_codec(spec)
    census = _check_census_and_eccentricities(
        _RankMoves(_card_moves(spec)), all_card_states(spec),
        lambda code: CardsState(codec.decode(code)), lambda s: naive_card_distances(spec, s))
    assert census.components == naive_cards_components(spec)


def test_shunt_eccentricities_on_the_zero_slack_plan():
    spec = PuzzleSpec(5, 2, (2, 2, 2))
    ranks = _RankMoves(_shunt_moves(spec))
    assert max(_eccentricities(ranks, ranks, count_positions(spec))) == 16


def _swap_orbit_firsts(caps, front_open, w) -> list[int]:
    """For each composition of w over tracks of `caps`, in `_track_lengths`
    order, the index of the first composition of its orbit under swaps of
    two tracks of one capacity and one open end, closed swap by swap."""
    comps = list(_track_lengths(caps, w))
    index = {lens: i for i, lens in enumerate(comps)}
    swaps = [(i, j) for i, j in itertools.combinations(range(len(caps)), 2)
             if (caps[i], front_open[i]) == (caps[j], front_open[j])]
    firsts = []
    for lens in comps:
        orbit, todo = {lens}, [lens]
        while todo:
            cur = todo.pop()
            for i, j in swaps:
                swapped = list(cur)
                swapped[i], swapped[j] = cur[j], cur[i]
                swapped = tuple(swapped)
                if swapped not in orbit:
                    orbit.add(swapped)
                    todo.append(swapped)
        firsts.append(min(map(index.__getitem__, orbit)))
    return firsts


@given(st.one_of(
    puzzle_specs(max_w=5, max_h=3, max_s=3, max_cap=3).filter(lambda p: inglenook_solvable(p).solvable),
    cards_specs(max_w=5, max_piles=4, max_cap=3).filter(lambda c: cards_connected(c).solvable)))
@example(PuzzleSpec(5, 2, (2, 2, 2)))  # the headshunt as long as the sidings
@example(PuzzleSpec(4, 3, (3, 3, 3)))
@example(CardsSpec(3, (2, 2, 2)))
@settings(max_examples=60, deadline=None)
def test_eccentricity_is_constant_on_each_orbit_of_track_swaps(spec):
    # swapping two tracks of one capacity and one open end maps the graph
    # onto itself; the headshunt, open at its back, never swaps with a
    # siding, open at its front, even at the same capacity
    if isinstance(spec, PuzzleSpec):
        moves, total = _shunt_moves(spec), count_positions(spec)
    else:
        moves, total = _card_moves(spec), count_states(spec)
    ranks = _RankMoves(moves)
    occs, ecc = list(ranks), list(_eccentricities(ranks, ranks, total))
    firsts = _swap_orbit_firsts(moves.codec.caps, moves.front_open, moves.w)
    assert [ecc[i] for i in firsts] == ecc
    # the diameter sweeps from the first mask of each orbit alone
    assert _orbit_firsts(moves) == [occs[i] for i in sorted(set(firsts))]


@pytest.mark.parametrize("spec,sweeps,diameter", [
    (CardsSpec(3, (3, 3)), 6, None),  # 6 components of 4 states
    (CardsSpec(6, (5, 5, 1)), 6, 27),  # 11 compositions in 6 orbits
    (CardsSpec(7, (6, 6, 1)), 7, 36),  # 13 compositions in 7 orbits
])
def test_diameter_builds_once_and_sweeps_each_composition_or_component(
        call_log, spec, sweeps, diameter):
    # a disconnected graph's census goes on from the diameter's first sweep,
    # on the same rank tables; the two connected passes are past the fork
    # threshold, and the log counts the workers' sweeps too
    calls = call_log(search, _RankMoves="build", _bfs_levels="sweep")
    if diameter is None:
        with pytest.raises(DisconnectedGraphError) as err:
            cards_diameter(spec)
        assert err.value.census.sizes == (4,) * 6
    else:
        assert cards_diameter(spec) == diameter
    assert calls() == ["build"] + ["sweep"] * sweeps


# --- the orbit pass across forked workers -------------------------------------

@pytest.fixture
def forked(monkeypatch):
    """Fork past every pass size, list the masks dealt to each worker, and
    check after the test that no child process is left."""
    monkeypatch.setattr(search, "_FORK_MIN_STATES", 0)
    fork_sweeps, shares = search._fork_sweeps, []

    def forking(ranks, occs):
        shares.append(occs)
        return fork_sweeps(ranks, occs)

    monkeypatch.setattr(search, "_fork_sweeps", forking)
    yield shares
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pass_outcome(spec: CardsSpec, threshold):
    """The eccentricities of every mask, or the census of a disconnected
    graph, with the fork threshold at `threshold` and three CPUs, so that
    two workers share the pass."""
    ranks = _RankMoves(_card_moves(spec))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_FORK_MIN_STATES", threshold)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        try:
            return _eccentricities(ranks, ranks, count_states(spec))
        except DisconnectedGraphError as err:
            return err.census


@given(cards_specs(max_w=4, max_piles=3, max_cap=3))
@example(CardsSpec(3, (2, 2, 2)))  # connected, 10 masks over three processes
@example(CardsSpec(3, (3, 3)))  # 6 components
@settings(max_examples=30, deadline=None)
def test_forked_pass_matches_the_serial_pass(spec):
    assert _pass_outcome(spec, 0) == _pass_outcome(spec, math.inf)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("spec", [CardsSpec(3, (3, 3)), CardsSpec(4, (2, 2, 1))])
def test_forked_pass_on_a_disconnected_graph_raises_the_serial_census(forked, spec):
    with pytest.raises(DisconnectedGraphError) as err:
        cards_diameter(spec)
    assert forked
    assert err.value.census == cards_component_census(spec)


def test_a_worker_that_dies_is_an_internal_error(forked, monkeypatch):
    parent, bfs_levels = os.getpid(), search._bfs_levels

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return bfs_levels(*args)

    monkeypatch.setattr(search, "_bfs_levels", dying)
    with pytest.raises(InternalCheckError, match="^a sweep worker exited with status 3$"):
        cards_diameter(CardsSpec(5, (4, 4, 1)))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert run(["diameter", "--cards", "5", "--piles", "4 4 1"]) == 4
    assert err.getvalue() == "error: a sweep worker exited with status 3\n"
    assert len(forked) == 2


def test_a_worker_sweep_that_misses_states_is_an_internal_error(forked, monkeypatch):
    parent, bfs_levels = os.getpid(), search._bfs_levels
    monkeypatch.setattr(search, "_bfs_levels", lambda *args: (
        bfs_levels(*args) if os.getpid() == parent else [1]))
    with pytest.raises(InternalCheckError, match="sweeps must each reach 1080 states"):
        cards_diameter(CardsSpec(5, (4, 4, 1)))


def test_no_fork_means_one_process(forked, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _processes(5) == 1
    assert cards_diameter(CardsSpec(5, (4, 4, 1))) == 20
    assert forked == []


def test_one_cpu_means_one_process(forked, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _processes(5) == 1
    assert cards_diameter(CardsSpec(5, (4, 4, 1))) == 20
    assert forked == []


def test_another_thread_means_one_process(forked):
    # a fork copies only the calling thread, so a worker could wait forever
    # on a lock another thread held
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert _processes(5) == 1
        assert cards_diameter(CardsSpec(5, (4, 4, 1))) == 20
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forked == []


def test_cpu_count_stands_in_for_a_missing_affinity(forked, monkeypatch):
    # 5 orbits over three processes: this one sweeps orbits 0 and 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [_processes(n) for n in (1, 2, 5)] == [1, 2, 3]
    spec = CardsSpec(5, (4, 4, 1))
    assert cards_diameter(spec) == 20
    occs = _orbit_firsts(_card_moves(spec))
    assert forked == [[occs[1], occs[4]], [occs[2]]]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _processes(5) == 1


def test_cards_distance_small():
    spec = CardsSpec(2, (1, 1, 1))
    a = CardsState(((1,), (2,), ()))
    b = CardsState(((2,), (1,), ()))
    assert cards_distance(spec, a, b) == 3
    assert cards_distance(spec, a, a) == 0


def test_card_labels_outside_one_to_w_are_refused():
    # the slot codec reads 0 as an empty slot and holds labels up to 255
    spec = CardsSpec(3, (2, 2, 1))
    for label in (0, 300):
        start = CardsState(((1, label), (2,), ()))
        goal = CardsState(((label, 1), (2,), ()))
        with pytest.raises(InvalidStateError, match=r"cards 1\.\.3 exactly once"):
            cards_distance(spec, start, goal)
        with pytest.raises(InvalidStateError, match=r"cards 1\.\.3 exactly once"):
            solve_cards(spec, start, goal)
    assert cards_distance(spec, CardsState(((1, 3), (2,), ())), CardsState(((3, 1), (2,), ()))) == 4


@st.composite
def _cards_specs_with_state_pairs(draw):
    spec = draw(cards_specs(max_w=4))
    return spec, draw(card_states(spec)), draw(card_states(spec))


@given(_cards_specs_with_state_pairs())
@example((CardsSpec(2, (2, 2)), CardsState(((1, 2), ())), CardsState(((2, 1), ()))))
@settings(max_examples=60, deadline=None)
def test_cards_distance_matches_naive_bfs(case):
    # the example lies in a disconnected graph: its goal is unreachable
    spec, start, goal = case
    assert cards_distance(spec, start, goal) == naive_card_distances(spec, start).get(goal)


@st.composite
def _renamed_pairs(draw):
    """A small shunt or card spec of at least three wagons or cards, a
    state, and that state renamed: one goal with the start's track lengths.
    Renamings of one or two items are their own inverses."""
    if draw(st.booleans()):
        spec = draw(puzzle_specs(max_w=5, max_h=2, max_s=3, max_cap=2).filter(lambda p: p.w >= 3))
        start = draw(positions(spec))
        tracks = start.tracks
    else:
        spec = draw(cards_specs(max_w=5).filter(lambda c: c.w >= 3))
        start = draw(card_states(spec))
        tracks = start.piles
    name = draw(st.permutations(range(1, spec.w + 1)))
    return spec, start, type(start)(tuple(tuple(name[x - 1] for x in t) for t in tracks))


@given(_renamed_pairs())
@example((PuzzleSpec(2, 5, (5,)), Position(((1, 2), ())), Position(((2, 1), ()))))
@example((CardsSpec(2, (2, 2)), CardsState(((1, 2), ())), CardsState(((2, 1), ()))))
@example((SMALL, Position(((), (1, 2), (3, 4), ())), Position(((), (1, 2), (3, 4), ()))))
@example((SMALL, Position(((), (1, 2), (3, 4), ())), Position(((), (2, 3), (1, 4), ()))))
@settings(max_examples=80, deadline=None)
def test_renamed_goal_layers_and_explored_match_the_oracles(case):
    # the goal side is the start side renamed; the examples are two
    # unreachable goals, a goal equal to the start and a three-cycle
    spec, start, goal = case
    if isinstance(spec, PuzzleSpec):
        moves, codec, naive, tracks = (_shunt_moves(spec), position_codec(spec),
                                       naive_distances, lambda p: p.tracks)
    else:
        moves, codec, naive, tracks = (_card_moves(spec), state_codec(spec),
                                       naive_card_distances, lambda t: t.piles)
    from_start, from_goal = naive(spec, start), naive(spec, goal)
    want = naive_shortest_layers(from_start, from_goal)
    first, dst = codec.encode(tracks(start)), codec.encode(tracks(goal))
    layers, explored = _shortest_layers(moves, first, dst.__eq__, iter([dst]))
    assert explored == naive_explored(from_start, from_goal)
    if want is None:
        assert layers is None
    else:
        assert [_codes(moves, layer) for layer in layers] == [
            {codec.encode(tracks(x)) for x in layer} for layer in want]
    distance = None if want is None else len(want) - 1
    if isinstance(spec, PuzzleSpec):
        report = optimal_solve(spec, start, GoalPattern.exact_position(goal))
        assert (report.distance, report.explored) == (distance, explored)
    else:
        assert cards_distance(spec, start, goal) == distance


@pytest.mark.parametrize("w,expect", [(2, 6), (3, 14), (4, 26), (5, 36), (6, 54), (7, 68),
                                      (8, 90)])
def test_reversal_distances(w, expect):
    # frozen values; reversal_distance itself asserts the two-for-one
    # relation with the card search and the quadratic lower bound
    assert reversal_distance(w) == expect
    assert expect >= (w * w) // 2


# --- the displacement metric ------------------------------------------------

def test_displacement_identity_and_symmetry():
    assert ordering_displacement((1, 2, 3), (1, 2, 3)) == 0
    assert ordering_displacement((1, 2, 3), (3, 2, 1)) == 4
    assert ordering_displacement((1, 2, 3), (2, 1, 3)) == 2


@given(st.permutations(list(range(8))), st.permutations(list(range(8))),
       st.permutations(list(range(8))))
@settings(max_examples=200)
def test_displacement_triangle_inequality(a, b, c):
    ab = ordering_displacement(a, b)
    bc = ordering_displacement(b, c)
    ac = ordering_displacement(a, c)
    assert ac <= ab + bc
    assert ab == ordering_displacement(b, a)


@given(st.data())
@settings(max_examples=200)
def test_displacement_single_relocation_identity(data):
    # moving one item from slot u to slot v shifts v-u items by one and the
    # moved item by v-u, for a total displacement of 2(v-u)
    n = data.draw(st.integers(2, 9))
    items = list(range(n))
    u = data.draw(st.integers(0, n - 2))
    v = data.draw(st.integers(u + 1, n - 1))
    moved = items[:u] + items[u + 1 : v + 1] + [items[u]] + items[v + 1 :]
    assert ordering_displacement(items, moved) == 2 * (v - u)


def test_reversal_ordering_displacement_matches_closed_form():
    for w in range(2, 9):
        xs = tuple(range(1, w + 1))
        total = ordering_displacement(xs, tuple(reversed(xs)))
        assert total == sum(abs(w + 1 - 2 * i) for i in range(1, w + 1))
        assert total == (w * w) // 2
        assert total >= (w * w - 1) // 2


# --- move table -------------------------------------------------------------

def _codes(moves, states) -> set[int]:
    """The codes of some place states of `moves`."""
    return {moves.code(*state) for state in states}


def _child_codes(moves, code: int) -> list[int]:
    """The codes of the children of `code`, in table order."""
    return [moves.code(*state) for state in moves.children(moves.state(code))]


@given(specs_with_positions())
@settings(max_examples=200, deadline=None)
def test_shunt_table_matches_reference_rule_in_order(case):
    # `children` translates p's places by its mask's place-table entry, which
    # is built from one state of that mask; `_child_codes` reads them as codes
    spec, p = case
    codec = position_codec(spec)
    want = [codec.encode(apply_move(spec, p, mv).tracks) for mv in legal_moves(spec, p)]
    code = codec.encode(p.tracks)
    assert _child_codes(_shunt_moves(spec), code) == want
    # pushes first lists p's predecessors by the forward move into p, the
    # inverse of a legal move at p, in (siding, pull before push, count) order
    inverse_forward = sorted(legal_moves(spec, p),
                             key=lambda mv: (mv.siding, mv.direction == PULL, mv.count))
    want = [codec.encode(apply_move(spec, p, mv).tracks) for mv in inverse_forward]
    assert _child_codes(_shunt_moves(spec, pushes_first=True), code) == want


@given(_cards_specs_with_state_pairs())
@settings(max_examples=200, deadline=None)
def test_card_table_matches_reference_rule_in_order(case):
    spec, state, _other = case
    codec = state_codec(spec)
    want = [codec.encode(t.piles) for t in card_neighbors(spec, state)]
    code = codec.encode(state.piles)
    assert _child_codes(_card_moves(spec), code) == want


def _check_child_masks(moves):
    # each entry's child masks, in table order, are the masks of the track
    # lengths that each (source, destination, block size) move leaves
    codec = moves.codec
    for lens in _track_lengths(codec.caps, moves.w):
        want = []
        for src, dst in moves.pairs:
            for k in range(1, min(lens[src], codec.caps[dst] - lens[dst], moves.max_block) + 1):
                child = list(lens)
                child[src] -= k
                child[dst] += k
                want.append(_mask(codec, child))
        assert [child for child, _t in moves[_mask(codec, lens)]] == want


@given(puzzle_specs(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_shunt_child_masks_are_the_masks_of_the_child_lengths(spec, pushes_first):
    _check_child_masks(_shunt_moves(spec, pushes_first=pushes_first))


@given(cards_specs())
@settings(max_examples=100, deadline=None)
def test_card_child_masks_are_the_masks_of_the_child_lengths(spec):
    _check_child_masks(_card_moves(spec))


@pytest.mark.parametrize("w", range(1, 6))
def test_rank_table_is_the_naive_table_for_every_permutation(w):
    # one memo for all of S_w, as one `_RankMoves` build shares it
    ints, gathers = list(range(math.factorial(w))), {}
    for t in map(bytes, itertools.permutations(range(w))):
        table = [None] * len(ints)
        _rank_table(table, t, ints, gathers)
        assert table == naive_rank_table(t)


def _check_rank_moves(moves):
    # every mask's entry, in table order: the move table's child masks, each
    # with the naive rank table of its translate table, one T per translate
    # table, and only the int objects of `rank` in any T
    ranks = _RankMoves(moves)
    assert list(ranks) == _occupancies(moves.codec, moves.w)
    shared, first = set(map(id, ranks.rank.values())), {}
    for occ, entry in ranks.items():
        assert [child for child, _table in entry] == [child for child, _t in moves[occ]]
        for (_, table), (_, t) in zip(entry, moves[occ]):
            if t not in first:
                first[t] = table
                assert table == naive_rank_table(t[:moves.w])
                assert shared.issuperset(map(id, table))
            assert table is first[t]


@given(puzzle_specs())
@settings(max_examples=60, deadline=None)
def test_shunt_rank_tables_are_the_naive_tables_in_order(spec):
    _check_rank_moves(_shunt_moves(spec))


@given(cards_specs())
@settings(max_examples=60, deadline=None)
def test_card_rank_tables_are_the_naive_tables_in_order(spec):
    _check_rank_moves(_card_moves(spec))


def _spheres(moves, code: int) -> list[set[int]]:
    """The levels `_next_level` grows from one code, as sets of codes; the
    depth map it fills must put each state at its level."""
    level = _level(moves, [code])
    depth = {occ: dict.fromkeys(group, 0) for occ, group in level.items()}
    spheres = []
    while level:
        spheres.append(_codes(moves, ((occ, x) for occ, group in level.items() for x in group)))
        level, hits = _next_level(moves, level, depth, len(spheres), _depths({}))
        assert hits == {}
    assert {moves.code(occ, places): j for occ, known in depth.items()
            for places, j in known.items()} == {
        c: j for j, sphere in enumerate(spheres) for c in sphere}
    return spheres


def _naive_spheres(dist: dict, encode) -> list[set[int]]:
    spheres = [set() for _ in range(max(dist.values()) + 1)]
    for state, d in dist.items():
        spheres[d].add(encode(state))
    return spheres


@given(specs_with_positions(max_w=5, max_h=3, max_s=3, max_cap=3))
@settings(max_examples=80, deadline=None)
def test_shunt_levels_are_the_naive_distance_spheres(case):
    spec, p = case
    codec = position_codec(spec)
    want = _naive_spheres(naive_distances(spec, p), lambda q: codec.encode(q.tracks))
    assert _spheres(_shunt_moves(spec), codec.encode(p.tracks)) == want


@given(_cards_specs_with_state_pairs())
@settings(max_examples=80, deadline=None)
def test_card_levels_are_the_naive_distance_spheres(case):
    spec, state, _other = case
    codec = state_codec(spec)
    want = _naive_spheres(naive_card_distances(spec, state), lambda t: codec.encode(t.piles))
    assert _spheres(_card_moves(spec), codec.encode(state.piles)) == want


def test_occupancy_mask_with_labels_past_the_slot_high_bit():
    # 8-bit slots hold labels up to 255, so labels from 128 on set the
    # slot's high bit themselves
    spec = PuzzleSpec(200, 1, (200,))
    codec = position_codec(spec)
    moves = _shunt_moves(spec)
    for p in (Position(((), tuple(range(200, 0, -1)))),
              Position(((128,), tuple(range(200, 128, -1)) + tuple(range(127, 0, -1))))):
        code = codec.encode(p.tracks)
        occupancy = (((code & moves.low) + moves.low) | code) & moves.high
        assert occupancy == codec.encode(tuple((128,) * len(t) for t in p.tracks))
        want = [codec.encode(apply_move(spec, p, mv).tracks) for mv in legal_moves(spec, p)]
        assert _child_codes(moves, code) == want


def test_search_checks_are_not_asserts():
    # `python -O` strips assert statements; the library's checks must stay
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "inglenook").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_no_private_top_level_name_goes_unreferenced():
    # a private function, class or constant that no module of the package
    # references is dead code, or an entry point only the tests call
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in
             sorted((Path(__file__).resolve().parent.parent / "src" / "inglenook").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                tops = [node.name]
            elif isinstance(node, ast.Assign):
                tops = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                continue
            unreferenced += [f"{name}:{top}" for top in tops
                             if top.startswith("_") and not top.startswith("__") and top not in used]
    assert unreferenced == []


def test_no_module_level_import_goes_unused():
    # a name a module imports at its top level and never reads is dead; the
    # package's __init__.py is left out, since its imports are the API
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "tests").glob("*.py")) + sorted(
        path for path in (root / "src" / "inglenook").glob("*.py") if path.name != "__init__.py")
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}:{node.lineno}:{bound}" for bound in
                           ((alias.asname or alias.name.split(".")[0]) for alias in node.names)
                           if bound not in read]
    assert unused == []


def test_renaming_check_survives_python_O():
    # `python -O` strips assert statements; a same-mask exact goal still
    # searches one side, and a renaming that misses the goal is refused
    script = (
        "from inglenook import GoalPattern, Position, PuzzleSpec, optimal_solve, search\n"
        "from inglenook.model import InternalCheckError\n"
        "assert False, 'assert statements must be stripped'\n"
        "spec = PuzzleSpec(4, 2, (2, 2, 1))\n"
        "start = Position(((), (1, 2), (3, 4), ()))\n"
        "goal = GoalPattern.exact_position(Position(((), (2, 3), (1, 4), ())))\n"
        "report = optimal_solve(spec, start, goal)\n"
        "print(report.distance, report.explored)\n"
        "search._renaming = lambda src, dst: iter\n"
        "try:\n"
        "    optimal_solve(spec, start, goal)\n"
        "except InternalCheckError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "7 66\nthe wagon renaming must take the start to the goal\n"


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: TrackRule("bogus"), FormatError,
                 "unknown track rule kind 'bogus'", id="rule_kind"),
    pytest.param(lambda: GoalPattern(()), FormatError,
                 "a goal pattern needs at least one alternative", id="no_alternative"),
    pytest.param(lambda: parse_pattern(SMALL, "S1 = [1,2]; bogus"), FormatError,
                 "bad clause 'bogus' (line 1)", id="bad_clause"),
    pytest.param(lambda: parse_pattern(SMALL, "H = []\nS1 = 1,2"), FormatError,
                 "'=' needs [..] or *, got '1,2' (line 2)", id="exact_without_brackets"),
    pytest.param(lambda: parse_pattern(SMALL, "S1 ~ {}"), FormatError,
                 "'~' set must not be empty (line 1)", id="empty_set"),
    pytest.param(lambda: reversal_distance(1), InglenookError,
                 "reversal needs at least two wagons", id="reversal_of_one"),
    pytest.param(lambda: ordering_displacement((1, 2), (1, 3)), InglenookError,
                 "orderings must list the same distinct items", id="displacement_items"),
])
def test_search_refusals_name_their_rule(make, error, message):
    refused(make, error, message)


def test_an_empty_clause_between_semicolons_is_skipped():
    assert (parse_pattern(SMALL, "S1 = [1,2];; S2 ~ {3,4}")
            == parse_pattern(SMALL, "S1 = [1,2]; S2 ~ {3,4}"))
