"""Search behaviour on small instances: exactness against a naive oracle,
pattern machinery, deterministic tie-breaks, censuses, and diameters.

The classic-plan fixtures (17/18/20-move searches and full sweeps) live in
the acceptance suite; everything here runs in seconds.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inglenook import (
    CardsSpec,
    CardsState,
    Position,
    PuzzleSpec,
    UnsatisfiablePatternError,
    apply_move,
    canonical_encoding,
    cards_component_census,
    cards_connected,
    cards_diameter,
    cards_distance,
    count_positions,
    count_states,
    iter_matching_positions,
    legal_moves,
    optimal_solve,
    ordering_displacement,
    parse_pattern,
    parse_position,
    replay,
    reversal_distance,
    solve_inglenook,
    worst_case_moves,
)
from inglenook.search import (
    BudgetExceededError,
    DisconnectedGraphError,
    GoalPattern,
    TrackRule,
    pattern_conflicts,
)

from conftest import (
    all_card_states,
    all_positions,
    card_states,
    cards_specs,
    naive_card_distances,
    naive_cards_components,
    naive_distances,
    positions,
    puzzle_specs,
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
    target = max(dist, key=lambda p: (dist[p], canonical_encoding(spec, p)))
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
    reachable = sorted(dist, key=lambda p: canonical_encoding(spec, p))[:3]
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
    matches = list(iter_matching_positions(SMALL, pattern))
    # S1 holds {1,2} in some order, S3 is exactly (3), wagon 4 goes anywhere
    # with space outside the headshunt (H pinned empty): S2 has 2 slots
    assert all(pattern.matches(SMALL, p) for p in matches)
    assert len(matches) == 2 * 1 * 1  # two orders of S1, wagon 4 must fill S2
    seen = {canonical_encoding(SMALL, p) for p in matches}
    assert len(seen) == len(matches)


def test_pattern_enumeration_handles_alternatives_without_duplicates():
    pattern = parse_pattern(SMALL, "H = *\n*")
    everything = list(iter_matching_positions(SMALL, pattern))
    assert len(everything) == count_positions(SMALL)


def test_pattern_conflicts_report():
    pattern = parse_pattern(SMALL, "S3 = [1,2]")
    assert any("capacity" in c for c in pattern_conflicts(SMALL, pattern))
    pattern = parse_pattern(SMALL, "S1 = [1,2]; S2 ~ {2,3}")
    assert any("pinned to two tracks" in c for c in pattern_conflicts(SMALL, pattern))
    pattern = parse_pattern(SMALL, "H = []; S1 = []; S2 = []; S3 = [1]")
    assert any("free capacity" in c for c in pattern_conflicts(SMALL, pattern))


def test_parse_pattern_errors():
    from inglenook import FormatError

    for clause in ("S9 = [1]", "S0 = [1]", "S00 = [1]"):
        with pytest.raises(FormatError, match="no track S"):
            parse_pattern(SMALL, clause)
    with pytest.raises(FormatError):
        parse_pattern(SMALL, "S1 ~ [1,2]")
    with pytest.raises(FormatError):
        parse_pattern(SMALL, "S1 = [1]; S1 = [2]")
    with pytest.raises(FormatError):
        parse_pattern(SMALL, "")


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
    assert report.start is not None


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
    assert cards_component_census(spec).components == naive_cards_components(spec)


def test_census_sizes_sum_to_state_count():
    spec = CardsSpec(3, (2, 2))
    report = cards_component_census(spec)
    assert sum(report.sizes) == report.states == count_states(spec)
    assert report.sizes == tuple(sorted(report.sizes, reverse=True))


@pytest.mark.parametrize("w,expect", [(2, 3), (3, 8), (4, 13), (5, 20)])
def test_two_wide_pile_family_diameters(w, expect):
    # frozen values, originally computed by this exhaustive search and
    # cross-checked against the quadratic lower bound (w*w+2)//4
    spec = CardsSpec(w, (w - 1, w - 1, 1))
    d = cards_diameter(spec)
    assert d == expect
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


def test_cards_distance_small():
    spec = CardsSpec(2, (1, 1, 1))
    a = CardsState(((1,), (2,), ()))
    b = CardsState(((2,), (1,), ()))
    assert cards_distance(spec, a, b) == 3
    assert cards_distance(spec, a, a) == 0


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


@pytest.mark.parametrize("w,expect", [(2, 6), (3, 14), (4, 26)])
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
