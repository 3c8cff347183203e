"""Feasibility decisions checked against exhaustive graph oracles."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from inglenook import (
    CardsSpec,
    InglenookError,
    GoalPattern,
    PuzzleSpec,
    cards_component_census,
    cards_connected,
    cards_spec,
    count_positions,
    count_states,
    immovable_bottom,
    inglenook_solvable,
    max_wagons,
    worst_case_moves,
)
from inglenook.feasibility import (
    BRANCH_INEQUALITY_FAIL,
    BRANCH_INEQUALITY_PASS,
    BRANCH_SINGLE_SIDING,
    BRANCH_SINGLE_WAGON,
    BRANCH_TINY_HEADSHUNT,
    inglenook_slack,
)

from conftest import (
    all_card_states,
    all_positions,
    card_neighbors,
    naive_cards_components,
    naive_distances,
    puzzle_specs,
    refused,
)


@pytest.mark.parametrize(
    "spec,solvable,branch",
    [
        (PuzzleSpec(8, 3, (3, 3, 5)), True, BRANCH_INEQUALITY_PASS),
        (PuzzleSpec(9, 3, (3, 3, 5)), False, BRANCH_INEQUALITY_FAIL),
        (PuzzleSpec(12, 4, (4, 5, 6)), True, BRANCH_INEQUALITY_PASS),
        (PuzzleSpec(13, 4, (4, 5, 6)), False, BRANCH_INEQUALITY_FAIL),
        (PuzzleSpec(1, 1, (1,)), True, BRANCH_SINGLE_WAGON),
        (PuzzleSpec(1, 3, (3, 3, 5)), True, BRANCH_SINGLE_WAGON),
        (PuzzleSpec(2, 5, (5,)), False, BRANCH_SINGLE_SIDING),
        (PuzzleSpec(3, 1, (2, 2)), False, BRANCH_TINY_HEADSHUNT),
        # inequality holds but the two-siding one-wagon-headshunt case loses
        (PuzzleSpec(2, 1, (2, 2)), False, BRANCH_TINY_HEADSHUNT),
        # one siding behind a one-wagon headshunt, whose card form has one pile
        (PuzzleSpec(2, 1, (2,)), False, BRANCH_SINGLE_SIDING),
    ],
)
def test_inglenook_solvable_fixtures(spec, solvable, branch):
    verdict = inglenook_solvable(spec)
    assert verdict.solvable is solvable
    assert verdict.branch == branch


def test_the_verdict_is_the_card_pile_verdict_save_two_named_branches():
    # every plan with h 1..5 and 1-4 sidings of capacity 1..5, at every w:
    # the card-pile form decides, except that a one-wagon headshunt has no
    # pile, so one or two sidings behind it are named on their own; and
    # max_wagons is the largest w that the verdict calls solvable
    plans = 0
    for h in range(1, 6):
        for m in (m for s in range(1, 5) for m in itertools.product(range(1, 6), repeat=s)):
            best = 0
            for w in range(1, h + sum(m)):
                spec = PuzzleSpec(w, h, m)
                verdict, card = inglenook_solvable(spec), cards_connected(cards_spec(spec))
                assert verdict.slack == card.slack == inglenook_slack(spec), spec
                if w > 1 and h == 1 and len(m) <= 2:
                    named = BRANCH_SINGLE_SIDING if len(m) == 1 else BRANCH_TINY_HEADSHUNT
                    assert (verdict.solvable, verdict.branch) == (False, named), spec
                else:
                    assert verdict == card, spec
                best = w if verdict.solvable else best
                plans += 1
            assert max_wagons(h, m) == best, (h, m)
    assert plans == 51750


def test_classic_slack_is_zero():
    assert inglenook_solvable(PuzzleSpec(8, 3, (3, 3, 5))).slack == 0
    assert inglenook_solvable(PuzzleSpec(9, 3, (3, 3, 5))).slack == -1


@pytest.mark.parametrize(
    "spec,connected",
    [
        (CardsSpec(2, (2, 2)), False),
        (CardsSpec(1, (1, 1)), True),
        (CardsSpec(1, (3, 1)), True),
        (CardsSpec(8, (2, 3, 3, 5)), True),  # 13 >= 8 + 5
    ],
)
def test_cards_connected_fixtures(spec, connected):
    assert cards_connected(spec).solvable is connected


@pytest.mark.parametrize(
    "h,m,expect",
    [
        (3, (3, 3, 5), 8),
        (4, (4, 5, 6), 12),
        (1, (1, 1), 1),
        (5, (5,), 1),
    ],
)
def test_max_wagons(h, m, expect):
    assert max_wagons(h, m) == expect


@given(puzzle_specs(max_w=8, max_h=4, max_cap=4))
@settings(max_examples=300)
def test_max_wagons_agrees_with_the_verdict(spec):
    best = max_wagons(spec.h, spec.m)
    assert inglenook_solvable(PuzzleSpec(best, spec.h, spec.m)).solvable
    if best + 1 < spec.h + sum(spec.m):
        assert not inglenook_solvable(PuzzleSpec(best + 1, spec.h, spec.m)).solvable


@given(puzzle_specs(max_w=8, max_h=4, max_cap=4))
@settings(max_examples=300)
def test_solvability_is_monotone_in_wagon_count(spec):
    if spec.w >= 2 and inglenook_solvable(spec).solvable:
        assert inglenook_solvable(PuzzleSpec(spec.w - 1, spec.h, spec.m)).solvable


@given(puzzle_specs())
@settings(max_examples=200)
def test_slack_formula(spec):
    verdict = inglenook_solvable(spec)
    expected = (spec.h - 1 + sum(spec.m)) - (spec.w + max(spec.h - 1, *spec.m))
    assert verdict.slack == expected == inglenook_slack(spec)


def test_immovable_bottom_fixtures():
    assert immovable_bottom(CardsSpec(9, (2, 3, 3, 5)), 3) is True
    assert immovable_bottom(CardsSpec(8, (2, 3, 3, 5)), 3) is False
    assert immovable_bottom(CardsSpec(1, (1, 1)), 0) is False


@pytest.mark.parametrize(
    "spec", [CardsSpec(5, (1, 2, 2, 3)), CardsSpec(3, (1, 1, 3)), CardsSpec(4, (2, 1, 4))]
)
def test_immovable_bottom_matches_reachability(spec):
    # Immovable: every state reachable from a probe keeps the same bottom card.
    immovable_seen = False
    for j in range(len(spec.m)):
        predicted = immovable_bottom(spec, j)
        immovable_seen = immovable_seen or predicted
        moved = False
        for probe in all_card_states(spec):
            if not probe.piles[j]:
                continue
            bottom = probe.piles[j][0]
            seen = {probe}
            stack = [probe]
            while stack and not moved:
                state = stack.pop()
                if not state.piles[j] or state.piles[j][0] != bottom:
                    moved = True
                    break
                for nxt in card_neighbors(spec, state):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if moved:
                break
        assert predicted == (not moved)
    # at least one parametrised spec pins a pile for real
    if spec.m == (1, 1, 3):
        assert immovable_seen


# --- oracle equivalence grids (the 20,000-state grids are `slow`) -----------

def _cards_grid(max_w, max_piles, max_cap):
    for npiles in range(2, max_piles + 1):
        for m in itertools.product(range(1, max_cap + 1), repeat=npiles):
            for w in range(1, min(max_w, sum(m)) + 1):
                yield CardsSpec(w, m)


def test_cards_connected_matches_union_find_small_grid():
    checked = 0
    for spec in _cards_grid(4, 3, 2):
        assert cards_connected(spec).solvable == (naive_cards_components(spec) == 1), spec
        checked += 1
    assert checked > 40


def _natural_goal(spec: PuzzleSpec):
    # wagons fill sidings first, overflow to the headshunt: some siding is
    # occupied, so its buffer-stop wagon is fixed and the goal is natural
    tracks = [[] for _ in range(spec.s + 1)]
    caps = [spec.h] + list(spec.m)
    wagon = 1
    for i in list(range(1, spec.s + 1)) + [0]:
        while wagon <= spec.w and len(tracks[i]) < caps[i]:
            tracks[i].append(wagon)
            wagon += 1
    from inglenook import Position

    return Position(tuple(tuple(t) for t in tracks))


def test_inglenook_verdict_matches_reachability_small_grid():
    checked = 0
    for h in (1, 2):
        for s in (1, 2, 3):
            for m in itertools.product((1, 2), repeat=s):
                for w in range(1, min(4, h + sum(m) - 1) + 1):
                    spec = PuzzleSpec(w, h, m)
                    goal = _natural_goal(spec)
                    dist = naive_distances(spec, goal)
                    reach_all = len(dist) == len(all_positions(spec))
                    assert inglenook_solvable(spec).solvable == reach_all, spec
                    checked += 1
    assert checked > 50


def _grid_plans(limit: int):
    """h 1..5 and 1-4 sidings of non-decreasing capacities 1..4, then one
    plan with unsorted sidings, with every w whose positions number at
    most `limit`."""
    plans = [(h, m) for h in range(1, 6) for s in range(1, 5)
             for m in itertools.combinations_with_replacement(range(1, 5), s)]
    for h, m in plans + [(2, (3, 1, 2))]:
        for w in range(1, h + sum(m)):
            spec = PuzzleSpec(w, h, m)
            if count_positions(spec) <= limit:
                yield spec


def _check_grid(limit: int) -> tuple[int, int]:
    # a plan is connected exactly when one sweep from one position reaches
    # every position, which is when the worst start has a distance
    checked = boundary = 0
    for spec in _grid_plans(limit):
        goal = GoalPattern.exact_position(_natural_goal(spec))
        report = worst_case_moves(spec, GoalPattern.all_positions(spec), goal)
        verdict = inglenook_solvable(spec)
        assert verdict.solvable == (report.distance is not None), spec
        checked += 1
        boundary += verdict.solvable and verdict.slack == 0 and spec.w > 1
    return checked, boundary


def test_inglenook_verdict_matches_one_sweep_quick_grid():
    # 1,453 sorted plans, 77 of them zero-slack solvable with w > 1, and
    # five of the unsorted plan, one of them on the boundary
    assert _check_grid(2000) == (1458, 78)


@pytest.mark.slow
def test_inglenook_verdict_matches_one_sweep_full_grid():
    # the quick grid's plans and 369 more, up to 20,000 positions each
    assert _check_grid(20000) == (1827, 127)


def _card_grid_plans(limit: int):
    """2-5 piles of non-decreasing capacities 1..4, then one plan with
    unsorted piles, with every w whose states number at most `limit`."""
    plans = [m for n in range(2, 6) for m in itertools.combinations_with_replacement(range(1, 5), n)]
    for m in plans + [(3, 1, 2)]:
        for w in range(1, sum(m) + 1):
            spec = CardsSpec(w, m)
            if count_states(spec) <= limit:
                yield spec


def _check_card_grid(limit: int) -> tuple[int, int]:
    checked = boundary = 0
    for spec in _card_grid_plans(limit):
        verdict = cards_connected(spec)
        assert verdict.solvable == (cards_component_census(spec).components == 1), spec
        checked += 1
        boundary += verdict.solvable and verdict.slack == 0 and spec.w > 1
    return checked, boundary


def test_cards_connected_matches_the_census_quick_grid():
    # 534 plans, 32 of them zero-slack connected with w > 1
    assert _check_card_grid(2000) == (534, 32)


@pytest.mark.slow
def test_cards_connected_matches_the_census_full_grid():
    assert _check_card_grid(20000) == (664, 48)


def test_capacity_boundary_analogue_is_connected():
    # A plan that passes the inequality with zero slack on every siding
    # equal: the graph really is connected, checked exhaustively.
    spec = PuzzleSpec(5, 2, (2, 2, 2))
    assert inglenook_solvable(spec).slack == 0
    goal = _natural_goal(spec)
    assert len(naive_distances(spec, goal)) == len(all_positions(spec))


def test_capacity_boundary_second_analogue_is_connected():
    spec = PuzzleSpec(7, 2, (3, 3, 3))
    assert inglenook_solvable(spec).slack == 0
    goal = _natural_goal(spec)
    assert len(naive_distances(spec, goal)) == len(all_positions(spec))


def test_immovable_bottom_refuses_a_pile_it_does_not_have():
    refused(lambda: immovable_bottom(CardsSpec(2, (1, 1, 1)), 3), InglenookError,
            "no pile 3 (piles are 0..2)")
