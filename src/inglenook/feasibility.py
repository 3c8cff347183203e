"""Exact decision procedures for "can this puzzle always be solved",
for both the inglenook graph and the card-pile graph, with capacity
planning helpers derived from the same inequality."""

from __future__ import annotations

from dataclasses import dataclass

from .model import CardsSpec, InglenookError, InternalCheckError, PuzzleSpec

# Branch names reported by verdicts.
BRANCH_SINGLE_WAGON = "w=1"
BRANCH_SINGLE_SIDING = "s=1"
BRANCH_TINY_HEADSHUNT = "h=1,s=2"
BRANCH_INEQUALITY_PASS = "inequality-pass"
BRANCH_INEQUALITY_FAIL = "inequality-fail"

_AFFIRMATIVE = {BRANCH_SINGLE_WAGON, BRANCH_INEQUALITY_PASS}


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a feasibility check.

    `branch` names the clause that decided the answer and `slack` is the
    margin of the capacity inequality: negative exactly when it fails.
    """

    solvable: bool
    branch: str
    slack: int

    def __post_init__(self):
        if self.solvable != (self.branch in _AFFIRMATIVE):
            raise InternalCheckError(f"branch {self.branch} contradicts solvable={self.solvable}")


class UnsolvableError(InglenookError):
    """Raised when an operation requires a solvable/connected instance."""

    def __init__(self, message: str, verdict: FeasibilityVerdict):
        self.verdict = verdict
        super().__init__(f"{message}: branch {verdict.branch}, slack {verdict.slack}")


def inglenook_slack(spec: PuzzleSpec) -> int:
    """(h-1 + sum of siding capacities) - (w + largest of h-1 and the sidings)."""
    biggest = max(spec.h - 1, *spec.m)
    return (spec.h - 1 + sum(spec.m)) - (spec.w + biggest)


def inglenook_solvable(spec: PuzzleSpec) -> FeasibilityVerdict:
    """Decide whether every natural instance on this track plan is solvable.

    Natural means the start set is closed under renaming wagons and every
    finishing position fixes the wagon nearest the buffer stop of one
    siding (the classic random-shunt rules qualify).  A single wagon is
    always solvable.  With more wagons, a single siding is never solvable,
    nor is a one-wagon headshunt with only two sidings; otherwise the
    capacity inequality decides.
    """
    slack = inglenook_slack(spec)
    if spec.w == 1:
        return FeasibilityVerdict(True, BRANCH_SINGLE_WAGON, slack)
    if spec.s == 1:
        return FeasibilityVerdict(False, BRANCH_SINGLE_SIDING, slack)
    if spec.h == 1 and spec.s == 2:
        return FeasibilityVerdict(False, BRANCH_TINY_HEADSHUNT, slack)
    if slack >= 0:
        return FeasibilityVerdict(True, BRANCH_INEQUALITY_PASS, slack)
    return FeasibilityVerdict(False, BRANCH_INEQUALITY_FAIL, slack)


def cards_slack(spec: CardsSpec) -> int:
    return sum(spec.m) - (spec.w + max(spec.m))


def cards_connected(spec: CardsSpec) -> FeasibilityVerdict:
    """Decide whether the card-pile graph is connected.

    Connected for a single card; disconnected for one pile pair (s = 1)
    with more cards; otherwise connected exactly when total capacity is at
    least the card count plus the largest pile capacity.
    """
    slack = cards_slack(spec)
    if spec.w == 1:
        return FeasibilityVerdict(True, BRANCH_SINGLE_WAGON, slack)
    if spec.s == 1:
        return FeasibilityVerdict(False, BRANCH_SINGLE_SIDING, slack)
    if slack >= 0:
        return FeasibilityVerdict(True, BRANCH_INEQUALITY_PASS, slack)
    return FeasibilityVerdict(False, BRANCH_INEQUALITY_FAIL, slack)


def max_wagons(h: int, m: tuple[int, ...]) -> int:
    """Largest wagon count that keeps every natural puzzle solvable.

    Degenerate track plans (one siding, or a one-wagon headshunt with two
    sidings) only ever work with a single wagon.
    """
    m = tuple(m)
    probe = PuzzleSpec(1, h, m)  # validates capacities
    if probe.s == 1 or (h == 1 and probe.s == 2):
        return 1
    best = (h - 1 + sum(m)) - max(h - 1, *m)
    return max(best, 1)


def immovable_bottom(spec: CardsSpec, j: int) -> bool:
    """True when the bottom card of pile j can never change.

    That happens exactly when the other piles cannot absorb all remaining
    cards plus the bottom card itself: sum of the other capacities <= w-1.
    """
    if not 0 <= j <= spec.s:
        raise InglenookError(f"no pile {j} (piles are 0..{spec.s})")
    others = sum(spec.m) - spec.m[j]
    return others <= spec.w - 1
