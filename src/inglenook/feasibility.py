"""Exact decision procedures for "can this puzzle always be solved".
The card-pile graph's verdict is the one written out: its capacity
inequality, `cards_slack`, past one card or two piles.  An inglenook plan
takes the verdict of its card-pile form, `model.cards_spec`, save the two
one-wagon-headshunt plans that form cannot name, and `max_wagons` reads
the same slack."""

from __future__ import annotations

from dataclasses import dataclass

from .model import CardsSpec, InglenookError, InternalCheckError, PuzzleSpec, cards_spec

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
    """The card slack of the plan's card-pile form: (h-1 + sum of siding
    capacities) - (w + largest of h-1 and the sidings)."""
    return cards_slack(cards_spec(spec))


def inglenook_solvable(spec: PuzzleSpec) -> FeasibilityVerdict:
    """Decide whether every natural instance on this track plan is solvable.

    Natural means the start set is closed under renaming wagons and every
    finishing position fixes the wagon nearest the buffer stop of one
    siding (the classic random-shunt rules qualify).  The verdict is that
    of the plan's card-pile form, `cards_connected(cards_spec(spec))`,
    save that more than one wagon on at most two piles (one siding, or two
    behind a one-wagon headshunt, which has no pile) is named by its
    sidings, where the card form may say `inequality-fail` or `s=1`.
    """
    cspec = cards_spec(spec)
    verdict = cards_connected(cspec)
    if spec.w > 1 and cspec.s <= 1:
        branch = BRANCH_SINGLE_SIDING if spec.s == 1 else BRANCH_TINY_HEADSHUNT
        return FeasibilityVerdict(False, branch, verdict.slack)
    return verdict


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
    """Largest wagon count that keeps every natural puzzle solvable: the
    slack of one wagon, plus one.

    Degenerate track plans (one siding, or a one-wagon headshunt with two
    sidings: at most two piles) only ever work with a single wagon.
    """
    cspec = cards_spec(PuzzleSpec(1, h, tuple(m)))  # validates capacities
    if cspec.s <= 1:
        return 1
    return cards_slack(cspec) + 1


def immovable_bottom(spec: CardsSpec, j: int) -> bool:
    """True when the bottom card of pile j can never change.

    That happens exactly when the other piles cannot absorb all remaining
    cards plus the bottom card itself: sum of the other capacities <= w-1.
    """
    if not 0 <= j <= spec.s:
        raise InglenookError(f"no pile {j} (piles are 0..{spec.s})")
    others = sum(spec.m) - spec.m[j]
    return others <= spec.w - 1
