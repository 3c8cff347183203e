"""Guaranteed-valid solutions with enforced move bounds.

The card-pile solver seats the goal's bottom cards one at a time, in one
loop over the piles it is given: a seated card never moves again, so each
pass leaves a smaller instance on the same piles.  Every trace stays within
the quadratic bound w^2 + 6w - 6.  Inglenook solutions are obtained by
translating card moves through the convertible-position correspondence, at
most two shunt moves per card move, for a bound of 2w^2 + 12w - 10.
Both traces are checked against their bound and replayed by
`model._check_trace` before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .feasibility import UnsolvableError, cards_connected, inglenook_solvable
from .model import (
    PULL,
    PUSH,
    CardsSpec,
    CardsState,
    IllegalMoveError,
    InternalCheckError,
    Position,
    PuzzleSpec,
    ShuntMove,
    SolutionTrace,
    _check_trace,
    apply_move,
    cards_spec,
    format_move,
    format_position,
    is_convertible,
    position_codec,
    replay,
    to_cards,
    validate_position,
    validate_state,
)
from .search import UnsatisfiablePatternError, _compile_match, matching_codes  # re-export


@dataclass(frozen=True)
class CardMove:
    """Move the top card of pile `source` onto the top of pile `dest`."""

    source: int
    dest: int

    def __post_init__(self):
        if self.source == self.dest:
            raise IllegalMoveError("card move must change pile")


def cards_move_bound(w: int) -> int:
    """Worst-case card moves guaranteed by the constructive solver."""
    return w * w + 6 * w - 6


def inglenook_move_bound(w: int) -> int:
    """Worst-case shunt moves guaranteed by the constructive solver."""
    return 2 * w * w + 12 * w - 10


def apply_card_move(spec: CardsSpec, st: CardsState, mv: CardMove) -> CardsState:
    return replay_cards(spec, st, (mv,))[-1]


def replay_cards(spec: CardsSpec, start: CardsState, moves) -> list[CardsState]:
    """Apply card moves in order; returns every state visited, start
    included.  The start is validated once, then each move only checks
    its own legality, as `model.replay` does."""
    validate_state(spec, start)
    path = [start]
    for mv in moves:
        piles = list(path[-1].piles)
        for i in (mv.source, mv.dest):
            if not 0 <= i <= spec.s:
                raise IllegalMoveError(f"no pile {i}")
        if not piles[mv.source]:
            raise IllegalMoveError(f"pile {mv.source} is empty")
        if len(piles[mv.dest]) >= spec.m[mv.dest]:
            raise IllegalMoveError(f"pile {mv.dest} is full")
        piles[mv.dest] += piles[mv.source][-1:]
        piles[mv.source] = piles[mv.source][:-1]
        path.append(CardsState(tuple(piles)))
    return path


def solve_cards(spec: CardsSpec, start: CardsState, goal: CardsState) -> SolutionTrace:
    """Return a valid card-move path from start to goal.

    Requires a connected instance.  The trace length never exceeds
    w^2 + 6w - 6; that bound is asserted, not merely hoped for.
    """
    verdict = cards_connected(spec)
    if not verdict.solvable:
        raise UnsolvableError("card-pile graph is disconnected", verdict)
    validate_state(spec, start)
    validate_state(spec, goal)
    cur = [list(p) for p in start.piles]
    want = [list(p) for p in goal.piles]
    moves = _cards_path(list(spec.m), cur, want)
    trace = SolutionTrace(start, goal, tuple(moves))
    if trace.length > cards_move_bound(spec.w):
        raise InternalCheckError(
            f"{trace.length} card moves exceed the bound {cards_move_bound(spec.w)}"
        )
    return _check_trace(replay_cards, spec, trace, "card")


def _cards_path(caps: list[int], cur: list[list[int]], goal: list[list[int]]) -> list[CardMove]:
    """Drive `cur` to `goal` in place, seating one goal bottom card a pass.

    A seated anchor never moves again, so each pass drops it from `caps`,
    `cur` and `goal` and the rest is a smaller instance on the same piles.
    """
    out: list[CardMove] = []
    closings: list[CardMove] = []
    while cur != goal:
        if sum(map(len, cur)) == 1:
            src = next(i for i, p in enumerate(cur) if p)
            dst = next(i for i, p in enumerate(goal) if p)
            out.append(_move(cur, src, dst))
            break
        if all(c == 1 for c in caps):
            out.extend(_single_slot_path(cur, goal))
            break
        target = next(i for i, c in enumerate(caps) if c >= 2)
        # Make sure the goal we chase has a card in the target pile; if not,
        # borrow the top of the lowest-numbered occupied pile and put it back
        # once every later pass is done, so the closings run last-in first-out.
        if not goal[target]:
            donor = next(i for i, p in enumerate(goal) if p)
            goal[target].append(goal[donor].pop())
            closings.append(CardMove(target, donor))
        out.extend(_seat_anchor(caps, cur, target, goal[target][0]))
        caps[target] -= 1
        del cur[target][0], goal[target][0]
    out.extend(reversed(closings))
    return out


def _move(piles: list[list[int]], src: int, dst: int) -> CardMove:
    piles[dst].append(piles[src].pop())
    return CardMove(src, dst)


def _single_slot_path(cur: list[list[int]], goal: list[list[int]]) -> list[CardMove]:
    # Every pile holds at most one card, so states are partial injections
    # from cards to piles and there is always a free pile to evict into.
    where = {p[0]: i for i, p in enumerate(cur) if p}
    want = {p[0]: i for i, p in enumerate(goal) if p}
    out = []
    while True:
        misplaced = sorted(c for c, i in where.items() if want[c] != i)
        if not misplaced:
            return out
        card = misplaced[0]
        dest = want[card]
        occupant = next((c for c, i in where.items() if i == dest), None)
        if occupant is not None:
            free = next(i for i, p in enumerate(cur) if not p)
            out.append(_move(cur, dest, free))
            where[occupant] = free
        out.append(_move(cur, where[card], dest))
        where[card] = dest


def _seat_anchor(caps: list[int], piles: list[list[int]], target: int, anchor: int) -> list[CardMove]:
    """Drive `piles` to a state whose target pile has `anchor` at the bottom.

    Follows a four-stage plan: bring the anchor into the target pile, keep
    two reserve piles open, uncover the anchor, then park it on a reserve
    while the target pile drains and finally seat it.
    """
    if piles[target] and piles[target][0] == anchor:
        return []
    out = []

    def move(src, dst):
        out.append(_move(piles, src, dst))

    def spaces(i):
        return caps[i] - len(piles[i])

    n = len(caps)
    home = next(i for i, p in enumerate(piles) if anchor in p)

    # Stage one: get the anchor into the target pile.
    if home != target:
        if spaces(target) == 0:
            dest = min((i for i in range(n) if i not in (target, home) and spaces(i)),
                       default=home)
            move(target, dest)
        # The other piles always have room for the whole home pile.
        if sum(spaces(i) for i in range(n) if i != home) < len(piles[home]):
            raise InternalCheckError("the other piles must have room for the home pile")
        while piles[home][-1] != anchor:
            dest = min((i for i in range(n) if i not in (home, target) and spaces(i)),
                       default=target)
            move(home, dest)
        move(home, target)
        if piles[target][0] == anchor:
            return out

    # Stage two: open up two reserve piles outside the target pile.
    while sum(spaces(i) for i in range(n) if i != target) < 2 and spaces(target):
        src = min(i for i in range(n) if i != target and piles[i])
        move(src, target)
    open_piles = [i for i in range(n) if i != target and spaces(i)]
    if len(open_piles) < 2:
        lone = open_piles[0]
        src = min(i for i in range(n) if i not in (target, lone))
        move(src, lone)
        open_piles = [i for i in range(n) if i != target and spaces(i)]
    first, second = open_piles[0], open_piles[1]

    # Stage three: uncover the anchor, leaving both reserves open.
    if sum(spaces(i) for i in range(n) if i != target) < len(piles[target]):
        raise InternalCheckError("the other piles must have room for the target pile")
    while piles[target][-1] != anchor:
        choices = [i for i in range(n) if i not in (target, first, second) and spaces(i)]
        if choices:
            dest = choices[0]
        elif spaces(first) >= 2:
            dest = first
        elif spaces(second) >= 2:
            dest = second
        else:
            raise InternalCheckError("a reserve pile must keep a spare slot")
        move(target, dest)

    # Stage four: park the anchor on one reserve and drain the target pile.
    # The moment the second reserve is down to its last slot, hop the
    # anchor onto it; the anchor then tops a full pile, so nothing can
    # bury it while the remaining cards spread over the other piles.
    host, partner = first, second
    move(target, host)
    hopped = False
    while piles[target]:
        if not hopped and spaces(partner) == 1:
            move(host, partner)
            host = partner
            hopped = True
        dest = min(i for i in range(n) if i not in (target, host) and spaces(i))
        move(target, dest)
    move(host, target)
    return out


def _lift_card_move(spec: PuzzleSpec, mv: CardMove) -> list[ShuntMove]:
    """Translate one card move into one or two shunt moves."""
    if spec.h > 1:
        if mv.source == 0:
            return [ShuntMove(mv.dest, PUSH, 1)]
        if mv.dest == 0:
            return [ShuntMove(mv.source, PULL, 1)]
        return [ShuntMove(mv.source, PULL, 1), ShuntMove(mv.dest, PUSH, 1)]
    return [ShuntMove(mv.source + 1, PULL, 1), ShuntMove(mv.dest + 1, PUSH, 1)]


def _push_to_convertible(spec: PuzzleSpec, p: Position) -> ShuntMove:
    """The first move of a full headshunt: push one wagon to the lowest
    numbered siding with space."""
    for r in range(1, spec.s + 1):
        if len(p.tracks[r]) < spec.m[r - 1]:
            return ShuntMove(r, PUSH, 1)
    raise InternalCheckError("a valid spec always leaves space somewhere")


def solve_inglenook(spec: PuzzleSpec, start: Position, goal: Position) -> SolutionTrace:
    """Return a valid shunt-move path from start to goal.

    Requires a solvable spec.  Non-convertible endpoints cost one extra
    move each; the total never exceeds 2w^2 + 12w - 10.
    """
    verdict = inglenook_solvable(spec)
    if not verdict.solvable:
        raise UnsolvableError("puzzle is not always solvable", verdict)
    validate_position(spec, start)
    validate_position(spec, goal)
    if start == goal:
        return SolutionTrace(start, goal, ())

    moves: list[ShuntMove] = []
    entry = start
    if not is_convertible(spec, entry):
        mv = _push_to_convertible(spec, entry)
        moves.append(mv)
        entry = apply_move(spec, entry, mv)
    exit_goal = goal
    suffix: list[ShuntMove] = []
    if not is_convertible(spec, goal):
        mv = _push_to_convertible(spec, goal)
        exit_goal = apply_move(spec, goal, mv)
        suffix.append(mv.inverse())

    ctrace = solve_cards(cards_spec(spec), to_cards(spec, entry), to_cards(spec, exit_goal))
    for cm in ctrace.moves:
        moves.extend(_lift_card_move(spec, cm))
    moves.extend(suffix)

    trace = SolutionTrace(start, goal, tuple(moves))
    if trace.length > inglenook_move_bound(spec.w):
        raise InternalCheckError(
            f"{trace.length} shunt moves exceed the bound {inglenook_move_bound(spec.w)}"
        )
    return _check_trace(replay, spec, trace, "shunt")


def solve_to_pattern(spec: PuzzleSpec, start: Position, pattern) -> SolutionTrace:
    """Solve to the first position matching `pattern`.

    A start that already matches yields the empty trace; otherwise the
    target is the matching position with the smallest code.
    """
    validate_position(spec, start)
    codec = position_codec(spec)
    if _compile_match(spec, pattern)(codec.encode(start.tracks)):
        return SolutionTrace(start, start, ())
    best = min(matching_codes(spec, pattern, "the goal pattern"))
    return solve_inglenook(spec, start, Position(codec.decode(best)))


# --- trace text format ----------------------------------------------------

def format_card_move(mv: CardMove) -> str:
    return f"CARD {mv.source} -> {mv.dest}"


def format_move_list(moves) -> str:
    lines = []
    for mv in moves:
        lines.append(format_card_move(mv) if isinstance(mv, CardMove) else format_move(mv))
    return "\n".join(lines)


def format_trace(trace: SolutionTrace, labels=None) -> str:
    """Trace file: start position line, one move per line, finish line."""
    parts = [format_position(trace.start, labels)]
    if trace.moves:
        parts.append(format_move_list(trace.moves))
    parts.append(format_position(trace.finish, labels))
    return "\n".join(parts) + "\n"
