"""Guaranteed-valid solutions with enforced move bounds.

The card-pile solver seats the goal's bottom cards one at a time, in one
loop over the piles it is given: a seated card never moves again, so each
pass leaves a smaller instance on the same piles.  Every trace stays within
the quadratic bound w^2 + 6w - 6.  Inglenook solutions are obtained by
translating card moves through the convertible-position correspondence, at
most two shunt moves per card move, plus one push at each end whose
headshunt is full: twice the card bound plus two, 2w^2 + 12w - 10.
`model._check_trace` checks both traces against their bound and replays
them before they are returned.
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
    _pile_tracks,
    _replay_steps,
    _shunt,
    _to_cards,
    cards_spec,
    format_move,
    format_position,
    position_codec,
    validate_position,
    validate_state,
)
from .search import _goal_test, _plans


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
    """Worst-case shunt moves guaranteed by the constructive solver: two per
    card move, and one push at each full-headshunt end."""
    return 2 * cards_move_bound(w) + 2


def apply_card_move(spec: CardsSpec, st: CardsState, mv: CardMove) -> CardsState:
    return replay_cards(spec, st, (mv,))[-1]


def replay_cards(spec: CardsSpec, start: CardsState, moves) -> list[CardsState]:
    """Apply card moves in order; returns every state visited, start
    included.  The start is validated once, then each move only checks
    its own legality, as `model.replay` does."""
    return list(_replay_card_steps(spec, start, moves))


def _replay_card_steps(spec: CardsSpec, cur: CardsState, moves):
    """Yield the states of `replay_cards` one at a time."""
    validate_state(spec, cur)
    yield cur
    for mv in moves:
        piles = list(cur.piles)
        for i in (mv.source, mv.dest):
            if not 0 <= i <= spec.s:
                raise IllegalMoveError(f"no pile {i}")
        if not piles[mv.source]:
            raise IllegalMoveError(f"pile {mv.source} is empty")
        if len(piles[mv.dest]) >= spec.m[mv.dest]:
            raise IllegalMoveError(f"pile {mv.dest} is full")
        piles[mv.dest] += piles[mv.source][-1:]
        piles[mv.source] = piles[mv.source][:-1]
        cur = CardsState(tuple(piles))
        yield cur


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
    trace = SolutionTrace(start, goal, tuple(_cards_path(list(spec.m), cur, want)))
    return _check_trace(_replay_card_steps, spec, trace, "card", cards_move_bound(spec.w))


def _cards_path(caps: list[int], cur: list[list[int]], goal: list[list[int]]) -> list[CardMove]:
    """Drive `cur` to `goal` in place, seating one goal bottom card a pass.

    A seated anchor never moves again, so each pass drops it from `caps`,
    `cur` and `goal` and the rest is a smaller instance on the same piles.
    """
    out: list[CardMove] = []
    closings: list[CardMove] = []
    while cur != goal:
        if sum(map(len, cur)) == 1 or all(c == 1 for c in caps):
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
    # A lone card is the smallest case: one move finishes it.
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

    # Stage two: open up two reserve piles outside the target pile, which
    # holds the anchor above its bottom card, so this room is two or more.
    if sum(spaces(i) for i in range(n) if i != target) < len(piles[target]):
        raise InternalCheckError("the other piles must have room for the target pile")
    open_piles = [i for i in range(n) if i != target and spaces(i)]
    if len(open_piles) < 2:
        lone = open_piles[0]
        src = min(i for i in range(n) if i not in (target, lone))
        move(src, lone)
        open_piles = [i for i in range(n) if i != target and spaces(i)]
    first, second = open_piles[0], open_piles[1]

    # Stage three: uncover the anchor, leaving both reserves open.
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
    """Translate one card move into a pull from its source track, then a
    push to its destination track, leaving out whichever is the headshunt."""
    tracks = _pile_tracks(spec)
    steps = ((tracks[mv.source], PULL), (tracks[mv.dest], PUSH))
    return [ShuntMove(track, direction, 1) for track, direction in steps if track]


def _convertible(spec: PuzzleSpec, p: Position) -> tuple[Position, list[ShuntMove]]:
    """A convertible position reached from valid `p`, and the moves that
    reach it.  A full headshunt is the one way for `p` not to be convertible:
    then one wagon goes to the lowest-numbered siding with space."""
    if len(p.headshunt) < spec.h:
        return p, []
    for r in range(1, spec.s + 1):
        if len(p.tracks[r]) < spec.m[r - 1]:
            mv = ShuntMove(r, PUSH, 1)
            return _shunt(spec, p, mv), [mv]
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

    entry, moves = _convertible(spec, start)
    exit_goal, exit_moves = _convertible(spec, goal)
    ctrace = solve_cards(cards_spec(spec), _to_cards(spec, entry), _to_cards(spec, exit_goal))
    for cm in ctrace.moves:
        moves.extend(_lift_card_move(spec, cm))
    moves.extend(mv.inverse() for mv in reversed(exit_moves))
    trace = SolutionTrace(start, goal, tuple(moves))
    return _check_trace(_replay_steps, spec, trace, "shunt", inglenook_move_bound(spec.w))


def solve_to_pattern(spec: PuzzleSpec, start: Position, pattern) -> SolutionTrace:
    """Solve to the first position matching `pattern`.

    A start that already matches yields the empty trace; otherwise the
    target is the matching position with the smallest code.
    """
    validate_position(spec, start)
    codec = position_codec(spec)
    plans = _plans(spec, pattern, "the goal pattern")
    if _goal_test(plans)(codec.encode(start.tracks)):
        return SolutionTrace(start, start, ())
    best = min(plan.code(0) for plan in plans)
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
