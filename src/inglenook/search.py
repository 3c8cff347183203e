"""Exhaustive and optimal analysis: shortest solutions, worst-case move
counts, component censuses, and exact diameters at desk scale.

Both move rules, a block of wagons between the headshunt and one siding and
one card between two piles, are one kind of move table, `_MoveTable`: keyed
by the occupancy mask of an integer-packed code (see model.SlotCodec), which
fixes every track's length, it lists that composition's moves as bit
relocations in a fixed order.  Reported distances, exploration counts,
witnesses and tie-broken traces follow from that order, so they are
reproducible bit-for-bit.  Shortest paths run on codes: `_next_level` grows
a level of codes, and `_shortest_layers` grows a start and a goal side until
they meet, for `optimal_solve` and `cards_distance`.  One walker,
`_first_path`, builds every reported path by the first move in table order
into each next shortest-path layer: the optimal trace walks from the start
to the finish a forward search alone would hit, then back over the reversed
layers on the pushes-first table, which takes the first forward move in
(siding, pull before push, count) order; `worst` walks from the first goal
on a deepest path to its witness.  Full sweeps (`worst`, the census, the
diameter) run `_bfs_levels` on `_RankMoves`, the same moves on (occupancy
mask, label-order rank) states, where a move of a composition is one list of
w! ranks: a whole level moves by list lookups, and a sweep keeps three
levels and a 16-bit depth per state, not a set of every state.  An exact
card-pile diameter takes one sweep per pile-size composition: renaming cards
is a graph automorphism, so a state's eccentricity depends only on its pile
sizes.  A goal pattern compiles once, by `_compile_match`, into a masked
compare per alternative plus one set test per any-order track.  One
enumerator, `_alternative_codes`, lists the codes an alternative allows
straight from the codec's slot shifts, for `gen`, `solve` and `worst`.
Budgets are checked once, up front, by `_within_budget`: each public search
refuses before it starts when the states it could label, every position or
card state (times the compositions, for the diameter), pass the budget, so
the kernels take no budget.
"""

from __future__ import annotations

import itertools
import operator
import re
import sys
from dataclasses import dataclass

from .model import (
    PULL,
    PUSH,
    CardsSpec,
    CardsState,
    FormatError,
    InglenookError,
    InternalCheckError,
    LabelTable,
    Position,
    PuzzleSpec,
    ShuntMove,
    SolutionTrace,
    _check_trace,
    _compositions,
    count_positions,
    count_states,
    from_cards,
    position_codec,
    replay,
    state_codec,
    validate_position,
    validate_state,
)

DEFAULT_BUDGET = 10 ** 8

EXACT = "exact"
SET_ANY_ORDER = "set"
EMPTY = "empty"
ANY = "any"

_CLAUSE_RE = re.compile(r"^(H|S(\d+))\s*(=|~)\s*(.+)$")


class UnsatisfiablePatternError(InglenookError):
    """No valid position matches the requested pattern."""

    def __init__(self, message: str, conflicts: tuple[str, ...] = ()):
        self.conflicts = conflicts
        detail = "; ".join(conflicts)
        super().__init__(f"{message}: {detail}" if detail else message)


class BudgetExceededError(InglenookError):
    """The requested analysis would exceed the configured state budget."""

    def __init__(self, budget: int, estimate: int, what: str):
        self.budget = budget
        self.estimate = estimate
        super().__init__(
            f"{what} needs about {estimate} states, over the budget of {budget}; "
            f"raise the budget to proceed"
        )


def _within_budget(budget: int, states: int, what: str) -> int:
    """`states`, the states `what` could label, unless they pass `budget`:
    then the search is refused before it starts."""
    if states > budget:
        raise BudgetExceededError(budget, states, what)
    return states


class DisconnectedGraphError(InglenookError):
    """Raised when an operation needs a connected graph; carries the census."""

    def __init__(self, census):
        self.census = census
        super().__init__(
            f"graph is disconnected: {census.components} components, sizes {census.sizes}"
        )


@dataclass(frozen=True)
class TrackRule:
    """Constraint on one track: an exact sequence, an unordered wagon set,
    emptiness, or anything."""

    kind: str
    wagons: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "wagons", tuple(self.wagons))
        if self.kind not in (EXACT, SET_ANY_ORDER, EMPTY, ANY):
            raise FormatError(f"unknown track rule kind {self.kind!r}")


@dataclass(frozen=True)
class GoalPattern:
    """A disjunction of per-track constraints.

    A position matches when at least one alternative is satisfied on every
    track simultaneously.  Each alternative lists one rule per track, the
    headshunt first.
    """

    alternatives: tuple[tuple[TrackRule, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "alternatives", tuple(tuple(alt) for alt in self.alternatives)
        )
        if not self.alternatives:
            raise FormatError("a goal pattern needs at least one alternative")

    @classmethod
    def exact_position(cls, p: Position) -> GoalPattern:
        return cls((tuple(TrackRule(EXACT, t) for t in p.tracks),))

    @classmethod
    def all_positions(cls, spec: PuzzleSpec) -> GoalPattern:
        return cls(((TrackRule(ANY),) * (spec.s + 1),))


def parse_pattern(spec: PuzzleSpec, text: str, labels: LabelTable | None = None) -> GoalPattern:
    """Parse the pattern file format: one alternative per line, clauses
    like `S3 = [4,5,6,7,8]`, `S2 ~ {1,2,3}`, `S1 = []`, or `H = *`
    separated by semicolons.  Unlisted tracks match anything; a line of
    just `*` matches every position."""
    if labels is None:
        labels = LabelTable.identity(spec.w)
    alternatives = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rules: dict[int, TrackRule] = {}
        if line != "*":
            for clause in line.split(";"):
                clause = clause.strip()
                if not clause:
                    continue
                m = _CLAUSE_RE.match(clause)
                if not m:
                    raise FormatError(f"bad clause {clause!r}", lineno)
                track = 0 if m.group(1) == "H" else int(m.group(2))
                if m.group(2) is not None and not 1 <= track <= spec.s:
                    raise FormatError(f"no track S{track} (spec has {spec.s})", lineno)
                if track in rules:
                    raise FormatError(f"track given twice in one alternative", lineno)
                op, rhs = m.group(3), m.group(4).strip()
                rules[track] = _parse_rule(op, rhs, labels, lineno)
        alt = tuple(rules.get(i, TrackRule(ANY)) for i in range(spec.s + 1))
        alternatives.append(alt)
    if not alternatives:
        raise FormatError("pattern has no alternatives")
    return GoalPattern(tuple(alternatives))


def _parse_rule(op: str, rhs: str, labels: LabelTable, lineno: int) -> TrackRule:
    if op == "=":
        if rhs == "*":
            return TrackRule(ANY)
        if not (rhs.startswith("[") and rhs.endswith("]")):
            raise FormatError(f"'=' needs [..] or *, got {rhs!r}", lineno)
    elif not (rhs.startswith("{") and rhs.endswith("}")):
        raise FormatError(f"'~' needs {{..}}, got {rhs!r}", lineno)
    inner = rhs[1:-1].strip()
    if not inner:
        if op == "~":
            raise FormatError("'~' set must not be empty", lineno)
        return TrackRule(EMPTY)
    try:
        wagons = tuple(labels.label(tok.strip()) for tok in inner.split(","))
    except FormatError as exc:
        raise FormatError(str(exc), lineno) from None
    if len(set(wagons)) != len(wagons):
        raise FormatError(f"{rhs} repeats a wagon", lineno)
    return TrackRule(EXACT if op == "=" else SET_ANY_ORDER, wagons)


def pattern_conflicts(spec: PuzzleSpec, pattern: GoalPattern) -> tuple[str, ...]:
    """Explain why each alternative is unsatisfiable; empty strings are
    omitted, so an empty result means every alternative is size-consistent
    (unsatisfiability may still come from wagon identities)."""
    problems = []
    for idx, alt in enumerate(pattern.alternatives, start=1):
        problem = _alternative_conflict(spec, alt)
        if problem:
            problems.append(f"alternative {idx}: {problem}")
    return tuple(problems)


def _alternative_conflict(spec: PuzzleSpec, alt: tuple[TrackRule, ...]) -> str | None:
    """Why no position satisfies `alt`, or None; an alternative with the
    wrong track count is malformed, not unsatisfiable, and is refused."""
    if len(alt) != spec.s + 1:
        raise FormatError(f"alternative has {len(alt)} tracks, spec has {spec.s + 1}")
    pinned: set[int] = set()
    free_capacity = 0
    for i, rule in enumerate(alt):
        cap = spec.track_capacity(i)
        name = "H" if i == 0 else f"S{i}"
        if rule.kind == ANY:
            free_capacity += cap
            continue
        if rule.kind == EMPTY:
            continue
        if len(rule.wagons) > cap:
            return f"{name} wants {len(rule.wagons)} wagons, capacity {cap}"
        for wagon in rule.wagons:
            if not 1 <= wagon <= spec.w:
                return f"{name} names wagon {wagon}, spec has 1..{spec.w}"
            if wagon in pinned:
                return f"wagon {wagon} pinned to two tracks"
            pinned.add(wagon)
    leftovers = spec.w - len(pinned)
    if leftovers > free_capacity:
        return f"{leftovers} unconstrained wagons but only {free_capacity} free capacity"
    return None


def matching_codes(spec: PuzzleSpec, pattern: GoalPattern, what: str) -> list[int]:
    """Codes of every valid position matching the pattern, in enumeration
    order; refuses a pattern that no position matches, naming it `what`."""
    codes = list(_iter_matching_codes(spec, pattern))
    if not codes:
        raise _unsatisfiable(spec, pattern, what)
    return codes


def _unsatisfiable(spec: PuzzleSpec, pattern: GoalPattern, what: str) -> UnsatisfiablePatternError:
    return UnsatisfiablePatternError(
        f"no valid position matches {what}", pattern_conflicts(spec, pattern)
    )


def _iter_matching_codes(spec: PuzzleSpec, pattern: GoalPattern):
    """Yield the codes of `matching_codes`, lazily, and nothing for an
    unsatisfiable pattern.

    A position matching several alternatives is yielded once, under the
    first of them: later alternatives skip what an earlier one matches.
    """
    codec = position_codec(spec)
    earlier = []
    for alt in pattern.alternatives:
        if _alternative_conflict(spec, alt):
            continue
        found = _alternative_codes(codec, alt, spec.w)
        if earlier:
            found = (code for code in found if not any(match(code) for match in earlier))
        yield from found
        earlier.append(_compile_match(spec, GoalPattern((alt,))))


def _alternative_codes(codec, alt: tuple[TrackRule, ...], w: int):
    """Yield the code of every layout of wagons 1..w that a satisfiable
    alternative allows, summed from the codec's slot shifts.

    The orders of the any-order tracks vary slowest, then the permutations
    of the loose wagons, then their `_track_lengths` layouts over the `ANY`
    tracks, each run filling its track's leading slots.
    """
    base = codec.encode([rule.wagons if rule.kind == EXACT else () for rule in alt])
    pinned = {x for rule in alt if rule.kind in (EXACT, SET_ANY_ORDER) for x in rule.wagons}
    loose = sorted(set(range(1, w + 1)) - pinned)
    orders = [
        [sum(map(operator.lshift, order, _leading_shifts(codec, i, len(rule.wagons))))
         for order in itertools.permutations(sorted(rule.wagons))]
        for i, rule in enumerate(alt) if rule.kind == SET_ANY_ORDER
    ]
    any_tracks = [i for i, rule in enumerate(alt) if rule.kind == ANY]
    layouts = [
        [shift for i, k in zip(any_tracks, lens) for shift in _leading_shifts(codec, i, k)]
        for lens in _track_lengths([codec.caps[i] for i in any_tracks], len(loose))
    ]
    for pick in itertools.product(*orders):
        fixed = base + sum(pick)
        for perm in itertools.permutations(loose):
            for shifts in layouts:
                yield fixed + sum(map(operator.lshift, perm, shifts))


def _leading_shifts(codec, track: int, n: int) -> list[int]:
    """Shifts of the first n slots of a track, in slot order."""
    return [codec.low_shift[track] + codec.bits * (codec.caps[track] - 1 - j) for j in range(n)]


def _track_lengths(caps, total: int):
    """Every way to lay `total` items in order onto tracks of the given
    capacities, as a tuple of track lengths; the first track's length
    ascends slowest."""
    if not caps:
        if total == 0:
            yield ()
        return
    for k in range(min(caps[0], total) + 1):
        for rest in _track_lengths(caps[1:], total - k):
            yield (k,) + rest


# --- breadth-first kernel ---------------------------------------------------

class _MoveTable(dict):
    """The moves of one move rule, keyed by a code's occupancy mask.

    `(((code & low) + low) | code) & high` sets the high bit of exactly the
    non-zero slots, so the mask fixes every track's length.  A rule is the
    ordered (source, destination) track pairs, which end of each track is
    open (`front_open[i]` when its first slot is the open end, otherwise its
    last occupied slot is), and the largest block that may move.  A block
    keeps its order.  An entry, built on first use, lists the moves as
    (keep, f1, m1, t1, f2, m2, t2); the child of `code` is
        (code & keep) | (((code >> f1) & m1) << t1) | (((code >> f2) & m2) << t2)
    where the first relocation moves the block and the second slides the
    occupants of the front-open track, if the move touches one.  Moves come
    out by pair, then block size ascending.
    """

    def __init__(self, codec, front_open: tuple[bool, ...], pairs, max_block: int):
        super().__init__()
        self.codec = codec
        self.front_open = front_open
        self.pairs = tuple(pairs)
        self.max_block = max_block
        self.full = (1 << codec.bits * codec.total_slots) - 1
        ones = self.full // codec.slot_mask  # 1 in every slot
        self.low = ones * (codec.slot_mask >> 1)
        self.high = ones << (codec.bits - 1)

    def _span(self, track: int, first: int, count: int) -> tuple[int, int]:
        """(shift, mask) of `count` slots of track, from slot `first` on."""
        codec = self.codec
        shift = codec.low_shift[track] + codec.bits * (codec.caps[track] - first - count)
        return shift, (1 << codec.bits * count) - 1

    def __missing__(self, occ: int) -> list[tuple[int, ...]]:
        codec, front, span = self.codec, self.front_open, self._span
        lens = [((occ >> shift) & seg).bit_count()
                for shift, seg in zip(codec.low_shift, codec.seg_mask)]
        moves = []
        for src, dst in self.pairs:
            ns, nd = lens[src], lens[dst]
            for k in range(1, min(ns, codec.caps[dst] - nd, self.max_block) + 1):
                f1, m1 = span(src, 0 if front[src] else ns - k, k)
                t1 = span(dst, 0 if front[dst] else nd, k)[0]
                f2 = m2 = t2 = 0
                if front[src]:
                    (f2, m2), t2 = span(src, k, ns - k), span(src, 0, ns - k)[0]
                elif front[dst]:
                    (f2, m2), t2 = span(dst, 0, nd), span(dst, k, nd)[0]
                keep = self.full ^ (m1 << f1) ^ (m2 << f2)
                moves.append((keep, f1, m1, t1, f2, m2, t2))
        self[occ] = moves
        return moves

    def children(self, code: int) -> list[int]:
        """The children of `code`, in table order."""
        return _next_level(self, [code], set())


def _shunt_moves(spec: PuzzleSpec, *, pushes_first: bool = False) -> _MoveTable:
    """Blocks of any size between the headshunt, open at its back, and a
    siding, open at its front: siding ascending, pulls before pushes, or
    pushes first, which lists a position's predecessors in the order of the
    forward moves into it, since a push of k undoes a pull of k."""
    pairs = [pair for r in range(1, spec.s + 1)
             for pair in (((0, r), (r, 0)) if pushes_first else ((r, 0), (0, r)))]
    return _MoveTable(position_codec(spec), (False,) + (True,) * spec.s, pairs, spec.w)


def _card_moves(spec: CardsSpec) -> _MoveTable:
    """One card from the top of a pile to the top of another: source pile
    ascending, then destination ascending."""
    n = len(spec.m)
    return _MoveTable(state_codec(spec), (False,) * n, itertools.permutations(range(n), 2), 1)


def _next_level(moves: _MoveTable, frontier, seen: set[int]) -> list[int]:
    """The codes one move from `frontier` that `seen` lacks, in move order:
    by parent, then by the parent's moves in table order.  They are added
    to `seen`."""
    low, high = moves.low, moves.high
    nxt = []
    for code in frontier:
        for keep, f1, m1, t1, f2, m2, t2 in moves[(((code & low) + low) | code) & high]:
            child = (code & keep) | (((code >> f1) & m1) << t1) | (((code >> f2) & m2) << t2)
            if child not in seen:
                seen.add(child)
                nxt.append(child)
    return nxt


def _first_path(moves, first, layers) -> list:
    """The path from `first` that takes, at every step, the first move in
    the table order of `moves` (a `_MoveTable` over codes or a `_RankMoves`
    over (mask, rank) states) into the next of the shortest-path `layers`;
    its end is the one a forward level-order search from `first` reaches
    first."""
    path = [first]
    for layer in layers[1:]:
        for child in moves.children(path[-1]):
            if child in layer:
                path.append(child)
                break
        else:
            raise InternalCheckError("shortest-path layers must link every step")
    return path


class _RankMoves(dict):
    """The moves of a `_MoveTable` on states written as (occupancy mask,
    rank).  A state's places list, for labels 1..w in turn, the index of the
    label's slot among the occupied slots in reading order (slot by slot,
    the first track's first slot first); its rank is the lexicographic rank
    of its places among the w! orders of 0..w-1.

    A move sends the label at place j to place t[j] whatever the labels, so
    it maps the places of every state alike, by `bytes.translate`, and is
    one list `T` of w! ranks: T[rank] is the child's rank.  Moves with the
    same t share a list, and a whole tuple of ranks moves with no arithmetic
    per state.  An entry, keyed by occupancy mask and built on first use
    from the move table's entries, lists (child mask, T) in table order.
    The ranks are the int objects of `rank`, shared by every list and level.
    """

    def __init__(self, moves: _MoveTable, w: int):
        super().__init__()
        self.moves = moves
        self.w = w
        self.places = list(map(bytes, itertools.permutations(range(w))))
        self.rank = dict(zip(self.places, range(len(self.places))))
        self.tables: dict[int, list[int]] = {}
        self._slots: dict[int, list[int]] = {}

    def slots(self, occ: int) -> list[int]:
        """Shifts of the occupied slots of `occ`, in reading order."""
        slots = self._slots.get(occ)
        if slots is None:
            codec = self.moves.codec
            slots = self._slots[occ] = [
                codec.bits * j for j in range(codec.total_slots - 1, -1, -1)
                if occ >> (codec.bits * j + codec.bits - 1) & 1
            ]
        return slots

    def state(self, code: int) -> tuple[int, int]:
        low, slot = self.moves.low, self.moves.codec.slot_mask
        occ = (((code & low) + low) | code) & self.moves.high
        places = bytearray(self.w)
        for place, shift in enumerate(self.slots(occ)):
            places[((code >> shift) & slot) - 1] = place
        return occ, self.rank[bytes(places)]

    def code(self, occ: int, rank: int) -> int:
        slots = self.slots(occ)
        return sum(label << slots[place] for label, place in enumerate(self.places[rank], 1))

    def __missing__(self, occ: int) -> list[tuple[int, list[int]]]:
        # rank 0 puts label j+1 at place j, so a child's places are the t
        # of the move that made it
        entry = []
        for child in self.moves.children(self.code(occ, 0)):
            child_occ, t = self.state(child)
            if t not in self.tables:
                moved = map(bytes.translate, self.places,
                            itertools.repeat(self.places[t] + bytes(256 - self.w)))
                self.tables[t] = list(map(self.rank.__getitem__, moved))
            entry.append((child_occ, self.tables[t]))
        self[occ] = entry
        return entry

    def children(self, state: tuple[int, int]) -> list[tuple[int, int]]:
        """The children of `state`, in table order."""
        occ, rank = state
        return [(child, table[rank]) for child, table in self[occ]]


def _occupancies(codec, w: int) -> list[int]:
    """The occupancy mask of every layout of w labels, in `_track_lengths`
    order."""
    top = codec.bits - 1
    return [sum(1 << (shift + top)
                for i, k in enumerate(lens) for shift in _leading_shifts(codec, i, k))
            for lens in _track_lengths(codec.caps, w)]


def _depth_map(ranks: _RankMoves) -> dict[int, memoryview]:
    """A zeroed 16-bit depth entry per state, w! entries per mask, each a
    view of a bytearray; `_bfs_levels` stores level + 1, so a sweep may run
    65,534 levels."""
    n = len(ranks.places)
    return {occ: memoryview(bytearray(2 * n)).cast("H")
            for occ in _occupancies(ranks.moves.codec, ranks.w)}


def _bfs_levels(ranks: _RankMoves, sources, depth: dict[int, memoryview]) -> list[int]:
    """Level-synchronous sweep from the distinct (mask, rank) states
    `sources`, none of them recorded in `depth` yet, until nothing new is
    reached; returns the level sizes.

    A level maps each occupancy mask to a tuple of ranks, and grows a whole
    tuple at a time through each move's rank table, one child mask at a
    time.  Every move has an inverse, so the children of a level lie in the
    previous, the same or the next level, and deduping against the first
    two is exact: no set of every visited state is kept (frontier search,
    Korf et al. 2005), and a level costs a pointer per state.
    `depth[occ][rank]` is set to the state's level plus one.
    """
    found: dict[int, list[int]] = {}
    for occ, rank in sources:
        found.setdefault(occ, []).append(rank)
    level = {occ: tuple(group) for occ, group in found.items()}
    prev: dict[int, tuple[int, ...]] = {}
    sizes: list[int] = []
    while level:
        sizes.append(sum(map(len, level.values())))
        mark = len(sizes)
        into: dict[int, list] = {}
        for occ, group in level.items():
            seen = depth[occ]
            for rank in group:
                seen[rank] = mark
            pick = _picker(group)
            for child, table in ranks[occ]:
                into.setdefault(child, []).append((pick, table))
        nxt: dict[int, tuple[int, ...]] = {}
        for child, edges in into.items():
            grown = set()
            for pick, table in edges:
                grown.update(pick(table))
            grown.difference_update(level.get(child, ()))
            grown.difference_update(prev.get(child, ()))
            if grown:
                nxt[child] = tuple(grown)
        prev, level = level, nxt
    return sizes


def _picker(ranks: tuple[int, ...]):
    """A callable giving a rank table's entries at `ranks`, as a tuple."""
    if len(ranks) == 1:
        return lambda table: (table[ranks[0]],)
    return operator.itemgetter(*ranks)


def _level_states(depth: dict[int, memoryview], d: int):
    """The (mask, rank) states `_bfs_levels` put at level d."""
    key = (d + 1).to_bytes(2, sys.byteorder)
    for occ, seen in depth.items():
        raw = seen.obj
        at = raw.find(key)
        while at >= 0:
            if at % 2 == 0:  # a match across two entries is none
                yield occ, at // 2
            at = raw.find(key, at + 1)


def _shortest_layers(moves: _MoveTable, first: int, match, family):
    """(layers, explored): `layers[j]` holds the codes at distance j from
    `first` on a shortest path to a code that `match` accepts, and layers
    is None when no such code is reachable.

    Every move has an inverse, so the graph is undirected and a search from
    both ends that stops where they meet is exact.  While the goal `family`,
    an iterator over the matching codes, has more codes than the start
    side's frontier, only the start side grows, and a level with matches is
    a meeting whose matches are the goal side's only level; so at most
    frontier + 1 goal codes are ever listed.  A listed family seeds the goal
    side, and the side with the smaller frontier grows (the start side on a
    tie) until a new level meets the other side's labels.  `explored` counts
    the states either side labelled; the sides stay disjoint until they
    meet, since every start-side level is goal-tested before the goal side
    is seeded, so it never passes the number of states.
    """
    goals: list[int] = []
    fwd, fseen = [[first]], {first}
    bwd: list[list[int]] = []
    bseen: set[int] = set()
    while True:
        if not bwd:
            meet = [code for code in fwd[-1] if match(code)]
            if meet:
                bwd.append(meet)
                bseen.update(meet)
                break
            wanted = len(fwd[-1]) + 1 - len(goals)
            if wanted > 0:
                goals.extend(itertools.islice(family, wanted))
                if len(goals) <= len(fwd[-1]):  # the family is exhausted
                    bwd.append(goals)
                    bseen.update(goals)
        if not bwd or len(fwd[-1]) <= len(bwd[-1]):
            levels, seen, other = fwd, fseen, bseen
        else:
            levels, seen, other = bwd, bseen, fseen
        nxt = _next_level(moves, levels[-1], seen)
        if not nxt:
            return None, len(fseen) + len(bseen)
        levels.append(nxt)
        meet = [code for code in nxt if code in other]
        if meet:
            break

    # The meeting codes are the shortest-path codes at distance kf from the
    # start; layers[j] holds those at distance j, found through the stored
    # levels of the side that labelled them.
    kf, d = len(fwd) - 1, len(fwd) + len(bwd) - 2
    layers: list = [None] * (d + 1)
    layers[kf] = set(meet)
    for j in range(kf, 0, -1):
        layers[j - 1] = set(_next_level(moves, layers[j], set())).intersection(fwd[j - 1])
    for j in range(kf, d):
        layers[j + 1] = set(_next_level(moves, layers[j], set())).intersection(bwd[d - j - 1])
    return layers, len(fseen) + len(bseen) - len(meet)


def _compile_match(spec: PuzzleSpec, pattern: GoalPattern):
    """Turn a pattern into a predicate over packed position codes.

    Each satisfiable alternative compiles to (mask, value, sets): its exact
    and empty tracks, and the slots past each any-order track's wanted
    count, must read `code & mask == value`; each any-order track's leading
    slots, given by their shifts, must hold exactly its wanted set.  An
    alternative that `_alternative_conflict` rejects matches no valid
    position and is dropped.
    """
    codec = position_codec(spec)
    bits, slot = codec.bits, codec.slot_mask
    compiled = []
    for alt in pattern.alternatives:
        if _alternative_conflict(spec, alt):
            continue
        mask = 0
        sets = []
        for i, rule in enumerate(alt):
            shift, cap = codec.low_shift[i], codec.caps[i]
            if rule.kind in (EXACT, EMPTY):
                mask |= codec.seg_mask[i] << shift
            elif rule.kind == SET_ANY_ORDER:
                k = len(rule.wagons)
                mask |= ((1 << bits * (cap - k)) - 1) << shift
                sets.append((_leading_shifts(codec, i, k), frozenset(rule.wagons)))
        value = codec.encode([rule.wagons if rule.kind == EXACT else () for rule in alt])
        compiled.append((mask, value, tuple(sets)))

    def match(code: int) -> bool:
        for mask, value, sets in compiled:
            if code & mask == value and all(
                {(code >> shift) & slot for shift in shifts} == wanted
                for shifts, wanted in sets
            ):
                return True
        return False

    return match


def _reconstruct(spec: PuzzleSpec, levels, end: int, distance: int):
    """Walk an optimal path backwards, preferring at each step the forward
    move with the smallest (siding, pull-before-push, count) triple.
    `levels[j]` holds codes at distance j from the start, at least every
    one on a shortest path to `end`.  Each move is read off the siding and
    the headshunt whose lengths change between two neighbours."""
    codec = position_codec(spec)
    back = _first_path(_shunt_moves(spec, pushes_first=True), end, levels[distance::-1])
    path = [codec.decode(code) for code in reversed(back)]
    moves = []
    for pred, cur in zip(path, path[1:]):
        siding = next(r for r in range(1, spec.s + 1) if len(pred[r]) != len(cur[r]))
        gain = len(cur[0]) - len(pred[0])
        moves.append(ShuntMove(siding, PULL if gain > 0 else PUSH, abs(gain)))
    return moves, Position(path[0])


@dataclass
class SearchReport:
    """Result of an optimal search: exact distance (None when the goal is
    unreachable), one optimal trace, and exploration statistics."""

    distance: int | None
    trace: SolutionTrace | None
    explored: int


@dataclass
class WorstCaseReport:
    """Worst start for a goal set: its exact distance (None when some
    matching start cannot reach the goal at all) and a witness."""

    distance: int | None
    start: Position | None
    explored: int


def optimal_solve(spec: PuzzleSpec, start: Position, goal: GoalPattern, *,
                  budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exact shortest solution from start to any position matching goal, by
    `_shortest_layers`; an unreachable goal gives a report, not an error."""
    validate_position(spec, start)
    _within_budget(budget, count_positions(spec), "optimal search")
    codec = position_codec(spec)
    moves = _shunt_moves(spec)
    first = codec.encode(start.tracks)
    layers, explored = _shortest_layers(
        moves, first, _compile_match(spec, goal), _iter_matching_codes(spec, goal)
    )
    if layers is None:
        return SearchReport(None, None, explored)
    hit = _first_path(moves, first, layers)[-1]
    distance = len(layers) - 1
    trace_moves, origin = _reconstruct(spec, layers, hit, distance)
    if origin != start:
        raise InternalCheckError("the optimal trace must lead back to the start")
    trace = SolutionTrace(start, Position(codec.decode(hit)), tuple(trace_moves))
    # the moves are read off code pairs, so replay them by the move rule
    return SearchReport(distance, _check_trace(replay, spec, trace, "optimal"), explored)


def worst_case_moves(spec: PuzzleSpec, start_pattern: GoalPattern, goal: GoalPattern, *,
                     budget: int = DEFAULT_BUDGET) -> WorstCaseReport:
    """Largest optimal distance from any start matching start_pattern to
    the goal set, by one reverse multi-source sweep from the goal states.

    When both patterns are closed under renaming wagons this is also the
    worst case over every renaming of the goal, since renamings are graph
    automorphisms.

    The witness is the first start match in the deepest level that has one,
    in the order a level-order search over codes would list it: by its
    least (source, moves...) path, sources in `matching_codes` order and
    moves in table order.  The sweep keeps no order, so that path is
    rebuilt from the start matches of that level back through the recorded
    levels to the sources, and walked forward from the first source on it.
    """
    total = _within_budget(budget, count_positions(spec), "worst-case sweep")
    smatch = _compile_match(spec, start_pattern)
    goals = matching_codes(spec, goal, "the goal pattern")
    if next(_iter_matching_codes(spec, start_pattern), None) is None:
        raise _unsatisfiable(spec, start_pattern, "the start pattern")
    codec = position_codec(spec)
    ranks = _RankMoves(_shunt_moves(spec), spec.w)
    depth = _depth_map(ranks)
    sizes = _bfs_levels(ranks, map(ranks.state, goals), depth)
    explored = sum(sizes)

    if explored < total:
        # Some positions cannot reach the goal set at all; report the first
        # matching start among them, if any.
        for code in matching_codes(spec, start_pattern, "the start pattern"):
            occ, rank = ranks.state(code)
            if not depth[occ][rank]:
                return WorstCaseReport(None, Position(codec.decode(code)), explored)

    for d in range(len(sizes) - 1, 0, -1):
        ends = {state for state in _level_states(depth, d) if smatch(ranks.code(*state))}
        if ends:
            break
    else:
        # Level 0 is the goals in order: the first match is the witness the
        # path below would find, without listing and decoding every level-0
        # state (2,136,960 for a goal of `*` on the classic plan).
        return WorstCaseReport(0, Position(codec.decode(next(filter(smatch, goals)))), explored)
    layers: list = [None] * (d + 1)
    layers[d] = ends
    for j in range(d, 0, -1):
        layers[j - 1] = {(occ, rank) for state in layers[j]
                         for occ, rank in ranks.children(state) if depth[occ][rank] == j}
    first = next(state for state in map(ranks.state, goals) if state in layers[0])
    end = _first_path(ranks, first, layers)[-1]
    return WorstCaseReport(d, Position(codec.decode(ranks.code(*end))), explored)


# --- card-pile analyses -----------------------------------------------------

@dataclass
class CensusReport:
    states: int
    components: int
    sizes: tuple[int, ...]  # descending


def cards_component_census(spec: CardsSpec, *, budget: int = DEFAULT_BUDGET) -> CensusReport:
    """Count connected components of the card-pile graph exhaustively."""
    total = _within_budget(budget, count_states(spec), "component census")
    ranks = _RankMoves(_card_moves(spec), spec.w)
    depth = _depth_map(ranks)
    sizes = []
    for occ, seen in depth.items():
        for rank in range(len(seen)):
            if not seen[rank]:
                sizes.append(sum(_bfs_levels(ranks, [(occ, rank)], depth)))
    if sum(sizes) != total:
        raise InternalCheckError(f"the census visited {sum(sizes)} of {total} states")
    return CensusReport(total, len(sizes), tuple(sorted(sizes, reverse=True)))


def cards_distance(spec: CardsSpec, start: CardsState, goal: CardsState, *,
                   budget: int = DEFAULT_BUDGET) -> int | None:
    """Exact move distance between two card states, None if unreachable."""
    validate_state(spec, start)
    validate_state(spec, goal)
    _within_budget(budget, count_states(spec), "card distance search")
    codec = state_codec(spec)
    dst = codec.encode(goal.piles)
    layers, _explored = _shortest_layers(
        _card_moves(spec), codec.encode(start.piles), lambda code: code == dst, iter([dst])
    )
    return None if layers is None else len(layers) - 1


def cards_diameter(spec: CardsSpec, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact diameter of a connected card-pile graph.

    Renaming cards is a graph automorphism, so every state with the same
    pile sizes has the same eccentricity: one search per pile-size
    composition, from cards 1..w dealt in order, covers every state.  The
    budget is checked against the states those searches visit: the number
    of compositions times the state count.  The graph is connected exactly
    when a search reaches every state; only a disconnected graph is
    censused, for the error it raises.
    """
    total = count_states(spec)
    shapes = _compositions(spec.m, spec.w)
    _within_budget(budget, shapes * total, "all-sources diameter")

    ranks = _RankMoves(_card_moves(spec), spec.w)
    diameter = 0
    # rank 0 deals cards 1..w in order over a composition
    for occ in _occupancies(ranks.moves.codec, spec.w):
        sizes = _bfs_levels(ranks, [(occ, 0)], _depth_map(ranks))
        if sum(sizes) != total:
            raise DisconnectedGraphError(cards_component_census(spec, budget=budget))
        diameter = max(diameter, len(sizes) - 1)

    lower_bound_family = spec.s == 2 and spec.w >= 2 and spec.m == (spec.w - 1, spec.w - 1, 1)
    if lower_bound_family and diameter < (spec.w * spec.w + 2) // 4:
        raise InternalCheckError(f"diameter {diameter} is below the ceil((w*w - 1) / 4) bound")
    return diameter


def reversal_distance(w: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact moves needed to reverse a full ordering of w wagons on the
    three-siding, one-wagon-headshunt plan with sidings w-1, w-1, 1.

    Checked against the matching card-pile search: the shunt distance is
    exactly twice the card distance, and at least ceil((w*w - 1) / 2).
    """
    if w < 2:
        raise InglenookError("reversal needs at least two wagons")
    spec = PuzzleSpec(w, 1, (w - 1, w - 1, 1))
    cspec = CardsSpec(w, (w - 1, w - 1, 1))
    ordered = CardsState((tuple(range(1, w)), (w,), ()))
    reversed_ = CardsState((tuple(range(w, 1, -1)), (1,), ()))
    card_d = cards_distance(cspec, ordered, reversed_, budget=budget)
    if card_d is None:
        raise InternalCheckError("the card reversal must be reachable")
    start = from_cards(spec, ordered)
    goal = from_cards(spec, reversed_)
    report = optimal_solve(spec, start, GoalPattern.exact_position(goal), budget=budget)
    if report.distance != 2 * card_d or report.distance < (w * w) // 2:
        raise InternalCheckError(
            f"reversal takes {report.distance} shunt moves; want twice the card "
            f"distance {card_d} and at least {(w * w) // 2}"
        )
    return report.distance


def ordering_displacement(first, second) -> int:
    """Total slot displacement between two orderings of the same items."""
    pos = {item: i for i, item in enumerate(first)}
    if len(pos) != len(first) or sorted(first) != sorted(second):
        raise InglenookError("orderings must list the same distinct items")
    return sum(abs(pos[item] - i) for i, item in enumerate(second))
