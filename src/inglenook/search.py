"""Exhaustive and optimal analysis: shortest solutions, worst-case move
counts, component censuses, and exact diameters at desk scale.

Both move rules, a block of wagons between the headshunt and one siding and
one card between two piles, are one kind of move table, `_MoveTable`.  It is
keyed by the occupancy mask of an integer-packed code (see model.SlotCodec),
which fixes every track's length, and lists that composition's moves in a
fixed order, each as one `bytes.translate` table of the labels' places, so a
move maps every state of a mask alike.  Reported distances, exploration
counts, witnesses and tie-broken traces follow from that order, so they are
reproducible bit-for-bit.  Shortest paths (`optimal_solve`,
`cards_distance`) grow a start and a goal side until they meet, by
`_shortest_layers`: a level maps each mask to the places of its states, a
side labels states in a depth map (mask -> {places: depth}), and
`_next_level` unites each child mask's translates once.  When the goal is
one state with the start's mask, the goal side is the start side under the
wagon renaming that takes the start to the goal, a graph automorphism, so
it is read through that renaming and never grown.  The search, its layers
and its walks stay on place states: codes appear only at the edges, as the
start, the goal test, the listed goal family and the printed path.  One
walker, `_first_path`, builds every reported path on states of either
table, by the first move in table order into each next shortest-path
layer: the optimal trace walks from the start to the finish a forward
search alone would hit, then back over the reversed layers on the
pushes-first table, which takes the first forward move in (siding, pull
before push, count) order; `worst` walks from the first goal on a deepest
path to its witness.  Full sweeps (`worst`, the
census, the diameter) run `_bfs_levels` on `_RankMoves`, the same tables on
(mask, label-order rank) states, where a move is one list of w! ranks, built
up front by `_rank_table` from blocks of the lexicographic ranks rather than
permutation by permutation; a sweep keeps three levels and a 16-bit depth
per state.  An exact card-pile diameter takes one sweep per orbit of
pile-size compositions under swaps of like tracks, by `_eccentricities`;
a disconnected graph costs only its `_census`.  A goal pattern
compiles once per search, by `_plans`, into one `_Plan` per satisfiable
alternative, its one compiled form.  A plan holds a masked compare plus one
set test per any-order track, from which `_goal_test` builds the goal
predicate, and indexes the codes it allows in one order: it counts them
and builds the one at any index by unranking wagon orders, so it lists
them (`matching_codes`, index by index) and samples one (`sample_code`, for
`gen`), and its index 0 is its least, the target of `solve_to_pattern`.
Budgets are checked once, up front, by `_within_budget`, against every state
a search could label, so the kernels take no budget.
"""

from __future__ import annotations

import itertools
import math
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
    InvalidSpecError,
    LabelTable,
    Position,
    PuzzleSpec,
    ShuntMove,
    SolutionTrace,
    _check_trace,
    _replay_steps,
    count_positions,
    count_states,
    from_cards,
    position_codec,
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
    return list(_iter_codes(_plans(spec, pattern, what)))


def _iter_codes(plans: list[_Plan]):
    """Yield the codes the plans allow, lazily, in plan order.

    A position matching several plans is yielded once, under the first of
    them: later plans skip what an earlier one matches.
    """
    for k, plan in enumerate(plans):
        found = map(plan.code, range(plan.count))
        if k:
            found = itertools.filterfalse(_goal_test(plans[:k]), found)
        yield from found


def sample_code(spec: PuzzleSpec, pattern: GoalPattern, rng, what: str) -> int:
    """A code drawn uniformly from the positions matching the pattern, by
    `rng`; refuses a pattern that no position matches, naming it `what`.

    An index over every alternative's codes picks one alternative's code;
    a position that an earlier alternative also matches is drawn again,
    so each matching position is kept under one index only.  A
    single-alternative pattern takes one `rng.randrange` call.
    """
    plans = _plans(spec, pattern, what)
    total = sum(plan.count for plan in plans)
    while True:
        i = rng.randrange(total)
        for k, plan in enumerate(plans):
            if i < plan.count:
                break
            i -= plan.count
        code = plan.code(i)
        if not _goal_test(plans[:k])(code):
            break
    if not _goal_test([plan])(code):
        raise InternalCheckError(f"the drawn position does not match {what}")
    return code


def _plans(spec: PuzzleSpec, pattern: GoalPattern, what: str | None = None) -> list[_Plan]:
    """The `_Plan` of each satisfiable alternative, in pattern order; given
    `what`, refuses a pattern that no position matches, naming it `what`."""
    codec = position_codec(spec)
    plans = [_Plan(codec, alt, spec.w)
             for alt in pattern.alternatives if not _alternative_conflict(spec, alt)]
    if what is not None and not plans:
        raise UnsatisfiablePatternError(f"no valid position matches {what}",
                                        pattern_conflicts(spec, pattern))
    return plans


def _goal_test(plans: list[_Plan]):
    """A predicate over codes: whether some plan matches, by its masked
    compare against `base`, then its set tests.  It closes over tuples
    taken from the plans once, so a code costs no attribute lookups."""
    compiled = [(plan.mask, plan.base, plan.sets, plan.slot) for plan in plans]

    def match(code: int) -> bool:
        for mask, value, sets, slot in compiled:
            if code & mask == value and all(
                {(code >> shift) & slot for shift in shifts} == wanted
                for shifts, wanted in sets
            ):
                return True
        return False

    return match


class _Plan:
    """The one compiled form of a satisfiable alternative: the codes of
    every layout of wagons 1..w that it allows, indexed 0..count-1, summed
    from the codec's slot shifts, and the test of whether a code is one: it
    equals `base`, the exact tracks, on `mask`, the slots that no run fills
    (the exact and empty tracks and the slots past each any-order run), and
    each any-order run's leading slots, read by their shifts and the
    codec's `slot` mask, hold its `sets`.

    An index is a mixed-radix number.  The orders of the any-order tracks
    are its slowest digits (k! each, in track order), then the permutation
    of the L loose wagons (L!), then, fastest, their `_track_lengths`
    layouts over the `ANY` tracks, each run filling its track's leading
    slots.  A permutation digit counts in lexicographic order from sorted
    wagons, the order of `itertools.permutations`.  Index 0 holds the
    least code: there every run ascends along its slots, whose shifts
    descend, and the first layout leaves each leading track as short as
    the later ones allow, so a higher slot is empty wherever another
    layout fills it.
    """

    __slots__ = ("base", "mask", "slot", "sets", "loose", "layouts", "count")

    def __init__(self, codec, alt: tuple[TrackRule, ...], w: int):
        self.slot = codec.slot_mask
        self.base = codec.encode([rule.wagons if rule.kind == EXACT else () for rule in alt])
        pinned = {x for rule in alt if rule.kind in (EXACT, SET_ANY_ORDER) for x in rule.wagons}
        self.sets = [(_leading_shifts(codec, i, len(rule.wagons)), frozenset(rule.wagons))
                     for i, rule in enumerate(alt) if rule.kind == SET_ANY_ORDER]
        self.loose = sorted(set(range(1, w + 1)) - pinned)
        any_tracks = [i for i, rule in enumerate(alt) if rule.kind == ANY]
        free = [shift for i in any_tracks for shift in _leading_shifts(codec, i, codec.caps[i])]
        free += [shift for shifts, _wanted in self.sets for shift in shifts]
        self.mask = (1 << codec.bits * codec.total_slots) - 1 - sum(
            codec.slot_mask << shift for shift in free)
        self.layouts = [
            [shift for i, k in zip(any_tracks, lens) for shift in _leading_shifts(codec, i, k)]
            for lens in _track_lengths([codec.caps[i] for i in any_tracks], len(self.loose))
        ]
        orders = math.prod(math.factorial(len(wanted)) for _shifts, wanted in self.sets)
        self.count = orders * math.factorial(len(self.loose)) * len(self.layouts)

    def code(self, i: int) -> int:
        """The code at index i."""
        i, j = divmod(i, len(self.layouts))
        i, r = divmod(i, math.factorial(len(self.loose)))
        return self._fixed(i) + sum(map(operator.lshift, _unrank(self.loose, r), self.layouts[j]))

    def _fixed(self, i: int) -> int:
        """The base plus the any-order runs of the i-th joint order of the
        any-order tracks."""
        fixed = self.base
        for shifts, wanted in reversed(self.sets):
            i, r = divmod(i, math.factorial(len(wanted)))
            fixed += sum(map(operator.lshift, _unrank(sorted(wanted), r), shifts))
        return fixed


def _unrank(items: list[int], rank: int) -> list[int]:
    """The permutation of `rank` in the lexicographic order of the
    permutations of sorted `items` (factorial-base digits)."""
    items = list(items)
    f = math.factorial(len(items))
    out = []
    for n in range(len(items), 0, -1):
        f //= n
        d, rank = divmod(rank, f)
        out.append(items.pop(d))
    return out


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
    """The moves of one move rule on place states, keyed by occupancy mask.

    A code's mask, `(((code & low) + low) | code) & high`, sets the high bit
    of exactly the non-zero slots, so it fixes every track's length.  A
    place state is (mask, places), where places[j-1] is the index of label
    j's slot among the occupied slots in reading order (slot by slot, the
    first track's first slot first); labels and places take a byte each,
    as in a code's 8-bit slots, so a table refuses w > 255.  A move sends the
    label at place i to place t[i] whatever the labels, so an entry, built
    on first use, lists a mask's moves as (child mask, t padded to a
    256-byte `bytes.translate` table).  A rule is the ordered (source,
    destination) track pairs, which end of each track is open (`front_open`
    when its first slot is), and the largest block that may move; a block
    keeps its order.  Moves come out by pair, then block size ascending.
    """

    def __init__(self, codec, w: int, front_open: tuple[bool, ...], pairs, max_block: int):
        if w > 255:
            raise InvalidSpecError(f"searches handle at most 255 wagons or cards, got {w}")
        super().__init__()
        self.codec = codec
        self.w = w
        self.front_open = front_open
        self.pairs = tuple(pairs)
        self.max_block = max_block
        ones = ((1 << codec.bits * codec.total_slots) - 1) // codec.slot_mask  # 1 in every slot
        self.low = ones * (codec.slot_mask >> 1)
        self.high = ones << (codec.bits - 1)
        self._labels, self._places = bytes(range(1, w + 1)), bytes(range(w))
        self._gathers: dict[int, bytes] = {}

    def __missing__(self, occ: int) -> list[tuple[int, bytes]]:
        codec, front, pad = self.codec, self.front_open, bytes(256 - self.w)
        lens = [((occ >> shift) & seg).bit_count()
                for shift, seg in zip(codec.low_shift, codec.seg_mask)]
        starts = list(itertools.accumulate(lens, initial=0))
        moves = []
        for src, dst in self.pairs:
            for k in range(1, min(lens[src], codec.caps[dst] - lens[dst], self.max_block) + 1):
                tracks = [range(at, at + n) for at, n in zip(starts, lens)]
                cut = k if front[src] else lens[src] - k
                head, tail = tracks[src][:cut], tracks[src][cut:]
                block, tracks[src] = (head, tail) if front[src] else (tail, head)
                tracks[dst] = [*block, *tracks[dst]] if front[dst] else [*tracks[dst], *block]
                t = bytearray(self.w)
                for place, old in enumerate(itertools.chain(*tracks)):
                    t[old] = place
                moves.append((_mask(codec, map(len, tracks)), bytes(t) + pad))
        self[occ] = moves
        return moves

    def _gather(self, occ: int) -> bytes:
        """For each slot in reading order, its place among the occupied
        slots of `occ`, or 255 when it is empty."""
        gather = self._gathers.get(occ)
        if gather is None:
            places = itertools.count()
            gather = self._gathers[occ] = bytes(next(places) if flag else 255 for flag in
                                                occ.to_bytes(self.codec.total_slots, "big"))
        return gather

    def state(self, code: int) -> tuple[int, bytes]:
        """The place state of `code`."""
        occ = (((code & self.low) + self.low) | code) & self.high
        labels = code.to_bytes(self.codec.total_slots, "big").replace(b"\0", b"")
        return occ, self._labels.translate(bytes.maketrans(labels, self._places))

    def code(self, occ: int, places: bytes) -> int:
        table = bytes.maketrans(places + b"\xff", self._labels + b"\0")
        return int.from_bytes(self._gather(occ).translate(table), "big")

    def children(self, state: tuple[int, bytes]) -> list[tuple[int, bytes]]:
        """The children of place state `state`, in table order."""
        occ, places = state
        return [(child, places.translate(t)) for child, t in self[occ]]


def _shunt_moves(spec: PuzzleSpec, *, pushes_first: bool = False) -> _MoveTable:
    """Blocks of any size between the headshunt, open at its back, and a
    siding, open at its front: siding ascending, pulls before pushes, or
    pushes first, which lists a position's predecessors in the order of the
    forward moves into it, since a push of k undoes a pull of k."""
    pairs = [pair for r in range(1, spec.s + 1)
             for pair in (((0, r), (r, 0)) if pushes_first else ((r, 0), (0, r)))]
    return _MoveTable(position_codec(spec), spec.w, (False,) + (True,) * spec.s, pairs, spec.w)


def _card_moves(spec: CardsSpec) -> _MoveTable:
    """One card from the top of a pile to the top of another: source pile
    ascending, then destination ascending."""
    n = len(spec.m)
    return _MoveTable(state_codec(spec), spec.w, (False,) * n,
                      itertools.permutations(range(n), 2), 1)


def _first_path(moves, first, layers) -> list:
    """The path from state `first` that takes, at every step, the first
    move in the table order of `moves` (a `_MoveTable` over (mask, places)
    states or a `_RankMoves` over (mask, rank) states) into the next of the
    shortest-path `layers`, sets of such states; its end is the one a
    forward level-order search from `first` reaches first."""
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
    """The moves of a `_MoveTable` on (mask, rank) states, where rank is
    the lexicographic rank of the places among the w! orders of 0..w-1.
    Every mask's entry is built up front, in `_occupancies` order, by
    `_rank_table`, so the keys list every mask once; an entry lists
    (child mask, T) in table order: T[rank] is the child's rank, so a whole
    tuple of ranks moves with no arithmetic per state.  Moves with the same
    translate table share T, and every T and level shares the int objects
    of `rank`.
    """

    def __init__(self, moves: _MoveTable):
        super().__init__()
        self.moves = moves
        self.perms = list(map(bytes, itertools.permutations(range(moves.w))))
        ints = list(range(len(self.perms)))
        self.rank = dict(zip(self.perms, ints))
        occs = _occupancies(moves.codec, moves.w)
        # every table is allocated before the memo of `_rank_table`, so the
        # memo, freed on return, leaves one run that the sweep's depths reuse
        tables = {t: [0] * len(ints)
                  for t in dict.fromkeys(t for occ in occs for _child, t in moves[occ])}
        gathers: dict[bytes, operator.itemgetter] = {}
        for t, table in tables.items():
            _rank_table(table, t[:moves.w], ints, gathers)
        for occ in occs:
            self[occ] = [(child, tables[t]) for child, t in moves[occ]]

    def state(self, code: int) -> tuple[int, int]:
        occ, places = self.moves.state(code)
        return occ, self.rank[places]

    def code(self, occ: int, rank: int) -> int:
        return self.moves.code(occ, self.perms[rank])

    def children(self, state: tuple[int, int]) -> list[tuple[int, int]]:
        """The children of `state`, in table order."""
        occ, rank = state
        return [(child, table[rank]) for child, table in self[occ]]


def _rank_table(table: list[int], t: bytes, ints: list[int], gathers: dict) -> None:
    """Fill `table`, k! entries, with T_t, the rank table of the place
    permutation t of 0..k-1: T_t[r] is the rank of `p.translate(t)` for the
    order p of rank r.  Its entries are the objects of `ints`, the ranks
    0..k!-1.

    The (k-1)! ranks whose first place is v form block v, and t sends block
    v, whole, to block t[v], in the order of t without v (t∖v: v taken out
    of its domain and t[v] out of its range, relabelled to 0..k-2), so
    T_t[v·(k-1)! + i] = t[v]·(k-1)! + T_{t∖v}[i].  A block is one
    itemgetter of T_{t∖v} over a slice of `ints`; `gathers` keeps those
    itemgetters by t∖v, for the other tables that share it.
    """
    f = math.factorial(len(t) - 1)
    for v, tv in enumerate(t):
        block = ints[tv * f:(tv + 1) * f]
        if f > 1:
            rest = bytes(x - (x > tv) for x in t[:v] + t[v + 1:])
            gather = gathers.get(rest)
            if gather is None:
                sub = [0] * f
                _rank_table(sub, rest, ints, gathers)
                gather = gathers[rest] = operator.itemgetter(*sub)
            block = gather(block)
        table[v * f:(v + 1) * f] = block


def _mask(codec, lens) -> int:
    """The occupancy mask of tracks holding `lens` labels."""
    top = codec.bits - 1
    return sum(1 << (shift + top)
               for i, k in enumerate(lens) for shift in _leading_shifts(codec, i, k))


def _occupancies(codec, w: int) -> list[int]:
    """The occupancy mask of every layout of w labels, in `_track_lengths`
    order."""
    return [_mask(codec, lens) for lens in _track_lengths(codec.caps, w)]


def _orbit_firsts(moves: _MoveTable) -> list[int]:
    """The mask of the first composition, in `_track_lengths` order, of
    each orbit under swaps of two tracks of one capacity and one open end,
    graph automorphisms of either move rule like renaming the labels."""
    firsts: dict[tuple, tuple[int, ...]] = {}
    for lens in _track_lengths(moves.codec.caps, moves.w):
        firsts.setdefault(tuple(sorted(zip(moves.codec.caps, moves.front_open, lens))), lens)
    return [_mask(moves.codec, lens) for lens in firsts.values()]


def _depth_map(ranks: _RankMoves) -> dict[int, memoryview]:
    """A zeroed 16-bit depth entry per state, w! entries per mask, each a
    view of a bytearray; `_bfs_levels` stores level + 1, so a sweep may run
    65,534 levels."""
    n = len(ranks.perms)
    return {occ: memoryview(bytearray(2 * n)).cast("H") for occ in ranks}


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
    """The (mask, rank) states `_bfs_levels` put at level d; d = -1 gives
    those no sweep has recorded, read lazily past any sweep in between."""
    key = (d + 1).to_bytes(2, sys.byteorder)
    for occ, seen in depth.items():
        raw = seen.obj
        at = raw.find(key)
        while at >= 0:
            if at % 2 == 0:  # a match across two entries is none
                yield occ, at // 2
            at = raw.find(key, at + 1)


def _level(moves: _MoveTable, codes) -> dict[int, list[bytes]]:
    """The place states of `codes`, as a level: places by mask."""
    level: dict[int, list[bytes]] = {}
    for occ, places in map(moves.state, codes):
        level.setdefault(occ, []).append(places)
    return level


def _size(level) -> int:
    return sum(map(len, level.values()))


def _drawn(moves: _MoveTable, level) -> dict:
    """The place states one move from `level`, with repeats, as one
    iterator of translates per child mask."""
    into: dict[int, list] = {}
    for occ, group in level.items():
        for child, table in moves[occ]:
            into.setdefault(child, []).append(map(bytes.translate, group, itertools.repeat(table)))
    return {child: itertools.chain.from_iterable(found) for child, found in into.items()}


def _next_level(moves: _MoveTable, level, depth: dict, d: int, probe) -> tuple[dict, dict]:
    """(nxt, hits): the place states one move from `level` that the depth
    map `depth` (mask -> {places: depth}) lacks, entered in it at depth d,
    by mask, and `probe(child, grown)` of each child mask's new states,
    where it is not empty, by mask.  A child mask's candidates are united
    once, dropping the states `depth` holds as they are drawn.  Sets of
    bytes iterate in an order that follows the hash seed, so nothing
    reported may depend on the order within a level.
    """
    nxt: dict[int, tuple[bytes, ...]] = {}
    hits: dict = {}
    for child, drawn in _drawn(moves, level).items():
        known = depth.setdefault(child, {})
        grown = set(itertools.filterfalse(known.__contains__, drawn))
        if grown:
            known.update(dict.fromkeys(grown, d))
            hit = probe(child, grown)
            if hit:
                hits[child] = hit
            nxt[child] = tuple(grown)
    return nxt, hits


def _same(states):
    return states


def _depths(depth: dict, rename=_same, unname=_same):
    """A function of a mask and some place states of it that maps each
    state x whose `unname(x)` the depth map `depth` labels to that depth;
    `rename` undoes `unname`."""
    def of(occ: int, states) -> dict[bytes, int]:
        known = depth.get(occ, {})
        found = list(known.keys() & unname(states))
        return dict(zip(rename(found), map(known.__getitem__, found)))
    return of


def _renaming(src: bytes, dst: bytes):
    """The wagon renaming that takes place state `src` to `dst`, of one
    mask, over an iterable of place states.  Places are by label, so it
    permutes their positions: the image of x is x∘src⁻¹∘dst, one fixed
    `bytes.translate` per state, through x's own table."""
    ident = bytes(range(len(src)))
    perm = dst.translate(bytes.maketrans(src, ident))
    return lambda states: map(perm.translate, map(bytes.maketrans, itertools.repeat(ident), states))


def _between(hits: dict, low: int, high: int) -> dict[int, list[bytes]]:
    """The states of `hits` (mask -> {places: depth}) at depths low..high,
    by mask."""
    picked = {occ: [x for x, j in hit.items() if low <= j <= high] for occ, hit in hits.items()}
    return {occ: group for occ, group in picked.items() if group}


def _shortest_layers(moves: _MoveTable, first: int, match, family):
    """(layers, explored): `layers[j]` holds the place states at distance
    j from the code `first` on a shortest path to a code that `match`
    accepts, and layers is None when no such code is reachable.

    Every move has an inverse, so the graph is undirected and a search from
    both ends that stops where they meet is exact.  The start side keeps a
    depth map (mask -> {places: depth}) of the states it labelled and its
    newest level, f_kf; the side whose newest level is smaller grows (the
    start side on a tie) until a new level meets the other side's labels,
    which a start-side step reads through one probe of goal depths.
    `explored` counts the states either side labelled; the sides stay
    disjoint until they meet, so it never passes the number of states.
    The layers are read back from the meeting, each the neighbours of the
    last at the next depth of the side that labelled them.

    When the goal `family`, an iterator over the matching codes, is one
    code with the start's mask, the goal side is the start side renamed:
    renaming wagons is a graph automorphism, so with σ the renaming that
    takes the start to the goal, the goal side's level j is σ(f_j), and a
    state x has goal depth j when σ⁻¹(x) has start depth j.  Only the start
    side grows.  The goal side's newest level is f_kb: a start-side step
    meets at the new states of goal depth at most kb, and a goal-side step
    at the states of f_kf of goal depth kb + 1.

    Otherwise the goal side is a second depth map.  While the family has
    more codes than the start side's newest level, only the start side
    grows, the probe puts each new state whose code `match` accepts at goal
    depth 0, and a level with matches is a meeting whose matches are the
    goal side's only level; so at most frontier + 1 goal codes are ever
    listed.  A listed family seeds the goal side.
    """
    occ, places = moves.state(first)
    if match(first):
        return [{(occ, places)}], 1
    depth = {occ: {places: 0}}
    front, sizes, bsizes = {occ: (places,)}, [1], []
    goals = list(itertools.islice(family, 2))
    mirrored = len(goals) == 1 and moves.state(goals[0])[0] == occ

    def goal_depths(occ: int, states) -> dict[bytes, int]:  # the family, not yet listed
        return dict.fromkeys([x for x in states if match(moves.code(occ, x))], 0)
    if mirrored:
        goal = moves.state(goals[0])[1]
        rename = _renaming(places, goal)
        if next(rename([places])) != goal:
            raise InternalCheckError("the wagon renaming must take the start to the goal")
        goal_depths = _depths(depth, rename, _renaming(goal, places))
        bsizes.append(1)
    while True:
        if not bsizes and len(goals) <= sizes[-1]:  # the whole family
            bfront = _level(moves, goals)
            bdepth = {occ: dict.fromkeys(group, 0) for occ, group in bfront.items()}
            goal_depths = _depths(bdepth)
            bsizes.append(len(goals))
        if not bsizes or sizes[-1] <= bsizes[-1]:
            front, hits = _next_level(moves, front, depth, len(sizes), goal_depths)
            sizes.append(_size(front))
            meet = _between(hits, 0, max(len(bsizes) - 1, 0))
            if meet or not front:
                break
        elif mirrored:
            bsizes.append(sizes[len(bsizes)])  # σ(f_kb+1) has |f_kb+1| states
            meet = _between(hits, len(bsizes) - 1, len(bsizes) - 1)
            if meet:
                break
        else:
            bfront, meet = _next_level(moves, bfront, bdepth, len(bsizes), _depths(depth))
            bsizes.append(_size(bfront))
            if meet or not bfront:
                break
        if not bsizes and len(goals) <= sizes[-1]:
            goals.extend(itertools.islice(family, sizes[-1] + 1 - len(goals)))
    if not bsizes:  # met before the family was listed: the matches are the goal side
        bsizes.append(_size(meet))
    explored = sum(sizes) + sum(bsizes) - _size(meet)
    if not meet:
        return None, explored

    # The meeting states are the shortest-path states at distance kf from
    # the start; layers[j] holds those at distance j.
    kf = len(sizes) - 1
    d = kf + len(bsizes) - 1
    layers: list = [None] * (d + 1)
    layers[kf] = meet
    for j in range(kf, 0, -1):
        layers[j - 1] = _next_depth(moves, layers[j], _depths(depth), j - 1)
    for j in range(kf, d):
        layers[j + 1] = _next_depth(moves, layers[j], goal_depths, d - j - 1)
    return [{(occ, x) for occ, group in layer.items() for x in group} for layer in layers], explored


def _next_depth(moves: _MoveTable, layer, depths, d: int) -> dict[int, list[bytes]]:
    """The place states one move from `layer` that `depths` (a `_depths`
    function) puts at depth d, by mask."""
    return _between({child: depths(child, set(drawn))
                     for child, drawn in _drawn(moves, layer).items()}, d, d)


def _reconstruct(spec: PuzzleSpec, layers, end) -> SolutionTrace:
    """An optimal trace to place state `end`, walked backwards, preferring
    at each step the forward move with the smallest (siding, pull-before-
    push, count) triple.  `layers[j]` holds place states at distance j from
    the start, at least every one on a shortest path to `end`, the last.
    Only the path is decoded; each move is read off the siding and the
    headshunt whose lengths change between two neighbours."""
    back_moves = _shunt_moves(spec, pushes_first=True)
    back = _first_path(back_moves, end, layers[::-1])
    path = [back_moves.codec.decode(back_moves.code(*state)) for state in reversed(back)]
    moves = []
    for pred, cur in zip(path, path[1:]):
        siding = next(r for r in range(1, spec.s + 1) if len(pred[r]) != len(cur[r]))
        gain = len(cur[0]) - len(pred[0])
        moves.append(ShuntMove(siding, PULL if gain > 0 else PUSH, abs(gain)))
    return SolutionTrace(Position(path[0]), Position(path[-1]), tuple(moves))


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
    moves = _shunt_moves(spec)
    first = moves.codec.encode(start.tracks)
    plans = _plans(spec, goal)
    layers, explored = _shortest_layers(moves, first, _goal_test(plans), _iter_codes(plans))
    if layers is None:
        return SearchReport(None, None, explored)
    trace = _reconstruct(spec, layers, _first_path(moves, moves.state(first), layers)[-1])
    if trace.start != start:
        raise InternalCheckError("the optimal trace must lead back to the start")
    # the moves are read off position pairs, so replay them by the move rule
    return SearchReport(len(layers) - 1, _check_trace(_replay_steps, spec, trace, "optimal"),
                        explored)


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
    moves = _shunt_moves(spec)  # refuses w > 255 before a pattern is listed
    goals = matching_codes(spec, goal, "the goal pattern")
    starts = _plans(spec, start_pattern, "the start pattern")
    codec = position_codec(spec)
    smatch = _goal_test(starts)
    ranks = _RankMoves(moves)
    depth = _depth_map(ranks)
    sizes = _bfs_levels(ranks, map(ranks.state, goals), depth)
    explored = sum(sizes)

    if explored < total:
        # Some positions cannot reach the goal set at all; report the first
        # matching start among them, if any.
        for code in _iter_codes(starts):
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
    ranks = _RankMoves(_card_moves(spec))
    return _census(ranks, _depth_map(ranks), [], total)


def _census(ranks: _RankMoves, depth: dict[int, memoryview], sizes: list[int],
            total: int) -> CensusReport:
    """The census of the graph of `ranks`, `total` states, continued from
    `depth`, which sweeps have filled for the components of `sizes`: one
    more sweep from each state still unrecorded, in mask and rank order."""
    for state in _level_states(depth, -1):
        sizes.append(sum(_bfs_levels(ranks, [state], depth)))
    if sum(sizes) != total:
        raise InternalCheckError(f"the census visited {sum(sizes)} of {total} states")
    return CensusReport(total, len(sizes), tuple(sorted(sizes, reverse=True)))


def _eccentricities(ranks: _RankMoves, occs, total: int):
    """Yield the eccentricity of rank 0 of each mask of `occs`, one sweep
    each; the first sweep that misses some of the `total` states hands its
    depth map to `_census`, for the `DisconnectedGraphError` it raises."""
    for occ in occs:
        depth = _depth_map(ranks)
        sizes = _bfs_levels(ranks, [(occ, 0)], depth)
        if sum(sizes) != total:
            raise DisconnectedGraphError(_census(ranks, depth, [sum(sizes)], total))
        yield len(sizes) - 1


def cards_distance(spec: CardsSpec, start: CardsState, goal: CardsState, *,
                   budget: int = DEFAULT_BUDGET) -> int | None:
    """Exact move distance between two card states, None if unreachable."""
    validate_state(spec, start)
    validate_state(spec, goal)
    _within_budget(budget, count_states(spec), "card distance search")
    first, dst = map(state_codec(spec).encode, (start.piles, goal.piles))
    layers = _shortest_layers(_card_moves(spec), first, dst.__eq__, iter([dst]))[0]
    return None if layers is None else len(layers) - 1


def cards_diameter(spec: CardsSpec, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact diameter of a connected card-pile graph.

    Renaming cards and swapping two piles of one capacity are graph
    automorphisms, so all states of one orbit of pile-size compositions
    share an eccentricity: one search per orbit, from cards 1..w dealt in
    order onto its first composition, covers every state.  The budget is
    checked against one search's states, then against all of theirs:
    orbits times states.  The graph is connected exactly when a search
    reaches every state; a disconnected graph costs only its census, which
    continues from the first search on the same rank tables.
    """
    total = _within_budget(budget, count_states(spec), "one diameter search")
    moves = _card_moves(spec)
    occs = _orbit_firsts(moves)
    _within_budget(budget, len(occs) * total, "all-sources diameter")
    ranks = _RankMoves(moves)  # rank 0 deals cards 1..w in order
    diameter = max(_eccentricities(ranks, occs, total))

    lower_bound_family = spec.s == 2 and spec.w >= 2 and spec.m == (spec.w - 1, spec.w - 1, 1)
    if lower_bound_family and diameter < (spec.w * spec.w + 2) // 4:
        raise InternalCheckError(f"diameter {diameter} is below the ceil((w*w - 1) / 4) bound")
    return diameter


def reversal_distance(w: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact moves needed to reverse a full ordering of w wagons on the
    three-siding, one-wagon-headshunt plan with sidings w-1, w-1, 1.

    Checked against the matching card-pile search: the shunt distance is
    exactly twice the card distance, and at least the ordering displacement
    of the reversal, ceil((w*w - 1) / 2).
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
    floor = ordering_displacement(range(1, w + 1), range(w, 0, -1))
    if report.distance != 2 * card_d or report.distance < floor:
        raise InternalCheckError(
            f"reversal takes {report.distance} shunt moves; want twice the card "
            f"distance {card_d} and at least {floor}"
        )
    return report.distance


def ordering_displacement(first, second) -> int:
    """Total slot displacement between two orderings of the same items.

    Public because it gives `reversal_distance` its lower bound: reversing w
    wagons displaces them by floor(w*w / 2) slots in all."""
    pos = {item: i for i, item in enumerate(first)}
    if len(pos) != len(first) or sorted(first) != sorted(second):
        raise InglenookError("orderings must list the same distinct items")
    return sum(abs(pos[item] - i) for i, item in enumerate(second))
