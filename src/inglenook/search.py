"""Exhaustive and optimal analysis: shortest solutions, worst-case move
counts, component censuses, and exact diameters at desk scale.

Every search runs on one breadth-first kernel, `_bfs_levels`, over
integer-packed codes (see model.SlotCodec), given the children function of
the shunting or the card-pile move rule.  Levels are expanded in a fixed
order, so reported distances, exploration counts, and tie-broken traces are
reproducible bit-for-bit.  An exact card-pile diameter takes one search per
pile-size composition: renaming cards is a graph automorphism, so a state's
eccentricity depends only on its pile sizes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .constructive import SolutionTrace, UnsatisfiablePatternError
from .model import (
    PULL,
    PUSH,
    CardsSpec,
    CardsState,
    FormatError,
    InglenookError,
    LabelTable,
    Position,
    PuzzleSpec,
    ShuntMove,
    apply_move,
    count_positions,
    count_states,
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


class BudgetExceededError(InglenookError):
    """The requested analysis would exceed the configured state budget."""

    def __init__(self, budget: int, estimate: int, what: str):
        self.budget = budget
        self.estimate = estimate
        super().__init__(
            f"{what} needs about {estimate} states, over the budget of {budget}; "
            f"raise the budget to proceed"
        )


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


def exact(*wagons: int) -> TrackRule:
    return TrackRule(EXACT, wagons)


def any_order(*wagons: int) -> TrackRule:
    return TrackRule(SET_ANY_ORDER, wagons)


def empty() -> TrackRule:
    return TrackRule(EMPTY)


def anything() -> TrackRule:
    return TrackRule(ANY)


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

    def matches(self, spec: PuzzleSpec, p: Position) -> bool:
        validate_position(spec, p)
        for alt in self.alternatives:
            if len(alt) != spec.s + 1:
                raise FormatError(
                    f"alternative has {len(alt)} tracks, spec has {spec.s + 1}"
                )
            if all(_rule_matches(rule, track) for rule, track in zip(alt, p.tracks)):
                return True
        return False


def _rule_matches(rule: TrackRule, track: tuple[int, ...]) -> bool:
    if rule.kind == ANY:
        return True
    if rule.kind == EMPTY:
        return not track
    if rule.kind == EXACT:
        return track == rule.wagons
    return len(track) == len(rule.wagons) and set(track) == set(rule.wagons)


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
        inner = rhs[1:-1].strip()
        if not inner:
            return TrackRule(EMPTY)
        wagons = tuple(labels.label(tok.strip()) for tok in inner.split(","))
        return TrackRule(EXACT, wagons)
    if not (rhs.startswith("{") and rhs.endswith("}")):
        raise FormatError(f"'~' needs {{..}}, got {rhs!r}", lineno)
    inner = rhs[1:-1].strip()
    if not inner:
        raise FormatError("'~' set must not be empty", lineno)
    wagons = tuple(labels.label(tok.strip()) for tok in inner.split(","))
    if len(set(wagons)) != len(wagons):
        raise FormatError("'~' set has repeated wagons", lineno)
    return TrackRule(SET_ANY_ORDER, wagons)


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
    if len(alt) != spec.s + 1:
        return f"has {len(alt)} tracks, spec has {spec.s + 1}"
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


def iter_matching_positions(spec: PuzzleSpec, pattern: GoalPattern):
    """Yield every valid position matching the pattern, deterministically.

    Positions repeated across alternatives are yielded once.
    """
    seen: set | None = set() if len(pattern.alternatives) > 1 else None
    codec = position_codec(spec)
    for alt in pattern.alternatives:
        if _alternative_conflict(spec, alt):
            continue
        for p in _iter_alternative(spec, alt):
            if seen is not None:
                key = codec.encode(p.tracks)
                if key in seen:
                    continue
                seen.add(key)
            yield p


def _iter_alternative(spec: PuzzleSpec, alt: tuple[TrackRule, ...]):
    pinned = [w for rule in alt for w in rule.wagons if rule.kind in (EXACT, SET_ANY_ORDER)]
    if len(set(pinned)) != len(pinned):
        return
    loose = sorted(set(range(1, spec.w + 1)) - set(pinned))
    set_tracks = [i for i, rule in enumerate(alt) if rule.kind == SET_ANY_ORDER]
    any_tracks = [i for i, rule in enumerate(alt) if rule.kind == ANY]

    set_choices = [
        list(itertools.permutations(sorted(alt[i].wagons))) for i in set_tracks
    ]
    lengths = list(_track_lengths([spec.track_capacity(i) for i in any_tracks], len(loose)))
    for set_pick in itertools.product(*set_choices):
        for perm in itertools.permutations(loose):
            for lens in lengths:
                distribution = _cut(perm, lens)
                tracks: list[tuple[int, ...]] = []
                for i, rule in enumerate(alt):
                    if rule.kind == EXACT:
                        tracks.append(rule.wagons)
                    elif rule.kind == EMPTY:
                        tracks.append(())
                    elif rule.kind == SET_ANY_ORDER:
                        tracks.append(set_pick[set_tracks.index(i)])
                    else:
                        tracks.append(distribution[any_tracks.index(i)])
                yield Position(tuple(tracks))


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


def _cut(seq: tuple[int, ...], lengths: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cut seq into consecutive runs of the given lengths."""
    runs = []
    at = 0
    for k in lengths:
        runs.append(seq[at : at + k])
        at += k
    return tuple(runs)


# --- breadth-first kernel ---------------------------------------------------

def _make_expander(spec: PuzzleSpec):
    """Compile a children-of-code function for spec.

    Children come out in move order (siding ascending, pulls before
    pushes, block size ascending), matching the trace tie-break.
    """
    codec = position_codec(spec)
    bits = codec.bits
    slot_mask = codec.slot_mask
    caps = codec.caps
    shifts = codec.low_shift
    seg_masks = codec.seg_mask
    h = spec.h
    s = spec.s

    def expand(code: int) -> list[int]:
        vals = []
        lens = []
        for i in range(s + 1):
            v = (code >> shifts[i]) & seg_masks[i]
            vals.append(v)
            if v == 0:
                lens.append(0)
            else:
                n = caps[i]
                while (v & slot_mask) == 0:
                    v >>= bits
                    n -= 1
                lens.append(n)
        children = []
        v0 = vals[0]
        n0 = lens[0]
        sh0 = shifts[0]
        free0 = h - n0
        tail_base = bits * (h - n0)
        for r in range(1, s + 1):
            vr = vals[r]
            nr = lens[r]
            capr = caps[r]
            shr = shifts[r]
            for k in range(1, min(nr, free0) + 1):
                cut = bits * (capr - k)
                pref = vr >> cut
                nvr = (vr - (pref << cut)) << (bits * k)
                nv0 = v0 + (pref << (bits * (h - n0 - k)))
                children.append(code + ((nv0 - v0) << sh0) + ((nvr - vr) << shr))
            for k in range(1, min(n0, capr - nr) + 1):
                tail = (v0 >> tail_base) & ((1 << (bits * k)) - 1)
                nv0 = v0 - (tail << tail_base)
                nvr = (tail << (bits * (capr - k))) + (vr >> (bits * k))
                children.append(code + ((nv0 - v0) << sh0) + ((nvr - vr) << shr))
        return children

    return expand


def _bfs_levels(expand, sources: list[int], *, match=None, budget: int,
                visited: set[int] | None = None):
    """Level-synchronous search from `sources`, growing each level with the
    children function `expand`.

    Returns (levels, visited, hit, distance) where hit is the first
    matching code in deterministic order, or None when match never fires
    (or is None).  With match set, the hit level is the last level kept.
    A `visited` set passed in is shared: codes already in it are neither
    sources nor children, and the codes found are added to it.
    """
    if visited is None:
        visited = set()
    frontier: list[int] = []
    for code in sources:
        if code not in visited:
            visited.add(code)
            frontier.append(code)
    levels: list[list[int]] = []
    distance = 0
    while frontier:
        levels.append(frontier)
        if match is not None:
            for code in frontier:
                if match(code):
                    return levels, visited, code, distance
        if len(visited) > budget:
            raise BudgetExceededError(budget, len(visited), "search")
        nxt = []
        for code in frontier:
            for child in expand(code):
                if child not in visited:
                    visited.add(child)
                    nxt.append(child)
        frontier = nxt
        distance += 1
    return levels, visited, None, None


def _compile_match(spec: PuzzleSpec, pattern: GoalPattern):
    """Turn a pattern into a predicate over packed position codes."""
    codec = position_codec(spec)
    bits = codec.bits
    slot_mask = codec.slot_mask
    compiled = []
    for alt in pattern.alternatives:
        if len(alt) != spec.s + 1:
            raise FormatError(f"alternative has {len(alt)} tracks, spec has {spec.s + 1}")
        checks = []
        for i, rule in enumerate(alt):
            shift, mask, cap = codec.low_shift[i], codec.seg_mask[i], codec.caps[i]
            if rule.kind == EMPTY:
                checks.append(("eq", shift, mask, 0))
            elif rule.kind == EXACT:
                if len(rule.wagons) > cap:
                    checks.append(("never",))
                    break
                seg = 0
                for x in rule.wagons:
                    seg = (seg << bits) | x
                seg <<= bits * (cap - len(rule.wagons))
                checks.append(("eq", shift, mask, seg))
            elif rule.kind == SET_ANY_ORDER:
                if len(rule.wagons) > cap:
                    checks.append(("never",))
                    break
                checks.append(("set", shift, mask, cap, frozenset(rule.wagons)))
        compiled.append(checks)

    def match(code: int) -> bool:
        for checks in compiled:
            ok = True
            for check in checks:
                if check[0] == "eq":
                    _, shift, mask, seg = check
                    if (code >> shift) & mask != seg:
                        ok = False
                        break
                elif check[0] == "never":
                    ok = False
                    break
                else:
                    _, shift, mask, cap, wanted = check
                    v = (code >> shift) & mask
                    got = set()
                    for j in range(cap - 1, -1, -1):
                        x = (v >> (bits * j)) & slot_mask
                        if x == 0:
                            break
                        got.add(x)
                    if len(got) != len(wanted) or got != wanted:
                        ok = False
                        break
            if ok:
                return True
        return False

    return match


def _reconstruct(spec: PuzzleSpec, levels: list[list[int]], end: int, distance: int):
    """Walk an optimal path backwards, preferring at each step the forward
    move with the smallest (siding, pull-before-push, count) triple."""
    codec = position_codec(spec)
    cur = Position(codec.decode(end))
    moves: list[ShuntMove] = []
    for depth in range(distance, 0, -1):
        prev = set(levels[depth - 1])
        for fwd, pred in _forward_candidates(spec, cur):
            if codec.encode(pred.tracks) in prev:
                moves.append(fwd)
                cur = pred
                break
        else:
            raise AssertionError("breadth-first levels must contain a predecessor")
    moves.reverse()
    return moves, cur


def _forward_candidates(spec: PuzzleSpec, cur: Position):
    """(forward move, predecessor) pairs in the trace tie-break order."""
    head = len(cur.headshunt)
    for r in range(1, spec.s + 1):
        held = len(cur.tracks[r])
        # a forward pull of k into cur is undone by pushing k back
        for k in range(1, min(head, spec.m[r - 1] - held) + 1):
            yield ShuntMove(r, PULL, k), apply_move(spec, cur, ShuntMove(r, PUSH, k))
        for k in range(1, min(held, spec.h - head) + 1):
            yield ShuntMove(r, PUSH, k), apply_move(spec, cur, ShuntMove(r, PULL, k))


@dataclass
class SearchReport:
    """Result of an optimal search: exact distance (None when the goal is
    unreachable), one optimal trace, and exploration statistics."""

    distance: int | None
    trace: SolutionTrace | None
    explored: int
    peak_frontier: int


@dataclass
class WorstCaseReport:
    """Worst start for a goal set: its exact distance (None when some
    matching start cannot reach the goal at all) and a witness."""

    distance: int | None
    start: Position | None
    explored: int
    goal_states: int


def optimal_solve(spec: PuzzleSpec, start: Position, goal: GoalPattern, *,
                  budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exact shortest solution from start to any position matching goal.

    Breadth-first over the whole graph; the goal test runs on each level
    before it is expanded.  Unreachable goals produce a report, not an
    exception.
    """
    validate_position(spec, start)
    total = count_positions(spec)
    if total > budget:
        raise BudgetExceededError(budget, total, "optimal search")
    codec = position_codec(spec)
    match = _compile_match(spec, goal)
    levels, _visited, hit, distance = _bfs_levels(
        _make_expander(spec), [codec.encode(start.tracks)], match=match, budget=budget
    )
    explored = sum(len(level) for level in levels)
    peak = max(len(level) for level in levels)
    if hit is None:
        return SearchReport(None, None, explored, peak)
    moves, origin = _reconstruct(spec, levels, hit, distance)
    assert origin == start
    trace = SolutionTrace(start, Position(codec.decode(hit)), tuple(moves))
    return SearchReport(distance, trace, explored, peak)


def worst_case_moves(spec: PuzzleSpec, start_pattern: GoalPattern, goal: GoalPattern, *,
                     budget: int = DEFAULT_BUDGET) -> WorstCaseReport:
    """Largest optimal distance from any start matching start_pattern to
    the goal set, by one reverse multi-source sweep from the goal states.

    When both patterns are closed under renaming wagons this is also the
    worst case over every renaming of the goal, since renamings are graph
    automorphisms.
    """
    total = count_positions(spec)
    if total > budget:
        raise BudgetExceededError(budget, total, "worst-case sweep")
    codec = position_codec(spec)
    sources = [codec.encode(p.tracks) for p in iter_matching_positions(spec, goal)]
    if not sources:
        raise UnsatisfiablePatternError(
            "no valid position matches the goal pattern", pattern_conflicts(spec, goal)
        )
    levels, visited, _hit, _d = _bfs_levels(_make_expander(spec), sources, budget=budget)
    explored = sum(len(level) for level in levels)

    if explored < total:
        # Some positions cannot reach the goal set at all; report the first
        # matching start among them, if any.
        for p in iter_matching_positions(spec, start_pattern):
            if codec.encode(p.tracks) not in visited:
                return WorstCaseReport(None, p, explored, len(sources))

    smatch = _compile_match(spec, start_pattern)
    for depth in range(len(levels) - 1, -1, -1):
        for code in levels[depth]:
            if smatch(code):
                return WorstCaseReport(depth, Position(codec.decode(code)), explored, len(sources))
    raise UnsatisfiablePatternError(
        "no valid position matches the start pattern", pattern_conflicts(spec, start_pattern)
    )


# --- card-pile analyses -----------------------------------------------------

@dataclass
class CensusReport:
    states: int
    components: int
    sizes: tuple[int, ...]  # descending


def _make_cards_expander(spec: CardsSpec):
    codec = state_codec(spec)
    bits = codec.bits
    slot_mask = codec.slot_mask
    caps = codec.caps
    shifts = codec.low_shift
    seg_masks = codec.seg_mask
    n = len(caps)

    def expand(code: int) -> list[int]:
        vals = []
        lens = []
        for i in range(n):
            v = (code >> shifts[i]) & seg_masks[i]
            vals.append(v)
            if v == 0:
                lens.append(0)
            else:
                ln = caps[i]
                while (v & slot_mask) == 0:
                    v >>= bits
                    ln -= 1
                lens.append(ln)
        children = []
        for i in range(n):
            if not lens[i]:
                continue
            # top of pile i sits at slot lens[i]-1, counted from the high end
            top_shift = shifts[i] + bits * (caps[i] - lens[i])
            card = (code >> top_shift) & slot_mask
            for j in range(n):
                if j == i or lens[j] >= caps[j]:
                    continue
                dst_shift = shifts[j] + bits * (caps[j] - lens[j] - 1)
                children.append(code - (card << top_shift) + (card << dst_shift))
        return children

    return expand


def _iter_state_codes(spec: CardsSpec):
    """All packed card states, grouped by pile-size composition."""
    codec = state_codec(spec)
    cards = range(1, spec.w + 1)
    for sizes in _track_lengths(spec.m, spec.w):
        for perm in itertools.permutations(cards):
            yield codec.encode(_cut(perm, sizes))


def cards_component_census(spec: CardsSpec, *, budget: int = DEFAULT_BUDGET) -> CensusReport:
    """Count connected components of the card-pile graph exhaustively."""
    total = count_states(spec)
    if total > budget:
        raise BudgetExceededError(budget, total, "component census")
    expand = _make_cards_expander(spec)
    visited: set[int] = set()
    sizes = []
    for seed in _iter_state_codes(spec):
        if seed in visited:
            continue
        levels, _visited, _hit, _d = _bfs_levels(expand, [seed], budget=budget, visited=visited)
        sizes.append(sum(len(level) for level in levels))
        if len(visited) == total:
            break
    assert len(visited) == total
    return CensusReport(total, len(sizes), tuple(sorted(sizes, reverse=True)))


def cards_distance(spec: CardsSpec, start: CardsState, goal: CardsState, *,
                   budget: int = DEFAULT_BUDGET) -> int | None:
    """Exact move distance between two card states, None if unreachable."""
    validate_state(spec, start)
    validate_state(spec, goal)
    total = count_states(spec)
    if total > budget:
        raise BudgetExceededError(budget, total, "card distance search")
    codec = state_codec(spec)
    dst = codec.encode(goal.piles)
    _levels, _visited, _hit, distance = _bfs_levels(
        _make_cards_expander(spec), [codec.encode(start.piles)],
        match=lambda code: code == dst, budget=budget,
    )
    return distance


def cards_diameter(spec: CardsSpec, *, budget: int = DEFAULT_BUDGET) -> int:
    """Exact diameter of a connected card-pile graph.

    Renaming cards is a graph automorphism, so every state with the same
    pile sizes has the same eccentricity: one search per pile-size
    composition, from cards 1..w dealt in order, covers every state.  The
    budget is still checked against the squared state count.
    """
    total = count_states(spec)
    if total * total > budget:
        raise BudgetExceededError(budget, total * total, "all-sources diameter")
    census = cards_component_census(spec, budget=budget)
    if census.components != 1:
        raise DisconnectedGraphError(census)

    expand = _make_cards_expander(spec)
    codec = state_codec(spec)
    cards = tuple(range(1, spec.w + 1))
    diameter = 0
    for sizes in _track_lengths(spec.m, spec.w):
        levels, _visited, _hit, _d = _bfs_levels(
            expand, [codec.encode(_cut(cards, sizes))], budget=budget
        )
        diameter = max(diameter, len(levels) - 1)

    if spec.s == 2 and spec.w >= 2 and spec.m == (spec.w - 1, spec.w - 1, 1):
        assert diameter >= (spec.w * spec.w + 2) // 4
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
    assert card_d is not None

    from .model import from_cards

    start = from_cards(spec, ordered)
    goal = from_cards(spec, reversed_)
    report = optimal_solve(spec, start, GoalPattern.exact_position(goal), budget=budget)
    assert report.distance is not None
    assert report.distance == 2 * card_d
    assert report.distance >= (w * w) // 2
    return report.distance


def ordering_displacement(first, second) -> int:
    """Total slot displacement between two orderings of the same items."""
    pos = {item: i for i, item in enumerate(first)}
    if len(pos) != len(first) or sorted(first) != sorted(second):
        raise InglenookError("orderings must list the same distinct items")
    return sum(abs(pos[item] - i) for i, item in enumerate(second))
