"""Shared strategies, fixture paths, and naive reference oracles.

The oracles here deliberately use only the model-level move operations,
never the packed search kernel, so kernel results are checked against an
independent route.  Three of them stand in for the package's packed
forms: `legal_moves` lists a position's moves in the reference order
(siding, pull before push, count) that the move tables must keep,
`pattern_matches` tests a position against a goal pattern track by track,
as the compiled goal test must, and `naive_alternative_positions` lists a
pattern alternative's positions in the enumeration order that `worst`
witnesses and `gen` samples follow.  `naive_worst` takes its sources and its
start order from `matching_codes`, the package's enumerator, since that
order decides the reported witness.  `naive_rank_table` builds a move's
rank table the direct way, one translate and rank lookup per permutation.
`naive_shortest_layers` and `naive_explored` read a shortest-path search's
layers and labelled-state count off breadth-first distances from each end.
The `call_log` fixture counts calls made in forked sweep workers too, and
`refused` checks a refusal's exact error class and whole message.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from pathlib import Path

import pytest
from hypothesis import strategies as st

from inglenook import (
    PULL,
    PUSH,
    CardsSpec,
    CardsState,
    FormatError,
    GoalPattern,
    Position,
    PuzzleSpec,
    ShuntMove,
    TrackRule,
    apply_move,
    matching_codes,
    validate_position,
)
from inglenook.model import position_codec
from inglenook.search import ANY, EMPTY, EXACT, SET_ANY_ORDER

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def classic_spec() -> PuzzleSpec:
    return PuzzleSpec(8, 3, (3, 3, 5))


def refused(make, error: type, message: str) -> None:
    """Assert that `make()` raises exactly `error`, not a subclass or a
    parent, with exactly `message` as its text."""
    with pytest.raises(Exception) as info:
        make()
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.fixture
def call_log(monkeypatch, tmp_path):
    """`call_log(module, **tags)` wraps each function of `module` named in
    `tags` so that every call appends its tag, one line in one write, to a
    file opened with O_APPEND.  A forked worker inherits the descriptor, so
    the log holds the calls of every process; the returned callable lists
    the tags logged so far."""
    path = tmp_path / "calls.log"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def wrap(module, **tags):
        for name, tag in tags.items():
            def logged(*args, _call=getattr(module, name), _line=f"{tag}\n".encode()):
                os.write(fd, _line)
                return _call(*args)
            monkeypatch.setattr(module, name, logged)
        return lambda: path.read_text().splitlines()

    yield wrap
    os.close(fd)


# --- hypothesis strategies --------------------------------------------------

@st.composite
def puzzle_specs(draw, max_w=6, max_h=3, max_s=3, max_cap=3):
    s = draw(st.integers(1, max_s))
    h = draw(st.integers(1, max_h))
    m = tuple(draw(st.integers(1, max_cap)) for _ in range(s))
    w = draw(st.integers(1, min(max_w, h + sum(m) - 1)))
    return PuzzleSpec(w, h, m)


@st.composite
def positions(draw, spec: PuzzleSpec):
    wagons = draw(st.permutations(list(range(1, spec.w + 1))))
    caps = [spec.h] + list(spec.m)
    tracks: list[list[int]] = [[] for _ in caps]
    for wagon in wagons:
        open_tracks = [i for i, t in enumerate(tracks) if len(t) < caps[i]]
        pick = draw(st.integers(0, len(open_tracks) - 1))
        tracks[open_tracks[pick]].append(wagon)
    return Position(tuple(tuple(t) for t in tracks))


@st.composite
def specs_with_positions(draw, **kwargs):
    spec = draw(puzzle_specs(**kwargs))
    return spec, draw(positions(spec))


@st.composite
def cards_specs(draw, max_w=6, max_piles=4, max_cap=3):
    npiles = draw(st.integers(2, max_piles))
    m = tuple(draw(st.integers(1, max_cap)) for _ in range(npiles))
    w = draw(st.integers(1, min(max_w, sum(m))))
    return CardsSpec(w, m)


@st.composite
def card_states(draw, spec: CardsSpec):
    cards = draw(st.permutations(list(range(1, spec.w + 1))))
    piles: list[list[int]] = [[] for _ in spec.m]
    for card in cards:
        open_piles = [i for i, p in enumerate(piles) if len(p) < spec.m[i]]
        pick = draw(st.integers(0, len(open_piles) - 1))
        piles[open_piles[pick]].append(card)
    return CardsState(tuple(tuple(p) for p in piles))


@st.composite
def patterns(draw, spec: PuzzleSpec):
    """Patterns of every rule kind over several alternatives, including
    over-capacity, out-of-range and twice-pinned wagons."""
    wagon = st.integers(0, spec.w + 1)
    alternatives = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.permutations(list(range(1, spec.w + 1))))
        alt = []
        for i in range(spec.s + 1):
            kind = draw(st.sampled_from([ANY, EMPTY, EXACT, SET_ANY_ORDER]))
            wagons = ()
            if kind in (EXACT, SET_ANY_ORDER):
                n = draw(st.integers(0, spec.track_capacity(i) + 1))
                wagons, pool = pool[:n], pool[n:]
                if draw(st.booleans()):
                    wagons = draw(st.lists(wagon, max_size=spec.track_capacity(i) + 1))
            alt.append(TrackRule(kind, wagons))
        alternatives.append(tuple(alt))
    return GoalPattern(tuple(alternatives))


@st.composite
def specs_with_patterns(draw):
    """Small specs, each with one of `patterns`."""
    spec = draw(puzzle_specs(max_w=4, max_h=2, max_s=3, max_cap=2))
    return spec, draw(patterns(spec))


# --- naive oracles ----------------------------------------------------------

def legal_moves(spec: PuzzleSpec, p: Position) -> list[ShuntMove]:
    """All moves applicable at p, ordered by (siding, pull before push, count)."""
    validate_position(spec, p)
    moves = []
    free_head = spec.h - len(p.headshunt)
    for r in range(1, spec.s + 1):
        held = len(p.tracks[r])
        for k in range(1, min(held, free_head) + 1):
            moves.append(ShuntMove(r, PULL, k))
        free_siding = spec.m[r - 1] - held
        for k in range(1, min(len(p.headshunt), free_siding) + 1):
            moves.append(ShuntMove(r, PUSH, k))
    return moves


def pattern_matches(spec: PuzzleSpec, pattern: GoalPattern, p: Position) -> bool:
    """True when some alternative of `pattern` holds on every track of p."""
    validate_position(spec, p)
    for alt in pattern.alternatives:
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


def naive_distances(spec: PuzzleSpec, *sources: Position) -> dict[Position, int]:
    """Plain breadth-first distances from the nearest of `sources`, using
    only model-level operations."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(sources)
    while queue:
        p = queue.popleft()
        for mv in legal_moves(spec, p):
            q = apply_move(spec, p, mv)
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def naive_shortest_layers(from_start: dict, from_goal: dict) -> list[set] | None:
    """The layers of every shortest path between the sources of two
    breadth-first distance maps: layer j holds the states x with
    d(s, x) = j and d(x, g) = d - j, where d = d(s, g); None when the goal
    is unreachable."""
    d = from_start.get(_source(from_goal))
    if d is None:
        return None
    layers = [set() for _ in range(d + 1)]
    for x, j in from_start.items():
        if from_goal.get(x) == d - j:
            layers[j].add(x)
    return layers


def _source(dist: dict):
    return next(x for x, j in dist.items() if j == 0)


def naive_explored(from_start: dict, from_goal: dict) -> int:
    """The states a search from both ends labels, replayed from the level
    sizes of two breadth-first distance maps, the goal's from every goal
    state at once.  While the goal family outnumbers the start side's
    newest level, the start side grows alone and a new level holding goal
    states is the meeting.  Then the family seeds the goal side: the side
    whose newest level is smaller grows, the start side on a tie, until a
    new level holds states the other side labelled (the meeting) or is
    empty.  Every labelled state counts once, so the meeting counts once."""
    if from_goal.get(_source(from_start)) == 0:
        return 1
    fsizes = [0] * (max(from_start.values()) + 2)
    bsizes = [0] * (max(from_goal.values(), default=0) + 2)
    for j in from_start.values():
        fsizes[j] += 1
    for j in from_goal.values():
        bsizes[j] += 1
    kf = kb = 0
    while bsizes[0] > fsizes[kf]:
        kf += 1
        meet = [x for x, j in from_start.items() if j == kf and from_goal.get(x) == 0]
        if meet or not fsizes[kf]:
            return sum(fsizes[:kf + 1])
    while True:
        if fsizes[kf] <= bsizes[kb]:
            kf += 1
            meet = [x for x, j in from_start.items() if j == kf and from_goal.get(x, kb + 1) <= kb]
            if meet or not fsizes[kf]:
                break
        else:
            kb += 1
            meet = [x for x, j in from_goal.items() if j == kb and from_start.get(x, kf + 1) <= kf]
            if meet or not bsizes[kb]:
                break
    return sum(fsizes[:kf + 1]) + sum(bsizes[:kb + 1]) - len(meet)


def naive_first_match(spec: PuzzleSpec, start: Position, matches):
    """(position, depth) of the first position `matches` accepts, in
    breadth-first level order with children in `legal_moves` order; None
    when no reachable position matches."""
    seen = {start}
    level, depth = [start], 0
    while level:
        for p in level:
            if matches(p):
                return p, depth
        nxt = []
        for p in level:
            for mv in legal_moves(spec, p):
                q = apply_move(spec, p, mv)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        level, depth = nxt, depth + 1
    return None


def naive_worst(spec: PuzzleSpec, start_pattern: GoalPattern, goal: GoalPattern):
    """(distance, start, explored, unreached) by an ordered multi-source
    breadth-first search over positions: sources are the goal's matches in
    `matching_codes` order, children come in `legal_moves` order, and each
    position keeps its first discovery.  `distance` is the deepest level
    holding a start match and `start` the first such match in that level;
    `unreached` is the first start match, in `matching_codes` order, that
    the search never reaches, or None."""
    codec = position_codec(spec)
    level = [Position(codec.decode(code))
             for code in matching_codes(spec, goal, "the goal pattern")]
    starts = [Position(codec.decode(code))
              for code in matching_codes(spec, start_pattern, "the start pattern")]
    seen = set(level)
    distance = start = None
    depth = 0
    while level:
        hits = [p for p in level if pattern_matches(spec, start_pattern, p)]
        if hits:
            distance, start = depth, hits[0]
        nxt = []
        for p in level:
            for mv in legal_moves(spec, p):
                q = apply_move(spec, p, mv)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        level, depth = nxt, depth + 1
    unreached = next((p for p in starts if p not in seen), None)
    return distance, start, len(seen), unreached


def naive_rank_table(t: bytes) -> list[int]:
    """The rank table of the place permutation t of 0..k-1: entry r is the
    lexicographic rank of `p.translate(t)` for the r-th permutation p of
    0..k-1, found by translating every p and looking its result up."""
    perms = list(map(bytes, itertools.permutations(range(len(t)))))
    rank = {p: r for r, p in enumerate(perms)}
    table = t + bytes(256 - len(t))
    return [rank[p.translate(table)] for p in perms]


def all_positions(spec: PuzzleSpec) -> list[Position]:
    """Exhaustive enumeration by composition and permutation."""
    caps = [spec.h] + list(spec.m)

    def comps(rest, total):
        if len(rest) == 1:
            if total <= rest[0]:
                yield (total,)
            return
        for k in range(0, min(rest[0], total) + 1):
            for tail in comps(rest[1:], total - k):
                yield (k,) + tail

    out = []
    for sizes in comps(caps, spec.w):
        for perm in itertools.permutations(range(1, spec.w + 1)):
            tracks, at = [], 0
            for k in sizes:
                tracks.append(perm[at : at + k])
                at += k
            out.append(Position(tuple(tracks)))
    return out


def naive_alternative_positions(spec: PuzzleSpec, alt) -> list[Position]:
    """The positions a satisfiable alternative allows, in the package's
    enumeration order, built track by track: each any-order track's orders
    slowest (tracks in order, each its sorted wagons in
    `itertools.permutations` order), then the permutations of the loose
    wagons, then their layouts over the `ANY` tracks, filled in track
    order, the first track's length ascending slowest."""
    sets = [i for i, rule in enumerate(alt) if rule.kind == SET_ANY_ORDER]
    free = [i for i, rule in enumerate(alt) if rule.kind == ANY]
    pinned = {x for rule in alt if rule.kind in (EXACT, SET_ANY_ORDER) for x in rule.wagons}
    loose = sorted(set(range(1, spec.w + 1)) - pinned)
    layouts = [lens for lens in itertools.product(
        *(range(spec.track_capacity(i) + 1) for i in free)) if sum(lens) == len(loose)]
    out = []
    for orders in itertools.product(*(itertools.permutations(sorted(alt[i].wagons))
                                      for i in sets)):
        for perm in itertools.permutations(loose):
            for lens in layouts:
                tracks = [rule.wagons if rule.kind == EXACT else () for rule in alt]
                for i, order in zip(sets, orders):
                    tracks[i] = order
                rest = iter(perm)
                for i, k in zip(free, lens):
                    tracks[i] = tuple(itertools.islice(rest, k))
                out.append(Position(tuple(tracks)))
    return out


def all_card_states(spec: CardsSpec) -> list[CardsState]:
    def comps(rest, total):
        if len(rest) == 1:
            if total <= rest[0]:
                yield (total,)
            return
        for k in range(0, min(rest[0], total) + 1):
            for tail in comps(rest[1:], total - k):
                yield (k,) + tail

    out = []
    for sizes in comps(list(spec.m), spec.w):
        for perm in itertools.permutations(range(1, spec.w + 1)):
            piles, at = [], 0
            for k in sizes:
                piles.append(perm[at : at + k])
                at += k
            out.append(CardsState(tuple(piles)))
    return out


def card_neighbors(spec: CardsSpec, st_: CardsState) -> list[CardsState]:
    out = []
    for i, pile in enumerate(st_.piles):
        if not pile:
            continue
        for j, other in enumerate(st_.piles):
            if i == j or len(other) >= spec.m[j]:
                continue
            piles = [list(p) for p in st_.piles]
            piles[j].append(piles[i].pop())
            out.append(CardsState(tuple(tuple(p) for p in piles)))
    return out


def naive_card_distances(spec: CardsSpec, src: CardsState) -> dict[CardsState, int]:
    """Plain breadth-first card distances from src, via card_neighbors."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        s = queue.popleft()
        for t in card_neighbors(spec, s):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    return dist


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def find(self, a: int) -> int:
        root = a
        while root != self.parent[root]:
            root = self.parent[root]
        while a != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
            self.components -= 1


def naive_cards_components(spec: CardsSpec) -> int:
    states = all_card_states(spec)
    index = {s: i for i, s in enumerate(states)}
    uf = UnionFind(len(states))
    for s in states:
        for t in card_neighbors(spec, s):
            uf.union(index[s], index[t])
    return uf.components
