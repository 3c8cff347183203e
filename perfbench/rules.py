"""The benchmark's own model of an inglenook layout, written apart from the
`inglenook` package so that every check compares the program against an
independent route.

A position is a tuple of tracks, each a tuple of wagon numbers: the
headshunt first, read from the engine towards the points, then each siding,
read from the points towards the buffer stop.  A pull of k wagons takes the
k wagons nearest the points out of a siding and puts them, in that order, at
the points end of the headshunt; a push of k is its inverse.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass


class CheckFailure(Exception):
    """An output of the program disagrees with the benchmark's own result."""


@dataclass(frozen=True)
class Plan:
    """w wagons, a headshunt for h, sidings of capacities m.

    A *deal* leaves the headshunt and Siding 1 empty and fills Sidings 2
    and 3, so these plans have w == m[1] + m[2].  A *game* is a deal plus a
    train of m[2] wagons to assemble in Siding 3.
    """

    w: int
    h: int
    m: tuple[int, ...]

    @property
    def caps(self) -> tuple[int, ...]:
        return (self.h,) + self.m

    @property
    def train(self) -> int:
        return self.m[2]

    def spec_text(self) -> str:
        return f"wagons = {self.w}\nheadshunt = {self.h}\nsidings = {' '.join(map(str, self.m))}\n"


CLASSIC = Plan(8, 3, (3, 3, 5))
TINY = Plan(5, 2, (2, 2, 3))


# --- text -----------------------------------------------------------------

_TRACK_RE = re.compile(r"^(H|S(\d+)):\[([0-9,]*)\]$")
_MOVE_RE = re.compile(r"^(PULL|PUSH) (\d+) S(\d+)$")


def parse_position(plan: Plan, line: str) -> tuple[tuple[int, ...], ...]:
    fields = line.strip().split("|")
    if len(fields) != len(plan.caps):
        raise CheckFailure(f"position {line!r} does not have {len(plan.caps)} tracks")
    tracks = []
    for i, field in enumerate(fields):
        m = _TRACK_RE.match(field)
        if not m or (i == 0) != (m.group(1) == "H") or (i and int(m.group(2)) != i):
            raise CheckFailure(f"bad track {field!r} in {line!r}")
        tracks.append(tuple(int(x) for x in m.group(3).split(",")) if m.group(3) else ())
    pos = tuple(tracks)
    if not is_position(plan, pos):
        raise CheckFailure(f"{line!r} is not a valid position")
    return pos


def format_position(pos) -> str:
    return "|".join(
        ("H" if i == 0 else f"S{i}") + ":[" + ",".join(map(str, t)) + "]"
        for i, t in enumerate(pos)
    )


def parse_move(line: str) -> tuple[str, int, int]:
    m = _MOVE_RE.match(line.strip())
    if not m:
        raise CheckFailure(f"bad move line {line!r}")
    return m.group(1), int(m.group(2)), int(m.group(3))


def format_move(move) -> str:
    return f"{move[0]} {move[1]} S{move[2]}"


# --- move rules -------------------------------------------------------------

def is_position(plan: Plan, pos) -> bool:
    return (
        len(pos) == len(plan.caps)
        and all(len(t) <= c for t, c in zip(pos, plan.caps))
        and sorted(x for t in pos for x in t) == list(range(1, plan.w + 1))
    )


def legal_moves(plan: Plan, pos):
    head = len(pos[0])
    for r in range(1, len(pos)):
        side = len(pos[r])
        for k in range(1, min(side, plan.h - head) + 1):
            yield ("PULL", k, r)
        for k in range(1, min(head, plan.m[r - 1] - side) + 1):
            yield ("PUSH", k, r)


def apply_move(plan: Plan, pos, move):
    """The position after move, or CheckFailure when it is illegal."""
    kind, k, r = move
    if not 1 <= r < len(pos) or k < 1:
        raise CheckFailure(f"{format_move(move)}: no such siding or count")
    head, side = pos[0], pos[r]
    if kind == "PULL":
        if k > len(side) or len(head) + k > plan.h:
            raise CheckFailure(f"{format_move(move)} is illegal at {format_position(pos)}")
        head, side = head + side[:k], side[k:]
    else:
        if k > len(head) or len(side) + k > plan.m[r - 1]:
            raise CheckFailure(f"{format_move(move)} is illegal at {format_position(pos)}")
        head, side = head[:-k], head[-k:] + side
    out = list(pos)
    out[0], out[r] = head, side
    return tuple(out)


def check_trace(plan: Plan, text: str, start, accepts) -> list:
    """Replay a trace file (start line, moves, finish line) under the
    benchmark's rules; returns the moves.  The start and finish lines must
    agree with the replay, and `accepts` must hold at the finish."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise CheckFailure("trace has no start or finish line")
    if parse_position(plan, lines[0]) != start:
        raise CheckFailure("trace starts elsewhere")
    moves = [parse_move(ln) for ln in lines[1:-1]]
    pos = start
    for mv in moves:
        pos = apply_move(plan, pos, mv)
    if parse_position(plan, lines[-1]) != pos:
        raise CheckFailure("trace finish line is not where its moves end")
    if not accepts(pos):
        raise CheckFailure(f"trace ends at {format_position(pos)}, which is not a goal")
    return moves


# --- closed forms -------------------------------------------------------------

def compositions(caps, total):
    """Track lengths: ordered sums of `total` bounded by `caps`."""
    if not caps:
        if total == 0:
            yield ()
        return
    for k in range(min(caps[0], total) + 1):
        for rest in compositions(caps[1:], total - k):
            yield (k,) + rest


def count_positions(plan: Plan) -> int:
    return sum(1 for _ in compositions(plan.caps, plan.w)) * math.factorial(plan.w)


def composition_degree(plan: Plan, lengths) -> int:
    """Legal moves out of any position with these track lengths."""
    head = lengths[0]
    return sum(
        min(n, plan.h - head) + min(head, cap - n)
        for n, cap in zip(lengths[1:], plan.m)
    )


def count_edges(plan: Plan) -> int:
    degrees = sum(composition_degree(plan, c) for c in compositions(plan.caps, plan.w))
    return degrees * math.factorial(plan.w)


# --- deals, games and renaming ---------------------------------------------

def deal(plan: Plan, order) -> tuple:
    """The deal whose Sidings 2 and 3 hold `order`, points end first."""
    n2 = plan.m[1]
    return ((), (), tuple(order[:n2]), tuple(order[n2:]))


def is_deal(plan: Plan, pos) -> bool:
    return (is_position(plan, pos) and not pos[0] and not pos[1]
            and len(pos[2]) == plan.m[1] and len(pos[3]) == plan.m[2])


def ordered_goal(plan: Plan):
    return deal(plan, range(1, plan.w + 1))


def renaming_to_source(pos, source) -> dict[int, int]:
    """The wagon renaming that maps deal `pos` onto deal `source`."""
    return {a: b for a, b in zip(pos[2] + pos[3], source[2] + source[3])}


# --- reference searches -------------------------------------------------------

def _chars(wagons) -> str:
    return "".join(chr(48 + x) for x in wagons)


def bfs_levels(plan: Plan, source):
    """Breadth-first levels from one position, as lists of track strings.

    Wagon n is the character chr(48 + n); tracks are joined by '|'.
    """
    h, m = plan.h, plan.m
    ns = len(m)
    start = "|".join(_chars(t) for t in source)
    seen = {start}
    frontier = [start]
    while frontier:
        yield frontier
        nxt = []
        for state in frontier:
            tracks = state.split("|")
            head = tracks[0]
            free = h - len(head)
            for r in range(1, ns + 1):
                side = tracks[r]
                for k in range(1, min(len(side), free) + 1):
                    tracks[0], tracks[r] = head + side[:k], side[k:]
                    child = "|".join(tracks)
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
                for k in range(1, min(len(head), m[r - 1] - len(side)) + 1):
                    tracks[0], tracks[r] = head[:-k], head[-k:] + side
                    child = "|".join(tracks)
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
                tracks[0], tracks[r] = head, side
        frontier = nxt


def card_diameter(w: int, caps: tuple[int, ...]) -> tuple[int, int]:
    """(states, diameter) of the card-pile graph with w cards on piles of
    `caps`: one search per pile-size composition, since renaming cards is a
    graph automorphism and so every state has the eccentricity of the
    representative of its composition.  Piles read bottom to top."""
    total = sum(1 for _ in compositions(caps, w)) * math.factorial(w)
    diameter = 0
    for sizes in compositions(caps, w):
        at = 0
        piles = []
        for k in sizes:
            piles.append("".join(chr(49 + i) for i in range(at, at + k)))
            at += k
        start = "|".join(piles)
        seen = {start}
        frontier = [start]
        depth = -1
        while frontier:
            depth += 1
            nxt = []
            for state in frontier:
                ps = state.split("|")
                for i, src in enumerate(ps):
                    if not src:
                        continue
                    for j, dst in enumerate(ps):
                        if j == i or len(dst) >= caps[j]:
                            continue
                        moved = list(ps)
                        moved[i], moved[j] = src[:-1], dst + src[-1]
                        child = "|".join(moved)
                        if child not in seen:
                            seen.add(child)
                            nxt.append(child)
            frontier = nxt
        if len(seen) != total:
            raise CheckFailure(f"card graph {w} on {caps} is not connected")
        diameter = max(diameter, depth)
    return total, diameter


# --- the classic-plan reference table -----------------------------------------

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class Reference:
    """Distances from one deal (the source) to every deal and to every
    train in Siding 3, from a single breadth-first search.

    Renaming wagons maps any deal onto the source, so dist(d, g) equals
    dist(source, rename_d(g)); one table answers every game and every
    ordered-finish sweep on the plan.
    """

    def __init__(self, plan: Plan, source, deals: str, trains: str, levels, level_compositions):
        self.plan = plan
        self.source = source
        self.levels = levels
        self.level_compositions = level_compositions
        wagons = range(1, plan.w + 1)
        self._deal = dict(zip(itertools.permutations(wagons), (_DIGITS.index(c) for c in deals)))
        self._train = dict(zip(itertools.permutations(wagons, plan.train),
                               (_DIGITS.index(c) for c in trains)))
        if len(self._deal) != math.factorial(plan.w) or len(self._train) != len(trains):
            raise CheckFailure("reference table has the wrong size")

    @classmethod
    def compute(cls, plan: Plan, source=None) -> Reference:
        source = ordered_goal(plan) if source is None else source
        wagons = range(1, plan.w + 1)
        deals, trains = {}, {}
        levels, level_compositions = [], {}
        for depth, level in enumerate(bfs_levels(plan, source)):
            levels.append(len(level))
            for state in level:
                tracks = state.split("|")
                lengths = ",".join(str(len(t)) for t in tracks)
                counts = level_compositions.setdefault(lengths, [])
                counts.extend([0] * (depth + 1 - len(counts)))
                counts[depth] += 1
                if len(tracks[3]) == plan.train:
                    trains.setdefault(tracks[3], depth)
                    if not tracks[0] and not tracks[1]:
                        deals[tracks[2] + tracks[3]] = depth
        return cls(
            plan, source,
            "".join(_DIGITS[deals[_chars(p)]] for p in itertools.permutations(wagons)),
            "".join(_DIGITS[trains[_chars(p)]] for p in itertools.permutations(wagons, plan.train)),
            levels, level_compositions,
        )

    def to_json(self) -> dict:
        wagons = range(1, self.plan.w + 1)
        return {
            "plan": {"wagons": self.plan.w, "headshunt": self.plan.h, "sidings": list(self.plan.m)},
            "source": format_position(self.source),
            "levels": self.levels,
            "level_compositions": self.level_compositions,
            "deals": "".join(_DIGITS[self._deal[p]] for p in itertools.permutations(wagons)),
            "trains": "".join(_DIGITS[self._train[p]]
                              for p in itertools.permutations(wagons, self.plan.train)),
        }

    @classmethod
    def from_json(cls, data: dict) -> Reference:
        p = data["plan"]
        plan = Plan(p["wagons"], p["headshunt"], tuple(p["sidings"]))
        return cls(plan, parse_position(plan, data["source"]), data["deals"], data["trains"],
                   data["levels"], data["level_compositions"])

    def deal_distance(self, start, goal) -> int:
        """Moves from deal `start` to the deal-shaped position `goal`."""
        rename = renaming_to_source(start, self.source)
        return self._deal[tuple(rename[x] for x in goal[2] + goal[3])]

    def game_distance(self, start, train) -> int:
        """Moves from deal `start` to any position with `train` in Siding 3."""
        rename = renaming_to_source(start, self.source)
        return self._train[tuple(rename[x] for x in train)]

    def trains_at(self, distance: int) -> list[tuple[int, ...]]:
        """Trains, in the source's wagon names, at `distance` from the source."""
        return [t for t, d in self._train.items() if d == distance]

    def expanded_edges(self, depth: int) -> int:
        """Edges a breadth-first search from a deal follows to finish every
        level below `depth`."""
        edges = 0
        for lengths, counts in self.level_compositions.items():
            degree = composition_degree(self.plan, tuple(int(x) for x in lengths.split(",")))
            edges += degree * sum(counts[:depth])
        return edges

    def worst_deal(self, goal_family) -> tuple[int, tuple]:
        """The largest distance from any deal to the nearest goal in
        `goal_family` (deal-shaped positions), and the first deal attaining
        it in wagon-order."""
        best = (-1, None)
        for order in itertools.permutations(range(1, self.plan.w + 1)):
            start = deal(self.plan, order)
            d = min(self.deal_distance(start, g) for g in goal_family)
            if d > best[0]:
                best = (d, start)
        return best


def classic_goal_family(plan: Plan):
    """Ordered Siding 3 and Siding 2 in any order: the paper's 17-move set."""
    n2 = plan.m[1]
    tail = tuple(range(n2 + 1, plan.w + 1))
    return [deal(plan, head + tail) for head in itertools.permutations(range(1, n2 + 1))]
