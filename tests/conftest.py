"""Shared strategies, fixture paths, and naive reference oracles.

The oracles here deliberately use only the model-level move operations,
never the packed search kernel, so kernel results are checked against an
independent route.
"""

from __future__ import annotations

import itertools
from collections import deque
from pathlib import Path

import pytest
from hypothesis import strategies as st

from inglenook import (
    CardsSpec,
    CardsState,
    Position,
    PuzzleSpec,
    apply_move,
    legal_moves,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def classic_spec() -> PuzzleSpec:
    return PuzzleSpec(8, 3, (3, 3, 5))


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


# --- naive oracles ----------------------------------------------------------

def naive_distances(spec: PuzzleSpec, start: Position) -> dict[Position, int]:
    """Plain breadth-first distances using only model-level operations."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for mv in legal_moves(spec, p):
            q = apply_move(spec, p, mv)
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


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
