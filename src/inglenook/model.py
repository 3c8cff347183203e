"""Core domain model: track layouts, positions, shunt moves, the card-pile
reduction, packed integer codes, and the text formats shared by every tool.
Every reported `SolutionTrace` is replayed by its move rule in `_check_trace`."""

from __future__ import annotations

import collections
import functools
import math
import re
from dataclasses import dataclass


class InglenookError(Exception):
    """Base class for every error raised by this package."""


class InternalCheckError(InglenookError, AssertionError):
    """An internal consistency check failed: a bug, not a bad input.  It is
    an AssertionError too, but raised explicitly, so it survives `python -O`."""


class InvalidSpecError(InglenookError):
    """A puzzle or card-pile specification violates a basic constraint."""


class InvalidPositionError(InglenookError):
    """A position breaks one of the position invariants; the message names it."""


class InvalidStateError(InglenookError):
    """A card-pile state breaks one of the state invariants."""


class IllegalMoveError(InglenookError):
    """A move cannot be applied; the message names the failed constraint."""


class FormatError(InglenookError):
    """A text input could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


PULL = "pull"  # siding -> headshunt
PUSH = "push"  # headshunt -> siding


@dataclass(frozen=True)
class PuzzleSpec:
    """Capacities of one inglenook instance.

    w wagons, a headshunt holding at most h wagons (the engine is not
    counted), and sidings holding at most m[0], m[1], ... wagons.  The
    wagon count must be strictly less than the total track capacity.
    """

    w: int
    h: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(self.m))
        if self.w < 1:
            raise InvalidSpecError(f"wagon count must be positive, got {self.w}")
        if self.h < 1:
            raise InvalidSpecError(f"headshunt capacity must be positive, got {self.h}")
        if not self.m:
            raise InvalidSpecError("at least one siding is required")
        for i, cap in enumerate(self.m, start=1):
            if cap < 1:
                raise InvalidSpecError(f"siding {i} capacity must be positive, got {cap}")
        if self.w >= self.h + sum(self.m):
            raise InvalidSpecError(
                f"wagon count {self.w} must be strictly less than total capacity "
                f"{self.h + sum(self.m)}"
            )

    @property
    def s(self) -> int:
        return len(self.m)

    def track_capacity(self, i: int) -> int:
        """Capacity of track i, where 0 is the headshunt and 1..s are sidings."""
        return self.h if i == 0 else self.m[i - 1]


@dataclass(frozen=True)
class Position:
    """Occupancy of every track.

    tracks[0] is the headshunt read engine->points; tracks[i] for i >= 1 is
    siding i read points->buffer stop.  Wagons are opaque integer labels.
    """

    tracks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(tuple(t) for t in self.tracks))

    @property
    def headshunt(self) -> tuple[int, ...]:
        return self.tracks[0]


@dataclass(frozen=True)
class ShuntMove:
    """One pull or push of a block of `count` wagons between the headshunt
    and siding `siding`, always at the points end of both tracks."""

    siding: int
    direction: str
    count: int

    def __post_init__(self):
        if self.direction not in (PULL, PUSH):
            raise IllegalMoveError(f"direction must be {PULL!r} or {PUSH!r}, got {self.direction!r}")

    def inverse(self) -> ShuntMove:
        return ShuntMove(self.siding, PUSH if self.direction == PULL else PULL, self.count)


@dataclass(frozen=True)
class CardsSpec:
    """Card-pile puzzle sizes: w cards over piles 0..s with capacities m."""

    w: int
    m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(self.m))
        if self.w < 1:
            raise InvalidSpecError(f"card count must be positive, got {self.w}")
        if not self.m:
            raise InvalidSpecError("at least one pile is required")
        for i, cap in enumerate(self.m):
            if cap < 1:
                raise InvalidSpecError(f"pile {i} capacity must be positive, got {cap}")
        if self.w > sum(self.m):
            raise InvalidSpecError(
                f"card count {self.w} exceeds total pile capacity {sum(self.m)}"
            )

    @property
    def s(self) -> int:
        return len(self.m) - 1


@dataclass(frozen=True)
class CardsState:
    """Piles of cards, each read bottom->top."""

    piles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "piles", tuple(tuple(p) for p in self.piles))


@dataclass(frozen=True)
class SolutionTrace:
    """A move sequence together with its endpoint states."""

    start: object
    finish: object
    moves: tuple

    @property
    def length(self) -> int:
        return len(self.moves)


def _check_trace(steps_fn, spec, trace: SolutionTrace, what: str,
                 bound: int | None = None) -> SolutionTrace:
    """Return trace if it keeps within `bound` moves, when one is given, and
    `steps_fn` (`_replay_steps`, say) replays it legally to its finish."""
    if bound is not None and trace.length > bound:
        raise InternalCheckError(f"{trace.length} {what} moves exceed the bound {bound}")
    try:
        end = collections.deque(steps_fn(spec, trace.start, trace.moves), maxlen=1).pop()
    except IllegalMoveError as exc:
        raise InternalCheckError(f"the {what} trace must replay: {exc}") from None
    if end != trace.finish:
        raise InternalCheckError(f"the {what} trace must replay to its finish")
    return trace


def validate_position(spec: PuzzleSpec, p: Position) -> None:
    """Raise InvalidPositionError naming the violated invariant, if any."""
    if len(p.tracks) != spec.s + 1:
        raise InvalidPositionError(
            f"position has {len(p.tracks)} tracks, spec has {spec.s + 1}"
        )
    if len(p.headshunt) > spec.h:
        raise InvalidPositionError(
            f"headshunt holds {len(p.headshunt)} wagons, capacity is {spec.h}"
        )
    for i in range(1, spec.s + 1):
        if len(p.tracks[i]) > spec.m[i - 1]:
            raise InvalidPositionError(
                f"siding {i} holds {len(p.tracks[i])} wagons, capacity is {spec.m[i - 1]}"
            )
    seen = [w for track in p.tracks for w in track]
    if sorted(seen) != list(range(1, spec.w + 1)):
        raise InvalidPositionError(
            f"tracks must hold wagons 1..{spec.w} exactly once, got {sorted(seen)}"
        )


def validate_state(spec: CardsSpec, st: CardsState) -> None:
    """Raise InvalidStateError naming the violated invariant, if any."""
    if len(st.piles) != spec.s + 1:
        raise InvalidStateError(f"state has {len(st.piles)} piles, spec has {spec.s + 1}")
    for i, pile in enumerate(st.piles):
        if len(pile) > spec.m[i]:
            raise InvalidStateError(
                f"pile {i} holds {len(pile)} cards, capacity is {spec.m[i]}"
            )
    cards = sorted(c for pile in st.piles for c in pile)
    if cards != list(range(1, spec.w + 1)):
        raise InvalidStateError(f"piles must hold cards 1..{spec.w} exactly once, got {cards}")


def apply_move(spec: PuzzleSpec, p: Position, mv: ShuntMove) -> Position:
    """Apply mv to p; the transferred block keeps its order across the points."""
    return replay(spec, p, (mv,))[-1]


def replay(spec: PuzzleSpec, start: Position, moves) -> list[Position]:
    """Apply moves in order; returns every position visited, start included.
    The start is validated once, then each move's legality, which keeps it valid."""
    return list(_replay_steps(spec, start, moves))


def _replay_steps(spec: PuzzleSpec, cur: Position, moves):
    """Yield the positions of `replay` one at a time."""
    validate_position(spec, cur)
    yield cur
    for mv in moves:
        cur = _shunt(spec, cur, mv)
        yield cur


def _shunt(spec: PuzzleSpec, cur: Position, mv: ShuntMove) -> Position:
    """`apply_move` on a position known to be valid: only the move is checked."""
    if not 1 <= mv.siding <= spec.s:
        raise IllegalMoveError(f"no siding {mv.siding} (spec has {spec.s})")
    if mv.count < 1:
        raise IllegalMoveError(f"move count must be positive, got {mv.count}")
    tracks = list(cur.tracks)
    head = tracks[0]
    side = tracks[mv.siding]
    if mv.direction == PULL:
        if mv.count > len(side):
            raise IllegalMoveError(
                f"cannot pull {mv.count} wagons, siding {mv.siding} holds {len(side)}"
            )
        if mv.count > spec.h - len(head):
            raise IllegalMoveError(
                f"cannot pull {mv.count} wagons, headshunt has {spec.h - len(head)} free"
            )
        tracks[0] = head + side[: mv.count]
        tracks[mv.siding] = side[mv.count :]
    else:
        if mv.count > len(head):
            raise IllegalMoveError(
                f"cannot push {mv.count} wagons, headshunt holds {len(head)}"
            )
        if mv.count > spec.m[mv.siding - 1] - len(side):
            raise IllegalMoveError(
                f"cannot push {mv.count} wagons, siding {mv.siding} has "
                f"{spec.m[mv.siding - 1] - len(side)} free"
            )
        tracks[0] = head[: -mv.count]
        tracks[mv.siding] = head[-mv.count :] + side
    return Position(tuple(tracks))


def is_convertible(spec: PuzzleSpec, p: Position) -> bool:
    """True when the headshunt is not full, i.e. at most h-1 wagons in it."""
    validate_position(spec, p)
    return len(p.headshunt) <= spec.h - 1


def _pile_tracks(spec: PuzzleSpec) -> range:
    """The track of each card pile, in pile order: for h > 1 the headshunt,
    as pile 0 of capacity h-1, then every siding; for h = 1 the headshunt is
    empty in every convertible position, so the sidings alone."""
    return range(0 if spec.h > 1 else 1, spec.s + 1)


def cards_spec(spec: PuzzleSpec) -> CardsSpec:
    """Card-pile sizes matching spec's convertible positions, a pile per
    track of `_pile_tracks`."""
    caps = (spec.h - 1,) + spec.m
    return CardsSpec(spec.w, tuple(caps[i] for i in _pile_tracks(spec)))


def to_cards(spec: PuzzleSpec, p: Position) -> CardsState:
    """Map a convertible position to its card-pile state.

    The headshunt maps to pile 0 with the wagon nearest the engine at the
    bottom; each siding maps to a pile with the wagon nearest the buffer
    stop at the bottom.
    """
    if not is_convertible(spec, p):
        raise InvalidPositionError("position is not convertible: headshunt is full")
    return _to_cards(spec, p)


def _to_cards(spec: PuzzleSpec, p: Position) -> CardsState:
    """`to_cards` on a position known to be valid and convertible."""
    return CardsState(tuple(p.tracks[i][::-1] if i else p.tracks[i] for i in _pile_tracks(spec)))


def from_cards(spec: PuzzleSpec, c: CardsState) -> Position:
    """Inverse of to_cards; the result is always convertible."""
    validate_state(cards_spec(spec), c)
    tracks = [()] * (spec.s + 1)
    for i, pile in zip(_pile_tracks(spec), c.piles):
        tracks[i] = pile[::-1] if i else pile
    return Position(tuple(tracks))


class SlotCodec:
    """Fixed-width packing of ordered track contents into one integer.

    Each unit of capacity is one slot; a track's occupants fill its leading
    slots and the rest are zero.  Tracks are laid out first track most
    significant, so codes compare as their slot sequences do.
    """

    __slots__ = ("caps", "bits", "slot_mask", "total_slots", "low_shift", "seg_mask")

    def __init__(self, caps: tuple[int, ...], w: int):
        self.caps = caps
        self.bits = 8 if w < 256 else 16
        self.slot_mask = (1 << self.bits) - 1
        if w > self.slot_mask:
            raise InvalidSpecError(f"cannot encode {w} wagons")
        self.total_slots = sum(caps)
        low_shift = []
        remaining = self.total_slots
        for cap in caps:
            remaining -= cap
            low_shift.append(self.bits * remaining)
        self.low_shift = tuple(low_shift)
        self.seg_mask = tuple((1 << self.bits * cap) - 1 for cap in caps)

    def encode(self, tracks) -> int:
        bits = self.bits
        code = 0
        for cap, track in zip(self.caps, tracks):
            seg = 0
            for x in track:
                seg = (seg << bits) | x
            code = (code << (bits * cap)) | (seg << (bits * (cap - len(track))))
        return code

    def decode(self, code: int) -> tuple[tuple[int, ...], ...]:
        bits = self.bits
        mask = self.slot_mask
        tracks = []
        for cap, shift in zip(self.caps, self.low_shift):
            seg = (code >> shift) & self.seg_mask[len(tracks)]
            track = []
            for j in range(cap - 1, -1, -1):
                x = (seg >> (bits * j)) & mask
                if x == 0:
                    break
                track.append(x)
            tracks.append(tuple(track))
        return tuple(tracks)


@functools.lru_cache(maxsize=256)
def position_codec(spec: PuzzleSpec) -> SlotCodec:
    return SlotCodec((spec.h,) + spec.m, spec.w)


@functools.lru_cache(maxsize=256)
def state_codec(spec: CardsSpec) -> SlotCodec:
    return SlotCodec(spec.m, spec.w)


def count_positions(spec: PuzzleSpec) -> int:
    """Exact number of valid positions of spec."""
    return _compositions((spec.h,) + spec.m, spec.w) * math.factorial(spec.w)


def count_states(spec: CardsSpec) -> int:
    """Exact number of valid card-pile states of spec."""
    return _compositions(spec.m, spec.w) * math.factorial(spec.w)


def _compositions(caps: tuple[int, ...], total: int) -> int:
    # number of ways to write `total` as an ordered sum bounded by caps
    coeffs = [1]
    for cap in caps:
        new = [0] * min(len(coeffs) + cap, total + 1)
        for i, c in enumerate(coeffs):
            for j in range(0, min(cap, total - i) + 1):
                new[i + j] += c
        coeffs = new
    return coeffs[total] if total < len(coeffs) else 0


# --- text formats ---------------------------------------------------------

_TOKEN_RE = re.compile(r"^[A-Za-z0-9]+$")
_TRACK_RE = re.compile(r"^(H|S(\d+)):\[([^\[\]]*)\]$")
_MOVE_RE = re.compile(r"^(PULL|PUSH)\s+(\d+)\s+S(\d+)$")
_KEYVAL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*?)\s*$")


class LabelTable:
    """Bidirectional map between display tokens and canonical labels 1..w."""

    def __init__(self, tokens: tuple[str, ...]):
        self.tokens = tuple(tokens)
        self._ids = {tok: i for i, tok in enumerate(self.tokens, start=1)}
        if len(self._ids) != len(self.tokens):
            raise FormatError("wagon tokens must be distinct")

    @classmethod
    def identity(cls, w: int) -> LabelTable:
        return cls(tuple(str(i) for i in range(1, w + 1)))

    @classmethod
    def from_tokens(cls, tokens) -> LabelTable:
        # numeric tokens sort numerically ("01" before "1"), others lexically
        # after them
        ordered = sorted(set(tokens), key=lambda t: (0, int(t), t) if t.isdecimal() else (1, 0, t))
        return cls(tuple(ordered))

    def label(self, token: str) -> int:
        if token not in self._ids:
            raise FormatError(f"unknown wagon token {token!r}")
        return self._ids[token]

    def token(self, label: int) -> str:
        return self.tokens[label - 1]


def _track_tokens(text: str) -> list[str]:
    inner = text.strip()
    if not inner:
        return []
    tokens = [tok.strip() for tok in inner.split(",")]
    for tok in tokens:
        if not _TOKEN_RE.match(tok):
            raise FormatError(f"bad wagon token {tok!r}")
    return tokens


def parse_position_tokens(spec: PuzzleSpec, text: str, line: int | None = None) -> list[list[str]]:
    """Split a position line into per-track token lists, enforcing the layout."""
    parts = text.strip().split("|")
    if len(parts) != spec.s + 1:
        raise FormatError(
            f"expected {spec.s + 1} tracks separated by '|', got {len(parts)}", line
        )
    per_track = []
    for idx, part in enumerate(parts):
        m = _TRACK_RE.match(part.strip())
        if not m:
            raise FormatError(f"bad track field {part.strip()!r}", line)
        if idx == 0 and m.group(1) != "H":
            raise FormatError("first track must be 'H'", line)
        if idx > 0 and (m.group(2) is None or int(m.group(2)) != idx):
            raise FormatError(f"track {idx} must be labelled 'S{idx}'", line)
        try:
            per_track.append(_track_tokens(m.group(3)))
        except FormatError as exc:
            raise FormatError(str(exc), line) from None
    return per_track


def parse_position_with_labels(spec: PuzzleSpec, text: str,
                               labels: LabelTable | None = None,
                               line: int | None = None) -> tuple[Position, LabelTable]:
    """Parse a position line; builds a label table when none is supplied."""
    per_track = parse_position_tokens(spec, text, line)
    flat = [tok for track in per_track for tok in track]
    if labels is None:
        if sorted(flat) == sorted(str(i) for i in range(1, spec.w + 1)):
            labels = LabelTable.identity(spec.w)
        else:
            if len(set(flat)) != spec.w:
                raise FormatError(
                    f"position must name {spec.w} distinct wagons, got {len(set(flat))}", line
                )
            labels = LabelTable.from_tokens(flat)
    try:
        tracks = tuple(tuple(labels.label(tok) for tok in track) for track in per_track)
    except FormatError as exc:
        raise FormatError(str(exc), line) from None
    p = Position(tracks)
    try:
        validate_position(spec, p)
    except InvalidPositionError as exc:
        raise FormatError(str(exc), line) from None
    return p, labels


def parse_position(spec: PuzzleSpec, text: str, labels: LabelTable | None = None) -> Position:
    return parse_position_with_labels(spec, text, labels)[0]


def format_position(p: Position, labels: LabelTable | None = None) -> str:
    def fmt(track):
        return ",".join(labels.token(x) if labels else str(x) for x in track)

    fields = [f"H:[{fmt(p.tracks[0])}]"]
    fields += [f"S{i}:[{fmt(p.tracks[i])}]" for i in range(1, len(p.tracks))]
    return "|".join(fields)


def parse_capacities(name: str, text: str, line: int | None = None,
                     column: int | None = None) -> tuple[int, ...]:
    """Parse space-separated decimal integers, such as siding or pile
    capacities; `name` names the field in the error."""
    caps = text.split()
    if not caps or not all(c.isdecimal() for c in caps):
        raise FormatError(
            f"{name} must be space-separated positive integers, got {text!r}", line, column
        )
    return tuple(int(c) for c in caps)


def parse_spec_text(text: str) -> PuzzleSpec:
    """Parse the line-oriented `key = value` spec format."""
    values: dict[str, object] = {}
    lines_seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _KEYVAL_RE.match(raw)
        if not m:
            raise FormatError(
                f"expected 'key = value', got {stripped!r}", lineno,
                len(raw) - len(raw.lstrip()) + 1,
            )
        key, value = m.group(1), m.group(2)
        value_col = m.start(2) + 1
        if key in values:
            raise FormatError(f"duplicate key {key!r}", lineno, m.start(1) + 1)
        lines_seen[key] = lineno
        if key in ("wagons", "headshunt"):
            if not value.isdecimal():
                raise FormatError(
                    f"{key} must be a positive integer, got {value!r}", lineno, value_col
                )
            values[key] = int(value)
        elif key == "sidings":
            values[key] = parse_capacities(key, value, lineno, value_col)
        else:
            raise FormatError(f"unknown key {key!r}", lineno, m.start(1) + 1)
    for key in ("wagons", "headshunt", "sidings"):
        if key not in values:
            raise FormatError(f"missing key {key!r}")
    try:
        return PuzzleSpec(values["wagons"], values["headshunt"], values["sidings"])
    except InvalidSpecError as exc:
        key = "sidings" if "siding" in str(exc) else (
            "headshunt" if "headshunt" in str(exc) else "wagons")
        raise FormatError(str(exc), lines_seen.get(key)) from None


def format_move(mv: ShuntMove) -> str:
    return f"{mv.direction.upper()} {mv.count} S{mv.siding}"


def parse_move(text: str, line: int | None = None) -> ShuntMove:
    m = _MOVE_RE.match(text.strip())
    if not m:
        raise FormatError(f"bad move {text.strip()!r}", line)
    direction = PULL if m.group(1) == "PULL" else PUSH
    count = int(m.group(2))
    if count < 1:
        raise FormatError("move count must be positive", line)
    return ShuntMove(int(m.group(3)), direction, count)
