"""Model-level behaviour: moves, conversions, packed codes, text formats."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from inglenook import (
    PULL,
    PUSH,
    CardsState,
    FormatError,
    IllegalMoveError,
    InvalidPositionError,
    InvalidSpecError,
    Position,
    PuzzleSpec,
    ShuntMove,
    apply_move,
    cards_spec,
    count_positions,
    format_position,
    from_cards,
    is_convertible,
    parse_position,
    parse_spec_text,
    replay,
    to_cards,
)
from inglenook import model
from inglenook.model import (
    LabelTable,
    format_move,
    parse_move,
    parse_position_with_labels,
    position_codec,
)

from conftest import legal_moves, puzzle_specs, specs_with_positions


CLASSIC = PuzzleSpec(8, 3, (3, 3, 5))


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        PuzzleSpec(0, 3, (3, 3, 5))
    with pytest.raises(InvalidSpecError):
        PuzzleSpec(8, 0, (3, 3, 5))
    with pytest.raises(InvalidSpecError):
        PuzzleSpec(8, 3, (3, 0, 5))
    with pytest.raises(InvalidSpecError):
        PuzzleSpec(14, 3, (3, 3, 5))  # needs strictly fewer wagons than capacity
    PuzzleSpec(13, 3, (3, 3, 5))


def test_legal_moves_classic_two_sidings_loaded():
    p = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    moves = legal_moves(CLASSIC, p)
    assert [format_move(m) for m in moves] == [
        "PULL 1 S2", "PULL 2 S2", "PULL 3 S2",
        "PULL 1 S3", "PULL 2 S3", "PULL 3 S3",
    ]


def test_legal_moves_full_headshunt_only_pushes():
    spec = PuzzleSpec(3, 3, (3, 3))
    p = Position(((1, 2, 3), (), ()))
    moves = legal_moves(spec, p)
    assert moves and all(m.direction == PUSH for m in moves)


def test_legal_moves_single_wagon():
    spec = PuzzleSpec(1, 1, (1,))
    p = Position(((), (1,)))
    assert legal_moves(spec, p) == [ShuntMove(1, PULL, 1)]


def test_legal_moves_rejects_invalid_position():
    with pytest.raises(InvalidPositionError):
        legal_moves(CLASSIC, Position(((1, 2, 3, 4), (), (), ())))


def test_apply_move_first_step_of_seventeen_move_solution():
    p = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    q = apply_move(CLASSIC, p, ShuntMove(3, PULL, 2))
    assert format_position(q) == "H:[1,6]|S1:[]|S2:[4,7,8]|S3:[2,3,5]"


def test_apply_move_first_step_of_twenty_move_solution():
    p = parse_position(CLASSIC, "H:[]|S1:[]|S2:[6,1,8]|S3:[5,4,7,2,3]")
    q = apply_move(CLASSIC, p, ShuntMove(2, PULL, 2))
    assert format_position(q) == "H:[6,1]|S1:[]|S2:[8]|S3:[5,4,7,2,3]"


def test_apply_move_errors_name_the_constraint():
    p = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    with pytest.raises(IllegalMoveError, match="headshunt"):
        apply_move(CLASSIC, p, ShuntMove(3, PULL, 4))
    with pytest.raises(IllegalMoveError, match="holds"):
        apply_move(CLASSIC, p, ShuntMove(1, PULL, 1))
    loaded = parse_position(CLASSIC, "H:[1,6]|S1:[]|S2:[4,7,8]|S3:[2,3,5]")
    with pytest.raises(IllegalMoveError, match="free"):
        apply_move(CLASSIC, loaded, ShuntMove(2, PUSH, 1))
    with pytest.raises(IllegalMoveError, match="no siding"):
        apply_move(CLASSIC, p, ShuntMove(4, PULL, 1))


@given(specs_with_positions())
@settings(max_examples=200)
def test_pull_then_push_round_trips(case):
    spec, p = case
    for mv in legal_moves(spec, p):
        q = apply_move(spec, p, mv)
        assert apply_move(spec, q, mv.inverse()) == p


@given(specs_with_positions())
@settings(max_examples=200)
def test_move_invariants(case):
    spec, p = case
    before = sorted(w for t in p.tracks for w in t)
    for mv in legal_moves(spec, p):
        q = apply_move(spec, p, mv)
        assert q != p
        # conservation and capacity
        assert sorted(w for t in q.tracks for w in t) == before
        assert len(q.headshunt) <= spec.h
        for i in range(1, spec.s + 1):
            assert len(q.tracks[i]) <= spec.m[i - 1]
        # the headshunt+siding concatenation is untouched by the transfer
        r = mv.siding
        assert p.headshunt + p.tracks[r] == q.headshunt + q.tracks[r]
        for i in range(1, spec.s + 1):
            if i != r:
                assert p.tracks[i] == q.tracks[i]


@given(specs_with_positions(max_s=1))
@settings(max_examples=100)
def test_single_siding_preserves_wagon_order(case):
    spec, p = case
    combined = p.headshunt + p.tracks[1]
    for mv in legal_moves(spec, p):
        q = apply_move(spec, p, mv)
        assert q.headshunt + q.tracks[1] == combined


def test_is_convertible():
    assert is_convertible(CLASSIC, parse_position(CLASSIC, "H:[1,6]|S1:[]|S2:[4,7,8]|S3:[2,3,5]"))
    assert not is_convertible(CLASSIC, parse_position(CLASSIC, "H:[1,6,4]|S1:[]|S2:[7,8]|S3:[2,3,5]"))
    tiny = PuzzleSpec(1, 1, (1,))
    assert is_convertible(tiny, Position(((), (1,))))


def test_to_cards_orientation():
    p = parse_position(CLASSIC, "H:[1,6]|S1:[]|S2:[4,7,8]|S3:[2,3,5]")
    c = to_cards(CLASSIC, p)
    assert c.piles == ((1, 6), (), (8, 7, 4), (5, 3, 2))


def test_to_cards_single_wagon_at_buffer_stop():
    spec = PuzzleSpec(1, 2, (2, 2))
    p = Position(((), (), (1,)))
    c = to_cards(spec, p)
    assert c.piles == ((), (), (1,))


def test_to_cards_rejects_full_headshunt():
    p = parse_position(CLASSIC, "H:[1,6,4]|S1:[]|S2:[7,8]|S3:[2,3,5]")
    with pytest.raises(InvalidPositionError, match="convertible"):
        to_cards(CLASSIC, p)


def test_from_cards_boundary_pile_zero_full():
    c = CardsState(((1, 6), (4,), (7, 8), (5, 3, 2)))
    p = from_cards(CLASSIC, c)
    assert len(p.headshunt) == CLASSIC.h - 1
    assert is_convertible(CLASSIC, p)
    assert to_cards(CLASSIC, p) == c


def test_from_cards_all_empty_piles_rejected_only_when_wagons_missing():
    spec = PuzzleSpec(1, 2, (2, 2))
    c = CardsState(((), (1,), ()))
    p = from_cards(spec, c)
    assert p == Position(((), (1,), ()))


def test_cards_spec_shapes():
    assert cards_spec(CLASSIC).m == (2, 3, 3, 5)
    low = PuzzleSpec(2, 1, (2, 2, 1))
    assert cards_spec(low).m == (2, 2, 1)


@given(specs_with_positions())
@settings(max_examples=200)
def test_cards_round_trip(case):
    spec, p = case
    if not is_convertible(spec, p):
        return
    assert from_cards(spec, to_cards(spec, p)) == p


@given(specs_with_positions())
@settings(max_examples=200)
def test_encoding_round_trip_and_width(case):
    spec, p = case
    codec = position_codec(spec)
    code = codec.encode(p.tracks)
    assert codec.total_slots == spec.h + sum(spec.m)
    assert code.bit_length() <= codec.bits * codec.total_slots
    assert codec.decode(code) == p.tracks


@given(puzzle_specs(max_w=5))
@settings(max_examples=50)
def test_encoding_injective_within_spec(spec):
    from conftest import all_positions

    if count_positions(spec) > 3000:
        return
    codec = position_codec(spec)
    seen = {}
    for p in all_positions(spec):
        code = codec.encode(p.tracks)
        assert code not in seen
        seen[code] = p


def test_replay_runs_every_intermediate_check():
    p = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    path = replay(CLASSIC, p, [ShuntMove(3, PULL, 2), ShuntMove(2, PULL, 1)])
    assert len(path) == 3
    assert format_position(path[-1]) == "H:[1,6,4]|S1:[]|S2:[7,8]|S3:[2,3,5]"
    with pytest.raises(IllegalMoveError):
        replay(CLASSIC, p, [ShuntMove(3, PULL, 2), ShuntMove(3, PUSH, 3)])


def test_replay_refuses_an_invalid_start_even_with_no_moves():
    # wagon 8 is missing and wagon 1 appears twice
    bad = Position(((), (), (4, 7, 1), (1, 6, 2, 3, 5)))
    with pytest.raises(InvalidPositionError, match="exactly once"):
        replay(CLASSIC, bad, [])


def test_replay_validates_its_start_once(monkeypatch):
    p = parse_position(CLASSIC, "H:[]|S1:[]|S2:[4,7,8]|S3:[1,6,2,3,5]")
    calls = []
    validate = model.validate_position

    def counting(spec, q):
        calls.append(q)
        validate(spec, q)

    monkeypatch.setattr(model, "validate_position", counting)
    moves = [ShuntMove(3, PULL, 2), ShuntMove(1, PUSH, 1), ShuntMove(2, PULL, 1)]
    path = replay(CLASSIC, p, moves)
    assert format_position(path[-1]) == "H:[1,4]|S1:[6]|S2:[7,8]|S3:[2,3,5]"
    assert calls == [p]


def test_apply_move_still_refuses_an_invalid_position():
    over = Position(((1, 2, 3, 4), (), (5, 6, 7), (8,)))  # headshunt over capacity 3
    with pytest.raises(InvalidPositionError, match="headshunt holds 4"):
        apply_move(CLASSIC, over, ShuntMove(3, PULL, 1))


def test_count_positions_classic():
    assert count_positions(CLASSIC) == 2136960


# --- text formats -----------------------------------------------------------

def test_spec_text_round_trip():
    text = "# comment\nwagons = 8\nheadshunt = 3\nsidings = 3 3 5\n"
    assert parse_spec_text(text) == CLASSIC


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("wagons = 8\nheadshunt = 3\n", "missing key"),
        ("wagons = 8\nheadshunt = 3\nsidings = 3 0 5\n", "capacity"),
        ("wagons = x\nheadshunt = 3\nsidings = 3 3 5\n", "positive integer"),
        ("wagons = 8\nwagons = 9\nheadshunt = 3\nsidings = 3 3 5\n", "duplicate"),
        ("bogus = 1\nwagons = 8\nheadshunt = 3\nsidings = 3 3 5\n", "unknown key"),
        ("wagons 8\nheadshunt = 3\nsidings = 3 3 5\n", "key = value"),
    ],
)
def test_spec_text_errors(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_spec_text(text)


def test_spec_text_errors_carry_line_numbers():
    try:
        parse_spec_text("wagons = 8\nheadshunt = 3\nsidings = 3 0 5\n")
    except FormatError as exc:
        assert exc.line == 3
    else:  # pragma: no cover
        pytest.fail("expected a FormatError")


def test_position_text_round_trip():
    text = "H:[1,6]|S1:[]|S2:[4,7,8]|S3:[2,3,5]"
    p = parse_position(CLASSIC, text)
    assert format_position(p) == text


def test_position_text_whitespace_insensitive_inside_brackets():
    p = parse_position(CLASSIC, "H:[ 1 , 6 ]|S1:[]|S2:[4,7,8]|S3:[2,3,5]")
    assert format_position(p) == "H:[1,6]|S1:[]|S2:[4,7,8]|S3:[2,3,5]"


@pytest.mark.parametrize(
    "text",
    [
        "H:[1,6]|S1:[]|S2:[4,7,8]",  # wrong track count
        "S1:[]|H:[1,6]|S2:[4,7,8]|S3:[2,3,5]",  # wrong order
        "H:[1,6]|S2:[]|S1:[4,7,8]|S3:[2,3,5]",  # wrong labels
        "H:[1,1]|S1:[]|S2:[4,7,8]|S3:[2,3,5,6]",  # duplicate wagon
        "H:[1,6,4,7]|S1:[]|S2:[8]|S3:[2,3,5]",  # over capacity
    ],
)
def test_position_text_errors(text):
    with pytest.raises(FormatError):
        parse_position(CLASSIC, text)


def test_alphanumeric_wagon_labels_round_trip():
    spec = PuzzleSpec(3, 2, (2, 2))
    p, table = parse_position_with_labels(spec, "H:[van]|S1:[brake,coal]|S2:[]")
    assert p.tracks == ((3,), (1, 2), ())  # brake, coal, van sorted
    assert format_position(p, table) == "H:[van]|S1:[brake,coal]|S2:[]"
    with pytest.raises(FormatError, match="unknown wagon"):
        parse_position(spec, "H:[van]|S1:[brake,oil]|S2:[]", table)


def test_numeric_label_table_orders_numerically():
    table = LabelTable.from_tokens(["10", "2", "waggon"])
    assert table.tokens == ("2", "10", "waggon")


def test_move_text_round_trip():
    for text in ("PULL 2 S3", "PUSH 1 S1"):
        assert format_move(parse_move(text)) == text
    with pytest.raises(FormatError):
        parse_move("SHOVE 1 S1")


def test_constructive_property_tests_hold_under_python_O():
    # `python -O` strips the package's assert statements but not pytest's
    # rewritten ones, so the move-bound and replay properties must hold on
    # checks that are not asserts
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(root / "tests" / "test_constructive.py")],
                          cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
