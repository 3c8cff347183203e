"""Command-line surface: feasibility checks, solving, optimal search,
worst-case sweeps, diameter studies, instance generation, and replay
verification.

Exit codes: 0 success, 1 negative result (unsolvable, unreachable,
disconnected, bad replay), 2 input error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import constructive, feasibility, model, search
from .constructive import UnsatisfiablePatternError
from .model import FormatError, IllegalMoveError, InglenookError, LabelTable
from .search import BudgetExceededError, DisconnectedGraphError, GoalPattern

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class ReplayFailure(InglenookError):
    def __init__(self, lineno: int, text: str, reason: str):
        self.lineno = lineno
        super().__init__(f"illegal move at line {lineno}: {text!r}: {reason}")


def _read_source(value: str) -> str:
    """A flag value is a file path when it names a regular file, else
    inline text."""
    if not os.path.isfile(value):
        return value
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {value!r}: {exc}") from None


def _load_spec(args) -> model.PuzzleSpec:
    if args.spec is not None:
        return model.parse_spec_text(_read_source(args.spec))
    if args.wagons is None or args.headshunt is None or args.sidings is None:
        raise FormatError("give --spec or all of --wagons/--headshunt/--sidings")
    caps = args.sidings.split()
    if not caps or not all(c.isdigit() for c in caps):
        raise FormatError(f"--sidings must be space-separated integers, got {args.sidings!r}")
    try:
        return model.PuzzleSpec(args.wagons, args.headshunt, tuple(int(c) for c in caps))
    except model.InvalidSpecError as exc:
        raise FormatError(str(exc)) from None


def _load_start(spec, args) -> tuple[model.Position, LabelTable]:
    if args.start is None:
        raise FormatError("--start is required")
    return model.parse_position_with_labels(spec, _read_source(args.start))


def _load_pattern(spec, value: str, labels: LabelTable | None) -> GoalPattern:
    """Parse a pattern source; a position line is an exact single-position
    pattern."""
    text = _read_source(value)
    body = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if len(body) == 1 and body[0].lstrip().startswith("H:"):
        p = model.parse_position(spec, body[0], labels)
        return GoalPattern.exact_position(p)
    return search.parse_pattern(spec, text, labels)


def cmd_check(args) -> int:
    spec = _load_spec(args)
    verdict = feasibility.inglenook_solvable(spec)
    print(f"solvable = {'yes' if verdict.solvable else 'no'}")
    print(f"branch = {verdict.branch}")
    print(f"slack = {verdict.slack}")
    return EXIT_OK if verdict.solvable else EXIT_NEGATIVE


def cmd_solve(args) -> int:
    spec = _load_spec(args)
    start, labels = _load_start(spec, args)
    if args.goal is None:
        raise FormatError("--goal is required")
    pattern = _load_pattern(spec, args.goal, labels)
    trace = constructive.solve_to_pattern(spec, start, pattern)
    print(f"bound = {constructive.inglenook_move_bound(spec.w)}")
    print(f"length = {trace.length}")
    sys.stdout.write(constructive.format_trace(trace, labels))
    return EXIT_OK


def cmd_optimal(args) -> int:
    spec = _load_spec(args)
    start, labels = _load_start(spec, args)
    if args.goal is None:
        raise FormatError("--goal is required")
    pattern = _load_pattern(spec, args.goal, labels)
    report = search.optimal_solve(spec, start, pattern, budget=args.budget)
    if report.distance is None:
        print("distance = unreachable")
        print(f"explored = {report.explored}")
        return EXIT_NEGATIVE
    print(f"distance = {report.distance}")
    print(f"explored = {report.explored}")
    sys.stdout.write(constructive.format_trace(report.trace, labels))
    return EXIT_OK


def cmd_worst(args) -> int:
    spec = _load_spec(args)
    if args.start is None or args.goal is None:
        raise FormatError("worst needs --start and --goal patterns")
    starts = _load_pattern(spec, args.start, None)
    goal = _load_pattern(spec, args.goal, None)
    report = search.worst_case_moves(spec, starts, goal, budget=args.budget)
    if report.distance is None:
        print("distance = unreachable")
        print(f"start = {model.format_position(report.start)}")
        return EXIT_NEGATIVE
    print(f"distance = {report.distance}")
    print(f"explored = {report.explored}")
    print(f"start = {model.format_position(report.start)}")
    return EXIT_OK


def cmd_diameter(args) -> int:
    if args.piles is not None:
        caps = args.piles.split()
        if not caps or not all(c.isdigit() for c in caps):
            raise FormatError(f"--piles must be space-separated integers, got {args.piles!r}")
        if args.cards is None:
            raise FormatError("--piles needs --cards for the card count")
        try:
            cspec = model.CardsSpec(args.cards, tuple(int(c) for c in caps))
        except model.InvalidSpecError as exc:
            raise FormatError(str(exc)) from None
    else:
        spec = _load_spec(args)
        cspec = model.cards_spec(spec)
    diameter = search.cards_diameter(cspec, budget=args.budget)
    print(f"states = {model.count_states(cspec)}")
    print(f"diameter = {diameter}")
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = _load_spec(args)
    if args.start is None:
        raise FormatError("gen needs a --start pattern")
    pattern = _load_pattern(spec, args.start, None)
    codec = model.position_codec(spec)
    codes = sorted(codec.encode(p.tracks) for p in search.iter_matching_positions(spec, pattern))
    if not codes:
        raise UnsatisfiablePatternError(
            "no valid position matches the pattern",
            search.pattern_conflicts(spec, pattern),
        )
    rng = random.Random(args.seed)
    choice = codes[rng.randrange(len(codes))]
    print(model.format_position(model.Position(codec.decode(choice))))
    return EXIT_OK


def _iter_move_lines(spec, text: str, labels):
    """Move lines from a bare move list or a full trace file.

    Position lines are returned for cross-checking; key = value header
    lines and comments are ignored, so solver output replays directly.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("H:"):
            yield lineno, ("position", model.parse_position(spec, line, labels))
            continue
        if model._KEYVAL_RE.match(line) and not line.upper().startswith(("PULL", "PUSH")):
            continue
        yield lineno, ("move", model.parse_move(line, lineno))


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    start, labels = _load_start(spec, args)
    if args.moves is None:
        raise FormatError("verify needs --moves")
    text = _read_source(args.moves)
    current = start
    count = 0
    positions_seen = 0
    for lineno, (kind, value) in _iter_move_lines(spec, text, labels):
        if kind == "position":
            expected = start if positions_seen == 0 else current
            positions_seen += 1
            if value != expected:
                raise ReplayFailure(
                    lineno, model.format_position(value, labels),
                    "embedded position does not match the replayed state",
                )
            continue
        try:
            current = model.apply_move(spec, current, value)
        except IllegalMoveError as exc:
            raise ReplayFailure(lineno, model.format_move(value), str(exc)) from None
        count += 1
    print(f"moves = {count}")
    print(model.format_position(current, labels))
    return EXIT_OK


_FLAGS = {
    "spec": dict(help="spec file or inline text"),
    "wagons": dict(type=int, help="wagon count (inline spec)"),
    "headshunt": dict(type=int, help="headshunt capacity (inline spec)"),
    "sidings": dict(help="siding capacities, space separated (inline spec)"),
    "start": dict(help="position or pattern, file or inline"),
    "goal": dict(help="position or pattern, file or inline"),
    "moves": dict(help="move list or trace file"),
    "seed": dict(type=int, default=0, help="generator seed"),
    "cards": dict(type=int, help="card count"),
    "piles": dict(help="pile capacities, space separated"),
    "budget": dict(type=int, default=search.DEFAULT_BUDGET,
                   help="state budget for exhaustive work"),
}

_SPEC_FLAGS = ("spec", "wagons", "headshunt", "sidings")

# name: (handler, help, flags read beyond the spec flags)
_COMMANDS = {
    "check": (cmd_check, "decide whether every natural instance is solvable", ()),
    "solve": (cmd_solve, "produce a guaranteed-valid solution within the move bound",
              ("start", "goal")),
    "optimal": (cmd_optimal, "find a provably shortest solution by exhaustive search",
                ("start", "goal", "budget")),
    "worst": (cmd_worst, "find the worst start for a goal set", ("start", "goal", "budget")),
    "diameter": (cmd_diameter, "exact diameter of the card-pile graph",
                 ("cards", "piles", "budget")),
    "gen": (cmd_gen, "sample a start position matching a pattern", ("start", "seed")),
    "verify": (cmd_verify, "replay a move list and print the final position",
               ("start", "moves")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inglenook",
        description="Shunting puzzle tools: check feasibility, build or "
        "optimise solutions, study worst cases, and verify move lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, doc, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        for flag in _SPEC_FLAGS + flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, model.InvalidSpecError, model.InvalidPositionError,
            model.InvalidStateError, UnsatisfiablePatternError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (feasibility.UnsolvableError, DisconnectedGraphError, ReplayFailure,
            IllegalMoveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
