"""Command-line surface: feasibility checks, solving, optimal search,
worst-case sweeps, diameter studies, instance generation, and replay
verification.

Exit codes: 0 success, 1 negative result (unsolvable, unreachable,
disconnected, bad replay), 2 input error, 3 budget refusal, 4 failed
internal check.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import constructive, feasibility, model, search
from .model import FormatError, IllegalMoveError, InglenookError, InternalCheckError, LabelTable
from .search import BudgetExceededError, DisconnectedGraphError, GoalPattern

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class ReplayFailure(InglenookError):
    """An illegal move, or a position line that is not the replayed state."""


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


def _given(args, flags) -> str:
    """The flags among `flags` that the command line sets, as text."""
    return " ".join(f"--{flag}" for flag in flags if getattr(args, flag) is not None)


def _load_spec(args) -> model.PuzzleSpec:
    """The plan from --spec or from the inline flags, refusing both."""
    if args.spec is not None:
        inline = _given(args, _SPEC_FLAGS[1:])
        if inline:
            raise FormatError(f"give --spec or the inline flags ({inline}), not both")
        return model.parse_spec_text(_read_source(args.spec))
    if args.wagons is None or args.headshunt is None or args.sidings is None:
        raise FormatError("give --spec or all of --wagons/--headshunt/--sidings")
    caps = model.parse_capacities("--sidings", args.sidings)
    try:
        return model.PuzzleSpec(args.wagons, args.headshunt, caps)
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
    cards, plan = _given(args, ("cards", "piles")), _given(args, _SPEC_FLAGS)
    if cards and plan:
        raise FormatError(f"give the card flags ({cards}) or the spec flags ({plan}), not both")
    if args.piles is not None:
        caps = model.parse_capacities("--piles", args.piles)
        if args.cards is None:
            raise FormatError("--piles needs --cards for the card count")
        try:
            cspec = model.CardsSpec(args.cards, caps)
        except model.InvalidSpecError as exc:
            raise FormatError(str(exc)) from None
    elif args.cards is not None:
        raise FormatError("--cards needs --piles for the pile capacities")
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
    code = search.sample_code(spec, pattern, random.Random(args.seed), "the pattern")
    print(model.format_position(model.Position(model.position_codec(spec).decode(code))))
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    start, labels = _load_start(spec, args)
    if args.moves is None:
        raise FormatError("verify needs --moves")
    lines = enumerate(_read_source(args.moves).splitlines(), start=1)

    def moves():
        """Moves from a bare move list or a full trace file, parsed one line
        at a time as the replay asks.  A position line must be the state the
        replay last yielded; key = value header lines and comments are
        ignored, so solver output replays directly."""
        nonlocal lineno, mv
        for lineno, raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("H:"):
                position = model.parse_position_with_labels(spec, line, labels, lineno)[0]
                if position != current:
                    raise ReplayFailure(f"position at line {lineno} does not match the replayed "
                                        f"state: {model.format_position(position, labels)!r}")
            elif not model._KEYVAL_RE.match(line) or line.upper().startswith(("PULL", "PUSH")):
                mv = model.parse_move(line, lineno)
                yield mv

    lineno = mv = None  # the line and move the replay is on
    try:
        for count, current in enumerate(model._replay_steps(spec, start, moves())):
            pass
    except IllegalMoveError as exc:
        raise ReplayFailure(f"illegal move at line {lineno}: "
                            f"{model.format_move(mv)!r}: {exc}") from None
    print(f"moves = {count}")
    print(model.format_position(current, labels))
    return EXIT_OK


def non_negative_int(text: str) -> int:
    """Type of --budget; argparse names this function when it refuses a
    value, negative or not an integer, as an input error."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


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
    "budget": dict(type=non_negative_int, default=search.DEFAULT_BUDGET,
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
            model.InvalidStateError, search.UnsatisfiablePatternError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (feasibility.UnsolvableError, DisconnectedGraphError, ReplayFailure,
            IllegalMoveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
