"""Benchmark of the inglenook command line on the classic plan.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, optimal, deal, diameter (see README.md).  The program
runs in a child process (child.py) that calls inglenook.cli.run in process;
this process makes the same inputs from the seed, checks every output
against the benchmark's own rules and reference table, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exit codes: 0 result printed and correct, 1 result printed but some output
was wrong, 2 the program or its fixtures are missing or the child died,
3 the child ran out of time.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import rules
from inputs import WORKLOADS, Bench, round_ops
from reference import PUBLISHED, load
from rules import CheckFailure, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 170

# Games of the optimal workload, one per distance: every search from a deal
# expands the same levels (renaming wagons is a graph automorphism), so a
# fixed set of distances makes each round the same work whatever the seed.
CLASSIC_STRATA = (8, 9, 10, 11)
# About the mean length of a constructive trace on classic games.
VERIFY_MOVES = 47
# wall_s is the program's time at the host speed where one probe of
# child.py takes PROBE_REF_S; the probes within PROBE_WINDOW_S of a command
# give the host's speed while it ran.
PROBE_REF_S = 0.0075
PROBE_WINDOW_S = 2.0

NEEDED = ("src/inglenook/cli.py", "fixtures/classic.spec", "fixtures/classic_start.pattern",
          "fixtures/ordered_goal.pattern", "fixtures/solution20.start")


def classic_bench(ref: Reference) -> Bench:
    return Bench(
        plan=rules.CLASSIC,
        spec="fixtures/classic.spec",
        deals="fixtures/classic_start.pattern",
        ordered="fixtures/ordered_goal.pattern",
        published="fixtures/solution20.start",
        strata={d: ref.trains_at(d) for d in CLASSIC_STRATA},
        verify_moves=VERIFY_MOVES,
        cards=6,
        piles=(5, 5, 1),
    )


@dataclass
class Case:
    """A bench with its reference table and the answers it must give."""

    bench: Bench
    ref: Reference
    worst: int          # sweep: the worst deal's distance to the ordered finish
    published: int      # optimal: the published deal's distance

    def flag_text(self, value: str) -> str:
        path = ROOT / value
        return path.read_text(encoding="utf-8") if path.is_file() else value


def classic_case() -> Case:
    ref = load()
    return Case(classic_bench(ref), ref, PUBLISHED["ordered"], PUBLISHED["ordered"])


# --- running the program --------------------------------------------------------

def run_child(case: Case, workload: str, seed: int, seconds: float, trace: bool):
    """Start child.py, feed it the settings, and collect its rounds.

    Returns (setup seconds, rounds, summary); raises RuntimeError when the
    child fails or runs out of time."""
    settings = json.dumps({
        "bench": case.bench.to_json(), "source": rules.format_position(case.ref.source),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
    })
    spawned = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(settings, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise TimeoutError(f"child ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    lines = [json.loads(ln) for ln in out.splitlines()]
    summary = lines[-1]["summary"]
    return summary["ready"] - spawned, lines[:-1], summary


# --- checking its outputs -----------------------------------------------------------

def _split(text: str) -> tuple[dict[str, str], list[str]]:
    """Leading `key = value` lines, then the rest."""
    lines = text.splitlines()
    head = {}
    while lines and " = " in lines[0] and not lines[0].startswith("H:"):
        key, value = lines.pop(0).split(" = ", 1)
        head[key] = value
    return head, lines


def _int(head: dict[str, str], key: str) -> int:
    try:
        return int(head[key])
    except (KeyError, ValueError):
        raise CheckFailure(f"no integer {key!r} in the output") from None


_card_diameter = functools.cache(rules.card_diameter)


def check_op(case: Case, op, text: str, gens: dict) -> int | None:
    """Judge one command's stdout; returns the answer's length in moves,
    or None for commands that give no move count.  Raises CheckFailure."""
    plan = case.bench.plan
    head, rest = _split(text)
    if op.kind == "worst":
        distance = _int(head, "distance")
        if distance != case.worst:
            raise CheckFailure(f"worst distance {distance}, expected {case.worst}")
        if _int(head, "explored") != rules.count_positions(plan):
            raise CheckFailure("a sweep of a connected plan must explore every position")
        witness = rules.parse_position(plan, head.get("start", ""))
        if not rules.is_deal(plan, witness):
            raise CheckFailure("the worst start is not a deal")
        if case.ref.deal_distance(witness, rules.ordered_goal(plan)) != distance:
            raise CheckFailure("the reference puts the worst start at another distance")
        return distance
    if op.kind == "optimal":
        distance = _int(head, "distance")
        if _int(head, "explored") > rules.count_positions(plan):
            raise CheckFailure("explored more positions than the plan has")
        if op.start is None:
            start = rules.parse_position(plan, case.flag_text(case.bench.published).splitlines()[0])
            goal = rules.ordered_goal(plan)
            expected = case.ref.deal_distance(start, goal)
            if expected != case.published:
                raise CheckFailure(f"reference gives {expected} for the published deal")
            accepts = goal.__eq__
        else:
            start, train = op.start, op.train
            expected = case.ref.game_distance(start, train)
            accepts = lambda pos: pos[3] == train  # noqa: E731
        if distance != expected:
            raise CheckFailure(f"optimal distance {distance}, reference {expected}")
        moves = rules.check_trace(plan, "\n".join(rest), start, accepts)
        if len(moves) != distance:
            raise CheckFailure(f"trace has {len(moves)} moves for distance {distance}")
        return distance
    if op.kind == "gen":
        if len(rest) != 1 or not rules.is_deal(plan, rules.parse_position(plan, rest[0])):
            raise CheckFailure(f"gen printed {text!r}, not one deal")
        if gens.setdefault(op.pair, rest[0]) != rest[0]:
            raise CheckFailure("gen printed two deals for one seed")
        return None
    if op.kind == "solve":
        bound = 2 * plan.w ** 2 + 12 * plan.w - 10
        if _int(head, "bound") != bound:
            raise CheckFailure(f"solve reports bound {head.get('bound')}, the paper's is {bound}")
        train = op.train
        moves = rules.check_trace(plan, "\n".join(rest), op.start, lambda pos: pos[3] == train)
        if len(moves) != _int(head, "length") or len(moves) > bound:
            raise CheckFailure(f"solve trace of {len(moves)} moves, length line or bound broken")
        return len(moves)
    if op.kind == "verify":
        pos = op.start
        for mv in op.moves:
            pos = rules.apply_move(plan, pos, mv)
        if _int(head, "moves") != len(op.moves) or rest != [rules.format_position(pos)]:
            raise CheckFailure(f"verify ends at {rest}, the replay at {rules.format_position(pos)}")
        return None
    if op.kind == "diameter":
        w, piles = case.bench.cards, case.bench.piles
        states, diameter = _card_diameter(w, piles)
        if _int(head, "states") != states:
            raise CheckFailure(f"states {head.get('states')}, closed form {states}")
        got = _int(head, "diameter")
        if got != diameter:
            raise CheckFailure(f"diameter {got}, the benchmark's own search {diameter}")
        if piles == (w - 1, w - 1, 1) and got < (w * w + 2) // 4:
            raise CheckFailure("diameter below the paper's lower bound")
        return diameter
    raise CheckFailure(f"unknown command {op.kind!r}")


def check_rounds(case: Case, workload: str, seed: int, rounds: list[dict]):
    """Check every command; returns (attempted, failed, errors, answers by
    phase, op kinds with their times by phase)."""
    attempted = failed = 0
    errors: list[str] = []
    answers: dict[str, list[int]] = {}
    times: dict[str, list[tuple[str, float]]] = {}
    gens: dict = {}
    source = case.ref.source
    for rnd in rounds:
        ops = round_ops(case.bench, workload, seed, rnd["round"], source)
        if len(ops) != len(rnd["ops"]):
            raise RuntimeError("child and checker disagree on the round's commands")
        for op, (code, seconds, text) in zip(ops, rnd["ops"]):
            attempted += 1
            times.setdefault(rnd["phase"], []).append((op.kind, seconds))
            if code != 0:
                failed += 1
                continue
            try:
                answer = check_op(case, op, text, gens)
            except CheckFailure as exc:
                errors.append(f"round {rnd['round']} {op.kind}: {exc}")
                continue
            if answer is not None:
                answers.setdefault(rnd["phase"], []).append(answer)
    return attempted, failed, errors, answers, times


# --- metrics ------------------------------------------------------------------

def _p50_ms(times, kind) -> float:
    picked = [s for k, s in times if k == kind]
    return statistics.median(picked) * 1000 if picked else 0.0


def host_corrected_walls(rounds, probes) -> list[float]:
    """Each plain round's time, every command's seconds scaled by
    PROBE_REF_S over the median probe near it."""
    walls = []
    for rnd in rounds:
        if rnd["phase"] != "plain":
            continue
        wall = 0.0
        for (_, seconds, _), (start, end) in zip(rnd["ops"], rnd["spans"]):
            near = [dt for t, dt in probes
                    if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
            wall += seconds * PROBE_REF_S / statistics.median(near)
        walls.append(wall)
    return walls


def end_to_end(setup_s, rounds, summary, answers) -> dict:
    walls = host_corrected_walls(rounds, summary["probes"])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (summary["maxrss_kb"] / 1024, "MB"),
        "moves_mean": (statistics.fmean(answers.get("plain") or [0]), "moves"),
    }


def per_layer(case: Case, workload: str, rounds, summary, times) -> dict:
    plan = case.bench.plan
    layers = summary["layers"]
    traced = [r for r in rounds if r["phase"] == "traced"]
    n = len(traced)

    def layer(name, field="s"):
        return layers.get(name, {}).get(field, 0) / n

    explored = {"worst": 0, "optimal": 0}
    edges = 0
    for rnd in traced:
        for code, _, text in rnd["ops"]:
            head, _ = _split(text)
            if code == 0 and "explored" in head:
                kind = "worst" if "start" in head else "optimal"
                explored[kind] += int(head["explored"])
                edges += (rules.count_edges(plan) if kind == "worst"
                          else case.ref.expanded_edges(int(head["distance"])))
    search_s = layer("search.worst_case_moves") + layer("search.optimal_solve")
    first = rounds[0]["ops"][0]
    first_explored = int(_split(first[2])[0].get("explored", 0)) if first[0] == 0 else 0
    grown = (summary["maxrss_after_first_kb"] - summary["rss_before_kb"]) * 1024
    optimal_states = explored["optimal"] / n
    imp = layers.get("search.iter_matching_positions", {})
    run = layers.get("cli.run", {})
    plain = times.get("plain", [])
    values = {
        "search.worst_case_moves.s": (layer("search.worst_case_moves"), "s"),
        "search.worst_case_moves.states": (explored["worst"] / n, "count"),
        "search.edges_per_s": (edges / n / search_s if search_s else 0.0, "1/s"),
        "search.bytes_per_state": (grown / first_explored if first_explored else 0.0, "B"),
        "search.optimal_solve.s": (layer("search.optimal_solve"), "s"),
        "search.optimal_solve.states": (optimal_states, "count"),
        "search.optimal_solve.us_per_state": (
            layer("search.optimal_solve") / optimal_states * 1e6 if optimal_states else 0.0, "us"),
        "search.iter_matching_positions.s": (layer("search.iter_matching_positions"), "s"),
        "search.iter_matching_positions.per_call": (
            imp["s"] / imp["calls"] * 1000 if imp.get("calls") else 0.0, "ms"),
        "model.SlotCodec.encode.calls": (layer("model.SlotCodec.encode", "calls"), "count"),
        "model.SlotCodec.encode.s": (layer("model.SlotCodec.encode"), "s"),
        "constructive.solve_to_pattern.s": (layer("constructive.solve_to_pattern"), "s"),
        "constructive.solve_inglenook.s": (layer("constructive.solve_inglenook"), "s"),
        "constructive.solve_cards.s": (layer("constructive.solve_cards"), "s"),
        "constructive.format_trace.s": (layer("constructive.format_trace"), "s"),
        "model.parse_position.s": (layer("model.parse_position"), "s"),
        "model.parse_move.s": (layer("model.parse_move"), "s"),
        "model.apply_move.calls": (layer("model.apply_move", "calls"), "count"),
        "model.apply_move.s": (layer("model.apply_move"), "s"),
        "model.format_position.s": (layer("model.format_position"), "s"),
        "cli.run.self_ms": (run["self_s"] / run["calls"] * 1000 if run.get("calls") else 0.0, "ms"),
        "search.cards_component_census.s": (layer("search.cards_component_census"), "s"),
        "search.cards_diameter.self_s": (layer("search.cards_diameter", "self_s"), "s"),
        "setup.import_s": (summary["import_s"], "s"),
        "trace.overhead_ratio": (summary["overhead_ratio"], "ratio"),
        "optimal_p50_ms": (_p50_ms(plain, "optimal"), "ms"),
        "gen_p50_ms": (_p50_ms(plain, "gen"), "ms"),
        "solve_p50_ms": (_p50_ms(plain, "solve"), "ms"),
        "verify_p50_ms": (_p50_ms(plain, "verify"), "ms"),
    }
    return values


def measure(case: Case, workload: str, seed: int, seconds: float, trace: bool):
    """Run and check one workload; returns (the result line, the per-round
    times and check failures for the result file)."""
    setup_s, rounds, summary = run_child(case, workload, seed, seconds, trace)
    attempted, failed, errors, answers, times = check_rounds(case, workload, seed, rounds)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    values = (per_layer(case, workload, rounds, summary, times) if trace
              else end_to_end(setup_s, rounds, summary, answers))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    detail = {"rounds": [[r["phase"]] + [op[1] for op in r["ops"]] for r in rounds],
              "errors": errors}
    if not trace:
        detail["probe_ms"] = statistics.median(dt for _, dt in summary["probes"]) * 1000
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(classic_case(), args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(dict(result, **detail)) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
