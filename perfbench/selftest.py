"""Show that every check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs each workload for about a second on a tiny plan (5 wagons, headshunt 2,
sidings 2/2/3; cards 4 on piles 3/3/1 for the diameter), with a reference
table computed on the spot, and requires every output to pass.  Then it
corrupts one output at a time and requires the checks to reject it:

  * one move changed in a trace (optimal and solve);
  * a distance off by one (sweep and optimal);
  * a gen line that repeats a wagon;
  * a diameter one too small.

It also requires the stored classic reference to give the paper's worst
cases, 20 and 17.  Exit code 0 when all of this holds.
"""

from __future__ import annotations

import copy
import re
import sys

import rules
from inputs import WORKLOADS, Bench
from reference import PUBLISHED, load, worst_cases
from run import Case, check_rounds, run_child

TINY_STRATA = (5, 7, 8)


def tiny_case() -> Case:
    plan = rules.TINY
    ref = rules.Reference.compute(plan)
    worst, witness = ref.worst_deal([rules.ordered_goal(plan)])
    n2 = plan.m[1]
    ordered = (f"H = []; S1 = []; S2 = [{','.join(map(str, range(1, n2 + 1)))}]; "
               f"S3 = [{','.join(map(str, range(n2 + 1, plan.w + 1)))}]")
    bench = Bench(
        plan=plan, spec=plan.spec_text(), deals="H = []; S1 = []", ordered=ordered,
        published=rules.format_position(witness),
        strata={d: ref.trains_at(d) for d in TINY_STRATA},
        verify_moves=12, cards=4, piles=(3, 3, 1),
    )
    return Case(bench, ref, worst, worst)


def change_move(text: str) -> str:
    """Send the middle move of a trace to the next siding."""
    lines = text.splitlines()
    at = [i for i, ln in enumerate(lines) if ln.startswith(("PULL", "PUSH"))]
    i = at[len(at) // 2]
    kind, k, r = rules.parse_move(lines[i])
    lines[i] = rules.format_move((kind, k, r % 3 + 1))
    return "\n".join(lines) + "\n"


def add_one(key: str, delta: int):
    def corrupt(text: str) -> str:
        return re.sub(rf"^{key} = (\d+)$", lambda m: f"{key} = {int(m.group(1)) + delta}",
                      text, count=1, flags=re.M)
    return corrupt


def repeat_wagon(text: str) -> str:
    """Overwrite the first wagon of Siding 3 with the first of Siding 2."""
    pos = rules.parse_position(rules.TINY, text.strip())
    tracks = list(pos)
    tracks[3] = (tracks[2][0],) + tracks[3][1:]
    return rules.format_position(tracks) + "\n"


# workload, index of the command within round 0, corruption
CORRUPTIONS = {
    "a move changed in the published optimal trace": ("optimal", 0, change_move),
    "a move changed in a game's optimal trace": ("optimal", 1, change_move),
    "a move changed in a solve trace": ("deal", 1, change_move),
    "the sweep distance off by one": ("sweep", 0, add_one("distance", 1)),
    "an optimal distance off by one": ("optimal", 2, add_one("distance", -1)),
    "a gen line that repeats a wagon": ("deal", 0, repeat_wagon),
    "a diameter one too small": ("diameter", 0, add_one("diameter", -1)),
}


def main() -> int:
    problems = []
    found = worst_cases(load())
    if found != PUBLISHED:
        problems.append(f"classic reference gives {found}, the paper {PUBLISHED}")
    case = tiny_case()
    runs = {}
    for workload in WORKLOADS:
        _, rounds, _ = run_child(case, workload, 7, 1.0, False)
        attempted, failed, errors, _, _ = check_rounds(case, workload, 7, rounds)
        print(f"{workload}: {attempted} commands, {failed} failed, {len(errors)} check failures")
        problems += [f"{workload}: {e}" for e in errors]
        if failed:
            problems.append(f"{workload}: {failed} commands failed")
        runs[workload] = rounds
    for name, (workload, index, corrupt) in CORRUPTIONS.items():
        rounds = copy.deepcopy(runs[workload])
        op = rounds[0]["ops"][index]
        before = op[2]
        op[2] = corrupt(before)
        if op[2] == before:
            problems.append(f"{name}: the corruption changed nothing")
            continue
        errors = check_rounds(case, workload, 7, rounds)[2]
        if errors:
            print(f"caught {name}: {errors[0]}")
        else:
            problems.append(f"{name}: not caught")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
