"""Remake the classic-plan reference table, perfbench/classic_reference.json.

    python3 perfbench/reference.py

One breadth-first search from the fully ordered deal, with the benchmark's
own move rules (perfbench/rules.py), over all 2,136,960 positions; about a
minute and 300 MB.  Before writing, it checks that the table reproduces the
paper's worst cases: 20 moves to the fully ordered finish and 17 to the
classic finishing set, over all deals.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rules import CLASSIC, CheckFailure, Reference, classic_goal_family, ordered_goal  # noqa: E402

PATH = Path(__file__).resolve().parent / "classic_reference.json"
PUBLISHED = {"ordered": 20, "classic_goal": 17}


def load() -> Reference:
    with open(PATH, encoding="utf-8") as fh:
        return Reference.from_json(json.load(fh))


def worst_cases(ref: Reference) -> dict[str, int]:
    return {
        "ordered": ref.worst_deal([ordered_goal(ref.plan)])[0],
        "classic_goal": ref.worst_deal(classic_goal_family(ref.plan))[0],
    }


def main() -> int:
    ref = Reference.compute(CLASSIC)
    found = worst_cases(ref)
    if found != PUBLISHED:
        raise CheckFailure(f"reference gives {found}, the paper {PUBLISHED}")
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(ref.to_json(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {PATH.name}: {sum(ref.levels)} positions, {len(ref.levels) - 1} levels, "
          f"worst cases {found}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
