"""The commands each workload sends to the program, made from the seed.

Round i of a run depends only on (workload, seed, i) and on the bench
settings, so the process that runs the program and the process that checks
it make the same inputs independently, and a run's inputs do not depend on
how many rounds fit in it.  Nothing here reads the program's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rules import (Plan, apply_move, deal, format_move, format_position, legal_moves,
                   renaming_to_source)

WORKLOADS = ("sweep", "optimal", "deal", "diameter")


@dataclass(frozen=True)
class Bench:
    """One plan and everything the workloads send to the program about it.

    `spec`, `deals`, `ordered` and `published` are flag values: a fixture
    path for the classic plan, inline text for the tiny self-test plan.
    `strata` maps each game distance a round plays to the trains, in the
    reference source's wagon names, that lie at that distance.
    """

    plan: Plan
    spec: str
    deals: str
    ordered: str
    published: str
    strata: dict[int, list[tuple[int, ...]]]
    verify_moves: int
    cards: int
    piles: tuple[int, ...]

    def to_json(self) -> dict:
        d = dict(self.__dict__)
        d["plan"] = [self.plan.w, self.plan.h, list(self.plan.m)]
        d["strata"] = {str(k): [list(t) for t in v] for k, v in self.strata.items()}
        return d

    @classmethod
    def from_json(cls, d: dict) -> Bench:
        d = dict(d)
        w, h, m = d["plan"]
        d["plan"] = Plan(w, h, tuple(m))
        d["strata"] = {int(k): [tuple(t) for t in v] for k, v in d["strata"].items()}
        d["piles"] = tuple(d["piles"])
        return cls(**d)


@dataclass(frozen=True)
class Op:
    """One command: its argv and what the checker needs to judge it."""

    kind: str
    argv: tuple[str, ...]
    start: tuple | None = None
    train: tuple[int, ...] | None = None
    moves: tuple | None = None
    pair: int | None = None


def random_deal(plan: Plan, rng: random.Random):
    order = list(range(1, plan.w + 1))
    rng.shuffle(order)
    return deal(plan, order)


def game_train(start, source_train, source) -> tuple[int, ...]:
    """The train that is to `start` what `source_train` is to `source`."""
    back = {b: a for a, b in renaming_to_source(start, source).items()}
    return tuple(back[x] for x in source_train)


def train_pattern(train) -> str:
    return "S3 = [" + ",".join(map(str, train)) + "]"


def round_ops(bench: Bench, workload: str, seed: int, i: int, source) -> list[Op]:
    """The commands of round i.  `source` is the reference table's source
    deal, which `strata` is written against."""
    plan = bench.plan
    spec = ("--spec", bench.spec)
    if workload == "sweep":
        return [Op("worst", ("worst",) + spec + ("--start", bench.deals, "--goal", bench.ordered))]
    if workload == "diameter":
        piles = " ".join(map(str, bench.piles))
        return [Op("diameter", ("diameter", "--cards", str(bench.cards), "--piles", piles))]
    rng = random.Random(f"{workload}:{seed}:{i}")
    if workload == "optimal":
        ops = [Op("optimal", ("optimal",) + spec
                  + ("--start", bench.published, "--goal", bench.ordered))]
        for distance in sorted(bench.strata):
            start = random_deal(plan, rng)
            train = game_train(start, rng.choice(bench.strata[distance]), source)
            ops.append(Op("optimal", ("optimal",) + spec + (
                "--start", format_position(start), "--goal", train_pattern(train)),
                start=start, train=train))
        return ops
    if workload == "deal":
        # rounds 2j and 2j+1 ask gen for the same seed, so every pair of
        # rounds checks that gen is reproducible
        gen_seed = random.Random(f"gen:{seed}:{i // 2}").randrange(2 ** 31)
        start = random_deal(plan, rng)
        train = tuple(rng.sample(range(1, plan.w + 1), plan.train))
        walk_start = random_deal(plan, rng)
        pos, moves = walk_start, []
        for _ in range(bench.verify_moves):
            mv = rng.choice(list(legal_moves(plan, pos)))
            pos = apply_move(plan, pos, mv)
            moves.append(mv)
        trace = "\n".join([format_position(walk_start)] + [format_move(m) for m in moves]
                          + [format_position(pos)]) + "\n"
        return [
            Op("gen", ("gen",) + spec + ("--start", bench.deals, "--seed", str(gen_seed)),
               pair=i // 2),
            Op("solve", ("solve",) + spec + ("--start", format_position(start),
                                             "--goal", train_pattern(train)),
               start=start, train=train),
            Op("verify", ("verify",) + spec + ("--start", format_position(walk_start),
                                               "--moves", trace),
               start=walk_start, moves=tuple(moves)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
