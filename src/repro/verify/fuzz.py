"""Cross-planner fuzzing: random SOCs through every planner + checker.

One seed drives one scenario end to end: a small random SOC is planned
by the pipeline under several compression modes, each plan is re-checked
by the independent invariant checker (:mod:`repro.verify.invariants`),
and the planners are cross-checked against each other through
metamorphic properties that must hold regardless of the random inputs:

* **permutation invariance** -- re-ordering the SOC's core list must not
  change the planned makespan (the schedulers sort canonically);
* **exhaustive dominance** -- the exhaustive partition search can never
  lose to the trivial single-TAM schedule or to the greedy search over
  the same partition space;
* **unconstrained equivalence** -- the constrained scheduler with no
  constraints, and the preemptive scheduler with no power budget, must
  reproduce the paper scheduler's makespan exactly with zero inserted
  TAM idle time;
* **constraint soundness** -- under a random feasible power budget and
  random precedence DAG, the constrained and preemptive schedules must
  pass the full invariant catalog.

Everything is derived from the seed alone, so any finding is replayable
with ``python scripts/fuzz_plans.py --seeds N --start SEED``.

Cores are kept tiny (a few short chains, tens of patterns) so the
``exact`` analysis mode stays cheap and a CI-sized run covers hundreds
of SOCs in seconds-per-seed territory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.scheduler import schedule_cores
from repro.core.timeline import schedule_constrained, schedule_preemptive
from repro.explore.dse import analysis_for
from repro.pipeline import RunConfig
from repro.pipeline import plan as run_plan
from repro.pipeline.tables import LookupTables
from repro.search import run_search
from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.verify.invariants import (
    VerificationReport,
    verify_constrained,
    verify_plan,
)


@dataclass(frozen=True)
class Finding:
    """One fuzzer-detected property failure, replayable by seed."""

    seed: int
    check: str
    detail: str

    def format(self) -> str:
        return f"seed {self.seed} [{self.check}] {self.detail}"


# ---------------------------------------------------------------------------
# Random inputs.
# ---------------------------------------------------------------------------


def random_core(rng: random.Random, index: int) -> Core:
    """One small random core; sized so exact-mode analysis is cheap."""
    chains = tuple(
        rng.randint(6, 40) for _ in range(rng.randint(1, 4))
    )
    return Core(
        name=f"fz{index}",
        inputs=rng.randint(1, 10),
        outputs=rng.randint(1, 10),
        bidirs=rng.randint(0, 2),
        scan_chain_lengths=chains,
        patterns=rng.randint(8, 48),
        care_bit_density=rng.uniform(0.05, 0.6),
        one_fraction=rng.uniform(0.2, 0.8),
        seed=rng.randint(0, 2**31),
        gates=rng.randint(500, 20000),
    )


def random_soc(rng: random.Random) -> Soc:
    cores = tuple(
        random_core(rng, index) for index in range(rng.randint(2, 5))
    )
    return Soc(
        name=f"fuzz-{rng.randint(0, 10**9)}",
        cores=cores,
        gates=sum(c.gates for c in cores),
        latches=sum(sum(c.scan_chain_lengths) for c in cores),
    )


def random_precedence(
    rng: random.Random, names: Sequence[str]
) -> tuple[tuple[str, str], ...]:
    """A random precedence DAG: edges only forward in a fixed order."""
    if len(names) < 2 or rng.random() < 0.3:
        return ()
    order = sorted(names)
    pairs: set[tuple[str, str]] = set()
    for _ in range(rng.randint(1, len(order) - 1)):
        i, j = sorted(rng.sample(range(len(order)), 2))
        pairs.add((order[i], order[j]))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# One scenario.
# ---------------------------------------------------------------------------


def _collect(
    findings: list[Finding], seed: int, check: str, report: VerificationReport
) -> None:
    for violation in report.violations:
        findings.append(Finding(seed, check, violation.format()))


def fuzz_one(seed: int) -> list[Finding]:
    """Run the full scenario for one seed; returns property failures."""
    rng = random.Random(seed)
    soc = random_soc(rng)
    names = [core.name for core in soc.cores]
    width = rng.randint(4, 20)
    findings: list[Finding] = []

    # --- pipeline plans under several compression modes, each verified.
    compressions = ["per-core", rng.choice(["none", "auto", "select"])]
    if width >= 3 and rng.random() < 0.3:
        compressions.append("per-tam")
    plans = {}
    for compression in compressions:
        config = RunConfig(
            compression=compression, mode="exact", use_cache=False
        )
        result = run_plan(soc, width, config)
        plans[compression] = result
        _collect(
            findings,
            seed,
            f"plan:{compression}",
            verify_plan(result, soc, config=config),
        )

    # --- metamorphic: core-order permutation cannot change the makespan.
    shuffled = list(soc.cores)
    rng.shuffle(shuffled)
    twin = run_plan(
        soc.with_cores(shuffled),
        width,
        RunConfig(compression="per-core", mode="exact", use_cache=False),
    )
    base = plans["per-core"]
    if twin.test_time != base.test_time:
        findings.append(
            Finding(
                seed,
                "permutation-invariance",
                f"makespan {base.test_time} became "
                f"{twin.test_time} after shuffling cores",
            )
        )

    # --- metamorphic: exhaustive never loses to single-TAM or greedy.
    tables = LookupTables(
        {core.name: analysis_for(core, mode="exact") for core in soc.cores},
        "per-core",
        width,
    )
    single = schedule_cores(names, (width,), tables.time_of)
    exhaustive = run_search(names, width, tables.time_of, strategy="exhaustive")
    greedy = run_search(names, width, tables.time_of, strategy="greedy")
    if exhaustive.makespan > single.makespan:
        findings.append(
            Finding(
                seed,
                "exhaustive-dominance",
                f"exhaustive {exhaustive.makespan} > single-TAM "
                f"{single.makespan} at width {width}",
            )
        )
    if exhaustive.makespan > greedy.makespan:
        findings.append(
            Finding(
                seed,
                "exhaustive-dominance",
                f"exhaustive {exhaustive.makespan} > greedy "
                f"{greedy.makespan} at width {width}",
            )
        )

    # --- metamorphic: no constraints => exactly the paper scheduler.
    partitions = [exhaustive.widths]
    partitions.append(
        tuple(
            rng.randint(1, max(2, width // 2))
            for _ in range(rng.randint(1, min(3, len(names))))
        )
    )
    for widths in partitions:
        plain = schedule_cores(names, widths, tables.time_of)
        unconstrained = schedule_constrained(names, widths, tables.time_of)
        if unconstrained.makespan != plain.makespan:
            findings.append(
                Finding(
                    seed,
                    "constrained-equivalence",
                    f"widths {widths}: constrained(no constraints) "
                    f"{unconstrained.makespan} != plain {plain.makespan}",
                )
            )
        if unconstrained.tam_idle_cycles != 0:
            findings.append(
                Finding(
                    seed,
                    "constrained-equivalence",
                    f"widths {widths}: {unconstrained.tam_idle_cycles} idle "
                    "cycles inserted with no constraints",
                )
            )
        preemptive = schedule_preemptive(
            names, widths, tables.time_of, max_segments=rng.randint(1, 4)
        )
        if preemptive.makespan != plain.makespan:
            findings.append(
                Finding(
                    seed,
                    "preemptive-equivalence",
                    f"widths {widths}: preemptive(no budget) "
                    f"{preemptive.makespan} != plain {plain.makespan}",
                )
            )

    # --- constrained + preemptive under random feasible constraints,
    #     re-checked by the independent invariant catalog.
    powers = {name: rng.uniform(0.5, 10.0) for name in names}
    budget = max(powers.values()) * rng.uniform(1.05, 2.5)
    precedence = random_precedence(rng, names)
    widths = partitions[-1]
    constrained = schedule_constrained(
        names,
        widths,
        tables.time_of,
        power_of=powers,
        power_budget=budget,
        precedence=precedence,
    )
    _collect(
        findings,
        seed,
        "constrained",
        verify_constrained(
            constrained,
            names,
            tables.time_of,
            power_of=powers,
            power_budget=budget,
            precedence=precedence,
        ),
    )
    max_segments = rng.randint(1, 4)
    preemptive = schedule_preemptive(
        names,
        widths,
        tables.time_of,
        power_of=powers,
        power_budget=budget,
        precedence=precedence,
        max_segments=max_segments,
    )
    _collect(
        findings,
        seed,
        "preemptive",
        verify_constrained(
            preemptive,
            names,
            tables.time_of,
            power_of=powers,
            power_budget=budget,
            precedence=precedence,
            max_segments=max_segments,
        ),
    )

    # --- tie-heavy synthetic times: model-derived test times are large
    #     and rarely collide, which hides tie-break divergence between
    #     the planners.  Small random width-dependent times make equal
    #     finish times common (this stage is what flushed out the
    #     constrained scheduler's start-first tie-break bug).
    syn_names = [f"s{i}" for i in range(rng.randint(2, 6))]
    syn_widths = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    syn_times = {
        (name, width): rng.randint(1, 12)
        for name in syn_names
        for width in set(syn_widths)
    }

    def syn_time_of(name: str, width: int) -> int:
        return syn_times[(name, width)]

    syn_plain = schedule_cores(syn_names, syn_widths, syn_time_of)
    syn_constrained = schedule_constrained(
        syn_names, syn_widths, syn_time_of
    )
    syn_preemptive = schedule_preemptive(
        syn_names, syn_widths, syn_time_of, max_segments=rng.randint(1, 3)
    )
    if syn_constrained.makespan != syn_plain.makespan:
        findings.append(
            Finding(
                seed,
                "constrained-equivalence",
                f"synthetic times, widths {syn_widths}: constrained "
                f"{syn_constrained.makespan} != plain {syn_plain.makespan}",
            )
        )
    if syn_constrained.tam_idle_cycles != 0:
        findings.append(
            Finding(
                seed,
                "constrained-equivalence",
                f"synthetic times, widths {syn_widths}: "
                f"{syn_constrained.tam_idle_cycles} idle cycles inserted "
                "with no constraints",
            )
        )
    if syn_preemptive.makespan != syn_plain.makespan:
        findings.append(
            Finding(
                seed,
                "preemptive-equivalence",
                f"synthetic times, widths {syn_widths}: preemptive "
                f"{syn_preemptive.makespan} != plain {syn_plain.makespan}",
            )
        )
    return findings


def fuzz_many(
    seeds: Sequence[int], *, fail_fast: bool = False
) -> list[Finding]:
    """Run many seeds; returns all findings (empty means clean)."""
    findings: list[Finding] = []
    for seed in seeds:
        findings.extend(fuzz_one(seed))
        if fail_fast and findings:
            break
    return findings


__all__ = [
    "Finding",
    "fuzz_many",
    "fuzz_one",
    "random_core",
    "random_precedence",
    "random_soc",
]
