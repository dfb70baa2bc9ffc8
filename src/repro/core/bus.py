"""Bus-based test-data transportation (extension).

The same group's companion work ("Optimization of a Bus-based Test Data
Transportation Mechanism in System-on-Chip", Larsson, Larsson, Eles,
Peng) replaces dedicated, spatially partitioned TAMs with one shared,
time-multiplexed bus: every core taps the full bus, and concurrency is
limited by *bandwidth* rather than by wire ownership.  Each core `i`
consumes `r_i` bus bits per cycle while testing (its TAM-side width:
the decompressor input `w_i` with TDC, the wrapper-chain count
without); any set of cores may run concurrently as long as
`sum r_i <= B`, the bus width.

This maps exactly onto the flat-resource scheduler of
:mod:`repro.core.timeline`: give every core its own "lane" (no wire
exclusivity) and treat the bandwidth as the power budget.  The design
freedom that remains is each core's *rate choice* `r_i` -- a fat, fast
core test versus a thin, slow one -- which
:func:`optimize_bus` resolves with a local-search over halving/raising
rates, seeded at every core's fastest configuration.

Makespan lower bounds: `max_i tau_i(B)` (the fattest single test) and
`ceil(total transported bits / B)` (bandwidth conservation); the
result reports both so the schedule's tightness is visible.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from repro.core.timeline import ConstrainedSchedule, schedule_constrained
from repro.compression.estimator import DEFAULT_SAMPLES
from repro.explore.dse import DEFAULT_GRID, Mode, analysis_for
from repro.pipeline.tables import LookupTables
from repro.soc.soc import Soc


#: Compression modes a bus plan supports.
BUS_MODES: tuple[str, ...] = ("none", "per-core", "auto")


@dataclass(frozen=True)
class BusPlan:
    """A bus-based test transport plan."""

    soc_name: str
    bus_width: int
    compression: str
    rates: dict[str, int]  # per core, the bus bits/cycle it taps
    schedule: ConstrainedSchedule
    lower_bound: int
    cpu_seconds: float
    moves_evaluated: int

    @property
    def test_time(self) -> int:
        return self.schedule.makespan

    @property
    def peak_bandwidth(self) -> float:
        return self.schedule.peak_power

    @property
    def tightness(self) -> float:
        """Makespan over the bandwidth/fattest-test lower bound."""
        return self.test_time / self.lower_bound if self.lower_bound else 1.0


def optimize_bus(
    soc: Soc,
    bus_width: int,
    *,
    compression: str = "per-core",
    mode: Mode = "auto",
    samples: int = DEFAULT_SAMPLES,
    grid: int = DEFAULT_GRID,
    max_rounds: int = 40,
) -> BusPlan:
    """Plan a shared-bus test transport for ``soc``.

    ``compression`` is one of :data:`BUS_MODES`; at every rate a core
    uses the compression policy's pick for that mode, as on a TAM of
    that width (:func:`repro.explore.selection.choose`).
    """
    if compression not in BUS_MODES:
        raise ValueError(
            f"unknown compression mode {compression!r} for a bus plan; "
            f"expected one of {', '.join(BUS_MODES)}"
        )
    if bus_width < 1:
        raise ValueError(f"bus width must be >= 1, got {bus_width}")
    started = _time.perf_counter()
    names = list(soc.core_names)
    if not names:
        raise ValueError("cannot plan an empty SOC")
    tables = LookupTables(
        {
            core.name: analysis_for(core, mode=mode, samples=samples, grid=grid)
            for core in soc.cores
        },
        compression,
        bus_width,
    )

    def pick(name: str, rate: int) -> tuple[int, int]:
        """(test time, bus bits/cycle actually consumed) at a rate grant.

        A decompressor whose code is narrower than the grant only taps
        its code width off the bus; an uncompressed core taps the full
        grant (every wire drives a wrapper chain).
        """
        config = tables.config_of(name, rate)
        return config.test_time, config.code_width or rate

    def schedule_for(rates: dict[str, int]) -> ConstrainedSchedule:
        # One private lane per core: the bus has no wire exclusivity,
        # only the bandwidth budget constrains concurrency.
        return schedule_constrained(
            names,
            [1] * len(names),
            lambda n, _w: tables.time_of(n, rates[n]),
            power_of={n: float(pick(n, rates[n])[1]) for n in names},
            power_budget=float(bus_width),
        )

    # Rate choice is a coordinate search with several starting points:
    # single-coordinate moves cannot escape the all-full-rate serial
    # plan (parallelism needs two cores to slim down *together*), so we
    # also seed from uniformly thinner configurations.
    moves = 0
    best_schedule: ConstrainedSchedule | None = None
    rates: dict[str, int] = {}
    start_rates = sorted(
        {
            bus_width,
            max(1, bus_width // 2),
            max(1, bus_width // 4),
            max(1, bus_width // max(1, len(names))),
        },
        reverse=True,
    )
    for start in start_rates:
        current = {name: start for name in names}
        schedule = schedule_for(current)
        moves += 1
        improved = True
        rounds = 0
        while improved and rounds < max_rounds:
            improved = False
            rounds += 1
            for name in names:
                for candidate in (
                    max(1, current[name] // 2),
                    min(bus_width, current[name] * 2),
                ):
                    if candidate == current[name]:
                        continue
                    trial = dict(current, **{name: candidate})
                    trial_schedule = schedule_for(trial)
                    moves += 1
                    if trial_schedule.makespan < schedule.makespan:
                        current = trial
                        schedule = trial_schedule
                        improved = True
        if best_schedule is None or schedule.makespan < best_schedule.makespan:
            best_schedule = schedule
            rates = current
    assert best_schedule is not None

    # Lower bounds: bandwidth conservation + the fattest single test.
    transported = sum(
        pick(n, rates[n])[0] * pick(n, rates[n])[1] for n in names
    )
    bound = max(
        max(tables.time_of(n, bus_width) for n in names),
        -(-transported // bus_width),
    )
    elapsed = _time.perf_counter() - started
    return BusPlan(
        soc_name=soc.name,
        bus_width=bus_width,
        compression=compression,
        rates=rates,
        schedule=best_schedule,
        lower_bound=bound,
        cpu_seconds=elapsed,
        moves_evaluated=moves,
    )
