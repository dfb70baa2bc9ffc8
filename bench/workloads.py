"""The benchmark's workloads: seeded inputs, setup, timed ops, checks.

Every workload turns ``--seed`` into a list of inputs, and the program
only ever sees those inputs.  One op of an in-process workload is
``plan(soc, W, config)`` followed by ``result_to_json(...)``, the
``repro-soc plan --verify --export`` path; ``cold`` and ``manycore``
also load or generate the design inside the op, as a CLI invocation
does.  The correctness check runs after the timer stops: the JSON is
read back with ``result_from_json``, ``repro.verify.verify_plan`` must
find no violation, and every later round must reproduce the first
round's architecture exactly.

The ``serve`` workload instead drives a ``repro-soc serve`` subprocess
with the load of ``scripts/loadtest_serve.py``: passes of 64
concurrent clients over that script's six-key pool.

Every workload runs a fixed number of complete rounds, set by
:func:`rounds_for` from ``--seconds`` alone, so every op gets the same
number of samples however fast the code under test is.

This module runs in the benchmark's child process, with this
checkout's ``src`` on ``sys.path``.  Calls that the tracer must see go
through module attributes (``repro.load_design``, ``repro.plan``,
``repro.result_to_json``), which is where its hooks are installed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import repro
from repro.explore.dse import analysis_for, clear_analysis_cache
from repro.power.model import power_table
from repro.reporting.export import result_from_dict, result_from_json
from repro.verify import verify_plan
from repro.wrapper.design import clear_wrapper_design_cache

from bench.trace import Hooks, Tracer, layer_metrics

SOCS = ("d695", "d2758", "System1", "System2", "System3", "System4")

#: Seconds one round of each workload takes on the reference host
#: (2 vCPU Intel Xeon).  A run makes ``--seconds / ROUND_S`` rounds, at
#: least :data:`MIN_ROUNDS`: the count depends on ``--seconds`` only,
#: never on how fast the code under test runs.
ROUND_S = {"cold": 5.5, "sweep": 5.0, "manycore": 9.0, "serve": 10.0}
MIN_ROUNDS = 2
#: A run whose rounds take longer than this fails instead of finishing.
MAX_MEASURE_S = 120.0


@dataclass(frozen=True)
class ServeLoad:
    """A ``scripts/loadtest_serve.py`` pass with one request per client.

    That script's clients send their requests one after another; the
    committed ``BENCH_serve.json`` ran four each.  From the second
    request on, a client races jobs that other clients' requests
    started: whether its key is still in flight, and so coalesced, or
    already finished, and so computed again, is down to timing.  On
    the reference host that made 12 to 18 jobs per 256-request pass,
    and a pass's median latency jumped between about 0.5 and 1.0 s.  A
    pass of one request per client (the script's ``--requests 1``)
    computes each key exactly once and coalesces every other request
    onto it, so only the service's own speed moves its numbers.
    """

    pool: tuple[tuple[str, int], ...]  # (design, width) keys
    clients: int  # concurrent connections, all released at once
    jobs: int  # server worker slots (``--jobs``)
    queue_depth: int = 64  # ``--queue-depth``
    submit_retries: int = 8  # tries of a submission the queue rejects


#: ``scripts/loadtest_serve.py``'s pool, client count, worker slots,
#: queue depth and request (``compression="none"``), as in the
#: committed ``BENCH_serve.json``.  The smoke load has the script's
#: ``--smoke`` client count and worker slots, over the pool's d695 keys.
SERVE_LOAD = ServeLoad(
    pool=(
        ("d695", 8), ("d695", 12), ("d695", 16),
        ("synth20", 16), ("synth20", 24), ("synth30", 24),
    ),
    clients=64,
    jobs=4,
)
SMOKE_SERVE_LOAD = ServeLoad(
    pool=(("d695", 8), ("d695", 12), ("d695", 16)), clients=8, jobs=2
)

#: Per-layer metrics only the serve workload measures; the in-process
#: workloads report them as 0.
SERVE_LAYER_METRICS = (
    "serve.submit_s_p50",
    "serve.job_s_mean",
    "serve.queue_wait_s_mean",
    "serve.dedup_ratio",
    "serve.computed_ratio",
    "serve.worker_overhead_s",
)

READY_DEADLINE_S = 60.0
RESULT_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Op:
    """One plan request: a design, a width budget and a flow."""

    design: str  # a name repro.load_design knows
    width: int
    flow: str
    options: tuple[tuple[str, str], ...] = ()

    @property
    def id(self) -> str:
        return f"{self.design}@{self.width}/{self.flow}"


# ---------------------------------------------------------------------------
# Inputs from the seed.
# ---------------------------------------------------------------------------


def _offset(rng: random.Random, seed: int, width: int) -> int:
    """Seeded width offset: 0..3, fewer at narrow widths; 0 for seed 0.

    The offsets vary the inputs across seeds while keeping each op's
    cost close to the round width's, so different seeds measure about
    the same amount of work.
    """
    return 0 if seed == 0 else rng.randrange(min(4, width // 8))


def cold_ops(seed: int, smoke: bool = False) -> list[Op]:
    """Each catalogue SOC once at W = 64 - o, planned from cold.

    One width per SOC keeps a round short, so a run fits four rounds
    and each op's best sample can come from a quiet moment of the host.
    """
    rng = random.Random(f"cold:{seed}")
    designs = ("d695",) if smoke else SOCS
    width = 16 if smoke else 64
    ops = [Op(design, width - _offset(rng, seed, width), "standard") for design in designs]
    rng.shuffle(ops)
    return ops


def sweep_ops(seed: int, smoke: bool = False) -> list[Op]:
    """Design-space exploration over warm tables: five flows per SOC.

    The power-constrained and per-TAM flows keep their widths whatever
    the seed: their cost grows steeply with W, and an offset there would
    swing the whole run's time.
    """
    rng = random.Random(f"sweep:{seed}")
    designs = ("d695",) if smoke else SOCS
    wide = (16,) if smoke else tuple(8 * k for k in range(1, 9))
    narrow = (16,) if smoke else (8, 16, 24)
    ops = []
    for design in designs:
        for flow in ("standard", "none", "packing"):
            ops.extend(Op(design, w - _offset(rng, seed, w), flow) for w in wide)
        for flow in ("power", "per-tam"):
            ops.extend(Op(design, w, flow) for w in narrow)
    rng.shuffle(ops)
    return ops


def manycore_ops(seed: int, smoke: bool = False) -> list[Op]:
    """synth100 and synth150 under greedy, anneal and evolutionary search.

    The seed sets the search seeds and the op order.  The SOCs are the
    catalogue instances: another instance per seed would move the test
    time by several percent, more than the metric's bound can absorb.
    Anneal runs its default 4000 iterations and evolutionary 20
    generations, where the result depends on the search seed by a few
    percent; the run time barely grows, since the lazy table fill
    dominates it.
    """
    rng = random.Random(f"manycore:{seed}")
    sizes, width = ((20,), 32) if smoke else ((100, 150), 128)
    anneal = (("iterations", "200" if smoke else "4000"),)
    evolutionary = (
        ("generations", "2" if smoke else "20"),
        ("population", "8" if smoke else "24"),
    )
    ops = []
    for size in sizes:
        design = f"synth{size}"
        ops.append(Op(design, width, "greedy"))
        for flow, options in (("anneal", anneal), ("evolutionary", evolutionary)):
            search_seed = (("seed", str(rng.randrange(2**31))),)
            ops.append(Op(design, width, flow, options + search_seed))
    rng.shuffle(ops)
    return ops


OP_LISTS: dict[str, Callable[[int, bool], list[Op]]] = {
    "cold": cold_ops,
    "sweep": sweep_ops,
    "manycore": manycore_ops,
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds of ``workload`` that fill about ``seconds`` on the reference host."""
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def serve_passes(seed: int, smoke: bool = False) -> list[list[tuple[str, int]]]:
    """One round of passes: each pass's requests, one key per client.

    As in ``scripts/loadtest_serve.py``, client ``i`` asks for
    ``pool[i % len(pool)]``.  A round has one pass per rotation of the
    pool; where the pool starts decides which keys the first clients
    submit, so which jobs take the first worker slots, and which keys
    get one client more (64 is not a multiple of six).  The seed sets
    the order of the passes.
    """
    load = SMOKE_SERVE_LOAD if smoke else SERVE_LOAD
    pool = load.pool
    passes = [
        [pool[(start + client) % len(pool)] for client in range(load.clients)]
        for start in range(len(pool))
    ]
    random.Random(f"serve:{seed}").shuffle(passes)
    return passes


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: list[int]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(records: list[tuple]) -> str:
    """Order-independent fingerprint of the plan records."""
    text = json.dumps(sorted(records, key=repr), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def single(value: float | None, n: int = 1) -> dict[str, Any]:
    """A metric measured once per run."""
    return {"value": value, "n": n, "rounds": [value]}


def latency_metrics(
    latencies: list[float], rounds: list[list[float]]
) -> dict[str, dict[str, Any]]:
    """plans_per_s / p50 / p90 of ``latencies``, plus each round's values."""

    def metric(fn: Callable[[list[float]], float]) -> dict[str, Any]:
        return {
            "value": fn(latencies) if latencies else None,
            "n": len(latencies),
            "rounds": [fn(samples) for samples in rounds if samples],
        }

    return {
        "plans_per_s": metric(lambda s: len(s) / sum(s)),
        "plan_s_p50": metric(lambda s: quantile(s, 0.5)),
        "plan_s_p90": metric(lambda s: quantile(s, 0.9)),
    }


def plan_metrics(test_times: list[int], peak_rss_mb: float) -> dict[str, Any]:
    return {
        "test_cycles_geomean": single(
            geomean(test_times) if test_times else None, len(test_times)
        ),
        "peak_rss_mb": single(peak_rss_mb),
    }


def own_peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CheckFailed(Exception):
    """A plan came back wrong: verification or reproducibility failed."""


def check_time(began: float) -> None:
    """Fail the run once its rounds have taken :data:`MAX_MEASURE_S`."""
    if time.perf_counter() - began > MAX_MEASURE_S:
        raise RuntimeError(f"rounds took longer than {MAX_MEASURE_S:.0f} s")


def _config(op: Op, soc: Any) -> Any:
    """The RunConfig of an op's flow; ``soc`` is needed for "power" only."""
    base = repro.RunConfig(use_cache=False, verify=True)
    if op.flow == "standard":
        return base
    if op.flow == "none":
        return base.replace(compression="none")
    if op.flow == "packing":
        return base.replace(architecture="packing", schedule="packing")
    if op.flow == "per-tam":
        return base.replace(compression="per-tam")
    if op.flow == "power":
        budget = 0.6 * sum(power_table(soc, compression=True).values())
        return base.replace(power_budget=budget)
    return base.replace(strategy=op.flow, search_opts=op.options)


def _record(op: Op, result: Any) -> tuple:
    return (
        op.design, op.width, op.flow, result.test_time,
        result.test_data_volume, list(result.tam_widths),
    )


class Failures:
    """Counts attempted and failed ops and keeps the first few errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, error: BaseException | str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {error!r}"[:500])


# ---------------------------------------------------------------------------
# In-process workloads: cold, sweep, manycore.
# ---------------------------------------------------------------------------


class InProcess:
    """Runs one op list in this process: timed, checked, optionally traced.

    With ``cold`` every op starts from empty analysis and wrapper memos
    and loads its own design; otherwise designs are loaded and their
    tables filled up to the widest budget during setup.
    """

    def __init__(self, ops: list[Op], *, cold: bool) -> None:
        self.ops = ops
        self.cold = cold
        self.designs: dict[str, Any] = {}
        self.configs: dict[Op, Any] = {}
        self.plans: dict[Op, Any] = {}  # first verified plan of each op
        self.untraced: dict[Op, float] = {}  # latencies of the traced run's untraced round
        self.failures = Failures()

    def setup(self) -> None:
        """Imports, designs, tables, configs and warm-up: all before op one.

        The work done here does not depend on the seed (designs in name
        order, warm-up on d695), so neither does set-up time or the heap
        it leaves behind.
        """
        if not self.cold:
            # Width offsets are below 8: round up to the unshifted width.
            widest = -(-max(op.width for op in self.ops) // 8) * 8
            for name in sorted({op.design for op in self.ops}):
                soc = self.designs[name] = repro.load_design(name)
                for core in soc.cores:
                    analysis_for(core).precompute(widest)
        self.configs = {
            op: _config(op, None if self.cold else self.designs[op.design])
            for op in self.ops
        }
        # One small plan per flow runs the lazy imports and numpy's
        # first-call paths before anything is timed.
        d695 = self.designs.get("d695") or repro.load_design("d695")
        flows = {op.flow: op.options for op in self.ops}
        for flow, options in sorted(flows.items()):
            warm = Op("d695", 8, flow, tuple(o for o in options if o[0] != "seed"))
            repro.plan(d695, warm.width, _config(warm, d695))
        if self.cold:
            self._clear()
        # What setup built stays out of every later collection, and each
        # op starts with an empty young generation (see run_op).
        gc.collect()
        gc.freeze()

    @staticmethod
    def _clear() -> None:
        clear_analysis_cache()
        clear_wrapper_design_cache()

    def _execute(self, op: Op) -> tuple[str, Any]:
        soc = repro.load_design(op.design) if self.cold else self.designs[op.design]
        return repro.result_to_json(repro.plan(soc, op.width, self.configs[op])), soc

    def _check(self, op: Op, text: str, soc: Any) -> None:
        result = result_from_json(text)
        first = self.plans.get(op)
        if first is None:
            report = verify_plan(result, soc, config=self.configs[op])
            if report.violations:
                raise CheckFailed(report.summary())
            self.plans[op] = result
        elif result.architecture != first.architecture:
            raise CheckFailed("plan differs from the first round's")

    def run_op(self, op: Op, tracer: Tracer | None = None) -> float | None:
        """Time and check one op; its latency, or ``None`` if it failed."""
        self.failures.attempted += 1
        if self.cold:
            self._clear()
        # Collect the previous op's garbage outside the timed region, so
        # a collection pause lands in no op at random and peak memory is
        # one op's footprint, not an accident of collection timing.
        gc.collect()
        try:
            if tracer is None:
                began = time.perf_counter()
                text, soc = self._execute(op)
                seconds = time.perf_counter() - began
            else:
                tracer.begin_op(op.id)
                try:
                    text, soc = self._execute(op)
                finally:
                    seconds = tracer.end_op()
            self._check(op, text, soc)
        except Exception as error:  # noqa: BLE001 -- counted as a failed op
            self.failures.fail(op.id, error)
            return None
        return seconds

    def run_round(self, tracer: Tracer | None = None) -> dict[Op, float]:
        """Every op once, in list order; the latency of each that passed."""
        latencies = {op: self.run_op(op, tracer) for op in self.ops}
        return {op: s for op, s in latencies.items() if s is not None}

    def records(self) -> list[tuple]:
        return [_record(op, plan) for op, plan in self.plans.items()]

    def measure(self, rounds: int) -> dict[str, Any]:
        """``rounds`` complete, interleaved rounds of the op list.

        An op's latency is the best of its samples, which discounts
        interference from the rest of the machine.  Every op gets the
        same number of samples, and counts once in the metrics.
        """
        began = time.perf_counter()
        per_round = []
        for _ in range(rounds):
            per_round.append(self.run_round())
            check_time(began)
        samples: dict[Op, list[float]] = {}
        for latencies in per_round:
            for op, seconds in latencies.items():
                samples.setdefault(op, []).append(seconds)
        metrics = latency_metrics(
            [min(s) for s in samples.values()],
            [list(latencies.values()) for latencies in per_round],
        )
        metrics.update(
            plan_metrics(
                [plan.test_time for plan in self.plans.values()], own_peak_rss_mb()
            )
        )
        outcome = self.outcome(metrics, rounds=rounds)
        outcome["op_seconds"] = {op.id: min(s) for op, s in samples.items()}
        return outcome

    def measure_traced(self, rounds: int, trace_path: str | None) -> dict[str, Any]:
        """One untraced round, then one traced round of the same ops.

        The round count is fixed, whatever ``rounds`` says: the traced
        run is for attribution, not for the end-to-end numbers.  The
        traced round re-verifies every plan from scratch, so its digest
        is computed independently of the untraced one.
        """
        self.untraced = self.run_round()
        untraced_digest = digest(self.records())
        self.plans.clear()
        tracer = Tracer()
        hooks = Hooks(tracer)
        with hooks:
            traced = self.run_round(tracer)
        if trace_path:
            tracer.write_chrome_trace(trace_path)
        metrics = {
            name: single(value) for name, value in layer_metrics(tracer, hooks).items()
        }
        common = [op for op in traced if op in self.untraced]
        metrics["trace_overhead"] = single(
            sum(traced[op] for op in common) / sum(self.untraced[op] for op in common)
            if common
            else None
        )
        metrics.update({name: single(0.0) for name in SERVE_LAYER_METRICS})
        outcome = self.outcome(metrics, rounds=2)
        outcome["digests"] = {"untraced": untraced_digest, "traced": outcome["plan_digest"]}
        outcome["missing_hooks"] = hooks.missing
        outcome["trace_events"] = len(tracer.events)
        return outcome

    def outcome(self, metrics: dict[str, Any], *, rounds: int) -> dict[str, Any]:
        return {
            "ops": len(self.ops),
            "rounds": rounds,
            "attempted": self.failures.attempted,
            "failed": self.failures.failed,
            "errors": self.failures.errors,
            "plan_digest": digest(self.records()),
            "metrics": metrics,
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# The serve workload.
# ---------------------------------------------------------------------------


class Serve:
    """Passes of concurrent clients against a fresh ``repro-soc serve``.

    The load is :data:`SERVE_LOAD`: every pass releases all clients at
    once, each submits one request and waits for its result, and all
    but one request per key coalesce onto the job that key started.
    One pass is one round.
    """

    def __init__(self, seed: int, smoke: bool, root: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.load = SMOKE_SERVE_LOAD if smoke else SERVE_LOAD
        self.root = root
        # The load test's request; the service verifies every plan anyway.
        self.config = repro.RunConfig(compression="none", use_cache=False)
        self.proc: subprocess.Popen | None = None
        self.clients: list[Any] = []
        self.plans: dict[tuple[str, int], Any] = {}
        self.failures = Failures()

    def setup(self) -> None:
        """Server start, one connection per client, and one warm-up job."""
        from repro.serve import connect_with_retry

        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        # No result or analysis cache: every job is computed, and no
        # state carries from one pass or run to the next.
        env["REPRO_NO_CACHE"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--jobs", str(self.load.jobs),
                "--queue-depth", str(self.load.queue_depth),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=self.root,
            text=True,
        )
        ready = _read_ready(self.proc)
        self.clients = [
            connect_with_retry(ready["host"], ready["port"])
            for _ in range(self.load.clients)
        ]
        design, width = self.load.pool[0]
        ticket = self.clients[0].submit(design, width, self.config)
        self.clients[0].result(ticket.job_id, timeout_s=RESULT_TIMEOUT_S)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    def _server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in the server's /proc status")

    def _submit(self, client: Any, key: tuple[str, int]) -> Any:
        """Submit, waiting out a full queue as the load test does."""
        from repro.serve import BackpressureError

        for _ in range(self.load.submit_retries - 1):
            try:
                return client.submit(key[0], key[1], self.config)
            except BackpressureError as error:
                time.sleep(max(error.retry_after, 0.05))
        return client.submit(key[0], key[1], self.config)

    def _pass(self, keys: list[tuple[str, int]]) -> tuple[list[tuple], float]:
        """One pass: client ``i`` asks for ``keys[i]``, all released at once.

        Returns ``(key, latency, submit latency, deduped)`` per delivered
        and verified request, and the wall time from the release to the
        last reply.  The checks run after the pass.
        """
        lock = threading.Lock()
        replies: list[tuple] = []
        start = threading.Barrier(len(keys) + 1)

        def client_main(client: Any, key: tuple[str, int]) -> None:
            start.wait(timeout=READY_DEADLINE_S)
            sent = time.perf_counter()
            try:
                ticket = self._submit(client, key)
                submitted = time.perf_counter()
                payload = client.result(ticket.job_id, timeout_s=RESULT_TIMEOUT_S)
            except Exception as error:  # noqa: BLE001 -- a failed request
                with lock:
                    self.failures.fail(str(key), error)
                return
            done = time.perf_counter()
            with lock:
                replies.append((key, done - sent, submitted - sent, ticket.deduped, payload))

        threads = [
            threading.Thread(target=client_main, args=(client, key))
            for client, key in zip(self.clients, keys)
        ]
        for thread in threads:
            thread.start()
        start.wait(timeout=READY_DEADLINE_S)
        began = time.perf_counter()
        for thread in threads:
            thread.join(timeout=2 * RESULT_TIMEOUT_S)
        wall = time.perf_counter() - began
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve clients still running past their deadline")
        self.failures.attempted += len(keys)
        passed = []
        for reply in replies:
            try:
                self._check(reply[0], reply[4])
            except Exception as error:  # noqa: BLE001 -- a wrong plan
                self.failures.fail(str(reply[0]), error)
            else:
                passed.append(reply[:4])
        return passed, wall

    def _rounds(self, rounds: int) -> list[list[tuple[list[tuple], float]]]:
        """``rounds`` rounds of :func:`serve_passes`; each pass's outcome."""
        began = time.perf_counter()
        passes = serve_passes(self.seed, self.smoke)
        done = []
        for _ in range(rounds):
            done.append([self._pass(keys) for keys in passes])
            check_time(began)
        return done

    def _check(self, key: tuple[str, int], payload: dict) -> None:
        """Verify each key's first plan; a repeat must match it exactly."""
        result = result_from_dict(payload)
        first = self.plans.get(key)
        if first is None:
            soc = repro.load_design(key[0])
            report = verify_plan(result, soc, config=self.config)
            if report.violations:
                raise CheckFailed(report.summary())
            self.plans[key] = result
        elif result.architecture != first.architecture:
            raise CheckFailed("repeat returned another plan")

    def records(self) -> list[tuple]:
        return [
            _record(Op(key[0], key[1], "none"), plan)
            for key, plan in self.plans.items()
        ]

    def _server_state(self) -> tuple[dict[str, float], dict[str, float]]:
        """The server's ``stats`` counters and ``metrics`` series."""
        from repro.obs.expo import parse_openmetrics

        client = self.clients[0]
        return client.stats()["counters"], parse_openmetrics(client.metrics())

    def measure(self, rounds: int) -> dict[str, Any]:
        """``rounds`` rounds of passes; each pass counts with its best run.

        A pass's best run is its shortest, which discounts interference
        from the rest of the machine like an in-process op's best
        sample.  The metrics pool the best runs: every reply over the
        sum of their wall times.  Requests overlap, so throughput is
        delivered requests per wall second, not the inverse of the
        summed latencies.
        """
        done = self._rounds(rounds)
        best = [min(runs, key=lambda run: run[1]) for runs in zip(*done)]

        def pooled(
            fn: Callable[[list[float], float], float], passes: list[tuple[list[tuple], float]]
        ) -> float | None:
            latencies = [reply[1] for replies, _ in passes for reply in replies]
            return fn(latencies, sum(wall for _, wall in passes)) if latencies else None

        def metric(fn: Callable[[list[float], float], float]) -> dict[str, Any]:
            return {
                "value": pooled(fn, best),
                "n": sum(len(replies) for replies, _ in best),
                "rounds": [pooled(fn, passes) for passes in done],
            }

        metrics = {
            "plans_per_s": metric(lambda latencies, wall: len(latencies) / wall),
            "plan_s_p50": metric(lambda latencies, _: quantile(latencies, 0.5)),
            "plan_s_p90": metric(lambda latencies, _: quantile(latencies, 0.9)),
        }
        metrics.update(
            plan_metrics(
                [plan.test_time for plan in self.plans.values()],
                self._server_peak_rss_mb(),
            )
        )
        outcome = self.outcome(metrics, rounds=rounds)
        outcome["deduped"] = sum(
            1 for passes in done for replies, _ in passes for reply in replies if reply[3]
        )
        return outcome

    def measure_traced(self, rounds: int, trace_path: str | None) -> dict[str, Any]:
        """Passes, then the same keys planned cold in-process.

        The in-process rounds give the layer breakdown of the workers'
        compute and, by difference, the per-job cost of the service.
        The server's counters are read before and after the passes, so
        the warm-up job stays out of them.
        """
        counters_before, series_before = self._server_state()
        replies = [
            reply
            for passes in self._rounds(rounds)
            for done, _ in passes
            for reply in done
        ]
        counters, series = self._server_state()
        self.close()

        local = InProcess(
            [Op(design, width, "none") for design, width in sorted(self.plans)],
            cold=True,
        )
        local.setup()
        outcome = local.measure_traced(rounds, trace_path)
        for op, plan in local.plans.items():
            if _record(op, plan) != _record(op, self.plans[(op.design, op.width)]):
                local.failures.fail(op.id, "served plan differs from in-process")

        def mean(name: str) -> float:
            total = series.get(f"{name}_sum", 0.0) - series_before.get(f"{name}_sum", 0.0)
            count = series.get(f"{name}_count", 0.0) - series_before.get(
                f"{name}_count", 0.0
            )
            return total / count if count else 0.0

        requests = max(len(replies), 1)
        completed = counters.get("jobs_completed", 0) - counters_before.get(
            "jobs_completed", 0
        )
        job_mean = mean("repro_serve_job_seconds")
        # Weight the in-process latencies like the jobs the service ran.
        computed = []
        for key, _, _, deduped in replies:
            op = Op(key[0], key[1], "none")
            if not deduped and op in local.untraced:
                computed.append(local.untraced[op])
        local_mean = sum(computed) / len(computed) if computed else job_mean
        outcome["metrics"].update(
            {
                "serve.submit_s_p50": single(
                    quantile([reply[2] for reply in replies], 0.5) if replies else None,
                    len(replies),
                ),
                "serve.job_s_mean": single(job_mean),
                "serve.queue_wait_s_mean": single(
                    mean("repro_serve_turnaround_seconds") - job_mean
                ),
                "serve.dedup_ratio": single(
                    sum(1 for reply in replies if reply[3]) / requests, requests
                ),
                "serve.computed_ratio": single(completed / requests, requests),
                "serve.worker_overhead_s": single(job_mean - local_mean),
            }
        )
        served = self.outcome({}, rounds=rounds)
        outcome["attempted"] = served["attempted"] + local.failures.attempted
        outcome["failed"] = served["failed"] + local.failures.failed
        outcome["errors"] = served["errors"] + local.failures.errors
        outcome["ops"] = served["ops"]
        outcome["rounds"] = rounds
        outcome["plan_digest"] = served["plan_digest"]
        return outcome

    def outcome(self, metrics: dict[str, Any], *, rounds: int) -> dict[str, Any]:
        return {
            "ops": len(self.plans),
            "rounds": rounds,
            "attempted": self.failures.attempted,
            "failed": self.failures.failed,
            "errors": self.failures.errors,
            "plan_digest": digest(self.records()),
            "metrics": metrics,
        }


def _read_ready(proc: subprocess.Popen) -> dict[str, Any]:
    """The server's ready line, or an error if it never comes."""
    result: dict[str, Any] = {}

    def reader() -> None:
        line = proc.stdout.readline()
        if line.strip():
            result.update(json.loads(line))

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(READY_DEADLINE_S)
    if result.get("event") != "ready":
        raise RuntimeError(f"server did not announce readiness: {result!r}")
    return result


def make(workload: str, seed: int, smoke: bool, root: Path) -> InProcess | Serve:
    """The runner for one workload and seed."""
    if workload == "serve":
        return Serve(seed, smoke, root)
    return InProcess(OP_LISTS[workload](seed, smoke), cold=workload != "sweep")
