#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cold --seed 0 --seconds 12 --trace 0

Each workload runs in fresh child processes of this script, with every
``REPRO_*`` variable removed from their environment and ``src`` of this
checkout on ``PYTHONPATH``.  The child is set up (imports, designs,
warm-up, and for ``serve`` the server start) several times; ``setup_s``
is the median time from spawning a child to its first timed op.  The
last child then measures a fixed number of complete rounds, as many as
fill ``--seconds`` seconds on the reference host.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` the per-layer ones, from an untraced and a traced pass of
the same ops, and writes the spans as Chrome trace-event JSON next to
the result file.  The result file is one JSON envelope (commit, host,
versions, seed, and per metric the sample count and the min / median /
max across rounds) that ``bench/diff.py`` compares.  The last line of
standard output is the summary object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
# The repo root replaces this script's directory on the path, so the
# benchmark imports as the ``bench`` package and ``bench/trace.py``
# never shadows the standard library's ``trace``.
sys.path[0] = str(ROOT)

SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / "bench" / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The whole run, set-ups included, ends within this many seconds.
BUDGET_S = 170.0

WORKLOADS = ("cold", "sweep", "manycore", "serve")

#: prctl(2) option that makes orphaned descendants re-parent to us.
PR_SET_CHILD_SUBREAPER = 36


def _emit(event: dict[str, Any]) -> None:
    print(json.dumps(event), flush=True)


# ---------------------------------------------------------------------------
# Child: one set-up, then (unless --setup-only) one measurement.
# ---------------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    import numpy
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 3
    from bench import workloads

    runner = workloads.make(args.workload, args.seed, args.smoke, ROOT)
    rounds = workloads.rounds_for(args.workload, args.seconds)
    try:
        runner.setup()
        _emit({"event": "ready"})
        if args.setup_only:
            return 0
        if args.trace:
            outcome = runner.measure_traced(rounds, args.trace_path)
        else:
            outcome = runner.measure(rounds)
    finally:
        runner.close()
    _emit(
        {
            "event": "result",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            **outcome,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn, time, assemble, report.
# ---------------------------------------------------------------------------


class RunError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args: argparse.Namespace, deadline: float, *, setup_only: bool):
    """One child; returns (seconds from spawn to ready, result event)."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        argv.append("--smoke")
    if setup_only:
        argv.append("--setup-only")
    if args.trace_path:
        argv += ["--trace-path", args.trace_path]
    began = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
        text=True,
        start_new_session=True,  # one process group: the child, its server, workers
    )
    timer = threading.Timer(
        max(deadline - time.monotonic(), 0.0), _kill_group, args=(proc,)
    )
    timer.start()
    ready_s = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue
            event = json.loads(line)
            if event["event"] == "ready":
                ready_s = time.perf_counter() - began
            elif event["event"] == "result":
                result = event
        code = proc.wait()
    finally:
        timer.cancel()
        _kill_group(proc)
        proc.stdout.close()
    if code != 0 or ready_s is None or (result is None and not setup_only):
        raise RunError(f"benchmark child exited with code {code}")
    return ready_s, result


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`_reap_orphans` can wait for them.

    The server's ``multiprocessing`` helper outlives the server by a
    moment; without this it would be re-parented to init.  Linux only;
    elsewhere orphans go to init as usual.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _reap_orphans(timeout_s: float = 10.0) -> None:
    """Wait for every adopted descendant that is still exiting."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop whatever the child left running (it leads its own group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summarize(raw: dict[str, Any], unit: str) -> dict[str, Any]:
    rounds = [v for v in raw["rounds"] if v is not None]
    return {
        "value": raw["value"],
        "unit": unit,
        "n": raw["n"],
        "min": min(rounds) if rounds else None,
        "median": statistics.median(rounds) if rounds else None,
        "max": max(rounds) if rounds else None,
    }


def parent_main(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no program to measure: {SRC / 'repro'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = Path(args.out) if args.out else OUT / f"{stem}{'-smoke' if args.smoke else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    args.trace_path = str(out.with_suffix(".trace.json")) if args.trace else ""

    deadline = time.monotonic() + BUDGET_S
    setups = [
        _spawn(args, deadline, setup_only=True)[0]
        for _ in range(1 if args.smoke else SETUPS - 1)
    ]
    ready_s, result = _spawn(args, deadline, setup_only=False)
    setups.append(ready_s)

    raw = dict(result["metrics"])
    if not args.trace:
        raw["setup_s"] = {
            "value": statistics.median(setups), "n": len(setups), "rounds": setups,
        }
    if set(raw) != set(units):
        raise RunError(
            f"metrics differ from {SPEC.name}: missing {sorted(set(units) - set(raw))}, "
            f"undeclared {sorted(set(raw) - set(units))}"
        )
    metrics = {name: _summarize(raw[name], units[name]) for name in units}
    digests = result.get("digests")
    correct = result["failed"] == 0 and (
        digests is None or digests["untraced"] == digests["traced"]
    )
    envelope = {
        "kind": "repro-bench",
        "schema": 1,
        "commit": _commit(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "platform": platform.platform(),
        },
        "python": result["python"],
        "numpy": result["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "rounds": result["rounds"],
        "ops": result["ops"],
        "ops_failed": result["failed"],
        "attempted": result["attempted"],
        "errors": result["errors"],
        "plan_digest": result["plan_digest"],
        "correct": correct,
        "metrics": metrics,
    }
    for key in ("digests", "missing_hooks", "trace_events", "op_seconds", "deduped"):
        if key in result:
            envelope[key] = result[key]
    if args.trace:
        envelope["chrome_trace"] = args.trace_path
    out.write_text(json.dumps(envelope, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} rounds={result['rounds']} "
          f"ops={result['ops']} attempted={result['attempted']} "
          f"failed={result['failed']} digest={result['plan_digest']}")
    for error in result["errors"]:
        print(f"  error: {error}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']!s:>22} {metric['unit']:<8} n={metric['n']}")
    print(f"  result: {out}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two set-ups, for the harness's own tests")
    parser.add_argument("--out", default="", help="result file (default: bench/out/...)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-path", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    _become_subreaper()
    try:
        return parent_main(args)
    except RunError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        _reap_orphans()


if __name__ == "__main__":
    sys.exit(main())
