#!/usr/bin/env python
"""Live integration smoke of the planning service, as CI runs it.

Starts ``repro-soc serve --port 0`` as a real subprocess, fires eight
concurrent d695 submissions (three of them identical, held in flight
by the fault hook so the dedup window is deterministic), and asserts
the service's whole contract in one pass:

* the three duplicates coalesce onto one job (``jobs_deduped >= 2``),
* fewer executions than submissions (``jobs_submitted == 6``),
* every job completes and duplicate fetches return equal results,
* the coalesced plan is semantically identical to a clean one,
* SIGTERM produces a graceful drain: exit code 0 and a ``stopped``
  event whose counters show no cancelled work,
* and no child of the server (its warm workers) outlives it; this
  check reads ``/proc`` and is skipped where there is none.

Usage::

    python scripts/service_smoke.py

Exit status 0 on success; 1 with a message on stderr otherwise.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.pipeline import RunConfig  # noqa: E402
from repro.serve import connect_with_retry  # noqa: E402

READY_DEADLINE_S = 60.0
EXIT_DEADLINE_S = 120.0
#: Seconds a child of the stopped server may take to exit.
ORPHAN_DEADLINE_S = 5.0


class SmokeError(AssertionError):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeError(message)


def _spawn_server() -> tuple[subprocess.Popen, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--jobs",
            "2",
            "--queue-depth",
            "16",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=REPO,
    )
    deadline = time.monotonic() + READY_DEADLINE_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.strip():
            ready = json.loads(line)
            _check(ready.get("event") == "ready", f"bad ready line: {ready}")
            return proc, ready
        if proc.poll() is not None:
            raise SmokeError(f"server exited early:\n{proc.stderr.read()}")
    raise SmokeError("server never announced readiness")


def _proc_state(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of a process from ``/proc``, or ``None``."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def _alive(pid: int) -> bool:
    state = _proc_state(pid)
    return state is not None and state[0] not in ("Z", "X")


def _children(pid: int) -> set[int]:
    """Live direct children of ``pid``, from ``/proc``."""
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and _alive(int(entry.name)):
            state = _proc_state(int(entry.name))
            if state is not None and state[1] == pid:
                found.add(int(entry.name))
    return found


def main() -> int:
    proc, ready = _spawn_server()
    host, port = ready["host"], ready["port"]
    config = RunConfig(compression="none")
    fault = {"sleep_s": 2.0}  # holds the shared job in flight

    try:
        def submit(width, with_fault):
            with connect_with_retry(host, port) as client:
                return client.submit(
                    "d695", width, config, fault=fault if with_fault else None
                )

        with ThreadPoolExecutor(max_workers=8) as pool:
            duplicates = list(
                pool.map(lambda _: submit(8, True), range(3))
            )
            uniques = list(
                pool.map(lambda w: submit(w, False), [10, 12, 14, 16, 18])
            )

        shared_ids = {t.job_id for t in duplicates}
        _check(
            len(shared_ids) == 1,
            f"duplicates did not coalesce: {shared_ids}",
        )
        deduped = sum(t.deduped for t in duplicates)
        _check(deduped == 2, f"expected 2 deduped tickets, got {deduped}")
        shared_id = shared_ids.pop()

        with connect_with_retry(host, port) as client:
            first = client.result(shared_id, timeout_s=300)
            second = client.result(shared_id, timeout_s=300)
            _check(first == second, "duplicate fetches differ")
            for ticket in uniques:
                client.result(ticket.job_id, timeout_s=300)
            counters = client.stats()["counters"]
            _check(
                counters["jobs_deduped"] >= 2,
                f"jobs_deduped={counters.get('jobs_deduped')}",
            )
            _check(
                counters["jobs_submitted"] == 6,
                f"jobs_submitted={counters.get('jobs_submitted')} "
                "(expected 6 executions for 8 submissions)",
            )
            _check(
                counters["jobs_completed"] == 6,
                f"jobs_completed={counters.get('jobs_completed')}",
            )
            clean_ticket = client.submit("d695", 8, config)
            _check(not clean_ticket.deduped, "fault leaked out of identity")
            clean = client.result(clean_ticket.job_id, timeout_s=300)
            for field in ("soc", "test_time", "test_data_volume", "tams"):
                _check(
                    first[field] == clean[field],
                    f"coalesced plan differs from clean plan on {field}",
                )

        has_proc = Path("/proc/self/stat").exists()
        children = _children(proc.pid) if has_proc else set()
        _check(
            not has_proc or bool(children),
            "the server has no worker process after its jobs",
        )
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=EXIT_DEADLINE_S)
        stderr = proc.stderr.read()
        _check(proc.returncode == 0, f"exit {proc.returncode}:\n{stderr}")
        stopped = json.loads(stderr.strip().splitlines()[-1])
        _check(stopped.get("event") == "stopped", f"no stopped event: {stopped}")
        _check(
            stopped["counters"].get("jobs_cancelled", 0) == 0,
            f"drain cancelled work: {stopped['counters']}",
        )
        deadline = time.monotonic() + ORPHAN_DEADLINE_S
        while time.monotonic() < deadline and any(map(_alive, children)):
            time.sleep(0.05)
        leaked = sorted(pid for pid in children if _alive(pid))
        _check(not leaked, f"server children still alive after exit: {leaked}")
        print(
            "service smoke OK: 9 submissions, "
            f"{stopped['counters']['jobs_completed']} executions, "
            f"{stopped['counters']['jobs_deduped']} coalesced, "
            f"graceful drain, {len(children)} children gone"
        )
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeError as error:
        print(f"service smoke FAILED: {error}", file=sys.stderr)
        sys.exit(1)
