"""End-to-end tests over the real TCP transport.

Each test spawns ``repro-soc serve`` as a subprocess with ``--port 0``,
parses the ready announcement for the OS-assigned port, and drives it
with :class:`repro.serve.client.ServiceClient`.  The fault-injection
hooks (``sleep_s``) keep jobs deterministically in flight so the dedup
and backpressure windows are not timing-dependent.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.pipeline import RunConfig
from repro.serve import (
    BackpressureError,
    JobFailed,
    ServiceClient,
    ShuttingDown,
    connect_with_retry,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

READY_DEADLINE_S = 60.0
EXIT_DEADLINE_S = 60.0


def _spawn_server(*extra_args: str) -> tuple[subprocess.Popen, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_NO_CACHE"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=REPO,
    )
    deadline = time.monotonic() + READY_DEADLINE_S
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.strip():
            break
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited early: {proc.stderr.read()}"
            )
    ready = json.loads(line)
    assert ready["event"] == "ready"
    return proc, ready


@contextmanager
def _server(*extra_args: str):
    proc, ready = _spawn_server(*extra_args)
    try:
        yield proc, ready
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=EXIT_DEADLINE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


def _wait_exit(proc: subprocess.Popen) -> tuple[int, str]:
    try:
        proc.wait(timeout=EXIT_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    return proc.returncode, proc.stderr.read()


class TestProtocolSmoke:
    def test_ping_designs_and_garbage(self):
        with _server("--isolation", "thread", "--jobs", "1") as (_, ready):
            client = connect_with_retry(ready["host"], ready["port"])
            with client:
                assert client.ping()
                designs = client.designs()
                names = {row["name"] for row in designs}
                assert {"d695", "d2758", "System1"} <= names
                d695 = next(r for r in designs if r["name"] == "d695")
                assert d695["cores"] > 0
                stats = client.stats()
                assert stats["accepting"] is True
            # Raw-socket abuse: garbage and unknown ops produce error
            # responses, not dropped connections.
            with socket.create_connection(
                (ready["host"], ready["port"]), timeout=10
            ) as raw:
                raw.sendall(b"{this is not json\n")
                reply = json.loads(raw.makefile("rb").readline())
                assert reply["ok"] is False
                assert reply["error"] == "bad-request"
            with ServiceClient(ready["host"], ready["port"]) as client:
                response = client._request({"op": "ping"})
                assert response["ok"] is True
                client.shutdown()


class TestConcurrencyAndDedup:
    def test_eight_concurrent_submissions_with_duplicates(self):
        """ISSUE acceptance: >=8 simultaneous submissions, >=2 of them
        duplicates; dedup counter >= 2; fewer executions than
        submissions; duplicate submissions observe equal results."""
        with _server("--jobs", "2", "--queue-depth", "16") as (_, ready):
            host, port = ready["host"], ready["port"]
            fault = {"sleep_s": 2.0}  # holds the shared job in flight
            unique_widths = [10, 12, 14, 16, 18]

            def submit_duplicate(_):
                with connect_with_retry(host, port) as client:
                    return client.submit(
                        "d695",
                        8,
                        RunConfig(compression="none"),
                        fault=fault,
                    )

            def submit_unique(width):
                with connect_with_retry(host, port) as client:
                    return client.submit(
                        "d695", width, RunConfig(compression="none")
                    )

            with ThreadPoolExecutor(max_workers=8) as pool:
                duplicate_tickets = list(
                    pool.map(submit_duplicate, range(3))
                )
                unique_tickets = list(
                    pool.map(submit_unique, unique_widths)
                )

            # The three identical submissions share one job.
            job_ids = {t.job_id for t in duplicate_tickets}
            assert len(job_ids) == 1
            assert sum(t.deduped for t in duplicate_tickets) == 2
            shared_id = job_ids.pop()

            with connect_with_retry(host, port) as client:
                # Two fetches of the coalesced job are identical.
                first = client.result(shared_id, timeout_s=120)
                second = client.result(shared_id, timeout_s=120)
                assert first == second
                for ticket in unique_tickets:
                    client.result(ticket.job_id, timeout_s=120)
                stats = client.stats()
                counters = stats["counters"]
                assert counters["jobs_deduped"] >= 2
                # 8 submissions, 6 executions: dedup saved real work.
                assert counters["jobs_submitted"] == 6
                assert counters["jobs_completed"] == 6
                # The fault hook only sleeps; the coalesced job's plan
                # is semantically identical to a clean w=8 plan.
                clean_ticket = client.submit(
                    "d695", 8, RunConfig(compression="none")
                )
                assert not clean_ticket.deduped  # fault is in the identity
                clean = client.result(clean_ticket.job_id, timeout_s=120)
                for field in (
                    "soc",
                    "test_time",
                    "test_data_volume",
                    "tams",
                ):
                    assert first[field] == clean[field]
                client.shutdown()

    def test_full_queue_rejects_over_the_wire(self):
        with _server("--jobs", "1", "--queue-depth", "1") as (_, ready):
            with connect_with_retry(ready["host"], ready["port"]) as client:
                config = RunConfig(compression="none")
                client.submit("d695", 8, config, fault={"sleep_s": 3.0})
                time.sleep(0.5)  # let the dispatcher claim the worker slot
                client.submit("d695", 8, config, fault={"sleep_s": 3.1})
                with pytest.raises(BackpressureError) as excinfo:
                    client.submit(
                        "d695", 8, config, fault={"sleep_s": 3.2}
                    )
                assert excinfo.value.retry_after > 0
                stats = client.stats()
                assert stats["counters"]["jobs_rejected"] >= 1
                client.shutdown(drain=False)


class TestResultOfAFailedJob:
    """``result`` raises with the job's own error code, not ``internal``."""

    def test_cancelled_queued_job(self):
        with _server("--isolation", "thread", "--jobs", "1") as (_, ready):
            with connect_with_retry(ready["host"], ready["port"]) as client:
                config = RunConfig(compression="none")
                # The first job holds the one slot, so the second queues.
                client.submit("d695", 8, config, fault={"sleep_s": 2.0})
                queued = client.submit("d695", 10, config)
                assert client.cancel(queued.job_id)["state"] == "cancelled"
                with pytest.raises(JobFailed) as excinfo:
                    client.result(queued.job_id, timeout_s=30)
                assert excinfo.value.code == "cancelled"
                client.shutdown(drain=False)

    def test_timed_out_job(self):
        with _server("--jobs", "1") as (_, ready):
            with connect_with_retry(ready["host"], ready["port"]) as client:
                ticket = client.submit(
                    "d695",
                    8,
                    RunConfig(compression="none"),
                    timeout_s=0.3,
                    fault={"sleep_s": 5.0},
                )
                with pytest.raises(JobFailed) as excinfo:
                    client.result(ticket.job_id, timeout_s=60)
                assert excinfo.value.code == "timeout"
                status = client.status(ticket.job_id)
                assert (status["state"], status["error_code"]) == (
                    "failed",
                    "timeout",
                )
                client.shutdown(drain=False)


class TestGracefulShutdown:
    def test_sigterm_with_an_idle_client_prints_no_traceback(self):
        proc, ready = _spawn_server("--isolation", "thread", "--jobs", "1")
        try:
            client = connect_with_retry(ready["host"], ready["port"])
            try:
                assert client.ping()
                proc.send_signal(signal.SIGTERM)
                returncode, stderr = _wait_exit(proc)
            finally:
                client.close()
            assert returncode == 0
            assert "Traceback" not in stderr
            assert '"event": "stopped"' in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()

    def test_sigterm_drains_inflight_job(self):
        proc, ready = _spawn_server("--jobs", "1")
        try:
            with connect_with_retry(ready["host"], ready["port"]) as client:
                ticket = client.submit(
                    "d695",
                    8,
                    RunConfig(compression="none"),
                    fault={"sleep_s": 1.0},
                )
                # Wait until the job is actually running so SIGTERM has
                # something to drain.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if client.status(ticket.job_id)["state"] == "running":
                        break
                    time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            returncode, stderr = _wait_exit(proc)
            assert returncode == 0
            stopped = json.loads(stderr.strip().splitlines()[-1])
            assert stopped["event"] == "stopped"
            # The in-flight job was drained, not killed.
            assert stopped["counters"]["jobs_completed"] == 1
            assert stopped["counters"].get("jobs_cancelled", 0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_sigterm_answers_a_client_waiting_on_a_queued_job(self):
        """The drain answers ``result`` on a job that never ran."""
        proc, ready = _spawn_server("--jobs", "1")
        try:
            host, port = ready["host"], ready["port"]
            with connect_with_retry(host, port) as client:
                config = RunConfig(compression="none")
                running = client.submit(
                    "d695", 8, config, fault={"sleep_s": 3.0}
                )
                queued = client.submit("d695", 10, config)
                deadline = time.monotonic() + 30
                while client.status(running.job_id)["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            with connect_with_retry(host, port) as waiter, ThreadPoolExecutor(
                1
            ) as pool:
                pending = pool.submit(waiter.result, queued.job_id, timeout_s=60)
                time.sleep(0.5)  # the result request is blocked server-side
                assert not pending.done()
                proc.send_signal(signal.SIGTERM)
                with pytest.raises(ShuttingDown) as excinfo:
                    pending.result(timeout=EXIT_DEADLINE_S)
            assert excinfo.value.code == "shutting-down"
            returncode, stderr = _wait_exit(proc)
            assert returncode == 0
            assert "Traceback" not in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()

    def test_shutdown_op_exits_zero(self):
        proc, ready = _spawn_server("--isolation", "thread", "--jobs", "1")
        try:
            with connect_with_retry(ready["host"], ready["port"]) as client:
                response = client.shutdown()
                assert response["stopping"] is True
            returncode, stderr = _wait_exit(proc)
            assert returncode == 0
            assert '"event": "stopped"' in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
