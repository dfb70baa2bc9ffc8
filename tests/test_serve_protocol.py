"""Wire-format and dedup-fingerprint tests for the service protocol."""

from __future__ import annotations

import json

import pytest

from repro.pipeline import RunConfig
from repro.serve.errors import ProtocolError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    PlanRequest,
    RawJSON,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)


class TestRunConfigRoundTrip:
    def test_default_round_trips(self):
        config = RunConfig()
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_every_field_round_trips(self):
        config = RunConfig(
            compression="select",
            mode="estimate",
            samples=3,
            grid=5,
            max_tams=3,
            min_tam_width=2,
            min_code_width=4,
            strategy="greedy",
            power_budget=123.5,
            power_of={"c1": 10.0, "c2": 20.0},
            precedence=(("c1", "c2"),),
            jobs=4,
            cache_dir="/tmp/x",
            use_cache=False,
        )
        rebuilt = RunConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_dict_is_json_ready(self):
        config = RunConfig(precedence=(("a", "b"),), power_of={"a": 1.0})
        text = json.dumps(config.to_dict())
        assert RunConfig.from_dict(json.loads(text)) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig.from_dict({"warp_speed": 9})


class TestFingerprint:
    def test_stable_across_equal_requests(self):
        a = PlanRequest("d695", 16, RunConfig(compression="auto"))
        b = PlanRequest("d695", 16, RunConfig(compression="auto"))
        assert a.fingerprint() == b.fingerprint()

    def test_performance_knobs_do_not_change_identity(self):
        # jobs / cache_dir / use_cache cannot change the planned result
        # (the engine's bit-identity invariant), so they must coalesce.
        a = PlanRequest("d695", 16, RunConfig(jobs=8, use_cache=False))
        b = PlanRequest(
            "d695", 16, RunConfig(jobs=1, cache_dir="/tmp/z", use_cache=True)
        )
        assert a.fingerprint() == b.fingerprint()

    def test_scheduling_attributes_do_not_change_identity(self):
        a = PlanRequest("d695", 16, priority=9, timeout_s=5.0)
        b = PlanRequest("d695", 16)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize(
        "other",
        [
            PlanRequest("d2758", 16),
            PlanRequest("d695", 24),
            PlanRequest("d695", 16, RunConfig(compression="none")),
            PlanRequest("d695", 16, RunConfig(power_budget=50.0)),
            PlanRequest("d695", 16, fault={"sleep_s": 1}),
        ],
    )
    def test_semantic_changes_change_identity(self, other):
        base = PlanRequest("d695", 16)
        assert base.fingerprint() != other.fingerprint()

    def test_request_round_trips(self):
        request = PlanRequest(
            "System1",
            32,
            RunConfig(compression="select"),
            priority=3,
            timeout_s=60.0,
            fault={"sleep_s": 1},
        )
        rebuilt = PlanRequest.from_dict(request.to_dict())
        assert rebuilt == request
        assert rebuilt.fingerprint() == request.fingerprint()

    def test_validation(self):
        with pytest.raises(ProtocolError):
            PlanRequest("", 16)
        with pytest.raises(ProtocolError):
            PlanRequest("d695", 0)
        with pytest.raises(ProtocolError):
            PlanRequest.from_dict({"design": "d695"})  # missing width
        with pytest.raises(ProtocolError, match="bad config"):
            PlanRequest.from_dict(
                {"design": "d695", "width": 16, "config": {"nope": 1}}
            )


def _compact_frame(message):
    return (json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n").encode()


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"op": "submit", "design": "d695", "width": 16}
        frame = encode_message(message)
        assert frame.endswith(b"\n")
        assert decode_message(frame) == message

    @pytest.mark.parametrize(
        "message", [{}, {"op": "ping"}, ok_response(job_id="j1", request_id='a"b')]
    )
    def test_frames_are_compact_sorted_json(self, message):
        assert encode_message(message) == _compact_frame(message)

    @pytest.mark.parametrize("keys", [("result",), ("a",), ("zz",), ("a", "result")])
    def test_raw_values_frame_like_their_decoded_values(self, keys):
        value = {"schedule": [{"core": "s838", "end": 7}], "peak": 1.5, "id": "\u00e9"}
        raw = RawJSON(json.dumps(value, separators=(",", ":"), sort_keys=True))
        brief = ok_response(job_id="j1", state="done", request_id='a"b')
        spliced = encode_message({**brief, **{key: raw for key in keys}})
        assert spliced == _compact_frame({**brief, **{key: value for key in keys}})
        assert decode_message(spliced)[keys[0]] == value
        assert encode_message({"result": raw}) == _compact_frame({"result": value})

    def test_raw_values_are_not_plain_json(self):
        with pytest.raises(TypeError):
            json.dumps({"result": RawJSON("{}")})

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            decode_message(b"{nope\n")
        with pytest.raises(ProtocolError, match="empty"):
            decode_message(b"   \n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1, 2]\n")

    def test_decode_rejects_future_protocol_version(self):
        frame = encode_message({"op": "ping", "v": PROTOCOL_VERSION + 1})
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            decode_message(frame)

    def test_response_helpers(self):
        ok = ok_response(job_id="j1")
        assert ok["ok"] is True and ok["v"] == PROTOCOL_VERSION
        err = error_response("backpressure", "full", retry_after=2.5)
        assert err["ok"] is False
        assert err["error"] == "backpressure"
        assert err["retry_after"] == 2.5

    def test_error_response_takes_a_brief_with_its_own_message(self):
        # A failed job's brief carries "message" (and "error_code").
        brief = {"job_id": "j1", "message": "boom", "error_code": "timeout"}
        err = error_response("timeout", "still running", **brief)
        assert err["error"] == "timeout"
        assert err["message"] == "still running"
        assert err["job_id"] == "j1" and err["error_code"] == "timeout"


class TestWorkerPayload:
    def test_attempt_is_stamped(self):
        request = PlanRequest("d695", 16)
        payload = request.worker_payload(2)
        assert payload["attempt"] == 2
        assert payload["design"] == "d695"
        # The payload is exactly what from_dict accepts (minus attempt).
        payload.pop("attempt")
        assert PlanRequest.from_dict(payload) == request
