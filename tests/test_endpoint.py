import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hivemem.endpoint import (
    EndpointConfig,
    LLMAggregator,
    LLMBackend,
    call_chat,
    parse_action,
    render_orchestrator,
)
from hivemem.errors import BackendFailure, ConfigurationError, ValidationError
from hivemem.runtime import Candidate, FinalMove, RetrieveMove, StepMove

CRED_ENV = "HIVEMEM_TEST_KEY"
SECRET = "sk-test-geheim-0451"


class _MockHandler(BaseHTTPRequestHandler):
    server_version = "mock"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization", "")}
        )
        status, payload = self.reply_for(body)
        if status != 200:
            self.send_response(status)
            self.end_headers()
            return
        # A dict is the whole body; anything else is the completion's content.
        if not isinstance(payload, dict):
            payload = {"choices": [{"message": {"content": payload}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def reply_for(self, body):
        """(status, completion or body) for a request: the server's script, in order."""
        return self.server.script.pop(0) if self.server.script else (200, "FINAL:done")

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture
def mock_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _MockHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join()


def make_config(server, **overrides):
    defaults = dict(
        base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
        model="test-model",
        credential_env=CRED_ENV,
        timeout=5.0,
        max_retries=3,
        backoff_base=0.25,
    )
    defaults.update(overrides)
    return EndpointConfig(**defaults)


# -- grammar -------------------------------------------------------------------


def test_parse_retrieve():
    assert parse_action("RETRIEVE:3") == RetrieveMove(3)


def test_parse_final_strips_payload():
    assert parse_action("FINAL: Paris") == FinalMove("Paris")


def test_parse_first_conformant_line_wins():
    text = "STEP:do the thing\nFINAL:oops"
    assert parse_action(text) == "do the thing"


def test_parse_malformed_retrieve_id():
    assert parse_action("RETRIEVE:abc") is None


def test_parse_nothing_conformant():
    assert parse_action("I think we should search the web") is None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["STEP", "RETRIEVE", "FINAL"]), st.data())
def test_render_parse_roundtrip(kind, data):
    def single_line(s: str) -> bool:
        return len(s.splitlines()) <= 1

    if kind == "STEP":
        payload = data.draw(
            st.text(min_size=1, max_size=60).filter(lambda s: single_line(s) and s.strip())
        )
        expected = payload.strip()
    elif kind == "RETRIEVE":
        payload = data.draw(st.integers(0, 10**9))
        expected = RetrieveMove(payload)
    else:
        payload = data.draw(st.text(max_size=60).filter(single_line))
        expected = FinalMove(payload.strip())
    assert parse_action(f"{kind}:{payload}") == expected


# -- config / client -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValidationError):
        EndpointConfig(base_url="http://x", model="m", timeout=0)
    with pytest.raises(ValidationError):
        EndpointConfig(base_url="http://x", model="m", max_retries=-1)


def test_missing_credential_is_configuration_error(monkeypatch):
    monkeypatch.delenv(CRED_ENV, raising=False)
    cfg = EndpointConfig(base_url="http://x", model="m", credential_env=CRED_ENV)
    with pytest.raises(ConfigurationError):
        call_chat(cfg, [{"role": "user", "content": "hi"}])


def test_mock_roundtrip(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.append((200, "FINAL:42"))
    cfg = make_config(mock_server)
    reply = call_chat(cfg, [{"role": "user", "content": "go"}])
    assert parse_action(reply) == FinalMove("42")
    assert mock_server.requests[0]["body"]["model"] == "test-model"


def test_retry_on_500_then_success(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.extend([(500, ""), (500, ""), (200, "FINAL:ok")])
    sleeps = []
    log = []
    cfg = make_config(mock_server)
    reply = call_chat(cfg, [{"role": "user", "content": "go"}], sleep_fn=sleeps.append,
                      call_log=log)
    assert reply == "FINAL:ok"
    assert len(log) == 3
    assert sleeps == [0.25, 0.5]  # exponential backoff per configuration


def test_retries_exhausted(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.extend([(503, "")] * 3)
    cfg = make_config(mock_server, max_retries=2)
    with pytest.raises(BackendFailure):
        call_chat(cfg, [{"role": "user", "content": "go"}], sleep_fn=lambda s: None)


@pytest.mark.parametrize("body", [
    {"choices": [{"message": {"content": None}}]},
    {"choices": None},
], ids=["null-content", "null-choices"])
def test_malformed_body_is_backend_failure(mock_server, monkeypatch, body):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.append((200, body))
    with pytest.raises(BackendFailure):
        call_chat(make_config(mock_server), [{"role": "user", "content": "go"}],
                  sleep_fn=lambda s: None)
    assert len(mock_server.requests) == 1  # a malformed body is not retried


def test_auth_failure_immediate(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.extend([(401, ""), (200, "FINAL:never")])
    cfg = make_config(mock_server)
    with pytest.raises(ConfigurationError):
        call_chat(cfg, [{"role": "user", "content": "go"}], sleep_fn=lambda s: None)
    assert len(mock_server.requests) == 1  # no retry after auth failure


# -- backend over the endpoint ---------------------------------------------------


def test_llm_backend_step_uses_two_calls(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.extend(
        [(200, "STEP:search for the report"), (200, "found the annual report")]
    )
    backend = LLMBackend(make_config(mock_server), sleep_fn=lambda s: None)
    move = backend.next_move(1, "task", [], [], np.random.default_rng(0))
    assert isinstance(move, StepMove)
    assert move.triplet.agent_input == "search for the report"
    assert move.triplet.step_summary == "found the annual report"
    assert len(mock_server.requests) == 2  # bounded cost: action + summary


def test_llm_backend_retrieve_and_final_single_call(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.append((200, "RETRIEVE:7"))
    backend = LLMBackend(make_config(mock_server), sleep_fn=lambda s: None)
    move = backend.next_move(1, "task", [], [(7, "a key")], np.random.default_rng(0))
    assert isinstance(move, RetrieveMove) and move.entry_id == 7
    mock_server.script.append((200, "FINAL:Paris"))
    move = backend.next_move(1, "task", [], [], np.random.default_rng(0))
    assert isinstance(move, FinalMove) and move.answer == "Paris"
    assert len(mock_server.requests) == 2


def test_llm_backend_malformed_degrades_to_failed_step(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.append((200, "let me think about this..."))
    backend = LLMBackend(make_config(mock_server), sleep_fn=lambda s: None)
    move = backend.next_move(1, "task", [], [], np.random.default_rng(0))
    assert isinstance(move, StepMove)
    assert move.label == "malformed"
    assert len(mock_server.requests) == 1  # no summary call for a wasted turn


def test_llm_aggregator_selects_index(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.append((200, "2"))
    agg = LLMAggregator(make_config(mock_server), sleep_fn=lambda s: None)
    cands = [Candidate(1, "a", 1.0), Candidate(2, "b", 2.0), Candidate(3, "c", 3.0)]
    assert agg.aggregate("q", cands) == "b"


def test_llm_aggregator_falls_back_to_majority(mock_server, monkeypatch):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.append((200, "the best answer is clearly the first"))
    agg = LLMAggregator(make_config(mock_server), sleep_fn=lambda s: None)
    cands = [Candidate(1, "x", 2.0), Candidate(2, "y", 1.0), Candidate(3, "x", 3.0)]
    assert agg.aggregate("q", cands) == "x"


@pytest.mark.parametrize("reply, expected", [
    ("Candidate 3 is best; it cites 2 sources", "z"),
    ("\u00b2", "x"),  # str.isdigit accepts a superscript two, int does not
    (None, "x"),  # null content: the endpoint failed, so majority vote
], ids=["first-number", "superscript-digit", "null-content"])
def test_llm_aggregator_reads_the_first_number_or_falls_back(mock_server, monkeypatch, reply, expected):
    monkeypatch.setenv(CRED_ENV, SECRET)
    mock_server.script.append((200, reply))
    agg = LLMAggregator(make_config(mock_server), sleep_fn=lambda s: None)
    cands = [Candidate(1, "x", 2.0), Candidate(2, "x", 1.0), Candidate(3, "z", 3.0)]
    assert agg.aggregate("q", cands) == expected


def test_no_credential_bytes_in_traces(mock_server, monkeypatch, provider, tmp_path):
    from hivemem.runtime import MajorityAggregator, TaskSpec, run_episode

    monkeypatch.setenv(CRED_ENV, SECRET)
    for _ in range(4):  # two teams, up to two calls each
        mock_server.script.append((200, "FINAL:done"))
    backend = LLMBackend(make_config(mock_server), sleep_fn=lambda s: None)
    trace = run_episode(TaskSpec("t", "q", step_cap=3), 2, backend, None, provider,
                        MajorityAggregator(), seed=0, mode="live")
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    blob = path.read_bytes() + json.dumps(backend.call_log).encode()
    assert SECRET.encode() not in blob


def test_render_orchestrator_lists_keys_and_query():
    text = render_orchestrator("find x", [], [(1, "key one")])
    assert "1: key one" in text and "find x" in text
