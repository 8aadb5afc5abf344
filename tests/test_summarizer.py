"""Summarization client against a local in-process HTTP server."""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from caseline.corpus import Corpus
from caseline.errors import (
    ConfigError,
    EmptyResponseError,
    EmptyTextError,
    NetworkFailureError,
    RemoteError,
)
from caseline.summarizer import (
    API_KEY_ENV,
    SummarizerConfig,
    summarize_case,
    summarize_corpus,
)
from case_factory import make_case


def _chat_body(content):
    return json.dumps(
        {"choices": [{"message": {"content": content}}]}).encode()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        self.server.requests.append(
            {"path": self.path, "headers": dict(self.headers),
             "json": json.loads(raw)})
        status, body = self.server.behavior
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture()
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.behavior = (200, _chat_body("a concise summary"))
    srv.requests = []
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def _cfg(srv, **kw):
    return SummarizerConfig(
        endpoint=f"http://127.0.0.1:{srv.server_address[1]}/v1/chat",
        model="test-model", **kw)


class TestConfig:
    def test_defaults(self):
        cfg = SummarizerConfig(endpoint="http://x", model="m")
        assert cfg.max_output_tokens == 512
        assert cfg.timeout == 30.0

    @pytest.mark.parametrize("kw", [
        dict(endpoint=""),
        dict(model=""),
        dict(max_output_tokens=0),
        dict(max_output_tokens=513),
        dict(timeout=0.0),
        dict(temperature=-0.1),
        dict(min_interval=-1.0),
    ])
    def test_rejects(self, kw):
        base = dict(endpoint="http://x", model="m")
        base.update(kw)
        with pytest.raises(ConfigError):
            SummarizerConfig(**base)


class TestSummarizeCase:
    def test_success_returns_content(self, server):
        assert summarize_case("some facts", _cfg(server)) \
            == "a concise summary"

    def test_request_shape(self, server):
        cfg = _cfg(server, temperature=0.3, max_output_tokens=64)
        summarize_case("the disputed facts", cfg)
        req = server.requests[-1]
        assert req["path"] == "/v1/chat"
        body = req["json"]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.3
        assert body["max_tokens"] == 64
        message = body["messages"][0]
        assert message["role"] == "user"
        assert "the disputed facts" in message["content"]
        assert "64" in message["content"]

    def test_truncates_to_token_budget(self, server):
        server.behavior = (200, _chat_body(" ".join(
            f"tok{i}" for i in range(600))))
        out = summarize_case("facts", _cfg(server, max_output_tokens=5))
        assert out == "tok0 tok1 tok2 tok3 tok4"

    def test_server_error_raises_remote(self, server):
        server.behavior = (500, b"internal failure")
        with pytest.raises(RemoteError) as exc:
            summarize_case("facts", _cfg(server))
        assert exc.value.status == 500
        assert "internal failure" in exc.value.body

    def test_rate_limit_status_carried(self, server):
        server.behavior = (429, b"slow down")
        with pytest.raises(RemoteError) as exc:
            summarize_case("facts", _cfg(server))
        assert exc.value.status == 429

    def test_empty_content_raises(self, server):
        server.behavior = (200, _chat_body("   "))
        with pytest.raises(EmptyResponseError):
            summarize_case("facts", _cfg(server))

    def test_malformed_body_raises(self, server):
        server.behavior = (200, b"this is not json")
        with pytest.raises(EmptyResponseError):
            summarize_case("facts", _cfg(server))

    def test_missing_choices_raises(self, server):
        server.behavior = (200, json.dumps({"choices": []}).encode())
        with pytest.raises(EmptyResponseError):
            summarize_case("facts", _cfg(server))

    def test_connection_failure(self):
        cfg = SummarizerConfig(endpoint="http://127.0.0.1:1/nothing",
                               model="m", timeout=2.0)
        with pytest.raises(NetworkFailureError):
            summarize_case("facts", cfg)

    def test_empty_text_never_reaches_network(self, server):
        with pytest.raises(EmptyTextError):
            summarize_case("   ", _cfg(server))
        assert server.requests == []

    def test_bearer_header_from_environment(self, server, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test-123")
        summarize_case("facts", _cfg(server))
        headers = server.requests[-1]["headers"]
        assert headers.get("Authorization") == "Bearer sk-test-123"

    def test_no_auth_header_without_key(self, server, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        summarize_case("facts", _cfg(server))
        assert "Authorization" not in server.requests[-1]["headers"]


class TestSummarizeCorpus:
    def test_replaces_text_preserves_rest(self, server):
        corpus = Corpus([
            make_case("s0", 0, {"A"}, "first long description"),
            make_case("s1", 1, {"B"}, "second long description"),
        ])
        out = summarize_corpus(corpus, _cfg(server))
        assert len(out.cases) == len(corpus.cases)
        for before, after in zip(corpus.cases, out.cases):
            assert after.case_id == before.case_id
            assert after.articles == before.articles
            assert after.decision_date == before.decision_date
            assert after.text == "a concise summary"
        assert len(server.requests) == 2
