"""Service endpoint tests: dispatch semantics plus a live HTTP server."""

from __future__ import annotations

import gc
import http.client
import json
import time
import urllib.error
import urllib.request
import weakref

import pytest

from repro.serve import ServeApp, start_background


def wait_for_job(app, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload = app.dispatch("GET", f"/jobs/{job_id}")
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


class TestInformational:
    def test_index_lists_routes(self, app):
        status, payload = app.dispatch("GET", "/")
        assert status == 200
        assert "POST /sessions" in payload["endpoints"]

    def test_health_is_ok_with_all_tiers(self, app):
        status, payload = app.dispatch("GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["sessions"]["active"] == 0
        assert "theater:0" in payload["universes"]

    def test_metrics_snapshot_counts_requests(self, app):
        app.dispatch("GET", "/health")
        status, payload = app.dispatch("GET", "/metrics")
        assert status == 200
        assert payload["counters"]["serve.requests"] >= 2
        assert "serve.request_seconds" in payload["histograms"]
        # Per-phase cost rides the tracer's span totals.
        assert payload["spans"]["serve.request"]["count"] >= 1

    def test_universes_listing(self, app):
        status, payload = app.dispatch("GET", "/universes")
        assert status == 200
        assert [u["name"] for u in payload["universes"]] == ["theater:0"]

    def test_unknown_route_is_refused(self, app):
        status, payload = app.dispatch("GET", "/nope")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"


class TestSessionEndpoints:
    def test_edit_solve_loop(self, app):
        status, created = app.dispatch("POST", "/sessions", {"seed": 1})
        assert status == 201
        sid = created["session_id"]

        status, applied = app.dispatch(
            "POST",
            f"/sessions/{sid}/edits",
            {
                "edits": [
                    {"op": "require_source", "source": 3},
                    {"op": "set_theta", "theta": 0.6},
                ]
            },
        )
        assert status == 200
        assert applied["applied"] == ["require_source", "set_theta"]

        status, solved = app.dispatch(
            "POST", f"/sessions/{sid}/solve", {"explain": True}
        )
        assert status == 200
        assert 3 in solved["solution"]["selected"]
        assert solved["solution"]["quality"] > 0
        assert solved["explanation"] is not None

        status, described = app.dispatch("GET", f"/sessions/{sid}")
        assert status == 200
        assert described["solves"] == 1
        assert described["required_sources"] == [3]
        assert described["theta"] == 0.6

    def test_unknown_session_is_404_with_error_body(self, app):
        status, payload = app.dispatch("GET", "/sessions/nope")
        assert status == 404
        assert payload["error"]["code"] == "unknown_session"
        assert "nope" in payload["error"]["message"]

    def test_closed_session_is_410_gone(self, app):
        _, created = app.dispatch("POST", "/sessions", {})
        sid = created["session_id"]
        status, closed = app.dispatch("DELETE", f"/sessions/{sid}")
        assert status == 200 and closed["closed"] is True
        status, payload = app.dispatch("GET", f"/sessions/{sid}")
        assert status == 410
        assert payload["error"]["code"] == "session_expired"

    def test_deleted_session_objective_is_collected(self, app):
        """Nothing service-wide keeps a closed session's memos alive."""
        _, created = app.dispatch("POST", "/sessions", {"seed": 1})
        sid = created["session_id"]
        status, _ = app.dispatch("POST", f"/sessions/{sid}/solve", {})
        assert status == 200
        session = app.sessions.get(sid).session
        objective = weakref.ref(session._objective)
        operator = weakref.ref(session._objective.match_operator)
        del session
        status, _ = app.dispatch("DELETE", f"/sessions/{sid}")
        assert status == 200
        gc.collect()
        assert objective() is None
        assert operator() is None

    def test_ttl_eviction_is_410_with_clear_body(self, resident, tmp_path):
        with ServeApp(
            {resident.name: resident},
            job_dir=tmp_path / "jobs",
            ttl_seconds=0.05,
        ) as short_lived:
            _, created = short_lived.dispatch("POST", "/sessions", {})
            sid = created["session_id"]
            time.sleep(0.1)
            status, payload = short_lived.dispatch("GET", f"/sessions/{sid}")
            assert status == 410
            assert payload["error"]["code"] == "session_expired"
            assert "POST /sessions" in payload["error"]["message"]

    def test_capacity_cap_is_429(self, resident, tmp_path):
        with ServeApp(
            {resident.name: resident},
            job_dir=tmp_path / "jobs",
            max_sessions=1,
        ) as capped:
            capped.dispatch("POST", "/sessions", {})
            status, payload = capped.dispatch("POST", "/sessions", {})
            assert status == 429
            assert payload["error"]["code"] == "too_many_sessions"

    def test_bad_edit_op_is_refused_not_500(self, app):
        _, created = app.dispatch("POST", "/sessions", {})
        sid = created["session_id"]
        status, payload = app.dispatch(
            "POST",
            f"/sessions/{sid}/edits",
            {"edits": [{"op": "launch_rockets"}]},
        )
        assert status == 400
        assert "launch_rockets" in payload["error"]["message"]
        status, payload = app.dispatch(
            "POST",
            f"/sessions/{sid}/edits",
            {"edits": [{"op": "require_source", "source": 999}]},
        )
        assert status in (400, 422)
        assert "error" in payload

    def test_domain_errors_map_to_422(self, app):
        _, created = app.dispatch("POST", "/sessions", {})
        sid = created["session_id"]
        status, payload = app.dispatch(
            "POST",
            f"/sessions/{sid}/edits",
            {"edits": [{"op": "set_theta", "theta": 7.0}]},
        )
        assert status == 422
        assert "error" in payload

    @pytest.mark.parametrize("body", [[1], "x", 3, []])
    def test_non_object_body_is_a_400(self, app, body):
        _, created = app.dispatch("POST", "/sessions", {})
        sid = created["session_id"]
        for path in (
            "/sessions", "/solve", f"/sessions/{sid}/edits",
            f"/sessions/{sid}/solve",
        ):
            status, payload = app.dispatch("POST", path, body)
            assert status == 400, path
            assert payload["error"]["code"] == "bad_request"
            assert "JSON object" in payload["error"]["message"]
        assert app.telemetry.metrics.counter_value("serve.errors") == 0


class TestJobEndpoints:
    def test_submit_poll_fetch_roundtrip(self, app):
        status, submitted = app.dispatch(
            "POST",
            "/solve",
            {"edits": [{"op": "require_source", "source": 2}], "seed": 5},
        )
        assert status == 202
        polled = wait_for_job(app, submitted["job_id"])
        assert polled["state"] == "done"
        status, result = app.dispatch("GET", submitted["result"])
        assert status == 200
        assert 2 in result["solution"]["selected"]
        assert result["explanation"] is not None

    def test_result_before_done_is_409(self, app, resident):
        # A solve against the real engine takes long enough that an
        # immediate result fetch races it; force determinism by asking
        # for an unknown job state instead: submit, then query the
        # describe endpoint until running/queued is observable.
        status, submitted = app.dispatch("POST", "/solve", {"seed": 1})
        status, payload = app.dispatch(
            "GET", f"/jobs/{submitted['job_id']}/result"
        )
        if status == 200:
            pytest.skip("job finished before the poll raced it")
        assert status == 409
        assert payload["error"]["code"] == "job_not_done"
        wait_for_job(app, submitted["job_id"])

    def test_unknown_job_is_404(self, app):
        status, payload = app.dispatch("GET", "/jobs/zzz")
        assert status == 404
        assert payload["error"]["code"] == "unknown_job"


class TestGracefulDegradation:
    def test_core_solving_survives_all_tiers_missing(self, resident, tmp_path):
        with ServeApp(
            {resident.name: resident},
            job_dir=tmp_path / "jobs",
            tiers={"scipy": False, "observatory": False},
        ) as degraded:
            status, health = degraded.dispatch("GET", "/health")
            assert health["status"] == "degraded"

            # Runs view degrades to an explicit "not available".
            status, runs = degraded.dispatch("GET", "/runs")
            assert status == 200
            assert runs == {"available": False, "runs": []}

            # Metrics still answer.
            status, metrics = degraded.dispatch("GET", "/metrics")
            assert status == 200
            assert "counters" in metrics

            # And the core loop still solves.
            _, created = degraded.dispatch("POST", "/sessions", {})
            sid = created["session_id"]
            degraded.dispatch(
                "POST",
                f"/sessions/{sid}/edits",
                {"edits": [{"op": "require_source", "source": 1}]},
            )
            status, solved = degraded.dispatch(
                "POST", f"/sessions/{sid}/solve", {}
            )
            assert status == 200
            assert 1 in solved["solution"]["selected"]

            status, submitted = degraded.dispatch("POST", "/solve", {})
            assert status == 202
            assert wait_for_job(degraded, submitted["job_id"])[
                "state"
            ] == "done"


class TestTwoApps:
    def test_closing_one_app_leaves_the_other_recording(
        self, resident, tmp_path
    ):
        first = ServeApp(
            {resident.name: resident}, job_dir=tmp_path / "a"
        ).start()
        second = ServeApp(
            {resident.name: resident}, job_dir=tmp_path / "b"
        ).start()
        try:
            first.close()
            status, created = second.dispatch(
                "POST", "/sessions", {"seed": 1}
            )
            assert status == 201
            sid = created["session_id"]
            status, _ = second.dispatch("POST", f"/sessions/{sid}/solve", {})
            assert status == 200
            _, metrics = second.dispatch("GET", "/metrics")
        finally:
            second.close()
        assert metrics["counters"]["serve.sessions_created"] == 1
        # The second app's tracer still records its requests' phases and
        # memo traffic.
        assert metrics["spans"]["session.solve"]["count"] == 1
        assert metrics["spans"]["match.evaluate"]["count"] > 0
        assert metrics["counters"]["match.memo_misses"] > 0


class TestLiveHTTP:
    """The same API through real sockets, threads, and JSON bytes."""

    @pytest.fixture
    def server(self, app):
        server, thread = start_background(app, port=0)
        yield server
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()

    def call(self, server, method, path, body=None):
        host, port = server.server_address[:2]
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_full_loop_over_sockets(self, app, server):
        status, health = self.call(server, "GET", "/health")
        assert status == 200 and health["status"] == "ok"

        status, created = self.call(
            server, "POST", "/sessions", {"seed": 2}
        )
        assert status == 201
        sid = created["session_id"]

        status, applied = self.call(
            server,
            "POST",
            f"/sessions/{sid}/edits",
            {"edits": [{"op": "require_source", "source": 4}]},
        )
        assert status == 200 and applied["applied"] == ["require_source"]

        status, solved = self.call(
            server, "POST", f"/sessions/{sid}/solve", {}
        )
        assert status == 200
        assert 4 in solved["solution"]["selected"]

        status, submitted = self.call(
            server, "POST", "/solve", {"seed": 9}
        )
        assert status == 202
        polled = wait_for_job(app, submitted["job_id"])
        assert polled["state"] == "done"
        status, result = self.call(server, "GET", submitted["result"])
        assert status == 200
        assert result["solution"]["quality"] > 0

        status, _ = self.call(server, "DELETE", f"/sessions/{sid}")
        assert status == 200
        status, payload = self.call(server, "GET", f"/sessions/{sid}")
        assert status == 410
        assert payload["error"]["code"] == "session_expired"

    def test_malformed_json_is_a_400(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/sessions",
            data=b"{torn",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "bad_json"

    @pytest.mark.parametrize("length", ["abc", "-5", "+5"])
    def test_bad_content_length_is_a_400(self, server, length):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.putrequest("POST", "/sessions")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            error = json.loads(response.read())["error"]
        finally:
            connection.close()
        assert error["code"] == "bad_request"
        assert length in error["message"]

    def test_oversized_content_length_is_a_413(self, server):
        """Refused before the body is read, and the connection closes."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.putrequest("POST", "/sessions")
            connection.putheader("Content-Length", "10000000000000")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            error = json.loads(response.read())["error"]
            # The unread body would otherwise be parsed as the next request.
            assert connection.sock.recv(1) == b""
        finally:
            connection.close()
        assert error["code"] == "payload_too_large"

    def test_chunked_body_is_a_411(self, server):
        """Refused before the body is read, and the connection closes.

        The shim only reads ``Content-Length`` framing: dispatching a
        chunked request would drop its body and parse the chunk bytes
        as a next request.
        """
        host, port = server.server_address[:2]
        body = b'{"seed": 2}'
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            connection.putrequest("POST", "/sessions")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders(message_body=chunked)
            response = connection.getresponse()
            assert response.status == 411
            error = json.loads(response.read())["error"]
            assert connection.sock.recv(1) == b""
        finally:
            connection.close()
        assert error["code"] == "length_required"
