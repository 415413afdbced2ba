"""ServiceClient retry schedule: jitter envelope, reconnects, idempotency."""

import json
import random
import socket
import threading

import pytest

from repro.client import ClientRetry, ServiceClient, ServiceError


class ScriptedServer(threading.Thread):
    """A TCP stub speaking the service protocol from a fixed script.

    Each received request consumes the next behaviour:

    * ``"ok"`` — answer ``{"ok": true, ...}``
    * ``"unavailable"`` — answer the retryable shed error
    * ``"bad-request"`` — answer a non-retryable error
    * ``"reset"`` — close the connection without answering

    Received request documents are recorded for assertions.
    """

    def __init__(self, behaviors):
        super().__init__(daemon=True)
        self.behaviors = list(behaviors)
        self.received = []
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]

    def run(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # listener closed: test over
                return
            # Closing the reader too is what lets a "reset" reach the
            # client as EOF: the makefile object holds the socket open.
            with conn, conn.makefile("rb") as reader:
                while True:
                    line = reader.readline()
                    if not line:
                        break
                    doc = json.loads(line)
                    self.received.append(doc)
                    behavior = (
                        self.behaviors.pop(0) if self.behaviors else "ok"
                    )
                    if behavior == "reset":
                        break
                    if behavior == "ok":
                        response = {
                            "ok": True,
                            "id": doc.get("id"),
                            "result": {"payload": {"n": len(self.received)}},
                        }
                    else:
                        response = {
                            "ok": False,
                            "id": doc.get("id"),
                            "error": {"code": behavior, "message": behavior},
                        }
                    try:
                        conn.sendall(
                            json.dumps(response).encode() + b"\n"
                        )
                    except OSError:
                        break

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


@pytest.fixture
def server(request):
    created = []

    def make(behaviors):
        stub = ScriptedServer(behaviors)
        stub.start()
        created.append(stub)
        return stub

    yield make
    for stub in created:
        stub.close()


#: No sleeping in tests: full jitter over [0, 0] is always 0.
_FAST = ClientRetry(retries=4, base_s=0.0, cap_s=0.0)

#: Socket timeout for clients of a resetting stub: a reset the client
#: never sees costs seconds, not the 300 s default.
_SHORT_TIMEOUT_S = 5.0


class TestClientRetrySchedule:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            ClientRetry(retries=-1)
        with pytest.raises(ValueError, match="base/cap"):
            ClientRetry(base_s=-0.1)

    def test_full_jitter_envelope(self):
        """Every delay is uniform on [0, min(cap, base * 2**attempt)].

        Regression guard for the backoff schedule: delays above the cap
        stretch recovery, and a degenerate (constant) schedule
        re-synchronises a thundering herd of retrying clients.
        """
        policy = ClientRetry(retries=6, base_s=0.05, cap_s=0.4)
        rng = random.Random(99)
        for attempt in range(6):
            ceiling = min(policy.cap_s, policy.base_s * 2.0**attempt)
            delays = [policy.delay(attempt, rng) for _ in range(200)]
            assert all(0.0 <= d <= ceiling for d in delays)
            assert len(set(delays)) > 1  # genuinely jittered
            # Full jitter spreads over the whole interval, not a band.
            assert min(delays) < ceiling * 0.2
            assert max(delays) > ceiling * 0.8

    def test_delay_is_deterministic_given_rng(self):
        policy = ClientRetry()
        first = [policy.delay(a, random.Random(3)) for a in range(4)]
        second = [policy.delay(a, random.Random(3)) for a in range(4)]
        assert first == second


class TestRetryBehavior:
    def test_unavailable_is_retried_until_ok(self, server):
        stub = server(["unavailable", "unavailable", "ok"])
        with ServiceClient(port=stub.port, retry=_FAST) as client:
            doc = client.request({"op": "run", "experiment": "x", "rid": "r"})
        assert doc["ok"]
        assert len(stub.received) == 3

    def test_unavailable_raises_once_retries_exhausted(self, server):
        stub = server(["unavailable"] * 3)
        retry = ClientRetry(retries=2, base_s=0.0, cap_s=0.0)
        with ServiceClient(port=stub.port, retry=retry) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request({"op": "ping"})
        assert excinfo.value.code == "unavailable"
        assert excinfo.value.retryable
        assert len(stub.received) == 3  # initial try + 2 retries

    def test_non_retryable_error_raises_immediately(self, server):
        stub = server(["bad-request", "ok"])
        with ServiceClient(port=stub.port, retry=_FAST) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request({"op": "frobnicate"})
        assert excinfo.value.code == "bad-request"
        assert not excinfo.value.retryable
        assert len(stub.received) == 1  # no second delivery

    def test_connection_reset_reconnects_and_preserves_rid(self, server):
        """A run retried over a fresh connection reuses its idempotency key."""
        stub = server(["reset", "ok"])
        with ServiceClient(
            port=stub.port, retry=_FAST, timeout_s=_SHORT_TIMEOUT_S
        ) as client:
            doc = client.run("fig04", seed=3)
        assert doc["ok"]
        assert len(stub.received) == 2
        rids = [received["rid"] for received in stub.received]
        assert rids[0] == rids[1]  # same key: the retry cannot double-run
        assert stub.received[0]["experiment"] == "fig04"

    def test_non_retryable_request_propagates_connection_loss(self, server):
        stub = server(["reset", "ok"])
        with ServiceClient(
            port=stub.port, retry=_FAST, timeout_s=_SHORT_TIMEOUT_S
        ) as client:
            # The reset itself (EOF or RST), not the socket timeout.
            with pytest.raises(ConnectionError):
                client.request({"op": "stats"}, retryable=False)

    def test_connect_retries_while_service_boots(self):
        """Connection refused during boot is retried with backoff."""
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens here yet
        stub_holder = {}

        def boot_later():
            stub = ScriptedServer(["ok"])
            bound = stub  # rebind the scripted server onto the known port
            bound._sock.close()
            bound._sock = socket.socket()
            bound._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            bound._sock.bind(("127.0.0.1", port))
            bound._sock.listen(8)
            stub_holder["stub"] = bound
            bound.start()

        timer = threading.Timer(0.2, boot_later)
        timer.start()
        try:
            retry = ClientRetry(retries=40, base_s=0.05, cap_s=0.1)
            with ServiceClient(port=port, retry=retry) as client:
                assert client.request({"op": "ping"})["ok"]
        finally:
            timer.cancel()
            stub = stub_holder.get("stub")
            if stub is not None:
                stub.close()

    def test_retries_disabled_fails_fast(self):
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        with pytest.raises(OSError):
            ServiceClient(port=port, retry=ClientRetry(retries=0))
