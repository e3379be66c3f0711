"""The unix-socket transport: live daemon + ``repro submit`` client."""

import json
import threading

import pytest

from repro.api.config import ServeConfig
from repro.serve.client import SubmitError, connect, send_ops
from repro.serve.daemon import ServeRuntime, serve_socket

CONFIG = ServeConfig.from_dict(
    {
        "name": "sock",
        "seed": 5,
        "cluster": {"instance": "tencent", "num_nodes": 2, "gpus_per_node": 2},
        "policy": "bin-pack",
        "queue_limit": 2,
    }
)


@pytest.fixture
def daemon(tmp_path):
    """A live socket daemon on a background thread; joins on teardown."""
    runtime = ServeRuntime(CONFIG, tmp_path / "state")
    socket_path = tmp_path / "repro.sock"
    thread = threading.Thread(
        target=serve_socket, args=(runtime, socket_path), daemon=True
    )
    thread.start()
    yield runtime, str(socket_path)
    runtime.stopped = True
    thread.join(timeout=5)
    assert not thread.is_alive()
    runtime.close()


class TestRoundTrip:
    def test_submit_tick_status_stop(self, daemon):
        runtime, socket_path = daemon
        acks = send_ops(socket_path, [
            {"op": "submit", "id": 1, "job": {"name": "live", "iterations": 60}},
            {"op": "tick", "id": 2, "until": 30.0},
            {"op": "status"},
            {"op": "stop", "id": 3},
        ])
        assert [a["ok"] for a in acks] == [True] * 4
        assert acks[0]["job"] == "live" and acks[0]["backlog"] == 1
        assert acks[1]["now"] == 30.0
        assert acks[2]["submitted"] == 1
        assert runtime.stopped

    def test_bad_op_fails_only_its_own_ack(self, daemon):
        _, socket_path = daemon
        acks = send_ops(socket_path, [
            {"op": "reboot", "id": 1},
            {"op": "submit", "id": 1, "job": {"name": "after-garbage"}},
            {"op": "stop", "id": 2},
        ])
        assert not acks[0]["ok"] and "unknown op" in acks[0]["error"]
        assert acks[1]["ok"] and acks[2]["ok"]  # the daemon stayed up

    @pytest.mark.parametrize(
        "nested",
        ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000],
        ids=["arrays", "objects"],
    )
    def test_deeply_nested_line_is_rejected_and_the_connection_stays_up(self, daemon, nested):
        runtime, socket_path = daemon
        with connect(socket_path) as sock, sock.makefile("rwb") as stream:
            replies = []
            for line in ('{"op": "status"}', nested, '{"op": "status"}'):
                stream.write((line + "\n").encode("utf-8"))
                stream.flush()
                replies.append(json.loads(stream.readline()))
        assert replies[0]["ok"] and replies[2]["ok"]
        assert not replies[1]["ok"] and "recursion" in replies[1]["error"]
        assert not runtime.stopped

    def test_queue_full_is_shed_not_fatal(self, daemon):
        _, socket_path = daemon
        ops = [
            {"op": "submit", "id": i + 1, "job": {"name": f"j{i}"}}
            for i in range(3)
        ] + [{"op": "stop", "id": 4}]
        acks = send_ops(socket_path, ops)
        assert acks[0]["ok"] and acks[1]["ok"]
        assert not acks[2]["ok"] and "queue full" in acks[2]["error"]
        assert acks[3]["ok"]

    def test_client_retry_reaches_a_late_daemon(self, tmp_path):
        """The backoff loop covers a daemon that binds after the client starts."""
        runtime = ServeRuntime(CONFIG, tmp_path / "state")
        socket_path = tmp_path / "late.sock"

        def bind_late():
            import time

            time.sleep(0.15)
            serve_socket(runtime, socket_path)

        thread = threading.Thread(target=bind_late, daemon=True)
        thread.start()
        try:
            sock = connect(str(socket_path), retries=8, backoff=0.05)
            sock.close()
        finally:
            runtime.stopped = True
            thread.join(timeout=5)
            runtime.close()

    def test_retry_exhaustion_raises_submit_error(self, tmp_path):
        with pytest.raises(SubmitError, match="could not connect"):
            connect(str(tmp_path / "never.sock"), retries=2, backoff=0.01)
