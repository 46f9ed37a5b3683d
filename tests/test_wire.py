import logging
import os
import random
import socket
import struct
import subprocess
import sys
import threading

import pytest

from pacreach.errors import TransportError, ValidationError
from pacreach.models import BUNDLED, build_alks
from pacreach.sul import MachineSafetyQuery
from pacreach.wire import (BlackBoxConfig, RemoteSafetyQuery, _ModelSession,
                           serve_tcp)

SERVE_WTO = (f"{sys.executable} -m pacreach.cli serve-model "
             f"--model alks_without.machine --stdio")


def _serve_in_thread(machine, max_sessions):
    addr = {}
    ready = threading.Event()

    def on_ready(host, port):
        addr["value"] = (host, port)
        ready.set()

    server = threading.Thread(
        target=serve_tcp, args=(machine,),
        kwargs=dict(ready=on_ready, max_sessions=max_sessions), daemon=True)
    server.start()
    assert ready.wait(5)
    return server, addr["value"]


def _ask(sock, request: bytes) -> bytes:
    sock.sendall(request)
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            break
        reply += chunk
    return reply


def test_config_validation():
    with pytest.raises(ValidationError):
        BlackBoxConfig(command="x", address="y:1",
                       unsafe_outputs=frozenset({"bad"}))
    with pytest.raises(ValidationError):
        BlackBoxConfig(unsafe_outputs=frozenset({"bad"}))
    with pytest.raises(ValidationError):
        BlackBoxConfig(command="x", unsafe_outputs=frozenset())
    with pytest.raises(ValidationError):
        BlackBoxConfig(command="x", unsafe_outputs=frozenset({"b"}),
                       timeout=0)
    with pytest.raises(ValidationError):
        BlackBoxConfig(address="noport",
                       unsafe_outputs=frozenset({"b"})).host_port()


def test_session_protocol_unit():
    session = _ModelSession(build_alks(False))
    assert session.respond("ALPHABET") == "OK l r s"
    assert session.respond("RESET") == "OK"
    assert session.respond("STEP l") == "OUT ok"
    assert session.respond("STEP l") == "OUT alarm"
    assert session.respond("RESET") == "OK"
    assert session.respond("STEP l") == "OUT ok"
    assert session.respond("STEP x").startswith("ERR")
    assert session.respond("FROB").startswith("ERR")
    assert session.respond("").startswith("ERR")


def test_stdio_black_box_agrees_with_in_process():
    machine = build_alks(False)
    local = MachineSafetyQuery(machine)
    cfg = BlackBoxConfig(command=SERVE_WTO,
                         unsafe_outputs=frozenset({"alarm"}))
    rng = random.Random(31337)
    with RemoteSafetyQuery(cfg) as remote:
        assert remote.input_alphabet == machine.inputs
        for _ in range(1000):
            seq = local.random_input(rng.randint(1, 10), rng)
            assert remote.is_safe(seq) == local.is_safe(seq)
        assert remote.query_count == 1000


def test_tcp_black_box_agrees_with_in_process():
    machine = BUNDLED["coffee"]()
    local = MachineSafetyQuery(machine)
    server, (host, port) = _serve_in_thread(machine, max_sessions=1)
    cfg = BlackBoxConfig(address=f"{host}:{port}",
                         unsafe_outputs=frozenset({"error"}))
    rng = random.Random(4)
    with RemoteSafetyQuery(cfg) as remote:
        assert remote.input_alphabet == machine.inputs
        for _ in range(200):
            seq = local.random_input(rng.randint(1, 6), rng)
            assert remote.is_safe(seq) == local.is_safe(seq)
    server.join(5)
    assert not server.is_alive()


def test_classification_is_by_final_output_only():
    # coffee emits "coffee" only on the dispensing step; a later ok step
    # must flip the verdict back to safe
    cfg = BlackBoxConfig(
        command=f"{sys.executable} -m pacreach.cli serve-model "
                f"--model coffee.machine --stdio",
        unsafe_outputs=frozenset({"error"}))
    with RemoteSafetyQuery(cfg) as remote:
        assert remote.is_safe(["water", "pod", "button"])
        assert not remote.is_safe(["button"])
        assert not remote.is_safe(["button", "water"])


def test_unreachable_endpoint_is_transport_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here any more
    cfg = BlackBoxConfig(address=f"127.0.0.1:{port}",
                         unsafe_outputs=frozenset({"bad"}),
                         timeout=0.5, max_retries=0)
    with pytest.raises(TransportError):
        RemoteSafetyQuery(cfg)


def test_protocol_violation_is_transport_error():
    # a server that answers garbage to everything
    script = "import sys\nfor line in sys.stdin: print('WAT'); sys.stdout.flush()"
    cfg = BlackBoxConfig(command=f"{sys.executable} -c \"{script}\"",
                         unsafe_outputs=frozenset({"bad"}),
                         timeout=2.0, max_retries=1)
    with pytest.raises(TransportError, match="ALPHABET"):
        RemoteSafetyQuery(cfg)


def test_timeout_is_transport_error():
    # a server that accepts but never answers
    script = "import time\ntime.sleep(60)"
    cfg = BlackBoxConfig(command=f"{sys.executable} -c \"{script}\"",
                         unsafe_outputs=frozenset({"bad"}),
                         timeout=0.3, max_retries=0)
    with pytest.raises(TransportError, match="no response"):
        RemoteSafetyQuery(cfg)


def test_mid_run_hangup_is_transport_error_not_a_verdict():
    # the server dies after the handshake; the query must error out,
    # never silently report unsafe
    script = (
        "import sys\n"
        "print('OK a b'); sys.stdout.flush()\n"
        "line = sys.stdin.readline()\n"
    )
    cfg = BlackBoxConfig(command=f"{sys.executable} -c \"{script}\"",
                         unsafe_outputs=frozenset({"bad"}),
                         timeout=1.0, max_retries=0)
    remote = RemoteSafetyQuery(cfg)
    assert remote.input_alphabet == ("a", "b")
    with pytest.raises(TransportError):
        remote.is_safe(["a", "b"])
    remote.close()


def test_writing_to_a_child_that_closed_its_stdin_is_transport_error():
    # the failed write leaves bytes buffered; closing the pipe must not
    # raise BrokenPipeError past the transport layer
    script = "import os\nos.close(0)\nprint('OK a b')"
    cfg = BlackBoxConfig(command=f"{sys.executable} -c \"{script}\"",
                         unsafe_outputs=frozenset({"bad"}),
                         timeout=2.0, max_retries=0)
    with RemoteSafetyQuery(cfg) as remote:
        with pytest.raises(TransportError, match="write failed"):
            remote.is_safe(["a"])


def test_a_child_that_ignores_sigterm_is_killed_and_reaped():
    # the child's alphabet is its pid; close() must escalate to SIGKILL
    # and wait, or the pid lives on as a zombie
    script = (
        "import os, signal, sys\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "print('OK', os.getpid()); sys.stdout.flush()\n"
        "sys.stdin.read()\n"
    )
    cfg = BlackBoxConfig(command=f"{sys.executable} -c \"{script}\"",
                         unsafe_outputs=frozenset({"bad"}),
                         timeout=5.0, max_retries=0)
    with RemoteSafetyQuery(cfg) as remote:
        (pid,) = remote.input_alphabet
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)


def test_retry_reconnects_after_a_dropped_connection():
    cfg = BlackBoxConfig(command=SERVE_WTO,
                         unsafe_outputs=frozenset({"alarm"}),
                         timeout=5.0, max_retries=2)
    with RemoteSafetyQuery(cfg) as remote:
        assert remote.is_safe(["s", "s"])
        remote._drop()  # simulate a dropped connection
        assert remote.is_safe(["l", "l"]) is False
        assert remote.query_count == 2


def test_a_request_that_is_not_utf8_does_not_stop_the_tcp_server():
    server, addr = _serve_in_thread(build_alks(False), max_sessions=2)
    with socket.create_connection(addr, timeout=5) as bad:
        assert _ask(bad, b"\xff\xfe\n").startswith(b"ERR")
        assert _ask(bad, b"RESET\n") == b"OK\n"
    with socket.create_connection(addr, timeout=5) as good:
        assert _ask(good, b"ALPHABET\n") == b"OK l r s\n"
    server.join(5)
    assert not server.is_alive()


def test_a_reset_connection_ends_only_its_own_session(caplog):
    server, addr = _serve_in_thread(build_alks(False), max_sessions=2)
    with caplog.at_level(logging.WARNING, logger="pacreach.wire"):
        rude = socket.create_connection(addr, timeout=5)
        rude.sendall(b"ALPHABET\n" * 1000)
        # close with RST while replies are still in flight
        rude.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        rude.close()
        with socket.create_connection(addr, timeout=5) as good:
            assert _ask(good, b"ALPHABET\n") == b"OK l r s\n"
        server.join(5)
    assert not server.is_alive()
    assert "ended" in caplog.text
