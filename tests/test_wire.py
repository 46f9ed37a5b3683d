import collections
import concurrent.futures
import io
import logging
import os
import random
import shlex
import socket
import struct
import subprocess
import sys
import threading
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from pacreach.baselines import monte_carlo
from pacreach.errors import TransportError, ValidationError
from pacreach.learner import LearnerConfig, learn_safe_set
from pacreach.mealy import MealyMachine
from pacreach.models import BUNDLED, build_alks, random_machine
from pacreach.sul import MachineSafetyQuery
from pacreach.wire import (MAX_TIMEOUT, REPLY_MEMO_ENTRIES, WRITE_AHEAD_BYTES,
                           BlackBoxConfig, RemoteSafetyQuery, _answer_table,
                           _Channel, _ConnectionLost, _ModelSession,
                           parse_host_port, serve_stdio, serve_tcp)

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


class _FakePeer:
    """A TCP peer for ``alks_without`` whose replies a test can rewrite.

    It answers ALPHABET at once. Any other request starts a batch: that
    request and the ``n`` after it, as the client sends for one query of
    length n. The peer computes the true replies to the batch and hands
    them to ``write(conn, session, replies)``, which sends them, or
    something else, on ``conn``; ``session`` counts connections from 0.
    Use it as a context manager.
    """

    def __init__(self, n, write):
        self.n = n
        self.write = write
        self.machine = build_alks(False)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        session = 0
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            with conn, conn.makefile("rb") as reader:
                conn.settimeout(None)
                model = _ModelSession(self.machine)
                try:
                    for line in reader:
                        if line.strip() == b"ALPHABET":
                            conn.sendall(model.answer([line]).encode())
                            continue
                        batch = [line] + [reader.readline()
                                          for _ in range(self.n)]
                        self.write(conn, session, [
                            model.answer([r]).encode() for r in batch])
                except OSError:
                    pass  # the client dropped the connection
            session += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(5)
        self._listener.close()
        assert not self._thread.is_alive()


def _respond(session, line: bytes):
    """The reply to one request line (bytes), without its newline."""
    reply = session.answer([line])
    assert reply.endswith("\n")
    return reply[:-1]


def _send_all(conn, session, replies):
    conn.sendall(b"".join(replies))


def _peer_config(peer, **kwargs):
    return BlackBoxConfig(address=peer.address,
                          unsafe_outputs=frozenset({"alarm"}), **kwargs)


def _finishes_within(seconds, fn, on_timeout):
    """Return ``fn()``, or fail the test once it has run ``seconds``;
    ``on_timeout`` must unblock ``fn`` so that its thread can end."""
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        future = pool.submit(fn)
        try:
            return future.result(timeout=seconds)
        except concurrent.futures.TimeoutError:
            on_timeout()
            pytest.fail(f"no answer within {seconds} s")


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
    # a string's `in` test matches substrings, not tokens
    with pytest.raises(ValidationError, match="not a string"):
        BlackBoxConfig(command="x", unsafe_outputs="broken")
    # a reply token is never empty and never holds whitespace
    for tokens in ({""}, {" alarm"}, {"ok", "al arm"}, {"alarm\t"}):
        with pytest.raises(ValidationError, match="no whitespace"):
            BlackBoxConfig(command="x", unsafe_outputs=tokens)
    for retries in (1.5, "2", -1):
        with pytest.raises(ValidationError, match="max_retries"):
            BlackBoxConfig(command="x", unsafe_outputs=frozenset({"b"}),
                           max_retries=retries)
    config = BlackBoxConfig(command="x", unsafe_outputs=["b", "c"])
    assert config.unsafe_outputs == frozenset({"b", "c"})
    for address in ("noport", ":80", "h:-1", "h:65536", "h:²", "h:٨٠",
                    "localhost:１２３"):
        with pytest.raises(ValidationError, match="HOST:PORT"):
            parse_host_port(address)
    assert parse_host_port("::1:0") == ("::1", 0)


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"),
                                     float("-inf"), 0, -1, 3e6])
def test_config_rejects_a_timeout_a_selector_cannot_wait(timeout):
    with pytest.raises(ValidationError, match="^timeout must be in "):
        BlackBoxConfig(command="x", unsafe_outputs=frozenset({"b"}),
                       timeout=timeout)


def test_config_accepts_the_longest_timeout_a_selector_can_wait():
    config = BlackBoxConfig(command="x", unsafe_outputs=frozenset({"b"}),
                            timeout=MAX_TIMEOUT)
    assert config.timeout == (2 ** 31 - 1) / 1000


def test_session_protocol_unit():
    session = _ModelSession(build_alks(False))
    assert _respond(session, b"ALPHABET") == "OK l r s"
    assert _respond(session, b"RESET") == "OK"
    assert _respond(session, b"STEP l") == "OUT ok"
    assert _respond(session, b"STEP l") == "OUT alarm"
    assert _respond(session, b"RESET") == "OK"
    assert _respond(session, b"STEP l") == "OUT ok"
    assert _respond(session, b"STEP x").startswith("ERR")
    assert _respond(session, b"FROB").startswith("ERR")
    assert _respond(session, b"").startswith("ERR")


def _parsed_only(machine):
    """A session whose table is empty: it parses every request."""
    return _ModelSession(machine, collections.defaultdict(dict))


@pytest.mark.parametrize("machine", [
    build_alks(True), build_alks(False), BUNDLED["coffee"](),
    random_machine(6, 3, 0.3, seed=5, absorbing_unsafe=False)],
    ids=["alks_with", "alks_without", "coffee", "random"])
def test_a_table_lookup_answers_as_the_parse_does(machine):
    requests = [request.encode() for request in (
        "ALPHABET", "RESET", *(f"STEP {sym}" for sym in machine.inputs))]
    assert all(set(row) == set(requests)
               for row in _answer_table(machine).values())
    for state in machine.states:
        for request in requests:
            looked_up, parsed = _ModelSession(machine), _parsed_only(machine)
            looked_up.state = parsed.state = state
            assert (_respond(looked_up, request), looked_up.state) == \
                (_respond(parsed, request), parsed.state)


def test_an_input_with_a_space_or_no_name_is_still_an_error():
    # "STEP a b" splits into three tokens and "STEP " into one, so the
    # parse rejects both; a table written from the inputs would not
    machine = MealyMachine(
        states=("q",), inputs=("a b", ""), outputs=("ok",),
        transitions={("q", "a b"): ("q", "ok"), ("q", ""): ("q", "ok")},
        initial="q", safe_states=frozenset({"q"}))
    session = _ModelSession(machine)
    for request in (b"STEP a b", b"STEP "):
        assert _respond(session, request) == "ERR unknown command STEP"
        assert _respond(_parsed_only(machine), request) == \
            "ERR unknown command STEP"


def test_a_serve_call_builds_one_table_for_all_its_sessions(monkeypatch):
    built = []
    monkeypatch.setattr(
        "pacreach.wire._answer_table",
        lambda machine: built.append(machine) or _answer_table(machine))
    server, addr = _serve_in_thread(build_alks(False), max_sessions=3)
    for _ in range(3):
        with socket.create_connection(addr, timeout=5) as sock:
            assert _ask(sock, b"RESET\nSTEP l\n") == b"OK\nOUT ok\n"
    server.join(5)
    assert not server.is_alive()
    assert len(built) == 1


def test_stdio_black_box_agrees_with_in_process():
    machine = build_alks(False)
    local = MachineSafetyQuery(machine)
    cfg = BlackBoxConfig(command=SERVE_WTO,
                         unsafe_outputs=frozenset({"alarm"}))
    rng = random.Random(31337)
    with RemoteSafetyQuery(cfg) as remote:
        assert remote.input_alphabet == machine.inputs
        for _ in range(1000):
            seq = rng.choices(local.input_alphabet, k=rng.randint(1, 10))
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
            seq = rng.choices(local.input_alphabet, k=rng.randint(1, 6))
            assert remote.is_safe(seq) == local.is_safe(seq)
    server.join(5)
    assert not server.is_alive()


@pytest.mark.parametrize("transport", ["stdio", "tcp"])
def test_one_batch_may_mix_run_lengths(transport):
    # a query ends where the next RESET begins, not after a run length
    # that the whole batch shares
    machine = build_alks(False)
    seqs = [("l",), ("l", "l"), ("r", "s", "r"), ("l", "l", "l", "l")]
    local = MachineSafetyQuery(machine)
    want = [local.is_safe(seq) for seq in seqs]
    assert want == [True, False, False, False]
    server = None
    if transport == "stdio":
        cfg = BlackBoxConfig(command=SERVE_WTO,
                             unsafe_outputs=frozenset({"alarm"}))
    else:
        server, (host, port) = _serve_in_thread(machine, max_sessions=1)
        cfg = BlackBoxConfig(address=f"{host}:{port}",
                             unsafe_outputs=frozenset({"alarm"}))
    with RemoteSafetyQuery(cfg) as remote:
        before = remote.requests
        assert remote._verdicts(seqs) == want
        assert remote.requests - before == sum(len(s) + 1 for s in seqs) == 14
    if server is not None:
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


def test_an_empty_run_is_refused_before_anything_is_sent():
    # the protocol has no verdict for the empty run: a bare RESET would
    # make one up ("safe"), where none_safe's own verdict is unsafe
    assert MachineSafetyQuery(BUNDLED["none_safe"]()).is_safe(()) is False
    cfg = BlackBoxConfig(
        command=f"{sys.executable} -m pacreach.cli serve-model "
                f"--model none_safe --stdio",
        unsafe_outputs=frozenset({"ok"}))
    with RemoteSafetyQuery(cfg) as remote:
        sent = (remote.requests, remote.writes, remote.bytes_sent)
        with pytest.raises(ValidationError, match="empty run"):
            remote.is_safe(())
        assert (remote.requests, remote.writes, remote.bytes_sent) == sent
        assert remote.query_count == 0
        assert remote.is_safe(("i0",)) is False
        assert remote.query_count == 1


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


def test_an_alphabet_reply_that_repeats_a_symbol_is_a_transport_error():
    # a repeated symbol would count one input sequence several times
    script = "import sys\nfor line in sys.stdin: print('OK a a', flush=True)"
    cfg = BlackBoxConfig(command=f"{sys.executable} -c \"{script}\"",
                         unsafe_outputs=frozenset({"bad"}),
                         timeout=2.0, max_retries=0)
    with pytest.raises(TransportError, match="bad ALPHABET reply: OK a a"):
        RemoteSafetyQuery(cfg)


def test_unrequested_bytes_after_the_alphabet_reply_are_a_transport_error():
    # the peer's one write holds the ALPHABET reply and a line more
    script = ("import sys\n"
              "sys.stdin.buffer.readline()\n"
              "sys.stdout.buffer.write(b'OK l r s\\nOK\\n')\n"
              "sys.stdout.flush()\n"
              "sys.stdin.buffer.read()\n")
    cfg = BlackBoxConfig(
        command=f"{shlex.quote(sys.executable)} -c {shlex.quote(script)}",
        unsafe_outputs=frozenset({"alarm"}))
    with pytest.raises(TransportError,
                       match="unrequested bytes after the last reply"):
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
    # its stdout still holds the socket: the fault shows on the write if
    # the child has exited, else on the read, as the exit resets the
    # connection; no BrokenPipeError or ConnectionResetError escapes
    script = "import os\nos.close(0)\nprint('OK a b')"
    cfg = BlackBoxConfig(command=f"{sys.executable} -c \"{script}\"",
                         unsafe_outputs=frozenset({"bad"}),
                         timeout=2.0, max_retries=0)
    with RemoteSafetyQuery(cfg) as remote:
        with pytest.raises(TransportError, match="(write|read) failed"):
            remote.is_safe(["a"])


def test_a_write_to_a_closed_connection_is_a_lost_connection():
    counters = types.SimpleNamespace(writes=0, bytes_sent=0)
    sock, peer = socket.socketpair()
    peer.close()
    with sock, pytest.raises(_ConnectionLost, match="^write failed: "):
        _Channel(sock, None, counters).send(b"RESET\n")
    assert counters.writes == counters.bytes_sent == 0


def test_a_command_gets_one_socket_as_stdin_and_stdout():
    script = ("import os, stat\n"
              "fd0, fd1 = os.fstat(0), os.fstat(1)\n"
              "kind = 'socket' if stat.S_ISSOCK(fd0.st_mode) else 'other'\n"
              "same = 'same' if fd0.st_ino == fd1.st_ino else 'apart'\n"
              "print('OK', kind, same, flush=True)\n")
    cfg = BlackBoxConfig(command=shlex.join([sys.executable, "-c", script]),
                         unsafe_outputs=frozenset({"bad"}), max_retries=0)
    with RemoteSafetyQuery(cfg) as remote:
        assert remote.input_alphabet == ("socket", "same")


def test_a_channel_waits_at_the_longest_timeout():
    counters = types.SimpleNamespace(bytes_received=0)
    sock, peer = socket.socketpair()
    with sock, peer:
        peer.sendall(b"OK\n")
        channel = _Channel(sock, None, counters)
        assert channel.recv_lines(1, MAX_TIMEOUT) == [b"OK"]


def test_a_trickled_reply_line_is_bounded_by_one_timeout():
    counters = types.SimpleNamespace(bytes_received=0)
    sock, peer = socket.socketpair()
    with sock, peer:
        peer.sendall(b"OU")
        channel = _Channel(sock, None, counters)
        started = time.monotonic()
        with pytest.raises(_ConnectionLost,
                           match=r"^no response within 0\.3s$"):
            channel.recv_lines(1, 0.3)
        waited = time.monotonic() - started
    assert 0.3 <= waited < 0.6
    assert counters.bytes_received == 2


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
        remote.close()  # simulate a dropped connection
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


def test_a_query_longer_than_the_write_ahead_window_is_answered():
    # 50,001 requests are far more than both pipe buffers hold: sent in
    # one write, the client would block in write while the server
    # blocked writing replies nobody reads
    machine = build_alks(False)
    local = MachineSafetyQuery(machine)
    seq = random.Random(5).choices(local.input_alphabet, k=50_000)
    want = local.is_safe(seq)
    cfg = BlackBoxConfig(command=SERVE_WTO,
                         unsafe_outputs=frozenset({"alarm"}),
                         timeout=10.0, max_retries=0)
    with RemoteSafetyQuery(cfg) as remote:
        assert _finishes_within(60, lambda: remote.is_safe(seq),
                                remote.close) == want
    server, (host, port) = _serve_in_thread(machine, max_sessions=1)
    cfg = BlackBoxConfig(address=f"{host}:{port}",
                         unsafe_outputs=frozenset({"alarm"}),
                         timeout=10.0, max_retries=0)
    with RemoteSafetyQuery(cfg) as remote:
        assert _finishes_within(60, lambda: remote.is_safe(seq),
                                remote.close) == want
    server.join(5)
    assert not server.is_alive()


def test_counters_on_one_session():
    machine = build_alks(False)
    local = MachineSafetyQuery(machine)
    rng = random.Random(8)
    n, q = 6, 40
    seqs = [rng.choices(local.input_alphabet, k=n) for _ in range(q)]
    replies = _ModelSession(machine)
    requests = ["ALPHABET"]
    for seq in seqs:
        requests += ["RESET", *(f"STEP {sym}" for sym in seq)]
    expect_sent = sum(len(request) + 1 for request in requests)
    expect_received = sum(len(_respond(replies, request.encode())) + 1
                          for request in requests)
    cfg = BlackBoxConfig(command=SERVE_WTO,
                         unsafe_outputs=frozenset({"alarm"}))
    with RemoteSafetyQuery(cfg) as remote:
        for seq in seqs:
            assert remote.is_safe(seq) == local.is_safe(seq)
        assert remote.requests == q * (n + 1) + 1
        assert remote.writes == q + 1
        assert (remote.retries, remote.reconnects) == (0, 0)
        assert remote.bytes_sent == expect_sent
        assert remote.bytes_received == expect_received
        # RESET and 1,000 STEPs are 7,006 bytes: two windows
        assert 6 + 1000 * 7 > WRITE_AHEAD_BYTES >= (6 + 1000 * 7) / 2
        remote.is_safe(("l",) * 1000)
        assert remote.writes == q + 3
        assert remote.requests == q * (n + 1) + 1 + 1001


def test_a_bad_reply_mid_batch_is_transport_error_once_retries_run_out():
    # a protocol violation is not retried: a fresh connection to the same
    # peer would break the protocol again
    def bad_third_step(conn, session, replies):
        replies[3] = b"WAT\n"
        conn.sendall(b"".join(replies))

    with _FakePeer(5, bad_third_step) as peer:
        with RemoteSafetyQuery(_peer_config(peer, timeout=2.0,
                                            max_retries=2)) as remote:
            with pytest.raises(TransportError, match="bad STEP reply: WAT"):
                remote.is_safe(("s",) * 5)
            assert (remote.retries, remote.reconnects) == (0, 0)
            assert remote.query_count == 0


def test_a_retry_after_a_bad_reply_mid_batch_leaves_no_stale_reply():
    # the first session hangs up mid-batch, after three replies and half
    # of the fourth; that half must go with the dropped connection
    def drop_on_first_session(conn, session, replies):
        if session == 0:
            conn.sendall(b"".join(replies[:3]) + replies[3][:3])
            conn.shutdown(socket.SHUT_RDWR)
        else:
            conn.sendall(b"".join(replies))

    local = MachineSafetyQuery(build_alks(False))
    with _FakePeer(5, drop_on_first_session) as peer:
        with RemoteSafetyQuery(_peer_config(peer, timeout=2.0,
                                            max_retries=2)) as remote:
            first, second = ("l",) * 5, ("s", "s", "l", "r", "s")
            assert local.is_safe(first) != local.is_safe(second)
            assert remote.is_safe(first) == local.is_safe(first)
            assert remote.is_safe(second) == local.is_safe(second)
            assert (remote.retries, remote.reconnects) == (1, 1)
            assert remote.query_count == 2


def test_a_reply_nobody_asked_for_fails_the_query_it_follows():
    def extra_reply_on_first_session(conn, session, replies):
        conn.sendall(b"".join(replies) + (b"OUT ok\n" if session == 0
                                          else b""))

    local = MachineSafetyQuery(build_alks(False))
    with _FakePeer(3, extra_reply_on_first_session) as peer:
        with RemoteSafetyQuery(_peer_config(peer, max_retries=1)) as remote:
            with pytest.raises(TransportError, match="unrequested bytes"):
                remote.is_safe(("l", "l", "s"))
            assert (remote.retries, remote.reconnects) == (0, 0)
            assert remote.is_safe(("s", "l", "l")) == \
                local.is_safe(("s", "l", "l"))
            assert (remote.retries, remote.reconnects) == (0, 1)


def _one_byte_at_a_time(conn, session, replies):
    for byte in b"".join(replies):
        conn.sendall(bytes([byte]))


def _one_reply_at_a_time(conn, session, replies):
    for reply in replies:
        conn.sendall(reply)


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                    reason="the client acks at once only where it can")
def test_a_peer_that_delays_small_writes_does_not_stall_each_query():
    # the peer leaves Nagle on, so it holds each batch's later replies
    # until the first is acked; a delayed ack would cost ~40 ms a query
    local = MachineSafetyQuery(build_alks(False))
    rng = random.Random(13)
    seqs = [rng.choices(local.input_alphabet, k=5) for _ in range(100)]
    with _FakePeer(5, _one_reply_at_a_time) as peer:
        with RemoteSafetyQuery(_peer_config(peer, max_retries=0)) as remote:
            started = time.monotonic()
            for seq in seqs:
                assert remote.is_safe(seq) == local.is_safe(seq)
            assert time.monotonic() - started < 2.0


@pytest.mark.parametrize("write", [_one_byte_at_a_time, _one_reply_at_a_time,
                                   _send_all])
def test_replies_split_or_joined_anyhow_give_the_in_process_verdict(write):
    local = MachineSafetyQuery(build_alks(False))
    rng = random.Random(12)
    with _FakePeer(4, write) as peer:
        with RemoteSafetyQuery(_peer_config(peer, max_retries=0)) as remote:
            for _ in range(60):
                seq = rng.choices(local.input_alphabet, k=4)
                assert remote.is_safe(seq) == local.is_safe(seq)
            assert remote.writes == 61


_REPLY_PIECES = [b"OK\n", b"OUT ok\n", b"OUT alarm\n", b"OUT\n", b"OK",
                 b"ERR x\n", b"\n", b" ", b"\r\n", b"\xff\n"]


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=80), st.text(max_size=80)))
def test_the_server_answers_any_request_with_one_line(request):
    machine = build_alks(True)
    data = request.encode("utf-8", "surrogatepass") \
        if isinstance(request, str) else request
    reply = _respond(_ModelSession(machine), data)
    assert "\n" not in reply
    assert reply.split(" ", 1)[0] in ("OK", "OUT", "ERR")
    # and over a whole stream, one reply line per request line
    out = io.StringIO()
    serve_stdio(machine, io.BytesIO(data + b"\nRESET\n"), out)
    lines = out.getvalue().split("\n")
    assert lines.pop() == ""
    assert len(lines) == data.count(b"\n") + 2
    assert lines[-1] == "OK"


@settings(max_examples=40)
@given(st.integers(1, 3),
       st.one_of(st.binary(max_size=40),
                 st.lists(st.sampled_from(_REPLY_PIECES), max_size=6)
                 .map(b"".join)))
def test_any_reply_bytes_give_a_verdict_or_transport_error_in_time(n, junk):
    def reply_junk(conn, session, replies):
        conn.sendall(junk)

    config = dict(timeout=0.1, max_retries=1)
    with _FakePeer(n, reply_junk) as peer:
        with RemoteSafetyQuery(_peer_config(peer, **config)) as remote:
            started = time.monotonic()
            try:
                verdict = remote.is_safe(("l",) * n)
            except TransportError:
                verdict = None
            waited = time.monotonic() - started
    assert verdict in (True, False, None)
    assert waited < (config["max_retries"] + 1) * (n + 1) * config["timeout"]


class _ChunkedRequests:
    """A binary request stream whose ``read1`` hands out ``chunks`` in
    order, one per call, then EOF."""

    def __init__(self, chunks):
        self._chunks = iter(chunks)

    def read1(self, size):
        chunk = next(self._chunks, b"")
        assert len(chunk) <= size
        return chunk


class _CountingSink:
    """A text sink that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


_REQUEST_PIECES = [b"ALPHABET", b"RESET", b"STEP l", b"STEP s", b"STEP x",
                   b"FROB", b"\n", b"\r\n", b" ", b"\xff\xfe", b"\xc3\xa9"]


@settings(max_examples=200)
@given(st.lists(st.one_of(st.sampled_from(_REQUEST_PIECES),
                          st.binary(max_size=8)), max_size=30)
       .map(b"".join),
       st.data())
def test_replies_to_any_split_of_the_requests_equal_line_by_line_replies(
        data, draw):
    machine = build_alks(True)
    cuts = sorted(draw.draw(st.sets(st.integers(1, max(len(data) - 1, 1)),
                                    max_size=8)))
    bounds = [0, *(cut for cut in cuts if cut < len(data)), len(data)]
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    batched = _CountingSink()
    serve_stdio(machine, _ChunkedRequests(chunks), batched)
    by_line = io.StringIO()
    serve_stdio(machine, io.BytesIO(data).readlines(), by_line)
    assert "".join(batched.writes) == by_line.getvalue()
    # and both equal a reference that answers one line at a time
    # without serve_stdio; the piece after the last newline is a request
    # only if it is not empty
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    session = _ModelSession(machine)
    assert by_line.getvalue() == "".join(session.answer([line])
                                         for line in lines)
    # one write for each read that completes a request line, and one for
    # a last line left without a newline at EOF
    reads_that_answer = sum(b"\n" in chunk for chunk in chunks)
    unterminated = bool(data) and not data.endswith(b"\n")
    assert len(batched.writes) == reads_that_answer + unterminated


def test_a_text_line_with_an_escaped_byte_is_not_utf8():
    # a text stdin in the C locale escapes an undecodable byte as a lone
    # surrogate, which a UTF-8 writer cannot echo back
    requests = io.TextIOWrapper(io.BytesIO(b"STEP \xff\nRESET\n"),
                                encoding="utf-8", errors="surrogateescape")
    raw = io.BytesIO()
    replies = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    serve_stdio(build_alks(True), requests, replies)
    assert raw.getvalue() == b"ERR request is not UTF-8\nOK\n"


def test_well_formed_text_lines_are_answered_from_the_table(monkeypatch):
    machine = build_alks(False)
    table = _answer_table(machine)
    monkeypatch.setattr("pacreach.wire._answer_table", lambda _: table)

    def no_parse(*args):
        raise AssertionError(f"parsed {args[2]!r}")

    monkeypatch.setattr("pacreach.wire._parse", no_parse)
    out = io.StringIO()
    serve_stdio(machine, ["ALPHABET\n", "RESET\n", "STEP l\n", "STEP l\n",
                          b"RESET\n", "STEP s"], out)
    assert out.getvalue() == "OK l r s\nOK\nOUT ok\nOUT alarm\nOK\nOUT ok\n"


def test_one_pipelined_window_is_answered_with_one_write(monkeypatch):
    machine = build_alks(False)
    seq = ("l", "s", "r", "l", "l")
    window = b"".join([b"RESET\n", *(f"STEP {s}\n".encode() for s in seq)])
    session = _ModelSession(machine)
    want = "".join(f"{_respond(session, line)}\n"
                   for line in window.splitlines())
    # stdio: one atomic pipe write, read through a buffered reader
    read_end, write_end = os.pipe()
    os.write(write_end, window)
    os.close(write_end)
    sink = _CountingSink()
    with open(read_end, "rb") as requests:
        serve_stdio(machine, requests, sink)
    assert sink.writes == [want]
    # TCP: the session's sends, counted on the socket class
    sent = []
    real_sendall = socket.socket.sendall

    def counting_sendall(sock, data, *args):
        sent.append(data)
        return real_sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
    server, addr = _serve_in_thread(machine, max_sessions=1)
    with socket.create_connection(addr, timeout=5) as sock:
        sock.send(window)
        sock.shutdown(socket.SHUT_WR)
        replies = b""
        while chunk := sock.recv(4096):
            replies += chunk
    server.join(5)
    assert not server.is_alive()
    assert replies == want.encode()
    assert sent == [want.encode()]


def test_a_wait_for_each_reply_is_bounded_by_timeout_not_the_query():
    # six replies, each 0.6 timeout after the one before: the query
    # takes 3.6 timeouts, but no single reply line is late
    timeout = 0.5

    def one_reply_at_a_time_slowly(conn, session, replies):
        for reply in replies:
            time.sleep(0.6 * timeout)
            conn.sendall(reply)

    local = MachineSafetyQuery(build_alks(False))
    seq = ("l", "s", "l", "l", "r")
    with _FakePeer(5, one_reply_at_a_time_slowly) as peer:
        with RemoteSafetyQuery(_peer_config(peer, timeout=timeout,
                                            max_retries=0)) as remote:
            assert remote.is_safe(seq) == local.is_safe(seq)
            assert (remote.retries, remote.reconnects) == (0, 0)


def test_a_bad_reset_reply_fails_at_once_without_waiting_for_the_window():
    # the peer answers RESET wrongly and then never sends the STEP
    # replies: the client must not wait out the timeout for them
    def bad_reset_then_silence(conn, session, replies):
        conn.sendall(b"WAT\n")

    timeout = 5.0
    with _FakePeer(5, bad_reset_then_silence) as peer:
        with RemoteSafetyQuery(_peer_config(peer, timeout=timeout,
                                            max_retries=2)) as remote:
            started = time.monotonic()
            with pytest.raises(TransportError, match="bad RESET reply: WAT"):
                remote.is_safe(("s",) * 5)
            assert time.monotonic() - started < timeout / 5
            assert (remote.retries, remote.reconnects) == (0, 0)
            assert remote.query_count == 0


def test_an_unrequested_reply_between_windows_fails_the_query():
    # the peer slips an extra reply in after the first window's last one
    # and leaves the query's last request unanswered, so the reply count
    # comes out right; read as replies to the next window, the shifted
    # lines would give a verdict for the wrong step
    n = 1000
    first_window = 1 + (WRITE_AHEAD_BYTES - len(b"RESET\n")) // len(b"STEP l\n")
    assert first_window < n + 1
    script = (
        "import sys\n"
        f"first_window, last = {first_window}, {n + 1}\n"
        "answered = 0\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'ALPHABET':\n"
        "        reply = 'OK l\\n'\n"
        "    else:\n"
        "        answered += 1\n"
        "        reply = 'OK\\n' if answered == 1 else 'OUT ok\\n'\n"
        "        if answered == first_window:\n"
        "            reply += 'OUT ok\\n'\n"
        "        if answered == last:\n"
        "            continue\n"
        "    sys.stdout.write(reply)\n"
        "    sys.stdout.flush()\n"
    )
    cfg = BlackBoxConfig(command=f"{sys.executable} -c \"{script}\"",
                         unsafe_outputs=frozenset({"alarm"}),
                         timeout=5.0, max_retries=2)
    with RemoteSafetyQuery(cfg) as remote:
        with pytest.raises(TransportError, match="unrequested bytes"):
            remote.is_safe(("l",) * n)
        assert (remote.retries, remote.reconnects) == (0, 0)
        assert remote.writes == 2  # ALPHABET and the first window only


# RESET and eight one-letter STEPs are 62 bytes: 66 queries fill a window
_WINDOW_AT_8 = WRITE_AHEAD_BYTES // len(b"RESET\n" + b"STEP l\n" * 8)


@pytest.mark.parametrize("samples", [
    _WINDOW_AT_8 - 1,  # one window
    5 * _WINDOW_AT_8 + 7,  # several windows, the last one short
    1500,  # draws from four generator blocks of the sampler
])
def test_the_baseline_over_the_wire_counts_as_in_process(samples):
    local = MachineSafetyQuery(build_alks(True))
    want = monte_carlo(local, 8, samples, seed=21)
    cfg = BlackBoxConfig(
        command=SERVE_WTO.replace("alks_without", "alks_with"),
        unsafe_outputs=frozenset({"alarm"}))
    with RemoteSafetyQuery(cfg) as remote:
        assert monte_carlo(remote, 8, samples, seed=21) == want
        assert remote.query_count == local.query_count == samples
        assert remote.requests == 1 + 9 * samples
        # the ALPHABET handshake, then one write per window of queries
        assert remote.writes == 1 + -(-samples // _WINDOW_AT_8)
        assert (remote.retries, remote.reconnects) == (0, 0)


def test_a_bad_reply_mid_baseline_batch_is_transport_error():
    answered = []

    def bad_step_in_query_10(conn, session, replies):
        answered.append(None)
        if len(answered) == 10:
            replies[3] = b"WAT\n"
        conn.sendall(b"".join(replies))

    with _FakePeer(5, bad_step_in_query_10) as peer:
        with RemoteSafetyQuery(_peer_config(peer, max_retries=2)) as remote:
            with pytest.raises(TransportError, match="bad STEP reply: WAT"):
                monte_carlo(remote, 5, 20, seed=3)
            assert remote.query_count == 0
            assert (remote.retries, remote.reconnects) == (0, 0)


def test_a_connection_dropped_mid_baseline_batch_is_retried():
    # the first session hangs up halfway through a window of draws: the
    # baseline's 300 queries of 5 steps are four windows, and it drops
    # in the second; the learner's first 99 draws are one window, and it
    # drops in that one
    learner_cfg = LearnerConfig(horizon=5, sample_budget=300, rng_seed=4)
    for run, drop_at in (
            (lambda sul: monte_carlo(sul, 5, 300, seed=4), 150),
            (lambda sul: learn_safe_set(sul, learner_cfg)[0], 50)):
        answered = []

        def drop_mid_window(conn, session, replies):
            answered.append(None)
            if session == 0 and len(answered) == drop_at:
                conn.sendall(b"".join(replies[:2]))
                conn.shutdown(socket.SHUT_RDWR)
            else:
                conn.sendall(b"".join(replies))

        local = MachineSafetyQuery(build_alks(False))
        want = run(local)
        with _FakePeer(5, drop_mid_window) as peer:
            with RemoteSafetyQuery(_peer_config(peer, max_retries=2)) \
                    as remote:
                assert run(remote) == want
                assert (remote.retries, remote.reconnects) == (1, 1)
                assert remote.query_count == local.query_count


def test_the_learner_over_the_wire_windows_its_draws_and_learns_the_same():
    cfg = LearnerConfig(horizon=8, sample_budget=200, rng_seed=1)
    want, want_stats = learn_safe_set(MachineSafetyQuery(build_alks(False)),
                                      cfg)
    with RemoteSafetyQuery(BlackBoxConfig(
            command=SERVE_WTO, unsafe_outputs=frozenset({"alarm"}))) as remote:
        learned, stats = learn_safe_set(remote, cfg)
        stats.wall_time = want_stats.wall_time
        assert (learned, stats) == (want, want_stats)
        assert remote.requests == 1 + 9 * remote.query_count
        # the traffic, which no window size moves
        assert (remote.requests, remote.bytes_sent,
                remote.bytes_received) == (27_451, 189_109, 205_339)
        # each oracle query is one write, and draws share theirs
        assert remote.writes < 1 + remote.query_count


def _parsed_step_reply(line, unsafe):
    """What the client made of a STEP reply line before it kept a memo:
    the verdict of its output, or the TransportError text."""
    try:
        tokens = line.decode("utf-8").split()
    except UnicodeDecodeError:
        return f"reply is not UTF-8: {line[:40]!r}"
    if not tokens:
        return "empty reply"
    if tokens[0] != "OUT" or len(tokens) != 2:
        return f"bad STEP reply: {' '.join(tokens)}"
    return tokens[1] not in unsafe


_REPLY_LINE_PIECES = [piece.replace(b"\n", b"") for piece in _REPLY_PIECES]


@settings(max_examples=40)
@given(st.one_of(st.binary(max_size=20),
                 st.lists(st.sampled_from(_REPLY_LINE_PIECES), max_size=4)
                 .map(b"".join))
       .filter(lambda line: b"\n" not in line))
def test_a_remembered_reply_line_is_judged_as_the_parse_judges_it(line):
    # every STEP reply is the same line; the second query meets it in
    # the memo if the first one put it there
    def every_step_says_line(conn, session, replies):
        conn.sendall(replies[0] + (line + b"\n") * (len(replies) - 1))

    want = _parsed_step_reply(line, {"alarm"})
    with _FakePeer(2, every_step_says_line) as peer:
        with RemoteSafetyQuery(_peer_config(peer, max_retries=0)) as remote:
            for _ in range(2):
                try:
                    got = remote.is_safe(("l", "s"))
                except TransportError as exc:
                    got = str(exc)
                assert got == want
            assert (line in remote._safe_replies) == isinstance(want, bool)


def test_a_peer_inventing_outputs_keeps_the_memo_at_its_cap():
    # each STEP reply names an output never seen before; "alarm" stays
    # the only unsafe one, so every verdict is still the machine's
    invented = iter(range(10 ** 9))

    def new_output_every_step(conn, session, replies):
        conn.sendall(b"".join(
            reply.replace(b"OUT ok", b"OUT ok-%d" % next(invented))
            for reply in replies))

    local = MachineSafetyQuery(build_alks(False))
    rng = random.Random(9)
    with _FakePeer(5, new_output_every_step) as peer:
        with RemoteSafetyQuery(_peer_config(peer, max_retries=0)) as remote:
            for _ in range(80):
                seq = rng.choices(local.input_alphabet, k=5)
                assert remote.is_safe(seq) == local.is_safe(seq)
            assert monte_carlo(remote, 5, 300, seed=6) == \
                monte_carlo(local, 5, 300, seed=6)
            assert next(invented) > 2 * REPLY_MEMO_ENTRIES
            assert len(remote._safe_replies) == REPLY_MEMO_ENTRIES
