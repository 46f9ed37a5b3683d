"""Line protocol for querying an external black-box system.

The conversation is newline-delimited UTF-8 over one stream socket: a
TCP connection, or a connected Unix socket whose other end a subprocess
gets as both its stdin and its stdout:

    -> ALPHABET            <- OK l r s
    -> RESET               <- OK
    -> STEP l              <- OUT ok
    -> STEP l              <- OUT alarm

The client pipelines one sequence's requests: it writes the RESET and
every STEP in one write, then reads the replies, so a server must answer
requests in order with one line each (the bundled server does). Each
reply is read against the request it answers: a query ends where the
next RESET begins, so one batch may mix run lengths. The write-ahead
is bounded: at most WRITE_AHEAD_BYTES of requests are unanswered at
any time, and a longer sequence goes out in windows, each sent once
the previous one is answered. That keeps the client from
blocking in a write while the server blocks writing replies nobody
reads. Oracle runs and random runs (``SafetyQuery.draws``) take one
path, an exchange: it sends as many whole random runs as fit, of those
the learner or the baseline will take for certain, and an oracle query,
whose verdict decides whether the next is asked, alone. The client
checks the replies each read brings as soon as it arrives, so a bad
reply fails without waiting for the rest of the window; the timeout
bounds each wait for the next reply line. It checks each distinct STEP
reply line once, remembering the verdict of up to REPLY_MEMO_ENTRIES
well-formed OUT lines by their bytes. The verdict is the FINAL output
token checked against the configured unsafe set. Anything else coming
back, a timeout or a closed connection anywhere in the batch is a
transport error, and the client drops the connection, so no stale
reply reaches the next query. The protocol has no verdict for the
empty sequence, so the client refuses to ask for one. A subprocess
that closes only its stdin still holds the connection; its exit closes
it. A lost connection (a timeout, a closed connection, a failed read or
write, a failed TCP connect) retries the exchange on a fresh connection
a bounded number of times before the client gives up. A peer that breaks
the protocol, or a command that cannot be started, fails at once: a
fresh connection would meet the same fault. The client never invents a
verdict: the learning guarantee assumes every answered query is
answered correctly.

The server half drives a MealyMachine over the same protocol so the
black-box path can be exercised against a known model. It turns every
request into bytes when it arrives, and answers all the complete
requests one read brings, in order, in one call and with one write. It
answers each well-formed request by one lookup in a per-state table,
built once per serve call from its own parser, and parses every other
line.
"""

from __future__ import annotations

import logging
import os
import shlex
import socket
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice

from .errors import TransportError, ValidationError, check_int, check_real
from .mealy import MealyMachine
from .sul import SafetyQuery, _symbols

__all__ = ["BlackBoxConfig", "RemoteSafetyQuery", "parse_host_port",
           "serve_stdio", "serve_tcp"]

log = logging.getLogger(__name__)

# Most request bytes the client has sent and not yet had answered. Kept
# well under the smallest socket buffer, so a write of one window
# always completes without the peer reading.
WRITE_AHEAD_BYTES = 4096

# Most bytes one read takes from the peer, on either end.
READ_BYTES = 65536

# Most distinct STEP reply lines the client remembers the verdict of. A
# peer may invent outputs without end; the lines past the cap are parsed
# each time they arrive.
REPLY_MEMO_ENTRIES = 256

_RESET = b"RESET\n"

# Longest timeout accepted, in seconds: 2**31 - 1 ms, about 24.8 days.
MAX_TIMEOUT = (2 ** 31 - 1) / 1000


def parse_host_port(address: str) -> tuple[str, int]:
    """Split a HOST:PORT string; the port is ASCII digits, up to 65535."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if host and port.isascii() and port.isdigit() and int(port) <= 65535:
            return host, int(port)
    raise ValidationError(
        f"address must be HOST:PORT (port 0-65535), got {address!r}")


@dataclass(frozen=True)
class BlackBoxConfig:
    """How to reach a black box and how to read its verdicts.

    Exactly one of ``command`` (a subprocess invocation string, split
    with shell quoting rules into ``argv``) and ``address`` (a HOST:PORT
    string, split into ``host_port``) must be set. ``timeout`` bounds,
    in seconds, each wait for the next reply line (and a TCP connect),
    not a whole query: a query of n steps may take up to n + 1 timeouts
    while its replies keep coming. It is a number in
    ``(0, MAX_TIMEOUT]``. ``unsafe_outputs`` is kept as a frozenset of
    reply tokens, each non-empty and free of whitespace; ``max_retries``
    is an int >= 0. Each field is checked when the config is built.
    """

    command: str | None = None
    address: str | None = None
    unsafe_outputs: frozenset[str] = field(default_factory=frozenset)
    timeout: float = 5.0
    max_retries: int = 2
    argv: tuple[str, ...] = field(init=False, default=())
    host_port: tuple[str, int] | None = field(init=False, default=None)

    def __post_init__(self):
        if (self.command is None) == (self.address is None):
            raise ValidationError(
                "exactly one of command / address must be given")
        if self.address is not None:
            object.__setattr__(self, "host_port",
                               parse_host_port(self.address))
        elif not isinstance(self.command, str):
            raise ValidationError(
                f"command must be a string, got {self.command!r}")
        else:
            try:
                argv = tuple(shlex.split(self.command))
            except ValueError as exc:
                raise ValidationError(
                    f"cannot parse command {self.command!r}: {exc}") from exc
            if not argv:
                raise ValidationError("command must name a program")
            object.__setattr__(self, "argv", argv)
        if isinstance(self.unsafe_outputs, str):
            raise ValidationError(
                "unsafe_outputs must be a collection of tokens, not a string")
        object.__setattr__(self, "unsafe_outputs",
                           frozenset(self.unsafe_outputs))
        if not self.unsafe_outputs:
            raise ValidationError(
                "unsafe_outputs must be non-empty: the verdict is computed "
                "from output tokens")
        # a reply token is never empty and never holds whitespace
        bad = [t for t in self.unsafe_outputs
               if not isinstance(t, str) or t.split() != [t]]
        if bad:
            raise ValidationError(
                f"unsafe output tokens must be non-empty and hold no "
                f"whitespace, got {', '.join(sorted(map(repr, bad)))}")
        if not 0 < check_real("timeout", self.timeout) <= MAX_TIMEOUT:
            raise ValidationError(
                f"timeout must be in (0, {MAX_TIMEOUT}] seconds, "
                f"got {self.timeout}")
        check_int("max_retries", self.max_retries, 0)


class _ConnectionLost(TransportError):
    """A connection fault that a fresh connection may mend."""


class _Channel:
    """One live connection: a stream socket, with line-oriented,
    deadline-bounded reads.

    For a command the socket's other end is the child ``proc``'s stdin
    and stdout; ``close`` ends the child before it closes the socket.
    ``counters`` (the owning RemoteSafetyQuery) is charged for every
    write and every byte in either direction.
    """

    def __init__(self, sock: socket.socket, proc, counters):
        self._sock = sock
        self._proc = proc
        self._counters = counters
        self._buf = b""
        # the socket's timeout as last set; a recv waits at most this long
        self._wait = sock.gettimeout()
        self._quickack = (None if sock.family == socket.AF_UNIX
                          else getattr(socket, "TCP_QUICKACK", None))  # Linux

    def send(self, data: bytes):
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise _ConnectionLost(f"write failed: {exc}") from exc
        self._counters.writes += 1
        self._counters.bytes_sent += len(data)

    def recv_lines(self, most: int, timeout: float) -> list[bytes]:
        """Wait at most ``timeout`` for a complete reply line, then return
        the complete lines received so far, oldest first, at most
        ``most`` of them; any further bytes stay unread."""
        if b"\n" not in self._buf:
            deadline = time.monotonic() + timeout
            wait = timeout
            while True:
                if wait != self._wait:
                    # Each settimeout is a system call, so the timeout is
                    # set only when the wait changes: a new timeout, or
                    # the rest of one after a partial line.
                    self._sock.settimeout(wait)
                    self._wait = wait
                try:
                    chunk = self._sock.recv(READ_BYTES)
                except TimeoutError:
                    # the recv waited ``wait`` from after it was measured,
                    # so the deadline has passed
                    raise _ConnectionLost(
                        f"no response within {timeout:g}s") from None
                except OSError as exc:
                    raise _ConnectionLost(f"read failed: {exc}") from exc
                if not chunk:
                    raise _ConnectionLost("connection closed by peer")
                if self._quickack is not None:
                    # Ack at once. A peer that holds back small writes
                    # until the last one is acked (Nagle) would otherwise
                    # stall each batch of replies for a delayed ack,
                    # about 40 ms.
                    self._sock.setsockopt(
                        socket.IPPROTO_TCP, self._quickack, 1)
                self._counters.bytes_received += len(chunk)
                self._buf += chunk
                if b"\n" in chunk:
                    break
                wait = deadline - time.monotonic()
                if wait <= 0:
                    raise _ConnectionLost(f"no response within {timeout:g}s")
        *lines, self._buf = self._buf.split(b"\n", most)
        return lines

    def has_unread(self) -> bool:
        return bool(self._buf)

    def close(self):
        try:
            if self._proc is not None:
                self._proc.terminate()
                self._proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        finally:
            self._sock.close()


def _connect(config: BlackBoxConfig, counters) -> _Channel:
    if config.command is not None:
        sock, child_end = socket.socketpair()
        try:
            proc = subprocess.Popen(
                config.argv, stdin=child_end, stdout=child_end,
                stderr=subprocess.DEVNULL)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot start {config.command}: {exc}") \
                from exc
        finally:
            child_end.close()
        return _Channel(sock, proc, counters)

    assert config.host_port is not None
    try:
        sock = socket.create_connection(config.host_port,
                                        timeout=config.timeout)
    except OSError as exc:
        raise _ConnectionLost(f"cannot connect to {config.address}: {exc}") \
            from exc
    return _Channel(sock, None, counters)


class RemoteSafetyQuery(SafetyQuery):
    """Safety queries against a live endpoint speaking the line protocol.

    Besides ``query_count`` it counts how the transport behaved:
    ``requests`` (request lines sent), ``writes``, ``retries`` (attempts
    repeated after a lost connection), ``reconnects`` (connections opened
    after the first), ``bytes_sent`` and ``bytes_received``.
    """

    def __init__(self, config: BlackBoxConfig):
        self.config = config
        self.requests = 0
        self.writes = 0
        self.retries = 0
        self.reconnects = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._connected_before = False
        self._channel: _Channel | None = None
        # reply line -> whether it is a safe OUT line; see _check_step
        self._safe_replies: dict[bytes, bool] = {}
        super().__init__(self._with_retries(self._request_alphabet))
        # each STEP line is encoded once, not once per query
        self._steps = {sym: f"STEP {sym}\n".encode("utf-8")
                       for sym in self.input_alphabet}

    # -- plumbing ------------------------------------------------------------

    def _exchange(self, requests: list[bytes]) -> list[bool]:
        """Send ``requests``, one or more queries of a RESET and at least
        one STEP each, and return each query's verdict, in order.

        Each reply is read against the request it answers: a RESET reply
        must be OK and opens a query, whose STEP replies set its verdict.
        So a query ends where the next RESET begins, and one batch may
        mix run lengths. Requests go out in windows of at most
        WRITE_AHEAD_BYTES (and at least one request), one write each,
        across query boundaries; a window is sent once every reply to
        the one before has been read. The replies each read brings are
        checked as soon as it arrives, so a bad reply fails without
        waiting for the rest of the window. After each window, the peer
        must have sent nothing beyond its last reply.
        """
        channel = self._channel
        assert channel is not None
        timeout = self.config.timeout
        safe_replies = self._safe_replies
        verdicts: list = []
        ends = list(accumulate(map(len, requests)))
        answered = iter(requests)  # the request each next reply answers
        start, sent = 0, 0
        while start < len(requests):
            stop = max(bisect_right(ends, sent + WRITE_AHEAD_BYTES, start),
                       start + 1)
            channel.send(b"".join(requests[start:stop]))
            self.requests += stop - start
            sent = ends[stop - 1]
            while start < stop:
                replies = channel.recv_lines(stop - start, timeout)
                start += len(replies)
                # zip stops at the last reply, taking no request beyond it
                for reply, request in zip(replies, answered):
                    if request != _RESET:
                        safe = safe_replies.get(reply)
                        verdicts[-1] = (self._check_step(reply) if safe is None
                                        else safe)
                    elif reply == b"OK" or _reply_tokens(reply) == ["OK"]:
                        verdicts.append(None)  # its STEP replies set it
                    else:
                        raise TransportError("bad RESET reply: "
                                             + " ".join(_reply_tokens(reply)))
            if channel.has_unread():
                raise TransportError("unrequested bytes after the last reply")
        return verdicts

    def _check_step(self, reply: bytes) -> bool:
        """Whether a STEP reply is a safe ``OUT`` line, remembered in
        ``_safe_replies`` while it has room."""
        tokens = _reply_tokens(reply)
        if tokens[0] != "OUT" or len(tokens) != 2:
            raise TransportError(f"bad STEP reply: {' '.join(tokens)}")
        safe = tokens[1] not in self.config.unsafe_outputs
        if len(self._safe_replies) < REPLY_MEMO_ENTRIES:
            self._safe_replies[reply] = safe
        return safe

    def close(self):
        """Drop the connection; the next query opens a fresh one."""
        if self._channel is not None:
            try:
                self._channel.close()
            finally:
                self._channel = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _with_retries(self, attempt):
        """Run ``attempt`` on a live channel, reconnecting on a lost
        connection.

        A failed attempt drops the channel, with whatever replies are
        still in flight on it. Only a lost connection is tried again,
        afresh; any other transport error is raised at once.
        """
        attempts = self.config.max_retries + 1
        for tries in range(attempts):
            if tries:
                self.retries += 1
            try:
                if self._channel is None:
                    self._channel = _connect(self.config, self)
                    if self._connected_before:
                        self.reconnects += 1
                    self._connected_before = True
                return attempt()
            except TransportError as exc:
                self.close()
                if not isinstance(exc, _ConnectionLost):
                    raise
                failure = str(exc)
        raise TransportError(f"giving up after {attempts} attempts: {failure}")

    # -- protocol ------------------------------------------------------------

    def _request_alphabet(self) -> tuple[str, ...]:
        channel = self._channel
        assert channel is not None
        channel.send(b"ALPHABET\n")
        self.requests += 1
        (reply,) = channel.recv_lines(1, self.config.timeout)
        tokens = _reply_tokens(reply)
        if channel.has_unread():
            raise TransportError("unrequested bytes after the last reply")
        symbols = tokens[1:]
        # a repeated symbol would count one input sequence several times
        if (tokens[0] != "OK" or not symbols
                or len(set(symbols)) < len(symbols)):
            raise TransportError(f"bad ALPHABET reply: {' '.join(tokens)}")
        return tuple(symbols)

    def _verdicts(self, seqs: list[tuple[str, ...]]) -> list[bool]:
        """One exchange's verdicts for ``seqs``, runs of any lengths >= 1;
        an empty run is refused before anything is sent."""
        requests: list[bytes] = []
        for seq in seqs:
            if not seq:
                raise ValidationError(
                    "the wire protocol has no verdict for an empty run")
            requests.append(_RESET)
            requests += map(self._steps.__getitem__, seq)
        return self._with_retries(lambda: self._exchange(requests))

    def _answer(self, seq: tuple[str, ...]) -> bool:
        return self._verdicts([seq])[0]

    def _draws(self, n, alphabet, blocks, stream):
        # a window of runs per exchange: as many as the consumer will
        # take for certain and fit in one write window, at least one
        per_window = max(1, WRITE_AHEAD_BYTES // (
            len(_RESET) + n * max(map(len, self._steps.values()))))
        runs = (_symbols(alphabet, block[i:i + n]) for block in blocks
                for i in range(0, len(block), n))
        while True:
            window = list(islice(runs, max(1, min(stream.will_take,
                                                  per_window))))
            for seq, safe in zip(window, self._verdicts(window)):
                self.query_count += 1
                stream.will_take -= 1
                yield safe, seq


def _reply_tokens(reply: bytes) -> list[str]:
    """The tokens of a reply line, which must be non-empty UTF-8."""
    try:
        tokens = reply.decode("utf-8").split()
    except UnicodeDecodeError as exc:
        raise TransportError(f"reply is not UTF-8: {reply[:40]!r}") from exc
    if not tokens:
        raise TransportError("empty reply")
    return tokens


# -- server ------------------------------------------------------------------


def _parse(machine: MealyMachine, state: str, line: bytes) -> tuple[str, str]:
    """Answer one request line in ``state``: (next state, reply)."""
    try:
        tokens = line.decode("utf-8").split()
    except UnicodeDecodeError:
        return state, "ERR request is not UTF-8"
    if not tokens:
        return state, "ERR empty request"
    cmd, args = tokens[0], tokens[1:]
    if cmd == "ALPHABET" and not args:
        return state, "OK " + " ".join(machine.inputs)
    if cmd == "RESET" and not args:
        return machine.initial, "OK"
    if cmd == "STEP" and len(args) == 1:
        sym = args[0]
        if sym not in machine.inputs:
            return state, f"ERR unknown input {sym}"
        state, out = machine.step(state, sym)
        return state, f"OUT {out}"
    return state, f"ERR unknown command {cmd}"


def _answer_table(machine: MealyMachine) -> dict:
    """Map each state to {request: `_parse` of it in that state}, for the
    requests ``ALPHABET``, ``RESET`` and ``STEP <sym>`` as UTF-8 bytes."""
    requests = [request.encode("utf-8") for request in (
        "ALPHABET", "RESET", *(f"STEP {sym}" for sym in machine.inputs))]
    return {state: {request: _parse(machine, state, request)
                    for request in requests}
            for state in machine.states}


class _ModelSession:
    """Protocol state for one client talking to one machine.

    Requests are bytes. A well-formed one (``ALPHABET``, ``RESET`` or
    ``STEP <sym>`` in UTF-8, spelled exactly so) is answered by one
    lookup in ``table`` (by default `_answer_table` of ``machine``);
    every other line is parsed. The table's entries are parses of its
    keys, so a lookup never disagrees with a parse. The sessions of one
    serve call share one table, and each keeps only its current state.
    """

    def __init__(self, machine: MealyMachine, table=None):
        self.machine = machine
        self.state = machine.initial
        self._table = _answer_table(machine) if table is None else table

    def answer(self, batch) -> str:
        """The replies to a batch of request lines, in order, each
        followed by a newline."""
        machine, table, state = self.machine, self._table, self.state
        replies = []
        for line in batch:
            hit = table[state].get(line)
            state, reply = (hit if hit is not None
                            else _parse(machine, state, line))
            replies.append(reply)
        self.state = state
        replies.append("")
        return "\n".join(replies)


def _read_batches(read1):
    """Yield, per call of ``read1``, the complete request lines it brings.

    ``read1(size)`` returns what is available, at most ``size`` bytes,
    and ``b""`` at EOF; a last line without a newline comes at EOF.
    """
    partial: list[bytes] = []
    while chunk := read1(READ_BYTES):
        if b"\n" not in chunk:
            partial.append(chunk)
            continue
        lines = chunk.split(b"\n")
        if partial:
            lines[0] = b"".join(partial) + lines[0]
        last = lines.pop()
        partial = [last] if last else []
        yield lines
    if partial:
        yield [b"".join(partial)]


def _request(line: str | bytes) -> bytes:
    """One item of a request line iterator as one request: text in
    UTF-8, an escaped undecodable byte back as that byte, less one
    trailing newline."""
    if isinstance(line, str):
        line = line.encode("utf-8", "surrogateescape")
    return line[:-1] if line.endswith(b"\n") else line


def serve_stdio(machine: MealyMachine, stdin=None, stdout=None):
    """Answer protocol requests on stdio until EOF. Blocks.

    ``stdin`` is a binary stream or yields request lines as text or
    bytes; ``stdout`` takes text. Every request becomes bytes when it
    arrives. A stream with ``read1`` is read as it arrives: the replies
    to all the complete requests one read brings go out in one write
    and one flush. Other input is answered line by line, each item one
    request (`_request`). By default the server reads the raw bytes of
    ``sys.stdin``, so a request that is not UTF-8 gets an ``ERR`` reply
    instead of stopping it, and writes UTF-8 to ``sys.stdout`` whatever
    the locale. A reader that goes away, closing the pipe or resetting
    the connection, ends the session as EOF does.
    """
    own_stdout = stdout is None
    stdin = stdin if stdin is not None else sys.stdin.buffer
    if own_stdout:
        stdout = sys.stdout
        stdout.reconfigure(encoding="utf-8")
    read1 = getattr(stdin, "read1", None)
    batches = (_read_batches(read1) if read1 is not None
               else ([_request(line)] for line in stdin))
    session = _ModelSession(machine)
    try:
        for batch in batches:
            stdout.write(session.answer(batch))
            stdout.flush()
    except (BrokenPipeError, ConnectionResetError):
        if own_stdout:
            # the replies still buffered can never be read: point the
            # descriptor at the null device, or the flush at exit fails
            # again and prints a traceback
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)


def serve_tcp(machine: MealyMachine, host: str = "127.0.0.1", port: int = 0,
              ready=None, max_sessions: int | None = None):
    """Serve the model on a TCP socket, one client at a time. Blocks.

    ``port`` is an int in 0..65535. ``ready`` (if given) is called with
    the bound (host, port) once the socket is listening; with ``port=0``
    that is the only way to learn the ephemeral port. ``max_sessions``
    bounds how many client connections are served before returning:
    None serves forever, else it is an int >= 1. The replies to all the
    complete requests one read brings go out in one write. A connection
    error ends only the session it happens in.
    ``host`` is a name or an IPv4 or IPv6 literal, and its first
    address sets the socket's family; "" means every address of the
    resolver's first family, IPv4 with glibc. A host that does not
    resolve, or a socket that cannot bind or listen, raises
    TransportError.
    """
    check_int("port", port, 0, 65535)
    if max_sessions is not None:
        check_int("max_sessions", max_sessions, 1)
    table = _answer_table(machine)
    try:
        family = socket.getaddrinfo(host or None, port,
                                    type=socket.SOCK_STREAM,
                                    flags=socket.AI_PASSIVE)[0][0]
    except OSError as exc:
        raise TransportError(
            f"cannot listen on {host}:{port}: {exc}") from exc
    with socket.socket(family, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((host, port))
            server.listen(1)
        except OSError as exc:
            raise TransportError(
                f"cannot listen on {host}:{port}: {exc}") from exc
        bound = server.getsockname()
        if ready is not None:
            ready(bound[0], bound[1])
        served = 0
        while max_sessions is None or served < max_sessions:
            conn, addr = server.accept()
            # send each batch of replies at once (no Nagle), or a
            # pipelining client waits for a delayed ack per window
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            served += 1
            try:
                with conn:
                    session = _ModelSession(machine, table)
                    for batch in _read_batches(conn.recv):
                        conn.sendall(session.answer(batch).encode("utf-8"))
            except OSError as exc:
                log.warning("session with %s ended: %s", addr, exc)
