"""Line protocol for querying an external black-box system.

The conversation is newline-delimited UTF-8, over either a subprocess's
stdio or a TCP socket:

    -> ALPHABET            <- OK l r s
    -> RESET               <- OK
    -> STEP l              <- OUT ok
    -> STEP l              <- OUT alarm

The client resets once per sequence, steps each symbol, and classifies
the FINAL output token against the configured unsafe set. Anything else
coming back, or a timeout, or a closed pipe, is a transport error; the
client retries the whole sequence on a fresh connection a bounded
number of times and then gives up loudly. It never invents a verdict:
the learning guarantee assumes every answered query is answered
correctly.

The server half drives a MealyMachine over the same protocol so the
black-box path can be exercised against a known model.
"""

from __future__ import annotations

import logging
import os
import selectors
import shlex
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

from .errors import TransportError, ValidationError
from .mealy import MealyMachine
from .sul import SafetyQuery

__all__ = ["BlackBoxConfig", "RemoteSafetyQuery", "serve_stdio", "serve_tcp"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BlackBoxConfig:
    """How to reach a black box and how to read its verdicts.

    Exactly one of ``command`` (a subprocess invocation) and ``address``
    (a host:port string) must be set.
    """

    command: str | None = None
    address: str | None = None
    unsafe_outputs: frozenset[str] = field(default_factory=frozenset)
    timeout: float = 5.0
    max_retries: int = 2

    def __post_init__(self):
        if (self.command is None) == (self.address is None):
            raise ValidationError(
                "exactly one of command / address must be given")
        if not self.unsafe_outputs:
            raise ValidationError(
                "unsafe_outputs must be non-empty: the verdict is computed "
                "from output tokens")
        if self.timeout <= 0:
            raise ValidationError("timeout must be positive")
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")

    def host_port(self) -> tuple[str, int]:
        assert self.address is not None
        host, _, port = self.address.rpartition(":")
        if not host or not port.isdigit():
            raise ValidationError(f"address must be host:port, got "
                                  f"{self.address!r}")
        return host, int(port)


class _Channel:
    """One live connection with line-oriented, deadline-bounded reads."""

    def __init__(self, fileno: int, recv, send, close):
        self._fileno = fileno
        self._recv = recv
        self._send = send
        self._close = close
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(fileno, selectors.EVENT_READ)

    def send_line(self, line: str):
        try:
            self._send((line + "\n").encode("utf-8"))
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise TransportError(f"write failed: {exc}") from exc

    def recv_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(f"no response within {timeout:g}s")
            if not self._sel.select(remaining):
                continue
            try:
                chunk = self._recv(65536)
            except (ConnectionError, OSError) as exc:
                raise TransportError(f"read failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed by peer")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        try:
            return line.decode("utf-8").rstrip("\r")
        except UnicodeDecodeError as exc:
            raise TransportError(f"reply is not UTF-8: {line[:40]!r}") \
                from exc

    def close(self):
        self._sel.close()
        self._close()


def _connect(config: BlackBoxConfig) -> _Channel:
    if config.command is not None:
        proc = subprocess.Popen(
            shlex.split(config.command),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        assert proc.stdin is not None and proc.stdout is not None
        stdin, stdout = proc.stdin, proc.stdout

        def send(data: bytes):
            stdin.write(data)
            stdin.flush()

        def close():
            try:
                proc.terminate()
                proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            finally:
                stdout.close()
                try:
                    stdin.close()
                except OSError:
                    pass  # a failed write left bytes for a child now gone

        return _Channel(stdout.fileno(),
                        lambda n: os.read(stdout.fileno(), n), send, close)

    host, port = config.host_port()
    try:
        sock = socket.create_connection((host, port), timeout=config.timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {config.address}: {exc}") \
            from exc
    sock.setblocking(True)
    return _Channel(sock.fileno(), sock.recv, sock.sendall, sock.close)


class RemoteSafetyQuery(SafetyQuery):
    """Safety queries against a live endpoint speaking the line protocol."""

    def __init__(self, config: BlackBoxConfig):
        super().__init__()
        self.config = config
        self._channel: _Channel | None = None
        self._alphabet: tuple[str, ...] | None = None
        self._ensure_alphabet()

    # -- plumbing ------------------------------------------------------------

    def _exchange(self, request: str) -> list[str]:
        assert self._channel is not None
        self._channel.send_line(request)
        reply = self._channel.recv_line(self.config.timeout)
        tokens = reply.split()
        if not tokens:
            raise TransportError("empty reply")
        return tokens

    def _open(self):
        if self._channel is None:
            self._channel = _connect(self.config)

    def _drop(self):
        if self._channel is not None:
            try:
                self._channel.close()
            finally:
                self._channel = None

    def close(self):
        self._drop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _with_retries(self, attempt):
        """Run ``attempt`` on a live channel, reconnecting on failure."""
        failures = []
        for _ in range(self.config.max_retries + 1):
            try:
                self._open()
                return attempt()
            except TransportError as exc:
                failures.append(str(exc))
                self._drop()
        raise TransportError(
            f"giving up after {len(failures)} attempts: {failures[-1]}")

    # -- protocol ------------------------------------------------------------

    def _ensure_alphabet(self):
        if self._alphabet is not None:
            return

        def attempt():
            tokens = self._exchange("ALPHABET")
            if tokens[0] != "OK" or len(tokens) < 2:
                raise TransportError(f"bad ALPHABET reply: {' '.join(tokens)}")
            return tuple(tokens[1:])

        self._alphabet = self._with_retries(attempt)

    @property
    def input_alphabet(self) -> tuple[str, ...]:
        assert self._alphabet is not None
        return self._alphabet

    def _answer(self, seq: tuple[str, ...]) -> bool:
        def attempt():
            tokens = self._exchange("RESET")
            if tokens != ["OK"]:
                raise TransportError(f"bad RESET reply: {' '.join(tokens)}")
            last_output = None
            for sym in seq:
                tokens = self._exchange(f"STEP {sym}")
                if tokens[0] != "OUT" or len(tokens) != 2:
                    raise TransportError(f"bad STEP reply: {' '.join(tokens)}")
                last_output = tokens[1]
            return last_output not in self.config.unsafe_outputs

        return self._with_retries(attempt)


# -- server ------------------------------------------------------------------


class _ModelSession:
    """Protocol state for one client talking to one machine."""

    def __init__(self, machine: MealyMachine):
        self.machine = machine
        self.state = machine.initial

    def respond(self, line: str | bytes) -> str:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                return "ERR request is not UTF-8"
        tokens = line.split()
        if not tokens:
            return "ERR empty request"
        cmd, args = tokens[0], tokens[1:]
        if cmd == "ALPHABET" and not args:
            return "OK " + " ".join(self.machine.inputs)
        if cmd == "RESET" and not args:
            self.state = self.machine.initial
            return "OK"
        if cmd == "STEP" and len(args) == 1:
            sym = args[0]
            if sym not in self.machine.inputs:
                return f"ERR unknown input {sym}"
            self.state, out = self.machine.step(self.state, sym)
            return f"OUT {out}"
        return f"ERR unknown command {cmd}"


def serve_stdio(machine: MealyMachine, stdin=None, stdout=None):
    """Answer protocol requests on stdio until EOF. Blocks.

    ``stdin`` yields request lines as text or bytes; ``stdout`` takes
    text. By default the server reads the raw bytes of ``sys.stdin``,
    so a request that is not UTF-8 gets an ``ERR`` reply instead of
    stopping it, and writes UTF-8 to ``sys.stdout`` whatever the
    locale.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    if stdout is None:
        stdout = sys.stdout
        stdout.reconfigure(encoding="utf-8")
    session = _ModelSession(machine)
    for raw in stdin:
        stdout.write(session.respond(raw) + "\n")
        stdout.flush()


def serve_tcp(machine: MealyMachine, host: str = "127.0.0.1", port: int = 0,
              ready=None, max_sessions: int | None = None):
    """Serve the model on a TCP socket, one client at a time. Blocks.

    ``ready`` (if given) is called with the bound (host, port) once the
    socket is listening; with ``port=0`` that is the only way to learn
    the ephemeral port. ``max_sessions`` bounds how many client
    connections are served before returning (None = serve forever).
    A connection error ends only the session it happens in.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    bound = server.getsockname()
    if ready is not None:
        ready(bound[0], bound[1])
    served = 0
    try:
        while max_sessions is None or served < max_sessions:
            conn, addr = server.accept()
            served += 1
            session = _ModelSession(machine)
            try:
                with conn, conn.makefile("rwb") as stream:
                    for raw in stream:
                        stream.write((session.respond(raw) + "\n")
                                     .encode("utf-8"))
                        stream.flush()
            except OSError as exc:
                log.warning("session with %s ended: %s", addr, exc)
    finally:
        server.close()
