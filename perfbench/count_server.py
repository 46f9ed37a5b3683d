"""The stock stdio model server, with its streams counted.

Serves a model with `pacreach.wire.serve_stdio`, exactly as
`pacreach serve-model --stdio` does, but reads and writes through
counting streams. When the session ends (EOF, or the SIGTERM the
client's `close` sends) it writes one JSON record to
``<record-dir>/<pid>.json``: requests, ALPHABET, RESET and STEP
requests, and bytes in each direction.

    python3 perfbench/count_server.py --model alks_with --record-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from collections import Counter
from pathlib import Path

from pacreach.models import resolve_model
from pacreach.wire import serve_stdio


class CountingReader:
    """Line iterator over a binary stream that counts requests and bytes."""

    def __init__(self, raw):
        self.raw = raw
        self.bytes = 0
        self.commands: Counter[str] = Counter()

    def __iter__(self):
        for line in self.raw:
            self.bytes += len(line)
            text = line.decode("utf-8")
            words = text.split(maxsplit=1)
            self.commands[words[0] if words else ""] += 1
            yield text


class CountingWriter:
    """Text sink over a binary stream that counts the bytes it writes."""

    def __init__(self, raw):
        self.raw = raw
        self.bytes = 0

    def write(self, text: str):
        data = text.encode("utf-8")
        self.bytes += len(data)
        self.raw.write(data)

    def flush(self):
        self.raw.flush()


def _stop(_signum, _frame):
    raise SystemExit(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--record-dir", required=True, type=Path)
    args = parser.parse_args(argv)
    machine = resolve_model(args.model)
    reader = CountingReader(sys.stdin.buffer)
    writer = CountingWriter(sys.stdout.buffer)
    signal.signal(signal.SIGTERM, _stop)
    try:
        serve_stdio(machine, reader, writer)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        record = {"requests": sum(reader.commands.values()),
                  "alphabet": reader.commands["ALPHABET"],
                  "resets": reader.commands["RESET"],
                  "steps": reader.commands["STEP"],
                  "bytes_in": reader.bytes, "bytes_out": writer.bytes}
        path = args.record_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        tmp.replace(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
