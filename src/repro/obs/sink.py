"""One JSON-lines writer for the tracer, the timeline and the decision log.

Every line is canonical (sorted keys, compact separators); the sink keeps
a running SHA-256 and a line count over what it wrote.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import IO, Any

__all__ = ["DEFAULT_RING_SIZE", "JsonlSink"]

#: In-memory ring bound shared by the decision log and a streamed timeline.
DEFAULT_RING_SIZE = 4096


class JsonlSink:
    """Append-only JSON-lines writer with a running fingerprint.

    ``target`` is a file path (parent directories are created, the file is
    truncated and later closed by :meth:`close`), a caller-owned text stream
    (flushed but left open), or ``None`` to hash and count only.  Writes
    after :meth:`close` are dropped.
    """

    def __init__(self, target: str | Path | IO[str] | None) -> None:
        self._owns = isinstance(target, (str, Path))
        if self._owns:
            Path(target).parent.mkdir(parents=True, exist_ok=True)
            target = open(target, "w", encoding="utf-8")
        self._fh: IO[str] | None = target
        self._hash = hashlib.sha256()
        self.lines = 0
        self.closed = False

    def write(self, record: dict[str, Any]) -> None:
        if self.closed:
            return
        line = json.dumps(
            record, sort_keys=True, separators=(",", ":"), default=str
        ) + "\n"
        self._hash.update(line.encode("utf-8"))
        self.lines += 1
        if self._fh is not None:
            self._fh.write(line)

    def hexdigest(self) -> str:
        """SHA-256 over every line written so far, in order."""
        return self._hash.hexdigest()

    def flush(self) -> None:
        if self._fh is not None and not self.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self.closed:
            self.flush()
            self.closed = True
            if self._owns:
                self._fh.close()
