"""Atomic publication of every telemetry file (reports, traces, Perfetto).

A write that fails part-way — an unencodable character, a full disk —
leaves an earlier file at the target byte-for-byte intact and no temp
file behind.
"""

from __future__ import annotations

import contextlib
import os
import tempfile


def write_atomic(path, text: str, prefix: str = ".tmp-") -> None:
    """Write ``text`` as UTF-8 to a temp file beside ``path``, then
    ``os.replace`` it over ``path``."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
