"""Atomic file writes: a reader sees the old text or the new, never a torn mix."""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["write_text_atomic"]


def write_text_atomic(path: str | Path, text: str) -> None:
    """Writes and syncs a temporary file beside path, then os.replace()s path with it.

    The temporary name carries the process and thread ids, so concurrent
    writers of one target never share it; on failure it is removed.
    """
    target = Path(path)
    temp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
