"""File I/O: bounded reads of every input, and every write of an output.

read_bytes reads a path, or stdin for "-", taking at most its limit plus one
byte, so an oversized input fails without being read in full.  Any failure
raises the caller's SolveChartError class as "cannot read <what> <path>:
<reason>".  read_text (strict UTF-8) and read_json build on it.  A failed
write raises SolveChartError as "cannot write <path>: <reason>".  A path
holding a NUL byte fails either way before any system call.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import sys
import threading
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from .errors import SolveChartError

__all__ = ["MAX_FILE_BYTES", "check_output_path", "json_text", "make_dir", "overwrite_tail", "read_bytes", "read_json",
           "read_text", "write_text_atomic"]

# The limit for every JSON and JSONL input: 16x the largest benchmark input
# (a 1.0 MB cassette).  Datasets are held in memory whole, so one limit on
# the whole file is what bounds their memory.
MAX_FILE_BYTES = 16 * 1024 * 1024


def _read_at_most(handle: BinaryIO, size: int, expected: int) -> bytes:
    """Up to size bytes of handle: first expected + 1 (a file's size, 0 for a stream), then the rest.

    read(n) allocates n bytes before it reads, so one read of the whole limit
    would cost every small file a 16 MiB allocation.
    """
    first = min(size, expected + 1)
    data = handle.read(first)
    if first < size and len(data) == first:
        data += handle.read(size - first)
    return data


def _refuse_nul(path: str | Path) -> None:
    """OSError for a path the OS cannot take, which open() would raise as a ValueError."""
    if "\0" in str(path):
        raise OSError(errno.EINVAL, "path holds a NUL byte")


def read_bytes(path: str | Path, what: str, error: type[SolveChartError], limit: int = MAX_FILE_BYTES) -> bytes:
    """path's bytes, or stdin's for "-"; unreadable or over limit bytes raises `error`."""
    try:
        _refuse_nul(path)
        if str(path) != "-":
            with open(path, "rb") as handle:
                data = _read_at_most(handle, limit + 1, os.fstat(handle.fileno()).st_size)
        elif sys.stdin is None:  # the process started with stdin closed
            raise OSError(errno.EBADF, "stdin is closed")
        else:
            data = _read_at_most(sys.stdin.buffer, limit + 1, 0)
    except OSError as err:
        raise error(f"cannot read {what} {path}: {err.strerror or err}") from err
    if len(data) > limit:
        raise error(f"cannot read {what} {path}: more than {limit} bytes")
    return data


def read_text(path: str | Path, what: str, error: type[SolveChartError], limit: int = MAX_FILE_BYTES) -> str:
    """read_bytes decoded as strict UTF-8, "\\r\\n" and "\\r" read as "\\n" (as text mode reads them)."""
    data = read_bytes(path, what, error, limit)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise error(f"cannot read {what} {path}: {err}") from err
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_json(path: str | Path, what: str, error: type[SolveChartError]) -> Any:
    """Decodes one UTF-8 JSON file; an unreadable, oversized or invalid file raises `error`."""
    text = read_text(path, what, error)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # bad JSON, an over-long integer, or too-deep nesting
        raise error(f"invalid JSON in {path}: {err}") from err


def json_text(document: Any) -> str:
    """document as 2-space indented JSON with sorted keys and a closing newline; a dataclass renders as its fields."""
    return json.dumps(document, default=lambda record: {f.name: getattr(record, f.name) for f in fields(record)},
                      indent=2, sort_keys=True) + "\n"


@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """Raises an OSError from the block as SolveChartError "cannot write <path>: <reason>"."""
    try:
        _refuse_nul(path)
        yield
    except OSError as err:
        raise SolveChartError(f"cannot write {path}: {err.strerror or err}") from err


def write_text_atomic(path: str | Path, text: str) -> None:
    """Writes and syncs a temporary file beside path, then os.replace()s path with it.

    The temporary name carries the process and thread ids, so concurrent
    writers of one target never share it; on failure it is removed.
    """
    target = Path(path)
    temp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with _writing(path):
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, target)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise


def overwrite_tail(path: str | Path, size: int, data: bytes) -> None:
    """Writes data over the last `size` bytes of path, in place (not atomic).

    One unbuffered open, seek and write (repeated only after a short write),
    so a record cassette's append costs no buffered file object.
    """
    with _writing(path):
        fd = os.open(path, os.O_WRONLY)
        try:
            os.lseek(fd, -size, os.SEEK_END)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


def check_output_path(path: str | Path) -> None:
    """Raises "cannot write <path>: <reason>" when path cannot name a file: a directory, or in a missing one.

    Creates nothing.  A command checks its output files with it before any
    work, so an output it could never write does not cost the whole run first.
    """
    with _writing(path):
        target = Path(path)
        if target.is_dir():  # "" too, which Path reads as "."
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(target.parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))


def make_dir(path: str | Path) -> None:
    """Creates directory path and its missing parents; an existing directory is fine."""
    with _writing(path):
        Path(path).mkdir(parents=True, exist_ok=True)
