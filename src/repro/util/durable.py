"""Durable files and content addresses: one writer, one hash.

Section 6 of the paper has an HSM write a file's tape copy before it
marks the disk copy deleteable, so the durable copy always comes before
the cheap state change.  Every whole file this package publishes (all
but store shards, journal frames, streamed traces and fault counters)
follows the same rule through :func:`write_atomic`: the bytes go to a
uniquely named temp file in the target's directory and are fsynced,
``os.replace`` swaps the temp over the target, and the directory is
fsynced.  A reader sees the old file or the new one, never a mix; two
writers never share a temp; and once the call returns, the new file
survives a host crash.

Temp files are named ``.<name>.<12 hex digits>.tmp``, so no reader's
pattern (``run_record.json``, ``manifest.json``, ``snapshot-*.pkl``,
``shard-*.npy``) ever matches one.

:func:`content_hash` names a JSON payload by the sha256 of its
canonical form (sorted keys, no whitespace).  Store and scenario cache
slots use its 32 hex digits; run records and sweep run dirs keep the
first 16, which are a prefix of the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Union


def fsync_dir(path: Union[str, Path]) -> None:
    """Make the entries of directory ``path`` (creates, renames) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Publish ``data`` as the whole of ``path``, durably."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # Mode 0o666 lets the umask decide, as a plain open() would.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    fsync_dir(path.parent)


def _item(obj: Any) -> Any:
    """Numpy scalars (replay counters) serialize as their Python value."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_json(path: Union[str, Path], payload: Any) -> None:
    """Publish ``payload`` as indented, key-sorted JSON and a newline."""
    text = json.dumps(payload, indent=1, sort_keys=True, default=_item)
    write_atomic(path, (text + "\n").encode("utf-8"))


def content_hash(payload: Any) -> str:
    """Content address of a JSON payload: sha256 of its canonical form."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]
