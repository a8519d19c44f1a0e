"""Writes that replace their target whole or not at all."""
from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a new file beside ``path`` for writing (UTF-8 text unless
    ``binary``). When the block ends normally the file replaces ``path`` in
    one ``os.replace``; when it raises, the file is removed and ``path`` is
    left as it was.

    This guards against a writer that fails or is interrupted, not against
    a power loss: nothing is forced to disk."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
