"""Atomic file writes: a complete new file replaces the old one, or nothing does."""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path
from typing import Iterator, TextIO


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A text handle whose contents replace ``path`` once the block completes.

    The text goes to a hidden temporary file next to ``path``, which
    ``os.replace`` renames over it, so a reader sees the old file or the
    new one and never part of one. If the block raises, the temporary file
    is removed and ``path`` is left as it was. The file is not synced, so
    this guards against a failed or killed writer, not against power loss.
    The handle does no newline translation (``newline=""``), as the csv
    module expects, so the bytes written are the text given.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
