"""Run artifacts, written atomically: a complete new file replaces the old one, or nothing does.

Every table a run leaves goes through :func:`write_csv` (or :func:`write_rows`,
to an open handle such as stdout) and every JSON document through
:func:`write_json`, so each format is decided here once:

* CSV uses the csv module's default dialect: a field holding a comma, a
  quote or a line break is quoted, and lines end in CRLF. A cell is empty
  for None (a value that was not measured), the shortest round-trip
  ``repr`` for a float, and ``str`` for anything else. Rows are written as
  they are drawn, so a generator streams a table of millions of rows.
* JSON is indented by one space, key-sorted and ends in a newline.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import uuid
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO


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


def _cell(value: Any) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_rows(fh: TextIO, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write ``header`` and then each row to ``fh`` as CSV, every cell by the one cell rule."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(map(_cell, row) for row in rows)


def write_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """:func:`write_rows` into a file that replaces ``path`` atomically."""
    with atomic_write(path) as fh:
        write_rows(fh, header, rows)


def write_json(path: str | Path, document: Any) -> None:
    """``document`` as indented, key-sorted JSON with a final newline, replacing ``path`` atomically."""
    with atomic_write(path) as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
