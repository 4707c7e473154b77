"""Deterministic serialization helpers shared by the export paths.

Both writers stream: they take rows or JSON pieces from an iterator in
fixed-size chunks, so memory stays bounded by the chunk, not the file.
The CSV writer formats each chunk of rows with one ``%`` on a row
template built once, so numbers go through ``%.17g``, the format of
``fmt17``, without a Python call per value.  Each writer writes a
sibling temporary file and renames it over the destination only when
the whole document is written; a source that raises leaves the
destination as it was and no temporary file behind.
"""
from __future__ import annotations

import json
import os
from itertools import chain, islice
from pathlib import Path

#: CSV rows and JSON encoder pieces per ``write`` call
_CSV_CHUNK = 1024
_JSON_CHUNK = 4096


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _chunks(items, size: int):
    """Successive lists of ``size`` items of ``items``, the last one shorter."""
    items = iter(items)
    while chunk := list(islice(items, size)):
        yield chunk


def _write_texts(path: str | Path, texts) -> None:
    """Write the strings of ``texts`` one after another, all or nothing."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.writelines(texts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: list[str], spec: str, rows,
              provenance: list[str] = ()) -> None:
    """Write rows of values as CSV lines ``spec % row`` with Unix newlines.

    ``spec`` is the row format, for example ``"%s,%s,%.17g,%.17g,%d"``:
    ``%.17g`` gives a float the bytes of ``fmt17``, and ``%s`` takes a
    string verbatim.  Each row holds one value per field of ``spec``.
    ``provenance`` lines are echoed as leading ``#`` comments so a file
    is self-describing.  ``rows`` may be any iterable; it is consumed
    once, chunk by chunk.
    """
    line = spec + "\n"
    full = line * _CSV_CHUNK

    def texts():
        yield "".join(f"# {p}\n" for p in provenance) + ",".join(header) + "\n"
        for chunk in _chunks(rows, _CSV_CHUNK):
            template = full if len(chunk) == _CSV_CHUNK else line * len(chunk)
            yield template % tuple(chain.from_iterable(chunk))

    _write_texts(path, texts())


def write_json(path: str | Path, obj) -> None:
    """Write a JSON document with stable key order and Unix newlines.

    The bytes are those of ``json.dumps(obj, indent=2) + "\\n"``: with an
    indent, ``dumps`` runs the same pure-Python encoder that
    ``iterencode`` streams.
    """
    pieces = chain(json.JSONEncoder(indent=2).iterencode(obj), ["\n"])
    _write_texts(path, map("".join, _chunks(pieces, _JSON_CHUNK)))
