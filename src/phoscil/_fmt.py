"""Deterministic serialization helpers shared by the export paths.

Both writers stream: they take rows or JSON pieces from an iterator in
fixed-size chunks, so memory stays bounded by the chunk, not the file.
Each writes a sibling temporary file and renames it over the destination
only when the whole document is written; a source that raises leaves the
destination as it was and no temporary file behind.
"""
from __future__ import annotations

import json
import os
from itertools import chain, islice
from pathlib import Path

#: CSV rows and JSON encoder pieces joined per ``write`` call
_CSV_CHUNK = 1024
_JSON_CHUNK = 4096


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _write_chunks(path: str | Path, pieces, size: int, sep: str) -> None:
    """Write each chunk of ``size`` pieces as ``sep.join(chunk) + sep``, all or nothing."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            while chunk := list(islice(pieces, size)):
                chunk.append("")
                fh.write(sep.join(chunk))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: list[str], rows, provenance: list[str] = ()) -> None:
    """Write rows of pre-formatted strings as CSV with Unix newlines.

    ``provenance`` lines are echoed as leading ``#`` comments so a file
    is self-describing; floats must already be strings (use fmt17).
    ``rows`` may be any iterable; it is consumed once, chunk by chunk.
    """
    lines = chain([f"# {line}" for line in provenance], [",".join(header)],
                  map(",".join, rows))
    _write_chunks(path, lines, _CSV_CHUNK, "\n")


def write_json(path: str | Path, obj) -> None:
    """Write a JSON document with stable key order and Unix newlines.

    The bytes are those of ``json.dumps(obj, indent=2) + "\\n"``: with an
    indent, ``dumps`` runs the same pure-Python encoder that
    ``iterencode`` streams.
    """
    pieces = chain(json.JSONEncoder(indent=2).iterencode(obj), ["\n"])
    _write_chunks(path, pieces, _JSON_CHUNK, "")
