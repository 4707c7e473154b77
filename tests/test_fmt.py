"""The streaming writers: bytes of the one-shot expressions, all or nothing."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from phoscil import _fmt
from phoscil._fmt import fmt17, write_csv, write_json

CHUNK = _fmt._CSV_CHUNK


def _one_shot_csv(header, rows, provenance=()):
    """The whole file as one string: the bytes the streamed writer must give."""
    lines = [f"# {line}" for line in provenance]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def _all_s(header):
    """The row format that takes every field as a pre-formatted string."""
    return ",".join(["%s"] * len(header))


@pytest.mark.parametrize("header, rows, provenance", [
    (["a", "b"], [], ()),
    (["a", "b"], [], ["phoscil scan", "grid = 4x4"]),
    ([""], [[""]], ()),
    # the last chunk is one blank row, which joins to ""
    (["x"], [[""]] * (2 * CHUNK - 1), ["probe"]),
    (["x"], [[""], ["1"], [""]], ()),
    (["t", "y"], [[fmt17(i), fmt17(1.0 / (i + 1))] for i in range(3 * CHUNK + 7)], ["probe"]),
    (["t", "y"], [[fmt17(i), fmt17(1.0 / (i + 1))] for i in range(CHUNK - 3)], ["a", "b"]),
    (["v"], [[fmt17(v)] for v in (math.nan, math.inf, -math.inf, -0.0, 5e-324)], ()),
], ids=["empty", "empty-provenance", "one-blank", "blanks-over-chunks", "blanks-mixed",
        "over-chunks", "exactly-one-chunk", "non-finite"])
def test_write_csv_bytes_match_the_one_shot_join(tmp_path, header, rows, provenance):
    path = tmp_path / "out.csv"
    write_csv(path, header, _all_s(header), iter(rows), provenance=provenance)
    assert path.read_bytes() == _one_shot_csv(header, rows, provenance)
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("n", [0, 1, CHUNK - 3, CHUNK, 3 * CHUNK + 7])
def test_write_csv_formats_numbers_as_fmt17(tmp_path, n):
    special = [(math.nan, math.inf, True), (-0.0, 5e-324, False),
               (-math.inf, 1.7976931348623157e308, True), (2 ** 60, -3, False)]
    values = (special + [(i / 7.0, -1.0 / (i + 1), i % 3 == 0) for i in range(n)])[:n]
    path = tmp_path / "out.csv"
    write_csv(path, ["x", "y", "b"], "%.17g,%.17g,%d", iter(values), provenance=["probe"])
    rows = [[fmt17(x), fmt17(y), "1" if b else "0"] for x, y, b in values]
    assert path.read_bytes() == _one_shot_csv(["x", "y", "b"], rows, ["probe"])


@seed(0)
@settings(database=None, max_examples=2000)
@given(st.one_of(st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
                 st.integers(min_value=-2 ** 80, max_value=2 ** 80)))
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072009e-308)
def test_the_writers_format_is_fmt17(x):
    # both call PyOS_double_to_string(x, 'g', 17, 0) on float(x)
    assert "%.17g" % x == fmt17(x)


@pytest.mark.parametrize("obj", [
    {},
    [],
    {"a": [], "b": {}, "c": [[]], "d": [{}]},
    {"provenance": ["x"], "rows": [{"v": math.nan, "w": math.inf, "z": -math.inf}]},
    {"deep": {"deeper": [1, [2.5, [None, True, False]], {"s": "é\n\""}]}},
    {"grid": [[float(i * j) / 7.0 for j in range(60)] for i in range(300)]},
    [1, 2.0, -0.0, 5e-324, 1.7976931348623157e308, "x"],
    "text",
], ids=["empty-dict", "empty-list", "nested-empty", "non-finite", "nested", "large",
        "scalars", "bare-string"])
def test_write_json_bytes_match_dumps(tmp_path, obj):
    path = tmp_path / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def _rows_then_fail(n):
    for i in range(n):
        yield [fmt17(i)]
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("old", [None, "old\n"], ids=["absent", "present"])
def test_a_failing_row_source_leaves_the_destination_as_it_was(tmp_path, old):
    path = tmp_path / "out.csv"
    if old is not None:
        path.write_text(old)
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["i"], "%s", _rows_then_fail(2 * CHUNK + 3))
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.csv"])
    assert old is None or path.read_text() == old


def test_a_failing_json_document_leaves_no_file(tmp_path):
    path = tmp_path / "out.json"
    obj = {"rows": list(range(3 * _fmt._JSON_CHUNK)), "bad": object()}
    with pytest.raises(TypeError):
        write_json(path, obj)
    assert list(tmp_path.iterdir()) == []


def test_a_rewrite_replaces_the_file(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["i"], "%s", [[fmt17(i)] for i in range(3 * CHUNK)])
    write_csv(path, ["i"], "%s", [["1"]])
    assert path.read_bytes() == b"i\n1\n"
