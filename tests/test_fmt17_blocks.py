"""The trajectory CSV's bytes do not depend on how its rows are cut into
blocks, and the bundled scenario's table leaves Python only the cells the
formatter cannot certify."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import BUNDLED_SCENARIO as SCENARIO
from syncopt import cli, fmt17

# cells that take the formatter's other paths: Python's (nan, inf, a
# subnormal, a y within 1e-6 of a tie that is not one, |v| > 1e280), an exact
# tie, zeros, the ends of the range, the switches to e+17 and e-05, 3-digit
# exponents, and digits ending in zeros that reach back over whole chunks
EDGE_CELLS = [
    np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1.0000005759589568, 1e300,
    1 + 2**-17, 0.0, -0.0, 1e-280, 1e280, 99999999999999999.0, 1e17, 1e-5, 9.99999e-5,
    -1.2345678901234567e-123, 0.125, 1.5e-12, 30000000000000000.0,
]


def printf_rows(block) -> bytes:
    """The reference: every cell through Python's own '%.17g'."""
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\r\n" for row in np.asarray(block).tolist())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_row_split_gives_the_bytes_of_one_call(data):
    rows, cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
    table = data.draw(hnp.arrays(np.float64, (rows, cols), elements=st.floats()))
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=4))) if rows > 1 else []
    # every block begins and ends with a cell off the common path
    for start, stop in zip([0] + cuts, cuts + [rows]):
        table[start, 0] = data.draw(st.sampled_from(EDGE_CELLS))
        table[stop - 1, -1] = data.draw(st.sampled_from(EDGE_CELLS))
    joined = b"".join(fmt17.csv_rows(part) for part in np.split(table, cuts))
    assert joined == fmt17.csv_rows(table) == printf_rows(table)


def test_block_size_does_not_change_the_written_file(tmp_path, capsys, monkeypatch):
    # 51 samples of the bundled scenario, 28 columns: one row a call at 1 and
    # 37 cells, 7 rows at 200, the whole table at the default
    raw = json.loads(SCENARIO.read_text())
    raw["sim"]["t_end"] = 0.05
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    written = []
    for cells in (1, 37, 200, fmt17.BLOCK_CELLS):
        monkeypatch.setattr(fmt17, "BLOCK_CELLS", cells)
        out = tmp_path / str(cells)
        assert cli.main(["simulate", str(path), "--out", str(out)]) == 0
        written.append((out / "trajectory_initial.csv").read_bytes())
    assert written.count(written[0]) == len(written)
    body = written[0].split(b"\r\n", 1)[1]
    table = np.array([[float(v) for v in row.split(b",")] for row in body.split(b"\r\n")[:-1]])
    assert table.shape == (51, 28) and body == printf_rows(table)


def test_bundled_optimal_table_sends_at_most_3_cells_to_python(tmp_path, capsys, monkeypatch):
    # Python's own '%.17g' costs about 690 ns a cell, several times the
    # vectorised path's, so the count must not grow
    counted = {"cells": 0, "python": 0}
    csv_rows = fmt17.csv_rows

    def counting(block):
        counted["cells"] += block.size
        counted["python"] += int(fmt17._decimal(block.ravel(), fmt17._tables())[2].sum())
        return csv_rows(block)

    monkeypatch.setattr(fmt17, "csv_rows", counting)
    assert cli.main(["simulate", str(SCENARIO), "--out", str(tmp_path), "--gains", "optimal"]) == 0
    assert counted["cells"] == 20_001 * 28
    assert counted["python"] <= 3


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_empty_blocks(shape):
    assert fmt17.csv_rows(np.zeros(shape)) == printf_rows(np.zeros(shape))
