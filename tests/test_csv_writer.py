"""The streaming CSV writer and the manifest hash: the bytes of the join it
replaced, at every block boundary, and a memory footprint that does not grow
with the file."""
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from memsnn.device import SweepSeries  # noqa: E402
from memsnn.harness import CSV_BLOCK, Config, write_csv, write_manifest  # noqa: E402


def _fmt(x) -> str:
    """A cell as the writer formatted it before it streamed."""
    if type(x) is float:
        return f"{x:.9g}"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def reference_bytes(header, rows) -> bytes:
    lines = [header]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


bit_floats = st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
floats = st.one_of(bit_floats, st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324)),
                   st.floats(allow_nan=True, allow_infinity=True))
CELLS = {
    "float": st.one_of(floats, floats.map(np.float64)),
    "int": st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(10 ** 9, 10 ** 12),
                     st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans()),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
}


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bytes_are_the_cell_join(tmp_path, data):
    """Columns of floats (any bit pattern, np.float64), integers (above 1e9,
    np.int64, bool) and strings, each column of one kind, write the bytes of
    the per-cell join."""
    kinds = data.draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    rows = data.draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=20))
    header = ",".join(kinds)
    path = write_csv(tmp_path / "drawn.csv", header, iter(rows))
    assert path.read_bytes() == reference_bytes(header, rows)


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 1])
def test_block_boundaries(tmp_path, n):
    """Every row count around the block size writes every row once, in order;
    rows come from a generator, as a sweep's do."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    rows = [(k, float(x), np.float64(-x), f"r{k}", k % 2 == 0, 10 ** 9 + k)
            for k, x in enumerate(values)]
    header = "k,x,minus_x,tag,even,big"
    path = write_csv(tmp_path / "rows.csv", header, (r for r in rows))
    assert path.read_bytes() == reference_bytes(header, rows)


@pytest.mark.parametrize("at", [1, CSV_BLOCK + 3])
@pytest.mark.parametrize("first, stray", [(1, 2.5), (np.int64(1), np.float64(2.0)),
                                          (True, 0.5), ("a", 2.5)])
def test_stray_float_in_an_exact_column_raises(tmp_path, at, first, stray):
    """`%d` would write 2.5 as 2 and `%s` would not round to 9 digits: a
    float in an integer or string column raises, in any block."""
    rows = [(first, 0.5)] * (at + 5)
    rows[at] = (stray, 0.5)
    with pytest.raises(TypeError, match="column 1"):
        write_csv(tmp_path / "bad.csv", "a,b", rows)


def test_writer_memory_does_not_grow_with_the_file(tmp_path):
    """A 20 001 x 5 float CSV, the size of the hard hysteresis sweep's, is
    written within 1 MB of Python allocations; the whole file as lines,
    text and bytes takes over 4 MB."""
    rng = np.random.default_rng(0)
    series = SweepSeries(*(rng.standard_normal(20_001) for _ in range(5)))
    tracemalloc.start()
    try:
        path = write_csv(tmp_path / "sweep.csv", SweepSeries.HEADER, series.rows())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_000_000
    assert peak < 1_000_000


def test_manifest_hashes_from_disk_in_chunks(tmp_path):
    """Hashing a 1 MB output for the manifest stays within 0.5 MB, and the
    digest is the file's sha256."""
    path = tmp_path / "big.csv"
    payload = np.random.default_rng(1).bytes(1 << 20)
    path.write_bytes(payload)
    cfg = Config()
    tracemalloc.start()
    try:
        write_manifest(tmp_path, "probe", cfg, [path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    manifest = (tmp_path / "manifest").read_text()
    assert f"sha256 {hashlib.sha256(payload).hexdigest()}  big.csv\n" in manifest
