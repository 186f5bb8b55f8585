#!/usr/bin/env python3
"""Print the record count and one SHA-256 over a fixed matrix of detector runs.

The matrix is 5 streams x the 20 grid detectors x both ``refresh`` modes
x ``test_period`` 1 and 3, plus a long-window row and a benchmark-window
row. Windows are 0.15 of a stream's points, so the stream lengths put
the sliding and reservoir groups on both sides of
``NeighborIndex._MATRIX_SLOTS`` = 64 slots (landmark groups outgrow it
on every stream). The periodic stream (seed
103, 200 points) and the drift, regime and noisy streams (seeds 100, 101
and 102, 400 points) give groups of 30 and 60 members: small stores,
which keep no neighbour rows and derive their scores from the matrix of
pairwise distances at each read. The second drift stream (seed 104, 500
points) gives groups of 75 members in a 128-slot store, which builds its
rows at its first read and repairs them on every insert and every
removal. The long-window row runs the 20 detectors once each (default
refresh and test period) on that stream with ``rep_window`` = 136 and
``probation_len`` = 300: windows past the 128 values at which numpy's
pairwise summation splits in two, and SAX segments of 34 values, so the
window statistics are pinned beyond the short windows the grid uses.
The benchmark-window row runs fr-*, sw-*, ures-* and ares-* for all four
measures once each on a 1500-point drift stream (seed 105) with
``window`` = ``probation_len`` = ``ks_window`` = 450, the setting of the
perfbench ``frozen`` and ``slide`` workloads: groups and K-S windows of
450, cluster-centroid groups far past any other row's, and large stores
whose removals hit the oldest member (sw) or random members (ures, ares).
Each record is packed as its timestamp (int64), the four floats of the
scoring chain (float64, bit for bit) and the flag, little-endian, in run
order. Two checkouts whose records are bit-identical print the same line.

``--write-golden`` also rewrites ``tests/records.golden``, which
``tests/test_records.py`` checks run by run: the combined line, then one
line per run giving its row, stream, detector, refresh mode, test period,
record count and SHA-256.

Usage:
    PYTHONPATH=src python scripts/record_digest.py [--write-golden]
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

from refstream.detector import DETECTOR_GRID, StreamPoint, build_detector, named_config
from refstream.synthetic import benchmark_stream

STREAMS = (("drift", 100, 400), ("regime", 101, 400), ("noisy", 102, 400),
           ("periodic", 103, 200), ("drift", 104, 500))  # (kind, seed, points)
LONG_WINDOWS = ("drift", 104, 500, {"rep_window": 136, "probation_len": 300})
BENCH_WINDOWS = ("drift", 105, 1500, ("fr", "sw", "ures", "ares"),
                 {"window": 450, "probation_len": 450, "ks_window": 450})
REFRESH_MODES = ("incremental", "exact")
TEST_PERIODS = (1, 3)
RECORD = struct.Struct("<qddddB")
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "records.golden"


def runs():
    """Each run's row name, stream (kind, seed, points) and detector config, in digest order."""
    for stream in STREAMS:
        for name in DETECTOR_GRID:
            for refresh in REFRESH_MODES:
                for test_period in TEST_PERIODS:
                    yield "grid", stream, named_config(name, refresh=refresh,
                                                       test_period=test_period)
    *stream, overrides = LONG_WINDOWS
    for name in DETECTOR_GRID:
        yield "long", tuple(stream), named_config(name, **overrides)
    *stream, strategies, overrides = BENCH_WINDOWS
    for name in DETECTOR_GRID:
        if name.split("-")[0] in strategies:
            yield "bench", tuple(stream), named_config(name, **overrides)


def run_key(row, stream, config) -> str:
    """The golden file's name for a run: row, stream, detector, refresh mode, test period."""
    kind, seed, n_points = stream
    return (f"{row} {kind} {seed} {n_points} {config.strategy}-{config.measure} "
            f"{config.refresh} {config.test_period}")


def record_bytes():
    """Each run's key and its records packed in order, in digest order."""
    streams = {}
    for row, stream, config in runs():
        kind, seed, n_points = stream
        if stream not in streams:
            values, _ = benchmark_stream(n_points, seed=seed, kind=kind)
            streams[stream] = [StreamPoint(i + 1, float(v)) for i, v in enumerate(values)]
        records = build_detector(config, n_points=n_points).run(streams[stream])
        yield run_key(row, stream, config), b"".join(
            RECORD.pack(r.timestamp, r.nonconformity, r.p_value, r.ks_significance,
                        r.final_score, r.flagged) for r in records)


def digest_lines(packed) -> list[str]:
    """The combined line, then one golden line per run, from ``record_bytes()`` output."""
    combined = hashlib.sha256()
    count, lines = 0, []
    for key, data in packed:
        combined.update(data)
        n = len(data) // RECORD.size
        count += n
        lines.append(f"{key} {n} {hashlib.sha256(data).hexdigest()}")
    return [f"{count} records  sha256 {combined.hexdigest()}", *lines]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--write-golden"]):
        print(__doc__.rsplit("Usage:", 1)[1].strip(), file=sys.stderr)
        return 2
    lines = digest_lines(record_bytes())
    print(lines[0])
    if argv:
        GOLDEN.write_text("".join(f"{line}\n" for line in lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
