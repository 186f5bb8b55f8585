#!/usr/bin/env python3
"""Print the record count and one SHA-256 over a fixed matrix of detector runs.

The matrix is 3 streams (drift, regime and noisy; 400 points; stream seeds
100, 101 and 102) x the 20 grid detectors x both ``refresh`` modes x
``test_period`` 1 and 3. Each record is packed as its timestamp (int64),
the four floats of the scoring chain (float64, bit for bit) and the flag,
little-endian, in run order. Two checkouts whose records are bit-identical
print the same line.

Usage:
    PYTHONPATH=src python scripts/record_digest.py
"""

from __future__ import annotations

import hashlib
import struct

from refstream.detector import DETECTOR_GRID, StreamPoint, build_detector, named_config
from refstream.synthetic import benchmark_stream

STREAMS = (("drift", 100), ("regime", 101), ("noisy", 102))
POINTS = 400
REFRESH_MODES = ("incremental", "exact")
TEST_PERIODS = (1, 3)
RECORD = struct.Struct("<qddddB")


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for kind, seed in STREAMS:
        values, _ = benchmark_stream(POINTS, seed=seed, kind=kind)
        points = [StreamPoint(i + 1, float(v)) for i, v in enumerate(values)]
        for name in DETECTOR_GRID:
            for refresh in REFRESH_MODES:
                for test_period in TEST_PERIODS:
                    config = named_config(name, refresh=refresh, test_period=test_period)
                    for r in build_detector(config, n_points=POINTS).run(points):
                        digest.update(RECORD.pack(r.timestamp, r.nonconformity, r.p_value,
                                                  r.ks_significance, r.final_score, r.flagged))
                        count += 1
    print(f"{count} records  sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
