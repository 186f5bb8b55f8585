#!/usr/bin/env python3
"""Benchmark for the refstream detectors: three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload frozen --seed 1 --seconds 50 --trace 0

Every workload is a closed loop with one caller in one process and no
threads: each ``Detector.process`` call starts after the previous one has
returned, and the grid runs with ``parallelism = 1``.

  slide   sw-nn, sw-den, sw-cc and sw-freq, interleaved point by point over
          one drift stream with window = probation = K-S window = 450.
          Every scored point evicts one member and admits one.
  frozen  fr-nn, fr-den, fr-cc and fr-freq on the same stream and
          settings. The group stops changing at probation.
  grid    run_grid over a generated corpus of one CSV per stream kind
          (drift, regime, periodic, noisy) x all 20 detectors at paper
          defaults (w = p = 0.15 n).

BENCHMARK.json lists frozen and grid. slide runs the same way but is left
out of it: its runs spread too widely on a shared machine whose speed
changes by tens of percent from minute to minute (see README.md).

A run repeats the same computation (a pass over the stream with fresh
detectors, or a whole grid) as often as fits in ``--seconds``, at least
twice. The shared machine switches between a fast state and one about
twice as slow, each lasting seconds to tens of seconds, so the figures
use the fastest repetition of small pieces of the work. ``points_per_s``
divides the calls of one repetition by the sum of each segment's fastest
repetition; a segment is a block of 50 stream points, one grid job, or
the rest of ``run_grid``. Latency figures use each call's fastest
repetition.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` does the work
untraced and then repeats it traced, checks that both give the same
records, and prints the per-layer metrics and the tracing overhead; its
spans go to ``perfbench/out``. ``perfbench/README.md`` lists the metrics
and which layer metric should move which end-to-end metric.

The last line of standard output is one JSON object. The exit code is 1
when an output check fails and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import struct
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

STREAM_POINTS = 1500
WINDOW = 450  # window = probation_len = ks_window, independent of stream length
EXACT_PREFIX = WINDOW + 100  # points replayed with refresh="exact"
GRID_POINTS = 200  # short enough for a dozen or more grids in a run
SEGMENT_POINTS = 50  # stream points per timed segment
GRID_KINDS = ("drift", "regime", "periodic", "noisy")
MIN_REPEATS = 2
SETUP_REPEATS = 5
STREAM_DETECTORS = {
    "slide": ("sw-nn", "sw-den", "sw-cc", "sw-freq"),
    "frozen": ("fr-nn", "fr-den", "fr-cc", "fr-freq"),
}
ALL_DETECTORS = tuple(f"{s}-{m}" for s in ("fr", "lw", "sw", "ures", "ares")
                      for m in ("nn", "den", "cc", "freq"))
UNBOUNDED = tuple(d for d in ALL_DETECTORS if d.startswith("lw-"))

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import refstream.grid, refstream.synthetic; print(time.perf_counter() - t)"
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)


@dataclass
class Work:
    """Identical repetitions of one workload: call and segment durations, and what the calls did.

    A segment is a fixed slice of a repetition: a block of SEGMENT_POINTS
    stream points, or one grid job, plus one segment for the rest of
    ``run_grid``. Every repetition has the same calls and segments.
    """

    walls: list[float] = field(default_factory=list)  # seconds per repetition
    durations: list[array] = field(default_factory=list)  # per repetition, seconds per call
    segments: list[array] = field(default_factory=list)  # per repetition, seconds per segment
    owner: array = field(default_factory=lambda: array("i"))  # index into ALL_DETECTORS
    scored: array = field(default_factory=lambda: array("b"))  # the call returned a record
    group_max: dict[str, int] = field(default_factory=dict)
    reclusters: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    auc: list[float] = field(default_factory=list)
    nab: list[float] = field(default_factory=list)

    @property
    def repeats(self) -> int:
        return len(self.walls)

    @property
    def timed_s(self) -> float:
        return sum(self.walls)

    def more(self, seconds: float | None, repeats: int | None, minimum: int) -> bool:
        """Repeat exactly ``repeats`` times, or while another repetition fits in ``seconds``."""
        n = self.repeats
        if repeats is not None:
            return n < repeats
        return n < minimum or self.timed_s * (n + 1) / n <= seconds

    def start(self):
        self.durations.append(array("d"))
        self.segments.append(array("d"))

    def time_call(self, detector: int, dt: float, record):
        self.durations[-1].append(dt)
        if len(self.durations) == 1:
            self.owner.append(detector)
            self.scored.append(record is not None)

    def finish_run(self, name: str, det, records, outcome: Outcome):
        """Account for one finished detector run: checks, digest, counters."""
        problem = check_records(records, det.config.threshold)
        if problem:
            outcome.fail(f"{name}: {problem}")
        for rec in records:
            self.digest.update(struct.pack("<qdddd?", *rec[:3], rec.ks_significance,
                                           rec.final_score, rec.flagged))
        self.group_max[name] = max(self.group_max.get(name, 0), len(det.measure))
        self.reclusters += getattr(det.measure, "recompute_count", 0)

    def fastest_calls(self):
        """Each call's fastest duration over the repetitions, with its detector and scored flag."""
        import numpy as np

        best = fastest(self.durations)
        return (best, np.frombuffer(self.owner, dtype=np.int32)[:best.size],
                np.frombuffer(self.scored, dtype=np.int8)[:best.size].astype(bool))

    def fastest_seconds(self) -> float:
        """Seconds for one repetition with every segment at its fastest."""
        return float(fastest(self.segments).sum())


def fastest(per_repetition: list[array]):
    """Elementwise minimum over repetitions; a detector that raised shortens its repetition."""
    import numpy as np

    n = min(len(r) for r in per_repetition)
    return np.min([np.frombuffer(r, dtype=float)[:n] for r in per_repetition], axis=0)


def check_records(records, threshold: float) -> str | None:
    for rec in records:
        values = (rec.nonconformity, rec.p_value, rec.ks_significance, rec.final_score)
        if not all(math.isfinite(v) for v in values):
            return f"non-finite record at t={rec.timestamp}"
        if not (0.0 <= rec.p_value <= 1.0 and 0.0 <= rec.final_score <= 1.0):
            return f"p_value or final_score outside [0, 1] at t={rec.timestamp}"
        if rec.flagged != (rec.final_score >= threshold):
            return f"flag disagrees with threshold at t={rec.timestamp}"
    return None


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter, measured inside it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def measure_setup(build):
    """Median over SETUP_REPEATS of fresh import time plus in-process ``build()``."""
    times, built = [], None
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = perf_counter()
        built = build()
        times.append(imported + perf_counter() - t0)
    return statistics.median(times), built


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# stream workloads: slide and frozen


def stream_config(name: str, seed: int, refresh: str = "incremental"):
    from refstream.detector import named_config

    return named_config(name, window=WINDOW, probation_len=WINDOW, ks_window=WINDOW,
                        seed=seed, refresh=refresh)


def build_stream_inputs(names, seed: int):
    import numpy as np
    from refstream.datasets import DatasetBundle
    from refstream.detector import StreamPoint, build_detector
    from refstream.evaluation import make_windows
    from refstream.synthetic import benchmark_stream

    values, marks = benchmark_stream(STREAM_POINTS, seed=seed, kind="drift")
    points = [StreamPoint(i + 1, float(v)) for i, v in enumerate(values)]
    bundle = DatasetBundle("drift", np.asarray(values), [], set(marks),
                           windows=make_windows(STREAM_POINTS, marks))
    detectors = [build_detector(stream_config(name, seed)) for name in names]
    return points, bundle, detectors


def drive_stream(names, points, bundle, seed, outcome: Outcome, *, seconds=None, repeats=None,
                 minimum=MIN_REPEATS, tracer: Tracer | None = None):
    """Interleave the detectors point by point over whole passes of the stream.

    Each pass builds fresh detectors with the same seed, so every pass
    computes the same records. Only the loops over points are timed;
    checks and detector construction between passes are not. Returns the
    work and the first pass's records by detector.
    """
    from refstream.detector import build_detector
    from refstream.grid import evaluate_records

    work = Work()
    first_pass: dict[str, list] = {}
    while work.more(seconds, repeats, minimum):
        dets = [build_detector(stream_config(name, seed)) for name in names]
        if tracer is not None:
            for det in dets:
                tracer.instrument_detector(det)
        live = [(ALL_DETECTORS.index(name), name, det, [])
                for name, det in zip(names, dets)]
        outcome.attempted += len(live)
        work.start()
        t_pass = t_segment = perf_counter()
        for i, point in enumerate(points, 1):
            for run in live:
                index, name, det, records = run
                t0 = perf_counter()
                try:
                    record = det.process(point)
                except Exception as exc:  # a failed detector run is counted; the others go on
                    outcome.fail(f"{name}: {type(exc).__name__}: {exc}")
                    live = [r for r in live if r is not run]
                    continue
                work.time_call(index, perf_counter() - t0, record)
                if record is not None:
                    records.append(record)
            if i % SEGMENT_POINTS == 0 or i == len(points):
                now = perf_counter()
                work.segments[-1].append(now - t_segment)
                t_segment = now
        work.walls.append(perf_counter() - t_pass)
        for _, name, det, records in live:
            work.finish_run(name, det, records, outcome)
        if not first_pass:
            first_pass = {name: records for _, name, _, records in live}
            for records in first_pass.values():
                auc, nab, _ = evaluate_records(records, bundle)
                work.auc.append(auc)
                work.nab.append(nab)
    return work, first_pass


def check_exact_refresh(names, points, seed, first_pass, outcome: Outcome):
    """Each detector must give the same prefix records with refresh="exact"."""
    from refstream.detector import build_detector

    for name in names:
        if name not in first_pass:
            continue
        outcome.attempted += 1
        try:
            exact = build_detector(stream_config(name, seed, refresh="exact")).run(
                points[:EXACT_PREFIX])
        except Exception as exc:
            outcome.fail(f"{name} exact refresh: {type(exc).__name__}: {exc}")
            continue
        incremental = [r for r in first_pass[name] if r.timestamp <= EXACT_PREFIX]
        same = len(exact) == len(incremental) and all(
            a.timestamp == b.timestamp
            and all(abs(x - y) <= 1e-9 for x, y in zip(
                (a.nonconformity, a.p_value, a.final_score),
                (b.nonconformity, b.p_value, b.final_score)))
            for a, b in zip(incremental, exact)
        )
        if not same:
            outcome.fail(f"{name}: incremental and exact refresh records differ")


def stream_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    names = STREAM_DETECTORS[workload]
    outcome = Outcome()
    setup_s, (points, bundle, _) = measure_setup(lambda: build_stream_inputs(names, seed))
    if not trace:
        work, first_pass = drive_stream(names, points, bundle, seed, outcome, seconds=seconds)
        check_exact_refresh(names, points, seed, first_pass, outcome)
        end_to_end(outcome, work, setup_s, "passes")
        return outcome
    plain, first_pass = drive_stream(names, points, bundle, seed, outcome,
                                     seconds=seconds / 2, minimum=1)
    check_exact_refresh(names, points, seed, first_pass, outcome)
    tracer = Tracer()
    traced, _ = drive_stream(names, points, bundle, seed, outcome, repeats=plain.repeats,
                             tracer=tracer)
    per_layer(outcome, workload, seed, tracer, plain, traced, n_datasets=0)
    return outcome


# ---------------------------------------------------------------------------
# grid workload


def make_corpus(seed: int, corpus: Path):
    """Write one labelled CSV per stream kind plus a manifest, and load it."""
    from refstream.datasets import write_csv
    from refstream.grid import load_manifest
    from refstream.synthetic import benchmark_stream

    corpus.mkdir(parents=True, exist_ok=True)
    files = []
    for i, kind in enumerate(GRID_KINDS):
        values, marks = benchmark_stream(GRID_POINTS, seed=seed + i, kind=kind)
        files.append(write_csv(corpus / f"{kind}.csv", values, anomalies=marks).name)
    (corpus / "manifest.ini").write_text(
        "[manifest]\n"
        f"datasets = {', '.join(files)}\n"
        "detectors = all-20\n"
        "output_dir = results\n"
        f"seed = {seed}\n"
        "parallelism = 1\n"
    )
    manifest = load_manifest(corpus / "manifest.ini")
    manifest.validate()
    return manifest


# names run_grid looks up in refstream.grid, and the span each becomes
GRID_SPANS = {
    "_run_job": "grid.run_job",
    "load_csv": "datasets.load_csv",
    "write_score_csv": "grid.write_score_csv",
    "evaluate_records": "grid.evaluate_records",
    "assemble_report": "grid.assemble_report",
    "roc_auc": "evaluation.roc_auc",
    "nab_score": "evaluation.nab_score",
}


def drive_grid(manifest, outcome: Outcome, *, seconds=None, repeats=None, minimum=MIN_REPEATS,
               tracer: Tracer | None = None):
    """Run the whole grid as often as ``Work.more`` allows.

    ``Detector.process`` is timed and each job's records are kept by
    wrapping ``build_detector`` and ``write_score_csv`` where run_grid looks
    them up; the records are checked after each grid, outside the timing.
    """
    import refstream.grid as grid

    work = Work()
    saved = {name: getattr(grid, name) for name in ("build_detector", *GRID_SPANS)}
    jobs: list[tuple[str, object, list]] = []
    written: dict[str, list] = {}  # score file -> the records written to it

    def build(config, n_points=None):
        det = saved["build_detector"](config, n_points)
        name = f"{config.strategy}-{config.measure}"
        index = ALL_DETECTORS.index(name)
        if tracer is not None:
            tracer.instrument_detector(det)
        process = det.process

        def timed_process(point):
            t0 = perf_counter()
            record = process(point)
            work.time_call(index, perf_counter() - t0, record)
            return record

        det.process = timed_process
        jobs.append((name, det, []))
        return det

    def write(path, records):
        jobs[-1][2].extend(records)
        written[str(path)] = jobs[-1][2]
        return write_inner(path, records)

    def job(args):
        t0 = perf_counter()
        try:
            return job_inner(args)
        finally:
            work.segments[-1].append(perf_counter() - t0)

    write_inner, job_inner = saved["write_score_csv"], saved["_run_job"]
    run_grid = grid.run_grid
    if tracer is not None:
        for name, span in GRID_SPANS.items():
            setattr(grid, name, tracer.wrap(span, saved[name]))
        write_inner, job_inner = grid.write_score_csv, grid._run_job
        run_grid = tracer.wrap("grid.run_grid", grid.run_grid)
    grid.build_detector, grid.write_score_csv, grid._run_job = build, write, job
    first_report = report = None
    try:
        while work.more(seconds, repeats, minimum):
            jobs.clear()
            written.clear()
            outcome.attempted += len(manifest.datasets) * len(manifest.detectors)
            work.start()
            t0 = perf_counter()
            report = run_grid(manifest)
            work.walls.append(perf_counter() - t0)
            work.segments[-1].append(work.walls[-1] - sum(work.segments[-1]))
            for name, det, records in jobs:
                work.finish_run(name, det, records, outcome)
            for failure in report["failures"]:
                outcome.fail(f"{failure['dataset']}/{failure['detector']}: {failure['error']}")
            if first_report is None:
                first_report = report
            elif report != first_report:
                outcome.fail("grid rerun gave a different report")
    finally:
        for name, fn in saved.items():
            setattr(grid, name, fn)
    check_score_files(manifest, report, written, outcome)
    pairs = report["pairs"]
    work.auc = [p["roc_auc"] for p in pairs if p["roc_auc"] is not None]
    work.nab = [p["nab"] for p in pairs if p["nab"] is not None]
    return work


def check_score_files(manifest, report, written, outcome: Outcome):
    """The report's scores must match the records, and the score CSVs must hold them.

    A CSV row must equal its record within rel 1e-8 (the writer keeps 9
    significant digits) with the flag exact. NAB, which uses only flags,
    must come out the same from the CSV. Rounding can turn two different
    scores into a tie, so the ROC-AUC from the CSV is compared with the
    ROC-AUC of the records rounded the way the writer rounds them.
    """
    from refstream.datasets import load_csv
    from refstream.grid import _fmt, evaluate_records, read_score_csv

    bundles = {Path(p).stem: load_csv(p, probationary_fraction=manifest.probationary_fraction)
               for p in manifest.datasets}
    for pair in report["pairs"]:
        where = f"{pair['dataset']}/{pair['detector']}"
        bundle = bundles[pair["dataset"]]
        records = written.get(pair["score_file"])
        if records is None:
            outcome.fail(f"{where}: no score file was written")
            continue
        auc, nab, _ = evaluate_records(records, bundle, manifest.profile)
        if (auc, nab) != (pair["roc_auc"], pair["nab"]):
            outcome.fail(f"{where}: records give roc_auc={auc} nab={nab}, "
                         f"report has {pair['roc_auc']} {pair['nab']}")
        rows = read_score_csv(pair["score_file"])
        same = len(rows) == len(records) and all(
            row.timestamp == rec.timestamp and row.flagged == rec.flagged
            and all(math.isclose(x, y, rel_tol=1e-8, abs_tol=1e-12) for x, y in zip(
                (row.nonconformity, row.p_value, row.final_score),
                (rec.nonconformity, rec.p_value, rec.final_score)))
            for row, rec in zip(rows, records))
        if not same:
            outcome.fail(f"{where}: score file rows differ from the records")
            continue
        rounded = [rec._replace(final_score=float(_fmt(rec.final_score))) for rec in records]
        rounded_auc, _, _ = evaluate_records(rounded, bundle, manifest.profile)
        file_auc, file_nab, _ = evaluate_records(rows, bundle, manifest.profile)
        if (file_auc, file_nab) != (rounded_auc, pair["nab"]):
            outcome.fail(f"{where}: score file gives roc_auc={file_auc} nab={file_nab}, "
                         f"expected {rounded_auc} {pair['nab']}")


def grid_workload(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setup_s, manifest = measure_setup(lambda: make_corpus(seed, OUT / f"grid-seed{seed}"))
    if not trace:
        work = drive_grid(manifest, outcome, seconds=seconds)
        end_to_end(outcome, work, setup_s, "grids")
        return outcome
    plain = drive_grid(manifest, outcome, seconds=seconds / 2, minimum=1)
    tracer = Tracer()
    traced = drive_grid(manifest, outcome, repeats=plain.repeats, tracer=tracer)
    per_layer(outcome, "grid", seed, tracer, plain, traced, n_datasets=len(manifest.datasets))
    return outcome


# ---------------------------------------------------------------------------
# metrics


def end_to_end(outcome: Outcome, work: Work, setup_s: float, unit_name: str):
    import numpy as np

    best, owner, scored = work.fastest_calls()
    # The median is taken per detector and averaged: a pooled median falls
    # between detectors whose costs differ tenfold and jumps as the mix shifts.
    medians = [np.median(best[(owner == d) & scored]) for d in np.unique(owner)]
    m = outcome.metrics
    m["points_per_s"] = (best.size / work.fastest_seconds(), "1/s")
    m["point_us_p50"] = (float(np.mean(medians)) * 1e6, "us")
    m["setup_s"] = (setup_s, "s")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    m["roc_auc_mean"] = (statistics.fmean(work.auc), "auc")
    m["ok_frac"] = (1.0 - outcome.failed / outcome.attempted, "ratio")
    outcome.notes += [
        f"timed {work.timed_s:.2f} s over {work.repeats} identical {unit_name} of {best.size} "
        f"calls in {len(work.segments[0])} segments ({best.size * work.repeats / work.timed_s:.1f} "
        "calls/s overall); points_per_s uses each segment's fastest repetition, point_us_p50 "
        "each call's fastest repetition",
        f"point_us_p50 averages {len(medians)} per-detector medians of "
        f"{min(int(((owner == d) & scored).sum()) for d in np.unique(owner))} or more scored calls",
        f"nab_mean {statistics.fmean(work.nab):.6f} over {len(work.nab)} (detector, stream) pairs "
        "(printed only: it can be negative or near 0 and changes sign between seeds)",
    ]


def per_layer(outcome: Outcome, workload: str, seed: int, tracer: Tracer, plain: Work,
              traced: Work, n_datasets: int):
    import numpy as np

    if traced.digest.digest() != plain.digest.digest():
        outcome.fail("traced and untraced records differ")
    table = tracer.layer_table()
    empty = {"calls": 0, "scored_calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return table.get(name, empty)

    def per_call(name, scale):
        s = span(name)
        return s["total_s"] / s["calls"] * scale if s["calls"] else 0.0

    process_s = span("detector.process")["total_s"]

    def share(layer):
        self_s = sum(s["self_s"] for name, s in table.items() if name.split(".")[0] == layer)
        return self_s / process_s if process_s else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    updates = counts["learning.updates"]
    reps = traced.repeats  # counts are per repetition: one stream pass or one grid
    m = outcome.metrics
    m["representation.push_us"] = (per_call("representation.push", 1e6), "us")
    m["learning.update_us"] = (per_call("learning.update", 1e6), "us")
    m["learning.admit_rate"] = (ratio(counts["learning.admits"], updates), "ratio")
    m["learning.evict_rate"] = (ratio(counts["learning.evicts"], updates), "ratio")
    m["nonconformity.insert_us"] = (per_call("nonconformity.insert", 1e6), "us")
    m["nonconformity.remove_us"] = (per_call("nonconformity.remove", 1e6), "us")
    m["nonconformity.insert_calls"] = (span("nonconformity.insert")["scored_calls"] / reps,
                                       "count")
    m["nonconformity.remove_calls"] = (span("nonconformity.remove")["scored_calls"] / reps,
                                       "count")
    m["nonconformity.score_us"] = (per_call("nonconformity.score", 1e6), "us")
    m["nonconformity.member_scores_us"] = (per_call("nonconformity.member_scores", 1e6), "us")
    m["nonconformity.reclusters"] = (traced.reclusters / reps, "count")
    m["nonconformity.group_size_max"] = (max(traced.group_max.values(), default=0), "count")
    m["scoring.step_us"] = (per_call("scoring.step", 1e6), "us")
    m["scoring.set_reference_us"] = (per_call("scoring.set_reference_scores", 1e6), "us")
    m["detector.self_us"] = (ratio(span("detector.process")["self_s"] * 1e6,
                                   span("detector.process")["calls"]), "us")
    m["detector.refresh_useful_frac"] = (
        ratio(counts["detector.refreshes_useful"], counts["detector.refreshes"]), "ratio")
    load_calls = span("datasets.load_csv")["calls"]
    m["datasets.load_csv_ms"] = (per_call("datasets.load_csv", 1e3), "ms")
    m["datasets.load_csv_calls"] = (load_calls / reps, "count")
    m["datasets.load_csv_per_dataset"] = (ratio(load_calls, n_datasets * reps), "ratio")
    m["grid.write_score_csv_ms"] = (per_call("grid.write_score_csv", 1e3), "ms")
    m["grid.evaluate_records_ms"] = (per_call("grid.evaluate_records", 1e3), "ms")
    m["grid.assemble_report_ms"] = (per_call("grid.assemble_report", 1e3), "ms")
    m["evaluation.roc_auc_us"] = (per_call("evaluation.roc_auc", 1e6), "us")
    m["evaluation.nab_score_us"] = (per_call("evaluation.nab_score", 1e6), "us")
    for layer in ("representation", "learning", "nonconformity", "scoring", "detector",
                  "datasets", "grid", "evaluation"):
        m[f"{layer}.share"] = (share(layer), "ratio")
    best, owner, scored = plain.fastest_calls()
    # pooled: per detector, p99 would sit on sw-cc's ~1% of reclusters and flip with the seed
    m["detector.process_us_p99"] = (float(np.percentile(best[scored], 99)) * 1e6, "us")
    for index, name in enumerate(ALL_DETECTORS):
        mine = best[owner == index]
        m[f"detector.{name}.us_per_point"] = (float(mine.mean()) * 1e6 if mine.size else 0.0,
                                              "us")
    for name in UNBOUNDED:
        m[f"detector.{name}.group_size_max"] = (traced.group_max.get(name, 0), "count")
    m["trace.overhead_s"] = (traced.timed_s - plain.timed_s, "s")
    m["trace.overhead_frac"] = (ratio(traced.timed_s - plain.timed_s, plain.timed_s), "ratio")

    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(spans_path)
    outcome.notes.append(f"{len(tracer)} spans written to {spans_path.relative_to(ROOT)}; "
                         f"untraced {plain.timed_s:.2f} s, traced {traced.timed_s:.2f} s "
                         f"over the same {reps} repetitions")
    for name in ALL_DETECTORS:
        if name in plain.group_max:
            bound = (f"unbounded state, group_size_max {traced.group_max.get(name, 0)}"
                     if name in UNBOUNDED else "")
            outcome.notes.append(f"{name:10s} {m[f'detector.{name}.us_per_point'][0]:10.1f} "
                                 f"us/point  {bound}")


# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("slide", "frozen", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "refstream" / "__init__.py").is_file():
        print(f"perfbench: no refstream source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    trace = bool(args.trace)
    if args.workload == "grid":
        outcome = grid_workload(args.seed, args.seconds, trace)
    else:
        outcome = stream_workload(args.workload, args.seed, args.seconds, trace)

    expected = declared_metrics(trace)
    if sorted(expected) != sorted(outcome.metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(expected) ^ set(outcome.metrics))}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in outcome.notes:
        print(f"  {line}")
    for name in expected:
        value, unit = outcome.metrics[name]
        print(f"  {name:38s} {value:16.6f} {unit}")
    for error in outcome.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
                    for name in expected},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
