"""Command-line interface.

Subcommands: run (one detector, one dataset), grid (manifest), score
(metrics from an existing score file), characterize (dataset descriptors),
report (relative-performance tables). Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 partial grid failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .datasets import load_csv, load_label_file, read_json
from .detector import DETECTOR_GRID, build_detector, named_config
from .errors import ConfigError, DataError, DegenerateGroupError
from .evaluation import NAB_PROFILES, anomaly_clusteredness, difficulty, diversity
from .grid import (
    METRICS,
    delta_table,
    evaluate_records,
    load_manifest,
    read_config_overrides,
    read_ini,
    read_score_csv,
    relative_table,
    run_grid,
    write_reference_config,
    write_score_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refstream",
        description="streaming anomaly detection over evolving reference groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one detector over one dataset")
    run_p.add_argument("dataset", nargs="?", help="input CSV")
    run_p.add_argument("--detector", default="sw-nn",
                       help=f"one of {', '.join(DETECTOR_GRID)}")
    run_p.add_argument("--labels", help="sidecar JSON label file")
    run_p.add_argument("--config", help="detector config file")
    run_p.add_argument("--seed", type=int,
                       help="detector seed (default: the config file's, else 0)")
    run_p.add_argument("--out", help="score CSV path (default <dataset>__<detector>.csv)")
    run_p.add_argument("--profile", default="standard", choices=sorted(NAB_PROFILES))
    run_p.add_argument("--write-reference-config", metavar="PATH",
                       help="write a config file with every default and exit")

    grid_p = sub.add_parser("grid", help="run a manifest of detectors x datasets")
    grid_p.add_argument("manifest")

    score_p = sub.add_parser("score", help="evaluate an existing score file")
    score_p.add_argument("scores", help="score CSV produced by run/grid")
    score_p.add_argument("--dataset", required=True)
    score_p.add_argument("--labels")
    score_p.add_argument("--profile", default="standard", choices=sorted(NAB_PROFILES))

    char_p = sub.add_parser("characterize", help="dataset descriptors")
    char_p.add_argument("dataset")
    char_p.add_argument("--labels")
    char_p.add_argument("--scores-dir",
                        help="directory of <dataset>__<detector>.csv files for "
                             "difficulty/diversity")

    rep_p = sub.add_parser("report", help="relative-performance tables from a grid report")
    rep_p.add_argument("report", help="report.json produced by grid")
    rep_p.add_argument("--metric", default="roc_auc", choices=METRICS)
    rep_p.add_argument("--groups",
                       help="INI file with a [groups] section mapping dataset to label "
                            "(defaults to groups stored in the manifest)")
    return parser


def _cmd_run(args) -> int:
    if args.write_reference_config:
        path = write_reference_config(args.write_reference_config)
        print(f"wrote {path}")
        return EXIT_OK
    if not args.dataset:
        print("error: dataset argument is required", file=sys.stderr)
        return EXIT_USAGE
    overrides = read_config_overrides(args.config) if args.config else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    labels = load_label_file(args.labels) if args.labels else None
    bundle = load_csv(args.dataset, labels=labels)
    name = args.detector.lower()  # as a grid names the detector and its score file
    config = named_config(name, **overrides)
    detector = build_detector(config, n_points=bundle.n_points)
    records = detector.run(bundle.points())
    out = args.out or f"{bundle.name}__{name}.csv"
    write_score_csv(out, records)
    auc, nab, _ = evaluate_records(records, bundle, args.profile)
    summary = {
        "dataset": bundle.name,
        "detector": name,
        "records": len(records),
        "flagged": sum(1 for r in records if r.flagged),
        "roc_auc": auc,
        "nab": nab,
        "score_file": str(out),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_grid(args) -> int:
    manifest = load_manifest(args.manifest)
    report = run_grid(manifest)
    out_dir = Path(manifest.output_dir)
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'report.txt'}")
    if report["failures"]:
        for f in report["failures"]:
            print(f"failed: {f['dataset']} / {f['detector']}: {f['error']}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_score(args) -> int:
    labels = load_label_file(args.labels) if args.labels else None
    bundle = load_csv(args.dataset, labels=labels)
    rows = read_score_csv(args.scores, bundle)
    auc, nab, _ = evaluate_records(rows, bundle, args.profile)
    print(json.dumps({
        "dataset": bundle.name,
        "records": len(rows),
        "flagged": sum(1 for r in rows if r.flagged),
        "roc_auc": auc,
        "nab": nab,
    }, indent=2))
    return EXIT_OK


def _cmd_characterize(args) -> int:
    labels = load_label_file(args.labels) if args.labels else None
    bundle = load_csv(args.dataset, labels=labels)
    nc, anomaly_type = anomaly_clusteredness(bundle.values, bundle.anomalies)
    result = {
        "dataset": bundle.name,
        "n_points": bundle.n_points,
        "n_anomalies": len(bundle.anomalies),
        "nc": nc,
        "anomaly_type": anomaly_type,
    }
    if args.scores_dir:
        # sorted paths fix the order the anomaly scores are pooled in
        paths = sorted(Path(args.scores_dir).glob(f"{bundle.name}__*.csv"))
        runs = [evaluate_records(read_score_csv(path, bundle), bundle) for path in paths]
        mean_score = difficulty(anomaly_scores for _, _, anomaly_scores in runs)
        result["difficulty_mean_score"] = mean_score
        result["difficulty"] = None if mean_score is None else 1.0 - mean_score
        result["diversity_roc_auc"] = diversity(auc for auc, _, _ in runs)
        result["detectors"] = sorted(path.stem.split("__", 1)[1] for path in paths)
    print(json.dumps(result, indent=2))
    return EXIT_OK


def _is_pair(pair) -> bool:
    """Whether ``pair`` holds what the tables read: two names and a number or null per metric."""
    return (isinstance(pair, dict) and isinstance(pair.get("dataset"), str)
            and isinstance(pair.get("detector"), str)
            and all(m in pair and (pair[m] is None or type(pair[m]) in (int, float))
                    for m in METRICS))


def _read_report(path) -> tuple[dict, dict]:
    """A grid report and its manifest's groups; a file of any other shape is a DataError."""
    report = read_json(path)
    if not isinstance(report, dict) or not isinstance(report.get("pairs"), list):
        raise DataError(f"{path}: not a grid report (no list of pairs)")
    manifest = report.get("manifest", {})
    groups = (manifest.get("groups") or {}) if isinstance(manifest, dict) else None
    if not isinstance(groups, dict) or not all(isinstance(g, str) for g in groups.values()):
        raise DataError(f"{path}: not a grid report (manifest is not an object "
                        "whose groups map datasets to labels)")
    for i, pair in enumerate(report["pairs"]):
        if not _is_pair(pair):
            raise DataError(f"{path}: not a grid report (pair {i} is not an object with a "
                            f"dataset, a detector and a number or null for each of "
                            f"{', '.join(METRICS)})")
    return report, groups


def _cmd_report(args) -> int:
    report, groups = _read_report(args.report)
    if args.groups:
        parser = read_ini(args.groups, "groups file")
        if not parser.has_section("groups"):
            raise ConfigError(f"{args.groups}: missing [groups] section")
        groups = dict(parser["groups"])
    rel = relative_table(report, args.metric)
    output: dict = {"metric": args.metric, "relative_performance": rel}
    if groups:
        output["delta"] = delta_table(report, args.metric, groups)
    print(json.dumps(output, indent=2))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "grid": _cmd_grid,
    "score": _cmd_score,
    "characterize": _cmd_characterize,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DegenerateGroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
