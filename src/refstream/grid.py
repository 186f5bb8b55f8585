"""Run manifests: detector grids over corpora, score files, reports.

Score files are CSVs with the fixed column order (timestamp,
nonconformity, p_value, final_score, flagged); floats carry 9 significant
digits. The grid report aggregates ROC-AUC and normalised NAB scores per
(detector, dataset) pair, per-method means, win counts, and dataset
descriptors, and is emitted both as JSON and as plain text tables.

A grid run makes one pass from manifest to report: the label file is read
once, each dataset is loaded once, each detector's overrides are merged
once (``RunManifest._config_for``), and every (dataset, detector) job, run
in-process or in a process pool, ends as either a result or a failure
recorded in job order.

Config files, manifests and groups files are INI files, all read by
``read_ini``: ``[DEFAULT]`` is an ordinary section, ``%`` an ordinary
character (no interpolation), and every error, syntax errors too, names the
file. Config files and manifests check their sections and keys, and a blank
value there means the field's default. Keys ignore case, except in
``[groups]``, whose keys are dataset names. Only the detector name sets a
detector's representation, strategy and measure: config files have no
``kind`` keys, and a manifest's detector sections and ``[defaults]`` cannot
set them, nor the run-wide seed and probation, which come from
``[manifest]`` alone: the report gives each dataset the probation its jobs
ran. The report summarises both metrics for every method of ``METHOD_MEMBERS``.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import json
import math
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .datasets import DatasetBundle, load_csv, load_label_file, open_input
from .detector import (
    DETECTOR_GRID,
    DetectorConfig,
    MEASURES,
    STRATEGIES,
    build_detector,
    named_config,
)
from .errors import ConfigError, DataError
from .evaluation import (
    NAB_PROFILES,
    anomaly_clusteredness,
    delta_performance,
    difficulty,
    diversity,
    nab_score,
    normalize_nab,
    relative_performance,
    roc_auc,
)

METRICS = ("roc_auc", "nab")

# each method's detectors: a strategy with every measure, a measure with every strategy
METHOD_MEMBERS = {**{ls: {f"{ls}-{ncm}" for ncm in MEASURES} for ls in STRATEGIES},
                  **{ncm: {f"{ls}-{ncm}" for ls in STRATEGIES} for ncm in MEASURES}}

SCORE_COLUMNS = ("timestamp", "nonconformity", "p_value", "final_score", "flagged")


class ScoreRow(NamedTuple):
    """One line of a score CSV: a ``ScoreRecord`` without ``ks_significance``.

    The score CSV omits the K-S significance on purpose; its columns and
    bytes are fixed, so this row type stays separate from ``ScoreRecord``.
    """

    timestamp: int
    nonconformity: float
    p_value: float
    final_score: float
    flagged: bool


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def write_score_csv(path, records) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SCORE_COLUMNS) + "\n")
        for rec in records:
            fh.write(
                f"{rec.timestamp},{_fmt(rec.nonconformity)},{_fmt(rec.p_value)},"
                f"{_fmt(rec.final_score)},{1 if rec.flagged else 0}\n"
            )
    return path


def read_score_csv(path, dataset: DatasetBundle | None = None) -> list[ScoreRow]:
    """The rows of a score CSV; a malformed row is a DataError naming its file and line.

    Given the dataset the file is scored against, a timestamp outside its
    1..T is one too: the file was scored on another dataset.
    """
    rows = []
    with open_input(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != SCORE_COLUMNS:
            raise DataError(f"{path}: unexpected score file header {header}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise DataError(f"{path}:{lineno}: expected 5 columns")
            try:
                row = ScoreRow(int(parts[0]), float(parts[1]), float(parts[2]),
                               float(parts[3]), parts[4] == "1")
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if parts[4] not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: flagged must be 0 or 1, got {parts[4]!r}")
            if not math.isfinite(row.final_score):
                raise DataError(f"{path}:{lineno}: non-finite final_score {parts[3]!r}")
            if dataset is not None and not 1 <= row.timestamp <= dataset.n_points:
                raise DataError(f"{path}:{lineno}: timestamp {row.timestamp} outside 1.."
                                f"{dataset.n_points}, the points of dataset {dataset.name!r}")
            if rows and row.timestamp <= rows[-1].timestamp:
                raise DataError(f"{path}:{lineno}: timestamp {row.timestamp} does not follow "
                                f"{rows[-1].timestamp}")
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# manifests


@dataclass
class RunManifest:
    datasets: list[Path]
    detectors: list[str]
    output_dir: Path
    labels: Path | None = None
    seed: int = 0
    parallelism: int = 1
    profile: str = "standard"
    probationary_fraction: float = 0.15
    groups: dict[str, str] = field(default_factory=dict)
    overrides: dict[str, dict] = field(default_factory=dict)  # "defaults" or detector name

    def validate(self):
        if not self.datasets:
            raise ConfigError("manifest lists no datasets")
        if not self.detectors:
            raise ConfigError("manifest lists no detectors")
        for ds in self.datasets:
            if not Path(ds).exists():
                raise ConfigError(f"dataset file not found: {ds}")
        if self.labels is not None and not Path(self.labels).exists():
            raise ConfigError(f"label file not found: {self.labels}")
        if self.profile not in NAB_PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}; choose from {sorted(NAB_PROFILES)}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        for name in self.detectors:
            cfg = self._config_for(name)
            cfg.validate()

    def _config_for(self, detector_name: str) -> DetectorConfig:
        merged = dict(self.overrides.get("defaults", {}))
        merged.update(self.overrides.get(detector_name, {}))
        return named_config(detector_name, probationary_fraction=self.probationary_fraction,
                            **merged)


def _job_seed(base: int, detector: str, dataset: str) -> int:
    return (base + zlib.crc32(f"{detector}|{dataset}".encode())) % (2**31)


def expand_detectors(spec: str) -> list[str]:
    names = [tok.strip().lower() for tok in spec.replace(";", ",").split(",") if tok.strip()]
    if names in (["all-20"], ["all"]):
        return list(DETECTOR_GRID)
    for name in names:
        if name not in DETECTOR_GRID:
            raise ConfigError(f"unknown detector {name!r}; choose from {DETECTOR_GRID}")
    return names


# ---------------------------------------------------------------------------
# INI inputs: detector config files, manifests and groups files

# set by the detector name alone: no config-file kind key, no manifest key
_NAMED_PARTS = ("representation", "strategy", "measure")

_CONFIG_LAYOUT = {
    "representation": {"window": "rep_window", "segments": "sax_segments",
                       "alphabet": "sax_alphabet"},
    "strategy": {"window": "window", "landmark": "landmark", "decay": "decay"},
    "measure": {"k": "k", "clusters": "n_clusters", "recompute_factor": "recompute_factor"},
    "scoring": {"ks_window": "ks_window", "test_period": "test_period",
                "threshold": "threshold"},
    "run": {"probationary_fraction": "probationary_fraction", "seed": "seed",
            "refresh": "refresh"},
}

# each field's type, int, float or str, read from its annotation ("int | None" -> int)
_KINDS = {f.name: {"int": int, "float": float}.get(f.type.split(" | ")[0], str)
          for cls in (RunManifest, DetectorConfig) for f in fields(cls)}
_CONFIG_FIELDS = {f.name: f.name for f in fields(DetectorConfig)}
# set once per run in [manifest], never in an override section: each job's seed derives
# from [manifest] seed, and the report gives each dataset the [manifest] probation
_RUN_WIDE = {
    "seed": "has no effect; set [manifest] seed",
    "probationary_fraction": "is set once per run; set [manifest] probationary_fraction",
    "probation_len": "is set once per run; set [manifest] probationary_fraction",
}
# [groups] and the override sections fill the other two RunManifest fields
_MANIFEST_KEYS = {f.name: f.name for f in fields(RunManifest)
                  if f.name not in ("groups", "overrides")}


def read_ini(path, what: str) -> configparser.ConfigParser:
    """Parse one INI file by the module's rules; a missing file or a syntax error is a ConfigError."""
    # no section header can hold a newline, so every section a file names is an ordinary one
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str  # [groups] keys are dataset names, whose case matters
    try:
        if not parser.read(str(path)):
            raise ConfigError(f"cannot read {what} {path}")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
    return parser


def _overrides(section, keys: dict[str, str], origin) -> dict:
    """The fields one section sets: key ``k`` sets field ``keys[k]``, a blank value none.

    Keys ignore case here, so two spellings of one key are a repeated key.
    """
    values, seen = {}, set()
    for key, raw in section.items():
        key = key.lower()
        if key not in keys:
            raise ConfigError(f"{origin}: unknown key {key!r} in [{section.name}]")
        if key in seen:
            raise ConfigError(f"{origin}: key {key!r} repeated in [{section.name}]")
        seen.add(key)
        attr, raw = keys[key], raw.strip()
        if raw:
            try:
                values[attr] = _KINDS[attr](raw)
            except ValueError:
                raise ConfigError(f"{origin}: invalid value {raw!r} for {attr}") from None
    return values


def write_reference_config(path) -> Path:
    """Emit a config file carrying every documented default."""
    defaults = DetectorConfig()
    parser = configparser.ConfigParser()
    for section, mapping in _CONFIG_LAYOUT.items():
        parser[section] = {}
        for key, attr in mapping.items():
            value = getattr(defaults, attr)
            parser[section][key] = "" if value is None else str(value)
    path = Path(path)
    with open(path, "w") as fh:
        fh.write("# detector configuration; a blank [representation] window means the\n")
        fh.write("# measure's default, 16 for freq and 10 otherwise; blank [strategy] window\n")
        fh.write("# and ks_window default to the probationary length of the dataset\n")
        parser.write(fh)
    return path


def read_config_overrides(path) -> dict:
    """Parse a detector config file into DetectorConfig field overrides."""
    parser = read_ini(path, "config file")
    overrides: dict = {}
    for section in parser.sections():
        if section not in _CONFIG_LAYOUT:
            raise ConfigError(f"{path}: unknown section [{section}]")
        if section in _NAMED_PARTS and "kind" in map(str.lower, parser[section]):
            raise ConfigError(f"{path}: kind in [{section}] is set by the detector name")
        overrides.update(_overrides(parser[section], _CONFIG_LAYOUT[section], path))
    return overrides


def load_manifest(path) -> RunManifest:
    path = Path(path)
    parser = read_ini(path, "manifest")
    if not parser.has_section("manifest"):
        raise ConfigError(f"{path}: missing [manifest] section")
    # a key left out or blank keeps RunManifest's default
    sec = _overrides(parser["manifest"], _MANIFEST_KEYS, path)

    def _resolve(p: str) -> Path:
        cand = Path(p.strip())
        return cand if cand.is_absolute() else path.parent / cand

    datasets = [_resolve(tok) for tok in sec.get("datasets", "").split(",") if tok.strip()]
    detectors = expand_detectors(sec.get("detectors", "all-20"))
    sec.update(datasets=datasets, detectors=detectors,
               output_dir=_resolve(sec.get("output_dir", "out")))
    if "labels" in sec:
        sec["labels"] = _resolve(sec["labels"])
    # a job's score file is named <dataset stem>__<detector>, so a repeat would overwrite one
    for i, name in enumerate(detectors):
        if name in detectors[:i]:
            raise ConfigError(f"{path}: detector {name!r} is listed more than once")
    by_stem: dict[str, Path] = {}
    for ds in datasets:
        if ds.stem in by_stem:
            raise ConfigError(
                f"{path}: datasets {by_stem[ds.stem]} and {ds} share the name {ds.stem!r}"
            )
        by_stem[ds.stem] = ds
    groups = dict(parser["groups"]) if parser.has_section("groups") else {}
    overrides: dict[str, dict] = {}
    for section in parser.sections():
        if section in ("manifest", "groups"):
            continue
        key = section.lower()
        if key != "defaults" and key not in DETECTOR_GRID:
            raise ConfigError(f"{path}: unknown section [{section}]")
        if key in overrides:
            raise ConfigError(f"{path}: more than one [{key}] section (names ignore case)")
        for name in map(str.lower, parser[section]):
            if name in _RUN_WIDE:
                raise ConfigError(f"{path}: {name} in [{section}] {_RUN_WIDE[name]}")
            # the section's name fixes these, and the score file is named after it
            if name in _NAMED_PARTS:
                raise ConfigError(f"{path}: {name} in [{section}] is set by the detector name")
        overrides[key] = _overrides(parser[section], _CONFIG_FIELDS, path)
    return RunManifest(**sec, groups=groups, overrides=overrides)


# ---------------------------------------------------------------------------
# running


def evaluate_records(records, bundle: DatasetBundle, profile_name: str = "standard"):
    """ROC-AUC and normalised NAB score of one record sequence."""
    profile = NAB_PROFILES[profile_name]
    scored = {rec.timestamp: rec.final_score for rec in records}
    anomaly_scores = [s for t, s in scored.items() if t in bundle.anomalies]
    nominal_scores = [s for t, s in scored.items() if t not in bundle.anomalies]
    auc = roc_auc(anomaly_scores, nominal_scores) if anomaly_scores and nominal_scores else None
    flags = [rec.timestamp for rec in records if rec.flagged]
    nab = None
    if bundle.windows:
        raw = nab_score(flags, bundle.windows, bundle.n_points, profile)
        nab = normalize_nab(raw, len(bundle.windows), profile)
    return auc, nab, anomaly_scores


def _run_job(job: dict) -> dict:
    """Run one detector over one loaded dataset, write its score file, evaluate it.

    The job carries the dataset bundle and the detector's merged config
    (``RunManifest._config_for``); only the seed is set here, from the
    manifest seed, the detector name and the dataset name. The detector
    replays the bundle's feature tape for its representation, computed by
    the first job that asks for it.
    """
    bundle = job["bundle"]
    config = replace(job["config"], seed=_job_seed(job["seed"], job["detector"], bundle.name))
    detector = build_detector(config, n_points=bundle.n_points)
    detector.representation = bundle.replay(detector.representation)
    records = detector.run(bundle.points())
    score_path = Path(job["out_dir"]) / f"{bundle.name}__{job['detector']}.csv"
    write_score_csv(score_path, records)
    auc, nab, anomaly_scores = evaluate_records(records, bundle, job["profile"])
    return {
        "dataset": bundle.name,
        "detector": job["detector"],
        "roc_auc": auc,
        "nab": nab,
        "anomaly_scores": anomaly_scores,
        "score_file": str(score_path),
    }


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the exception it raised: one job's failure stays its own."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _run_jobs(jobs: list[dict], parallelism: int) -> list:
    """Each job's result, or the exception that stopped it, in job order.

    Parallelism 1 runs the jobs here, one after the other; more runs them
    in a process pool, where a job whose worker breaks fails like any other.
    """
    if parallelism == 1:
        return [_outcome(_run_job, job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(_run_job, job) for job in jobs]
        return [_outcome(future.result) for future in futures]


def run_grid(manifest: RunManifest) -> dict:
    """Execute every (detector, dataset) job and assemble the report.

    One pass: the label file is read once, each dataset is loaded once in
    manifest order, and the jobs (dataset-major) and the dataset
    descriptors share those bundles. Run serially, the jobs also share each
    bundle's features: they are computed once per (dataset, representation)
    and replayed to every job that uses them. A parallel run ships bundles
    without features, and each job computes its own. A dataset that fails
    to load fails each of its jobs with the load error. Failures are listed
    in job order whatever the parallelism; results are sorted by (dataset,
    detector).
    """
    manifest.validate()
    out_dir = Path(manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = load_label_file(manifest.labels) if manifest.labels else None
    loads = [
        _outcome(load_csv, ds, labels=labels, probationary_fraction=manifest.probationary_fraction)
        for ds in manifest.datasets
    ]
    configs = [(det, manifest._config_for(det)) for det in manifest.detectors]
    jobs = [
        {"dataset": Path(ds).stem, "detector": det, "bundle": bundle, "config": config,
         "seed": manifest.seed, "out_dir": str(out_dir), "profile": manifest.profile}
        for ds, bundle in zip(manifest.datasets, loads)
        for det, config in configs
    ]

    runnable = [job for job in jobs if not isinstance(job["bundle"], Exception)]
    ran = iter(_run_jobs(runnable, manifest.parallelism))
    results, failures = [], []
    for job in jobs:
        outcome = job["bundle"] if isinstance(job["bundle"], Exception) else next(ran)
        if isinstance(outcome, Exception):
            failures.append({"dataset": job["dataset"], "detector": job["detector"],
                             "error": f"{type(outcome).__name__}: {outcome}"})
        else:
            results.append(outcome)

    results.sort(key=lambda r: (r["dataset"], r["detector"]))
    bundles = [bundle for bundle in loads if not isinstance(bundle, Exception)]
    report = assemble_report(results, failures, manifest, bundles)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(render_report_text(report))
    return report


def _mean_std(values: list[float]):
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    return {"mean": float(arr.mean()), "std": float(arr.std()), "count": int(arr.size)}


def assemble_report(results: list[dict], failures: list[dict], manifest: RunManifest,
                    bundles: list[DatasetBundle]) -> dict:
    pairs = [
        {k: r[k] for k in ("dataset", "detector", "roc_auc", "nab", "score_file")}
        for r in results
    ]
    method_summary: dict = {}
    for metric in METRICS:
        stats = {
            method: _mean_std([r[metric] for r in results
                               if r["detector"] in group and r[metric] is not None])
            for method, group in METHOD_MEMBERS.items()
        }
        method_summary[metric] = {"by_strategy": {ls: stats[ls] for ls in STRATEGIES},
                                  "by_measure": {ncm: stats[ncm] for ncm in MEASURES}}

    # win counts: strict unique maximum per (dataset, metric) slot
    win = {det: 0 for det in manifest.detectors}
    datasets = sorted({r["dataset"] for r in results})
    slots = 0
    for ds in datasets:
        for metric in METRICS:
            scored = [(r["detector"], r[metric]) for r in results
                      if r["dataset"] == ds and r[metric] is not None]
            if not scored:
                continue
            slots += 1
            best = max(v for _, v in scored)
            leaders = [det for det, v in scored if v == best]
            if len(leaders) == 1:
                win[leaders[0]] += 1
    win_matrix = {
        ls: {ncm: win.get(f"{ls}-{ncm}", 0) for ncm in MEASURES} for ls in STRATEGIES
    }

    dataset_info = _describe_datasets(results, bundles, manifest.groups)

    return {
        "manifest": {
            "datasets": [str(d) for d in manifest.datasets],
            "detectors": list(manifest.detectors),
            "seed": manifest.seed,
            "profile": manifest.profile,
            "metrics": list(METRICS),
            "groups": dict(manifest.groups),
        },
        "pairs": pairs,
        "failures": failures,
        "method_summary": method_summary,
        "win_counts": {"matrix": win_matrix, "per_detector": win,
                       "scored_slots": slots, "total_wins": sum(win.values())},
        "datasets": dataset_info,
    }


def _describe_datasets(results, bundles: list[DatasetBundle], groups: dict) -> dict:
    by_dataset: dict[str, list[dict]] = {}
    for r in results:
        by_dataset.setdefault(r["dataset"], []).append(r)
    info: dict = {}
    for bundle in bundles:
        nc, anomaly_type = anomaly_clusteredness(bundle.values, bundle.anomalies)
        rs = by_dataset.get(bundle.name, [])
        mean_score = difficulty(r["anomaly_scores"] for r in rs)
        info[bundle.name] = {
            "n_points": bundle.n_points,
            "n_anomalies": len(bundle.anomalies),
            "n_windows": len(bundle.windows),
            "probation_len": bundle.probation_len,
            "group": groups.get(bundle.name),
            "nc": nc,
            "anomaly_type": anomaly_type,
            "difficulty_mean_score": mean_score,
            "difficulty": None if mean_score is None else 1.0 - mean_score,
            "diversity": {metric: diversity(r[metric] for r in rs) for metric in METRICS},
        }
    return info


# ---------------------------------------------------------------------------
# relative-performance tables (method deltas across dataset groups)


def relative_table(report: dict, metric: str) -> dict[str, dict[str, float]]:
    """Rel value of every method on every dataset for one metric."""
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    by_dataset: dict[str, dict[str, float]] = {}
    for pair in report["pairs"]:
        if pair[metric] is None:
            continue
        by_dataset.setdefault(pair["dataset"], {})[pair["detector"]] = pair[metric]
    table: dict[str, dict[str, float]] = {}
    for method, members in METHOD_MEMBERS.items():
        row: dict[str, float] = {}
        for ds, scores in by_dataset.items():
            mine = [v for det, v in scores.items() if det in members]
            others = [v for det, v in scores.items() if det not in members]
            if mine and others:
                row[ds] = relative_performance(mine, others)
        table[method] = row
    return table


def delta_table(report: dict, metric: str, groups: dict[str, str]) -> dict:
    """Relative performance difference of each method between two groups."""
    labels = sorted(set(groups.values()))
    if len(labels) != 2:
        raise ConfigError(f"need exactly 2 group labels, got {labels}")
    first, second = labels
    rel = relative_table(report, metric)
    out = {}
    for method, row in rel.items():
        rels_first = [v for ds, v in row.items() if groups.get(ds) == first]
        rels_second = [v for ds, v in row.items() if groups.get(ds) == second]
        out[method] = delta_performance(rels_first, rels_second)
    return {"metric": metric, "first": first, "second": second, "delta": out}


# ---------------------------------------------------------------------------
# rendering


def _fmt_cell(value, width=9):
    if value is None:
        return "-".rjust(width)
    return f"{value:.3f}".rjust(width)


def render_report_text(report: dict) -> str:
    lines = []
    lines.append("per-pair scores")
    lines.append(f"{'dataset':24s} {'detector':12s} {'roc_auc':>9s} {'nab':>9s}")
    for pair in report["pairs"]:
        lines.append(
            f"{pair['dataset'][:24]:24s} {pair['detector']:12s} "
            f"{_fmt_cell(pair['roc_auc'])} {_fmt_cell(pair['nab'])}"
        )
    if report["failures"]:
        lines.append("")
        lines.append("failures")
        for f in report["failures"]:
            lines.append(f"  {f['dataset']} / {f['detector']}: {f['error']}")
    for metric, summary in report["method_summary"].items():
        lines.append("")
        lines.append(f"{metric}: mean +/- std by method")
        for title, block in (("strategy", summary["by_strategy"]),
                             ("measure", summary["by_measure"])):
            for name, stats in block.items():
                if stats is None:
                    lines.append(f"  {title:9s} {name:6s} -")
                else:
                    lines.append(
                        f"  {title:9s} {name:6s} "
                        f"{stats['mean']:.3f} +/- {stats['std']:.3f} (n={stats['count']})"
                    )
    lines.append("")
    lines.append("win counts (strict unique maxima per dataset-metric slot)")
    header = "          " + "".join(f"{ncm:>8s}" for ncm in MEASURES) + "   total"
    lines.append(header)
    matrix = report["win_counts"]["matrix"]
    for ls in STRATEGIES:
        row = matrix[ls]
        total = sum(row.values())
        lines.append(f"{ls:10s}" + "".join(f"{row[ncm]:8d}" for ncm in MEASURES) + f"{total:8d}")
    lines.append(
        f"total wins {report['win_counts']['total_wins']} over "
        f"{report['win_counts']['scored_slots']} slots"
    )
    lines.append("")
    lines.append("datasets")
    for name, entry in report["datasets"].items():
        nc = "-" if entry["nc"] is None else f"{entry['nc']:.3f}"
        diff = "-" if entry["difficulty"] is None else f"{entry['difficulty']:.3f}"
        lines.append(
            f"  {name}: T={entry['n_points']} anomalies={entry['n_anomalies']} "
            f"windows={entry['n_windows']} nc={nc} "
            f"type={entry['anomaly_type'] or '-'} difficulty={diff}"
        )
    return "\n".join(lines) + "\n"
