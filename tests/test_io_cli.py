import json
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import refstream
from refstream.cli import main
from refstream.datasets import load_csv, load_label_file, write_csv
from refstream.detector import (
    DETECTOR_GRID,
    DetectorConfig,
    ScoreRecord,
    build_detector,
    named_config,
)
from refstream.errors import ConfigError, DataError
from refstream.grid import (
    _CONFIG_LAYOUT,
    SCORE_COLUMNS,
    ScoreRow,
    _job_seed,
    delta_table,
    expand_detectors,
    load_manifest,
    read_config_overrides,
    read_score_csv,
    relative_table,
    run_grid,
    write_reference_config,
    write_score_csv,
)
from refstream.representation import MeanStdFeatures, SaxFeatures
from refstream.synthetic import benchmark_stream


# fields a manifest's override sections cannot set: the run-wide seed and probation, and
# what the detector name fixes
NAMED = ("seed", "probationary_fraction", "probation_len", "strategy", "measure",
         "representation")


def make_dataset(path, n=120, seed=0, anomalies=(70, 95), iso=False, label_col=True):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    for a in anomalies:
        values[a - 1] += 8.0
    ts = None
    if iso:
        ts = [f"2015-01-01 {8 + i // 60:02d}:{i % 60:02d}:00" for i in range(n)]
    return write_csv(path, values, anomalies=anomalies if label_col else None, timestamps=ts)


class TestImportPath:
    def test_package_imports_no_scipy(self):
        # scipy is only the tests' oracle; a fresh interpreter that loads the
        # package, the grid runner and the CLI must not load any of it
        code = ("import sys, refstream, refstream.grid, refstream.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = Path(refstream.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.stdout.strip() == "[]"


class TestLoadCsv:
    def test_integer_timestamps_with_labels(self, tmp_path):
        path = make_dataset(tmp_path / "a.csv")
        bundle = load_csv(path)
        assert bundle.n_points == 120
        assert bundle.anomalies == {70, 95}
        assert bundle.probation_len == 18
        assert bundle.windows  # derived from inline labels

    def test_iso_timestamps_map_to_ordinals(self, tmp_path):
        path = make_dataset(tmp_path / "b.csv", iso=True)
        bundle = load_csv(path)
        assert bundle.points()[0].timestamp == 1
        assert bundle.points()[-1].timestamp == 120

    def test_sidecar_labels(self, tmp_path):
        path = make_dataset(tmp_path / "c.csv", iso=True, label_col=False)
        bundle_plain = load_csv(path)
        assert not bundle_plain.anomalies
        marks = [bundle_plain.raw_timestamps[69], bundle_plain.raw_timestamps[94]]
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"c": marks}))
        bundle = load_csv(path, labels=load_label_file(labels_path))
        assert bundle.anomalies == {70, 95}

    @pytest.mark.parametrize("marks", ["86", 86, None])
    def test_labels_that_are_not_a_list_rejected(self, tmp_path, marks):
        # a string would label each of its characters: "86" as timestamps 8 and 6
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps({"ds": [3], "c": marks}))
        with pytest.raises(DataError, match=rf"^{re.escape(str(labels_path))}: labels of 'c' "
                                            "must be a list"):
            load_label_file(labels_path)

    def test_unknown_label_timestamp_rejected(self, tmp_path):
        path = make_dataset(tmp_path / "d.csv", label_col=False)
        with pytest.raises(DataError, match="not present"):
            load_csv(path, labels={"d": ["999999"]})

    def test_short_file_rejected(self, tmp_path):
        path = write_csv(tmp_path / "tiny.csv", [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="at least 20"):
            load_csv(path)

    def test_non_monotone_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["timestamp,value"] + [f"{t},0.0" for t in [1, 2, 2] + list(range(3, 25))]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="bad.csv:4"):
            load_csv(p)

    @pytest.mark.parametrize("first, second", [
        ("1", "2015-01-01 00:00:00"),
        ("2015-01-01 00:00:00", "2"),
        ("2015-01-01 00:00:00", "2015-01-01 00:01:00+00:00"),
    ])
    def test_mixed_timestamp_formats_rejected_with_line(self, tmp_path, first, second):
        p = tmp_path / "mixed.csv"
        p.write_text(f"timestamp,value\n{first},0.0\n{second},1.0\n"
                     + "".join(f"{t},0.0\n" for t in range(3, 25)))
        with pytest.raises(DataError, match=rf"mixed\.csv:3: timestamp '{re.escape(second)}' "
                                            rf"mixes formats with '{re.escape(first)}'"):
            load_csv(p)

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        rows = ["timestamp,value"] + [f"{t},1.0" for t in range(1, 21)] + ["21,nan"]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p)

    def test_malformed_value_names_line(self, tmp_path):
        p = tmp_path / "mal.csv"
        rows = ["timestamp,value"] + [f"{t},1.0" for t in range(1, 21)] + ["21,oops"]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="mal.csv:22"):
            load_csv(p)

    def test_bad_anomaly_flag_rejected(self, tmp_path):
        p = tmp_path / "flag.csv"
        rows = ["timestamp,value,is_anomaly"] + [f"{t},1.0,0" for t in range(1, 21)] + ["21,1.0,2"]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="is_anomaly"):
            load_csv(p)


class TestScoreFiles:
    def test_round_trip_is_serialisation_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [
            ScoreRecord(t, float(rng.exponential()), float(rng.random()),
                        float(rng.random()), float(rng.random()), bool(rng.random() < 0.2))
            for t in range(31, 231)
        ]
        path = write_score_csv(tmp_path / "s.csv", records)
        rows = read_score_csv(path)
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert row.timestamp == rec.timestamp
            assert row.nonconformity == pytest.approx(rec.nonconformity, rel=1e-8)
            assert row.final_score == pytest.approx(rec.final_score, rel=1e-8)
            assert row.flagged == rec.flagged
        # a second dump of the parsed rows is byte-identical
        second = write_score_csv(tmp_path / "s2.csv", rows)
        assert second.read_bytes() == path.read_bytes()

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="header"):
            read_score_csv(p)

    @pytest.mark.parametrize("row, message", [
        ("32,1.5,0.5,0.25,yes", "flagged must be 0 or 1, got 'yes'"),
        ("32,1.5,0.5,nan,1", "non-finite final_score 'nan'"),
        ("32,1.5,0.5,inf,0", "non-finite final_score 'inf'"),
        ("31,1.5,0.5,0.25,0", "timestamp 31 does not follow 31"),
        ("30,1.5,0.5,0.25,0", "timestamp 30 does not follow 31"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        p = tmp_path / "s.csv"
        p.write_text(",".join(SCORE_COLUMNS) + "\n31,1.0,0.5,0.1,0\n" + row + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(f'{p}:3: {message}')}$"):
            read_score_csv(p)


class TestReferenceConfig:
    def test_defaults_round_trip(self, tmp_path):
        path = write_reference_config(tmp_path / "ref.ini")
        text = path.read_text()
        for needle in ("0.15", "0.96", "0.9", "0.25", "incremental"):
            assert needle in text
        overrides = read_config_overrides(path)
        assert overrides["decay"] == 0.96
        assert overrides["threshold"] == 0.9
        assert overrides["probationary_fraction"] == 0.15
        assert "window" not in overrides  # blank means size-derived default

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[measure]\nbananas = 3\n")
        with pytest.raises(ConfigError, match="bananas"):
            read_config_overrides(p)

    def test_every_written_default_reads_back(self, tmp_path):
        overrides = read_config_overrides(write_reference_config(tmp_path / "ref.ini"))
        defaults = DetectorConfig()
        expected = {attr: getattr(defaults, attr) for mapping in _CONFIG_LAYOUT.values()
                    for attr in mapping.values() if getattr(defaults, attr) is not None}
        assert overrides == expected
        for attr, value in overrides.items():
            assert type(value) is type(expected[attr]), attr

    @pytest.mark.parametrize("text, where", [
        ("[run]\nseed = 1\nseed = 2\n", r"\[line 3\]: option 'seed' in section 'run' already"),
        ("[measure]\nk = 3\n[measure]\nk = 4\n", r"\[line 3\]: section 'measure' already"),
        ("k = 3\n[measure]\n", r"no section headers.*line: 1"),
        ("[measure]\nk\n", r"parsing errors.*\[line 2\]"),
    ])
    def test_syntax_error_names_file_and_line(self, tmp_path, text, where):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: .*{where}"):
            read_config_overrides(p)

    def test_percent_is_an_ordinary_character(self, tmp_path):
        p = tmp_path / "pct.ini"
        p.write_text("[run]\nrefresh = res%ults\n")
        assert read_config_overrides(p) == {"refresh": "res%ults"}

    @pytest.mark.parametrize("section", ["representation", "strategy", "measure"])
    def test_kind_key_rejected(self, tmp_path, section):
        # the detector name picks the parts; a kind key would run another detector under it
        p = tmp_path / "bad.ini"
        p.write_text(f"[{section}]\nKind = x\n")
        with pytest.raises(ConfigError,
                           match=rf"bad\.ini: kind in \[{section}\] is set by the detector name"):
            read_config_overrides(p)

    @pytest.mark.parametrize("section", ["scorng", "Measure", "DEFAULT"])
    def test_unknown_section_rejected(self, tmp_path, section):
        p = tmp_path / "bad.ini"
        p.write_text(f"[{section}]\nk = 3\n")
        with pytest.raises(ConfigError, match=rf"bad\.ini: unknown section \[{section}\]"):
            read_config_overrides(p)


class TestManifest:
    def _write_corpus(self, tmp_path, n_datasets=2):
        paths = []
        for i in range(n_datasets):
            values, marks = benchmark_stream(400, seed=40 + i, kind="drift")
            paths.append(write_csv(tmp_path / f"ds{i}.csv", values, anomalies=marks))
        return paths

    def _write_manifest(self, tmp_path, paths, detectors="sw-nn, fr-nn", extra=""):
        manifest = tmp_path / "manifest.ini"
        manifest.write_text(
            "[manifest]\n"
            f"datasets = {', '.join(p.name for p in paths)}\n"
            f"detectors = {detectors}\n"
            "output_dir = out\n"
            "seed = 7\n"
            "[defaults]\n"
            "k = 3\n"
            "rep_window = 2\n"
            + extra
        )
        return manifest

    def test_expand_all_20(self):
        assert expand_detectors("all-20") == list(DETECTOR_GRID)
        with pytest.raises(ConfigError):
            expand_detectors("sw-xyz")

    def test_repeated_detector_rejected(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths, detectors="sw-nn, fr-nn, SW-NN")
        with pytest.raises(ConfigError, match=r"manifest\.ini.*'sw-nn'"):
            load_manifest(manifest_path)

    def test_datasets_sharing_a_name_rejected(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths)
        text = manifest_path.read_text()
        # the same file twice, and two files whose score files would both be ds0__*.csv
        for listed in ("ds0.csv, ds0.csv", "ds0.csv, b/ds0.csv"):
            manifest_path.write_text(text.replace("ds0.csv", listed))
            with pytest.raises(ConfigError, match=r"manifest\.ini.*'ds0'"):
                load_manifest(manifest_path)

    def test_malformed_number_names_manifest_and_key(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths)
        text = manifest_path.read_text()
        for key, raw in (("seed", "abc"), ("parallelism", "two"),
                         ("probationary_fraction", "0.1.5")):
            lines = f"{key} = {raw}" if key == "seed" else f"seed = 7\n{key} = {raw}"
            manifest_path.write_text(text.replace("seed = 7", lines))
            with pytest.raises(ConfigError,
                               match=rf"manifest\.ini: invalid value {re.escape(repr(raw))} for {key}"):
                load_manifest(manifest_path)

    def test_unknown_override_key_rejected(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths, extra="[sw-nn]\nwindwo = 20\n")
        with pytest.raises(ConfigError, match=r"manifest\.ini: unknown key 'windwo' in \[sw-nn\]"):
            load_manifest(manifest_path)
        text = manifest_path.read_text().replace("[sw-nn]\nwindwo = 20\n", "")
        manifest_path.write_text(text.replace("k = 3\n", "k = 3\nsmoothing = 2\n"))
        with pytest.raises(ConfigError, match=r"unknown key 'smoothing' in \[defaults\]"):
            load_manifest(manifest_path)

    @pytest.mark.parametrize("field", [f for f in fields(DetectorConfig) if f.name not in NAMED],
                             ids=lambda f: f.name)
    def test_override_reaches_config_with_its_annotated_type(self, tmp_path, field):
        kind = {"int": int, "int | None": int, "float": float, "str": str}[field.type]
        raw = {int: "7", float: "0.5", str: str(field.default)}[kind]
        manifest_path = tmp_path / "manifest.ini"
        manifest_path.write_text("[manifest]\ndatasets = ds0.csv\ndetectors = sw-nn\n"
                                 f"[defaults]\n{field.name} = {raw}\n")
        value = getattr(load_manifest(manifest_path)._config_for("sw-nn"), field.name)
        assert type(value) is kind
        assert value == kind(raw)

    @pytest.mark.parametrize("old, new, where", [
        ("seed = 7\n", "seed = 7\nseed = 8\n", r"\[line 6\]: option 'seed' in section 'manifest'"),
        ("[manifest]\n", "seed = 7\n[manifest]\n", r"no section headers.*line: 1"),
        ("[defaults]\n", "[sw-nn]\n[sw-nn]\n[defaults]\n", r"\[line 7\]: section 'sw-nn' already"),
    ])
    def test_syntax_error_names_manifest_and_line(self, tmp_path, old, new, where):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths)
        manifest_path.write_text(manifest_path.read_text().replace(old, new, 1))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(manifest_path))}: .*{where}"):
            load_manifest(manifest_path)

    def test_percent_is_an_ordinary_character(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths)
        manifest_path.write_text(manifest_path.read_text().replace("= out", "= res%ults"))
        assert load_manifest(manifest_path).output_dir == tmp_path / "res%ults"

    def test_default_section_is_an_unknown_section(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(
            tmp_path, paths, extra="[groups]\nds0 = drifting\n[DEFAULT]\nk = 3\n")
        with pytest.raises(ConfigError, match=r"manifest\.ini: unknown section \[DEFAULT\]"):
            load_manifest(manifest_path)

    def test_blank_value_means_the_default(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(
            tmp_path, paths, extra="[sw-nn]\nk =\nwindow = \n")
        manifest_path.write_text(manifest_path.read_text().replace("seed = 7", "seed ="))
        manifest = load_manifest(manifest_path)
        assert manifest.seed == 0
        assert manifest.overrides["sw-nn"] == {}
        assert manifest._config_for("sw-nn").k == 3  # from [defaults]
        manifest_path.write_text(manifest_path.read_text().replace("k = 3\n", "k = \n"))
        manifest = load_manifest(manifest_path)
        assert manifest.overrides["defaults"] == {"rep_window": 2}
        assert manifest._config_for("fr-nn").k == DetectorConfig().k

    def test_unknown_manifest_key_rejected(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths)
        manifest_path.write_text(
            manifest_path.read_text().replace("seed = 7\n", "seed = 7\nparalellism = 2\n"))
        with pytest.raises(ConfigError,
                           match=r"manifest\.ini: unknown key 'paralellism' in \[manifest\]"):
            load_manifest(manifest_path)

    def test_detector_section_given_twice_rejected(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(
            tmp_path, paths, extra="[sw-nn]\nk = 3\n[SW-NN]\nk = 4\n")
        with pytest.raises(ConfigError, match=r"manifest\.ini: more than one \[sw-nn\] section"):
            load_manifest(manifest_path)

    @pytest.mark.parametrize("section", ["defaults", "sw-nn"])
    def test_seed_in_override_section_rejected(self, tmp_path, section):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths, extra="[sw-nn]\nwindow = 20\n")
        manifest_path.write_text(
            manifest_path.read_text().replace(f"[{section}]\n", f"[{section}]\nseed = 5\n"))
        with pytest.raises(ConfigError,
                           match=rf"manifest\.ini: seed in \[{section}\] .*\[manifest\] seed"):
            load_manifest(manifest_path)

    @pytest.mark.parametrize("key", ["probationary_fraction", "probation_len"])
    @pytest.mark.parametrize("section", ["defaults", "sw-nn"])
    def test_probation_in_override_section_rejected(self, tmp_path, key, section):
        # the report gives each dataset the [manifest] probation, so every job must run it
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths, extra="[sw-nn]\nwindow = 20\n")
        manifest_path.write_text(manifest_path.read_text().replace(
            f"[{section}]\n", f"[{section}]\n{key} = 50\n"))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(manifest_path))}: {key} in "
                                              rf"\[{section}\] .*\[manifest\] probationary_fraction"):
            load_manifest(manifest_path)

    def test_probation_of_report_and_score_files_agree(self, tmp_path):
        values, marks = benchmark_stream(200, seed=40, kind="drift")
        paths = [write_csv(tmp_path / "ds0.csv", values, anomalies=marks)]
        manifest_path = self._write_manifest(tmp_path, paths, detectors="sw-nn, ures-cc")
        manifest_path.write_text(manifest_path.read_text().replace(
            "seed = 7\n", "seed = 7\nprobationary_fraction = 0.3\n"))
        report = run_grid(load_manifest(manifest_path))
        assert not report["failures"]
        assert report["datasets"]["ds0"]["probation_len"] == 60
        for pair in report["pairs"]:
            assert read_score_csv(pair["score_file"])[0].timestamp == 61, pair["detector"]

    def test_metrics_key_is_unknown(self, tmp_path):
        # the report always summarises both metrics
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths)
        manifest_path.write_text(
            manifest_path.read_text().replace("seed = 7\n", "seed = 7\nmetrics = nab\n"))
        with pytest.raises(ConfigError,
                           match=r"manifest\.ini: unknown key 'metrics' in \[manifest\]"):
            load_manifest(manifest_path)

    @pytest.mark.parametrize("key", ["strategy", "measure", "representation"])
    @pytest.mark.parametrize("section", ["defaults", "sw-nn"])
    def test_key_set_by_the_detector_name_rejected(self, tmp_path, key, section):
        # [sw-nn] strategy = lw would run lw-nn into <dataset>__sw-nn.csv
        value = {"strategy": "lw", "measure": "den", "representation": "Meanstd"}[key]
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths, extra="[sw-nn]\nwindow = 20\n")
        manifest_path.write_text(manifest_path.read_text().replace(
            f"[{section}]\n", f"[{section}]\n{key.capitalize()} = {value}\n"))
        with pytest.raises(ConfigError,
                           match=rf"manifest\.ini: {key} in \[{section}\] is set by the detector"):
            load_manifest(manifest_path)

    def test_keys_ignore_case_outside_groups(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=2)
        manifest_path = self._write_manifest(tmp_path, paths, extra=(
            "[SW-NN]\nWindow = 20\n[groups]\nDs0 = drifting\nds1 = stable\n"))
        manifest_path.write_text(manifest_path.read_text().replace("seed = 7", "Seed = 7"))
        manifest = load_manifest(manifest_path)
        assert manifest.seed == 7
        assert manifest.overrides["sw-nn"] == {"window": 20}
        assert manifest.groups == {"Ds0": "drifting", "ds1": "stable"}
        manifest_path.write_text(manifest_path.read_text().replace("k = 3\n", "k = 3\nK = 4\n"))
        with pytest.raises(ConfigError, match=r"manifest\.ini: key 'k' repeated in \[defaults\]"):
            load_manifest(manifest_path)

    def test_mixed_case_group_reaches_the_report(self, tmp_path):
        values, marks = benchmark_stream(400, seed=40, kind="drift")
        paths = [write_csv(tmp_path / "Drift01.csv", values, anomalies=marks),
                 *self._write_corpus(tmp_path, n_datasets=1)]
        manifest_path = self._write_manifest(
            tmp_path, paths, extra="[groups]\nDrift01 = drifting\nds0 = stable\n")
        report = run_grid(load_manifest(manifest_path))
        assert report["manifest"]["groups"] == {"Drift01": "drifting", "ds0": "stable"}
        assert report["datasets"]["Drift01"]["group"] == "drifting"
        delta = delta_table(report, "roc_auc", report["manifest"]["groups"])
        swapped = delta_table(report, "roc_auc", {"Drift01": "stable", "ds0": "drifting"})
        # both datasets count: with only one group filled, every delta would be None
        assert delta["delta"]["sw"] is not None
        assert delta["delta"]["sw"] == pytest.approx(-swapped["delta"]["sw"], abs=1e-12)

    def test_grid_runs_and_reports(self, tmp_path):
        paths = self._write_corpus(tmp_path)
        manifest = load_manifest(self._write_manifest(tmp_path, paths))
        report = run_grid(manifest)
        assert not report["failures"]
        assert len(report["pairs"]) == 4  # 2 detectors x 2 datasets
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "report.txt").exists()
        assert sorted(p.name for p in out.glob("ds*__*.csv")) == [
            "ds0__fr-nn.csv", "ds0__sw-nn.csv", "ds1__fr-nn.csv", "ds1__sw-nn.csv",
        ]
        for pair in report["pairs"]:
            assert pair["roc_auc"] is None or 0.0 <= pair["roc_auc"] <= 1.0

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        manifest_path = self._write_manifest(tmp_path, paths, detectors="ures-nn")
        run_grid(load_manifest(manifest_path))
        first = (tmp_path / "out" / "ds0__ures-nn.csv").read_bytes()
        run_grid(load_manifest(manifest_path))
        second = (tmp_path / "out" / "ds0__ures-nn.csv").read_bytes()
        assert first == second

    def test_failures_recorded_without_aborting(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=1)
        # k too large for the probationary group: job must fail, grid must not
        manifest_path = self._write_manifest(
            tmp_path, paths, detectors="sw-nn, sw-cc", extra="[sw-nn]\nk = 500\n"
        )
        report = run_grid(load_manifest(manifest_path))
        assert len(report["failures"]) == 1
        assert report["failures"][0]["detector"] == "sw-nn"
        assert len(report["pairs"]) == 1

    def test_parallel_run_writes_the_serial_bytes(self, tmp_path):
        paths = self._write_corpus(tmp_path, n_datasets=3)
        # sw-nn fails on every dataset: failures must keep job order in both modes
        manifest_path = self._write_manifest(
            tmp_path, paths, detectors="sw-nn, fr-nn, ures-cc", extra="[sw-nn]\nk = 500\n"
        )
        out = tmp_path / "out"

        def run(parallelism):
            manifest = load_manifest(manifest_path)
            manifest.parallelism = parallelism
            report = run_grid(manifest)
            return report, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        serial, serial_files = run(1)
        parallel, parallel_files = run(2)
        assert [(f["dataset"], f["detector"]) for f in serial["failures"]] == [
            ("ds0", "sw-nn"), ("ds1", "sw-nn"), ("ds2", "sw-nn"),
        ]
        assert len(serial_files) == 6 + 2  # score files plus report.json and report.txt
        assert parallel_files == serial_files
        assert parallel == serial

    def test_malformed_dataset_fails_each_detector_only(self, tmp_path):
        paths = self._write_corpus(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,value\n" + "".join(
            f"{t},{t % 5}.0\n" for t in [*range(1, 30), 29, *range(30, 60)]))
        manifest = load_manifest(self._write_manifest(tmp_path, [paths[0], bad, paths[1]]))
        report = run_grid(manifest)
        assert [(f["dataset"], f["detector"]) for f in report["failures"]] == [
            ("bad", "sw-nn"), ("bad", "fr-nn"),
        ]
        for failure in report["failures"]:
            assert failure["error"].startswith("DataError: ")
            assert "bad.csv:31: non-monotone timestamp" in failure["error"]
        assert sorted((p["dataset"], p["detector"]) for p in report["pairs"]) == [
            ("ds0", "fr-nn"), ("ds0", "sw-nn"), ("ds1", "fr-nn"), ("ds1", "sw-nn"),
        ]
        assert list(report["datasets"]) == ["ds0", "ds1"]

    def test_each_dataset_is_loaded_once(self, tmp_path, monkeypatch):
        import refstream.grid as grid

        paths = self._write_corpus(tmp_path)
        loaded = []

        def counting_load(path, *args, **kwargs):
            loaded.append(Path(path).name)
            return load_csv(path, *args, **kwargs)

        monkeypatch.setattr(grid, "load_csv", counting_load)
        report = run_grid(load_manifest(self._write_manifest(
            tmp_path, paths, detectors="sw-nn, fr-nn, sw-cc")))
        assert len(report["pairs"]) == 6
        assert loaded == ["ds0.csv", "ds1.csv"]

    def test_win_counts_account_for_slots(self, tmp_path):
        paths = self._write_corpus(tmp_path)
        report = run_grid(load_manifest(self._write_manifest(tmp_path, paths)))
        wc = report["win_counts"]
        assert wc["total_wins"] <= wc["scored_slots"]
        assert sum(sum(row.values()) for row in wc["matrix"].values()) == wc["total_wins"]

    def test_relative_and_delta_tables(self, tmp_path):
        paths = self._write_corpus(tmp_path)
        manifest_path = self._write_manifest(
            tmp_path, paths, extra="[groups]\nds0 = drifting\nds1 = stable\n"
        )
        report = run_grid(load_manifest(manifest_path))
        rel = relative_table(report, "roc_auc")
        assert set(rel) == {"fr", "lw", "sw", "ures", "ares", "nn", "den", "cc", "freq"}
        # only sw/fr ran; methods with no members on both sides drop out
        assert rel["sw"] and rel["fr"]
        delta = delta_table(report, "roc_auc", {"ds0": "drifting", "ds1": "stable"})
        assert delta["first"] == "drifting"
        assert delta["delta"]["sw"] == pytest.approx(-delta_swap(report), abs=1e-12)


def _pickle_records(path, records):
    """``write_score_csv`` that also keeps the records exactly, next to the CSV.

    A forked pool worker inherits it from the test that patches it in.
    """
    Path(path).with_suffix(".pkl").write_bytes(pickle.dumps(records))
    return write_score_csv(path, records)


class TestSharedFeatures:
    """A serial grid computes each dataset's features once and replays them to every job."""

    KINDS = ("drift", "regime", "periodic", "noisy")
    N = 200

    def _manifest(self, tmp_path, detectors="all-20"):
        files = []
        for i, kind in enumerate(self.KINDS):
            values, marks = benchmark_stream(self.N, seed=60 + i, kind=kind)
            files.append(write_csv(tmp_path / f"{kind}.csv", values, anomalies=marks).name)
        path = tmp_path / "manifest.ini"
        path.write_text(f"[manifest]\ndatasets = {', '.join(files)}\ndetectors = {detectors}\n"
                        "output_dir = out\nseed = 3\n")
        return load_manifest(path)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_records_equal_standalone_runs(self, tmp_path, monkeypatch, parallelism):
        import refstream.grid as grid

        if parallelism > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the patched writer only when forked")
        monkeypatch.setattr(grid, "write_score_csv", _pickle_records)
        manifest = self._manifest(tmp_path)
        manifest.parallelism = parallelism
        report = run_grid(manifest)
        assert not report["failures"] and len(report["pairs"]) == 80
        for path in manifest.datasets:
            bundle = load_csv(path)
            for name in DETECTOR_GRID:
                config = named_config(name, seed=_job_seed(manifest.seed, name, bundle.name))
                expected = build_detector(config, n_points=bundle.n_points).run(bundle.points())
                got = pickle.loads((tmp_path / "out" / f"{bundle.name}__{name}.pkl").read_bytes())
                assert got == expected, f"{bundle.name}/{name}"

    def test_serial_grid_builds_two_tapes_per_dataset(self, tmp_path, monkeypatch):
        pushed: dict[int, object] = {}  # id -> representation, kept alive so no id is reused
        for cls in (MeanStdFeatures, SaxFeatures):
            def counting_push(self, value, _push=cls.push):
                pushed.setdefault(id(self), self)
                return _push(self, value)

            monkeypatch.setattr(cls, "push", counting_push)
        report = run_grid(self._manifest(tmp_path))
        assert not report["failures"] and len(report["pairs"]) == 80
        kinds = [type(rep).__name__ for rep in pushed.values()]
        assert sorted(kinds) == ["MeanStdFeatures"] * 4 + ["SaxFeatures"] * 4
        assert all(rep.buffer_len() == rep.window for rep in pushed.values())

    def test_bundle_replays_share_one_read_only_tape(self, tmp_path):
        values, marks = benchmark_stream(self.N, seed=60, kind="drift")
        bundle = load_csv(write_csv(tmp_path / "d.csv", values, anomalies=marks))
        first, unused = MeanStdFeatures(10), MeanStdFeatures(10)
        replays = [bundle.replay(first), bundle.replay(unused)]
        assert (first.buffer_len(), unused.buffer_len()) == (10, 0)
        a, b = ([r.push(v) for v in bundle.values.tolist()][-1] for r in replays)
        assert np.shares_memory(a, b)
        with pytest.raises(ValueError):
            a[1] = 0.0

    def test_run_writes_the_grid_bytes(self, tmp_path, monkeypatch):
        # ures-cc and fr-freq replay tapes that sw-nn and ares-freq computed
        manifest = self._manifest(tmp_path, detectors="sw-nn, ares-freq, ures-cc, fr-freq")
        assert not run_grid(manifest)["failures"]
        monkeypatch.chdir(tmp_path)
        for name in ("ures-cc", "fr-freq"):
            seed = _job_seed(manifest.seed, name, "periodic")
            assert main(["run", "periodic.csv", "--detector", name, "--seed", str(seed),
                         "--out", f"run-{name}.csv"]) == 0
            assert (tmp_path / f"run-{name}.csv").read_bytes() == (
                tmp_path / "out" / f"periodic__{name}.csv").read_bytes()


def delta_swap(report):
    flipped = delta_table(report, "roc_auc", {"ds0": "stable", "ds1": "drifting"})
    return flipped["delta"]["sw"]


class TestCli:
    def _dataset(self, tmp_path):
        return make_dataset(tmp_path / "cli.csv", n=200, seed=3, anomalies=(120, 160))

    def test_run_writes_scores_and_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self._dataset(tmp_path)
        code = main(["run", str(path), "--detector", "sw-nn", "--seed", "5",
                     "--config", str(write_conf(tmp_path))])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 170
        assert (tmp_path / "cli__sw-nn.csv").exists()

    @pytest.mark.parametrize("argv, config, seed", [
        (["--seed", "5"], "reference", 5),  # the flag beats the file's seed
        ([], "[run]\nseed = 3\n", 3),
        ([], None, 0),
    ])
    def test_run_seed_precedence(self, tmp_path, capsys, monkeypatch, argv, config, seed):
        import refstream.cli as cli

        monkeypatch.chdir(tmp_path)
        path = self._dataset(tmp_path)
        if config == "reference":
            write_reference_config(tmp_path / "c.ini")
        elif config is not None:
            (tmp_path / "c.ini").write_text(config)
        built = []

        def recording_build(cfg, n_points=None):
            built.append(cfg.seed)
            return build_detector(cfg, n_points=n_points)

        monkeypatch.setattr(cli, "build_detector", recording_build)
        conf = ["--config", str(tmp_path / "c.ini")] if config is not None else []
        assert main(["run", str(path), "--detector", "ures-nn", *argv, *conf]) == 0
        assert built == [seed]

    def test_report_groups_file_keeps_key_case(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"pairs": [
            {"dataset": ds, "detector": det, "roc_auc": auc, "nab": None}
            for ds, scores in (("Drift01", (0.9, 0.5)), ("ds1", (0.4, 0.8)))
            for det, auc in zip(("sw-nn", "fr-nn"), scores)]}))
        (tmp_path / "g.ini").write_text("[groups]\nDrift01 = drifting\nds1 = stable\n")
        assert main(["report", str(report), "--groups", str(tmp_path / "g.ini")]) == 0
        delta = json.loads(capsys.readouterr().out)["delta"]
        assert delta["first"] == "drifting"
        assert delta["delta"]["sw"] is not None

    def test_run_reference_config(self, tmp_path, capsys):
        code = main(["run", "--write-reference-config", str(tmp_path / "ref.ini")])
        assert code == 0
        assert (tmp_path / "ref.ini").exists()

    def test_reference_config_runs_every_detector_as_the_defaults_do(self, tmp_path, capsys,
                                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self._dataset(tmp_path)
        ref = write_reference_config(tmp_path / "ref.ini")
        for name in DETECTOR_GRID:
            assert main(["run", str(path), "--detector", name, "--out", "plain.csv"]) == 0
            assert main(["run", str(path), "--detector", name, "--config", str(ref),
                         "--out", "ref.csv"]) == 0
            assert (tmp_path / "ref.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes(), name

    def test_run_names_the_detector_in_lowercase(self, tmp_path, capsys, monkeypatch):
        # as a grid does: the score file and the summary carry the name it writes
        monkeypatch.chdir(tmp_path)
        path = self._dataset(tmp_path)
        assert main(["run", str(path), "--detector", "FR-CC"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["detector"], summary["score_file"]) == ("fr-cc", "cli__fr-cc.csv")
        assert [p.name for p in tmp_path.glob("cli__*")] == ["cli__fr-cc.csv"]

    def test_unknown_detector_is_usage_error(self, tmp_path):
        path = self._dataset(tmp_path)
        assert main(["run", str(path), "--detector", "sw-bogus"]) == 1

    def test_bad_manifest_is_usage_error(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        manifest = tmp_path / "manifest.ini"
        head = f"[manifest]\ndatasets = {path.name}\ndetectors = sw-freq\n"
        for body, message in (
            ("seed = abc\n", "invalid value 'abc' for seed"),
            ("[sw-freq]\nwindwo = 20\n", "unknown key 'windwo' in [sw-freq]"),
            ("[defaults]\nsax_alphabet = 30\n", "sax_alphabet must be in [2, 26], got 30"),
        ):
            manifest.write_text(head + body)
            assert main(["grid", str(manifest)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_malformed_ini_is_usage_error_naming_the_file(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        bad = tmp_path / "bad.ini"
        report = tmp_path / "report.json"
        report.write_text('{"pairs": []}')
        for text, argv in (
            (f"[manifest]\ndatasets = {path.name}\nseed = 1\nseed = 2\n", ["grid", str(bad)]),
            ("[run]\nseed = 1\nseed = 2\n", ["run", str(path), "--config", str(bad)]),
            ("ds0 = drifting\n[groups]\n", ["report", str(report), "--groups", str(bad)]),
        ):
            bad.write_text(text)
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err

    def test_mixed_timestamps_are_data_error(self, tmp_path, capsys):
        p = tmp_path / "mixed.csv"
        p.write_text("timestamp,value\n1,0.0\n2015-01-01 00:00:00,1.0\n"
                     + "".join(f"2015-01-01 00:{m:02d}:00,0.0\n" for m in range(1, 30)))
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {p}:3: ") and err.count("\n") == 1, err

    def test_bad_score_file_is_data_error(self, tmp_path, capsys):
        # a nan final score used to print "roc_auc": NaN, which is not JSON
        path = self._dataset(tmp_path)
        scores = tmp_path / "s.csv"
        scores.write_text(",".join(SCORE_COLUMNS) + "\n" + "".join(
            f"{t},1.0,0.5,{'nan' if t == 120 else 0.1},0\n" for t in range(31, 201)))
        assert main(["score", str(scores), "--dataset", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {scores}:91: non-finite final_score 'nan'\n"

    def test_bad_label_file_is_data_error(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        labels = tmp_path / "labels.json"
        labels.write_text('{"cli": 86}')
        assert main(["run", str(path), "--labels", str(labels)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {labels}: labels of 'cli'") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["{}", "[1, 2]", '{"pairs": 3}'])
    def test_report_of_a_non_report_is_data_error(self, tmp_path, capsys, text):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert main(["report", str(report)]) == 2
        assert capsys.readouterr().err == f"data error: {report}: not a grid report " \
                                          "(no list of pairs)\n"

    @pytest.mark.parametrize("text, part", [
        ('{"pairs": [], "manifest": 3}',
         "manifest is not an object whose groups map datasets to labels"),
        ('{"pairs": [], "manifest": {"groups": {"a": ["x"]}}}',
         "manifest is not an object whose groups map datasets to labels"),
        ('{"pairs": [3]}', "pair 0 is not an object"),
        ('{"pairs": [{"dataset": "a"}]}', "pair 0 is not an object"),
        ('{"pairs": [{"dataset": "a", "detector": "sw-nn", "roc_auc": 0.5, "nab": null}, '
         '{"dataset": "a", "detector": "fr-nn", "roc_auc": "0.5", "nab": null}]}',
         "pair 1 is not an object"),
    ])
    def test_report_with_malformed_parts_is_data_error(self, tmp_path, capsys, text, part):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert main(["report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {report}: not a grid report ({part}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind, reason", [("directory", "it is a directory"),
                                              ("binary", "not UTF-8 text")])
    @pytest.mark.parametrize("argv", [
        ["run", "{bad}"],
        ["run", "{data}", "--labels", "{bad}"],
        ["score", "{scores}", "--dataset", "{bad}"],
        ["score", "{bad}", "--dataset", "{data}"],
        ["score", "{scores}", "--dataset", "{data}", "--labels", "{bad}"],
        ["characterize", "{bad}"],
        ["characterize", "{data}", "--labels", "{bad}"],
        ["report", "{bad}"],
    ])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, monkeypatch, argv,
                                            kind, reason):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe\x00 timestamp,value\n")
        paths = {"bad": bad, "data": self._dataset(tmp_path), "scores": tmp_path / "s.csv"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {bad}: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["report", "{bad}"], ["run", "{data}", "--labels", "{bad}"]])
    def test_json_that_does_not_parse_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                                     argv):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pairs": [')
        paths = {"bad": bad, "data": self._dataset(tmp_path)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: not JSON (Expecting value: line 1 column 12")
        assert err.count("\n") == 1

    def test_missing_file_is_data_error(self):
        assert main(["run", "no-such-file.csv"]) == 2

    def test_score_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self._dataset(tmp_path)
        assert main(["run", str(path), "--detector", "sw-cc", "--config",
                     str(write_conf(tmp_path))]) == 0
        capsys.readouterr()
        code = main(["score", str(tmp_path / "cli__sw-cc.csv"), "--dataset", str(path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["records"] == 170
        assert out["nab"] is None or out["nab"] <= 1.0

    def test_characterize_command(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self._dataset(tmp_path)
        conf = write_conf(tmp_path)
        for det in ("sw-nn", "sw-cc"):
            main(["run", str(path), "--detector", det, "--config", str(conf)])
        capsys.readouterr()
        code = main(["characterize", str(path), "--scores-dir", str(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_anomalies"] == 2
        assert out["nc"] is not None
        assert out["diversity_roc_auc"] is not None

    def test_grid_and_report_commands(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        values, marks = benchmark_stream(300, seed=9, kind="drift")
        write_csv(tmp_path / "g0.csv", values, anomalies=marks)
        values, marks = benchmark_stream(300, seed=10, kind="noisy")
        write_csv(tmp_path / "g1.csv", values, anomalies=marks)
        (tmp_path / "m.ini").write_text(
            "[manifest]\ndatasets = g0.csv, g1.csv\ndetectors = sw-nn, fr-nn\n"
            "output_dir = out\nseed = 1\n"
            "[defaults]\nk = 3\nrep_window = 2\n"
            "[groups]\ng0 = drifting\ng1 = stable\n"
        )
        assert main(["grid", str(tmp_path / "m.ini")]) == 0
        capsys.readouterr()
        code = main(["report", str(tmp_path / "out" / "report.json"), "--metric", "roc_auc"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "relative_performance" in out and "delta" in out


class TestSyntheticCorpusScript:
    def test_corpus_runs_as_a_grid_and_reports_group_deltas(self, tmp_path, capsys):
        root = Path(refstream.__file__).resolve().parents[2]
        subprocess.run(
            [sys.executable, str(root / "scripts" / "make_synthetic_corpus.py"), str(tmp_path),
             "--datasets", "3", "--length", "200", "--detectors", "sw-nn,sw-freq"],
            capture_output=True, check=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
        assert main(["grid", str(tmp_path / "manifest.ini")]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "results" / "report.json")]) == 0
        delta = json.loads(capsys.readouterr().out)["delta"]
        assert (delta["first"], delta["second"]) == ("drifting", "stable")
        # each measure is ranked against the other; sw holds both detectors, so it has no delta
        assert None not in (delta["delta"]["nn"], delta["delta"]["freq"])


def write_conf(tmp_path):
    conf = tmp_path / "conf.ini"
    conf.write_text("[measure]\nk = 3\n[representation]\nwindow = 2\n")
    return conf
