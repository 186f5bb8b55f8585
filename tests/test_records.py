"""Every record of the digest matrix, pinned run by run.

``scripts/record_digest.py`` defines the matrix (436 detector runs) and
writes ``tests/records.golden`` with ``--write-golden``: the line the
script prints, then one line per run with its row, stream, detector,
refresh mode, test period, record count and the SHA-256 of its packed
records, 437 lines in all. This module runs the matrix once and compares each run with its
golden line, so a change that moves records names the runs it moved.

The golden bits hold for numpy 2.4.6 and the platform's libm on x86-64
Linux, where they were written: another numpy or libm may round a
transcendental or a reduction differently. A change that moves records
on purpose rewrites the file and says which runs moved.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_digest.py"
_spec = importlib.util.spec_from_file_location("record_digest", SCRIPT)
record_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_digest)


def split(line):
    """A golden run line as (run key, 'count sha256')."""
    key, count, sha = line.rsplit(" ", 2)
    return key, f"{count} {sha}"


@pytest.fixture(scope="module")
def lines():
    return record_digest.digest_lines(record_digest.record_bytes())


def test_every_run_matches_its_golden_line(lines):
    golden = record_digest.GOLDEN.read_text().splitlines()
    got, want = dict(map(split, lines[1:])), dict(map(split, golden[1:]))
    assert len(got) == len(lines) - 1, "two runs share a key"
    moved = sorted(key for key in got.keys() & want.keys() if got[key] != want[key])
    assert not moved, f"{len(moved)} runs moved:\n" + "\n".join(moved)
    missing, new = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not missing and not new, f"runs missing: {missing}; runs not in the file: {new}"
    assert lines == golden


def test_exact_refresh_equals_its_incremental_twin(lines):
    runs = dict(map(split, lines[1:]))
    exact = [key for key in runs if " exact " in key]
    assert len(exact) == 200
    differ = [key for key in exact if runs[key] != runs[key.replace(" exact ", " incremental ")]]
    assert not differ, f"{len(differ)} exact-refresh runs differ from their twin:\n" + "\n".join(differ)
