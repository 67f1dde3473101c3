"""The lint report must be byte-identical across runs and file orders."""

import random
from pathlib import Path

from repro.analysis import analyze
from repro.analysis.sarif import render

from ..conftest import FIXTURES


def _document(fmt, root):
    return render(fmt, analyze([root]))


def test_repeated_runs_are_byte_identical():
    root = FIXTURES / "proj_rng"
    assert _document("json", root) == _document("json", root)
    assert _document("sarif", root) == _document("sarif", root)


def test_shuffled_discovery_order_is_byte_identical(monkeypatch):
    root = FIXTURES / "proj_state"
    baseline = _document("json", root)

    real_rglob = Path.rglob

    def shuffled_rglob(self, pattern):
        items = list(real_rglob(self, pattern))
        random.Random(20260808).shuffle(items)
        return iter(items)

    monkeypatch.setattr(Path, "rglob", shuffled_rglob)
    assert _document("json", root) == baseline


def test_to_jsonable_round_trips_stably():
    report = analyze([FIXTURES / "proj_purity"])
    doc1 = report.to_jsonable()
    doc2 = analyze([FIXTURES / "proj_purity"]).to_jsonable()
    assert doc1 == doc2
    assert doc1["version"] == 1
    keys = [(f["path"], f["line"], f["col"], f["rule"])
            for f in doc1["findings"]]
    assert keys == sorted(keys)
