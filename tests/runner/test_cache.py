"""ResultCache: round trips, invalidation, and corruption handling."""

from __future__ import annotations

import json

import pytest

from repro.runner import ResultCache, RunSpec
from repro.runner.cache import ENV_CACHE_DIR, default_cache_root


def test_round_trip_preserves_floats_exactly(tmp_path):
    cache = ResultCache(root=tmp_path, version="1")
    spec = RunSpec.make("exp", x=1)
    result = {"value": 0.1 + 0.2, "items": [1.5, "text", True, None]}
    cache.put(spec, result)
    assert cache.get(spec) == result
    assert cache.get(spec)["value"] == 0.30000000000000004


def test_miss_on_unknown_spec(tmp_path):
    cache = ResultCache(root=tmp_path, version="1")
    assert cache.get(RunSpec.make("exp", x=1)) is None


def test_version_bump_invalidates(tmp_path):
    spec = RunSpec.make("exp", x=1)
    ResultCache(root=tmp_path, version="1").put(spec, {"v": 1})
    assert ResultCache(root=tmp_path, version="2").get(spec) is None
    assert ResultCache(root=tmp_path, version="1").get(spec) == {"v": 1}


def test_parameter_change_lands_on_new_key(tmp_path):
    cache = ResultCache(root=tmp_path, version="1")
    cache.put(RunSpec.make("exp", x=1), {"v": 1})
    assert cache.get(RunSpec.make("exp", x=2)) is None
    assert cache.get(RunSpec.make("exp", x=1, seed=8)) is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(root=tmp_path, version="1")
    spec = RunSpec.make("exp", x=1)
    path = cache.put(spec, {"v": 1})
    path.write_text("{not json", encoding="utf-8")
    assert cache.get(spec) is None


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_non_object_entry_reads_as_miss(tmp_path, text):
    cache = ResultCache(root=tmp_path, version="1")
    spec = RunSpec.make("exp", x=1)
    path = cache.put(spec, {"v": 1})
    path.write_text(text, encoding="utf-8")
    assert cache.get(spec) is None


def test_tampered_spec_reads_as_miss(tmp_path):
    cache = ResultCache(root=tmp_path, version="1")
    spec = RunSpec.make("exp", x=1)
    path = cache.put(spec, {"v": 1})
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["spec"]["params"]["x"] = 999
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cache.get(spec) is None


def test_clear(tmp_path):
    cache = ResultCache(root=tmp_path, version="1")
    cache.put(RunSpec.make("a", x=1), {"v": 1})
    cache.put(RunSpec.make("b", x=1), {"v": 2})
    assert cache.clear() == 2
    assert cache.get(RunSpec.make("a", x=1)) is None
    assert cache.clear() == 0


def test_default_root_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
    assert default_cache_root() == tmp_path / "elsewhere"
    monkeypatch.delenv(ENV_CACHE_DIR)
    assert default_cache_root().name == ".repro-cache"
