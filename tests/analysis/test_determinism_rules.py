"""The determinism family (D1xx) and the RNG rules (R501/R502) fire on the
determinism fixture, and only as expected."""

from collections import Counter

from repro.analysis import analyze_source


def rules_of(findings):
    return Counter(f.rule for f in findings)


def test_fixture_fires_every_determinism_rule(fixture_findings):
    findings = fixture_findings("bad_determinism.py")
    assert rules_of(findings) == Counter(
        {"D101": 2, "R501": 2, "R502": 2, "D104": 3, "D105": 2}
    )


def test_wall_clock_flags_time_time_and_datetime_now():
    src = "import time\nfrom datetime import datetime\n" "t = time.time()\nd = datetime.now()\n"
    findings = analyze_source(src)
    assert [f.rule for f in findings] == ["D101", "D101"]


def test_wall_clock_allows_perf_counter_and_monotonic():
    src = "import time\nt = time.perf_counter()\nm = time.monotonic()\n"
    assert analyze_source(src) == []


def test_import_aliases_are_resolved():
    src = "import numpy.random as npr\nx = npr.normal()\n"
    assert [f.rule for f in analyze_source(src)] == ["R502"]


def test_unseeded_default_rng_flagged_seeded_allowed():
    # Inside a function: a module-level generator is R503 on its own.
    bad = "import numpy as np\ndef f():\n    return np.random.default_rng()\n"
    good = "import numpy as np\ndef f():\n    return np.random.default_rng(42)\n"
    assert [f.rule for f in analyze_source(bad)] == ["R501"]
    assert analyze_source(good) == []


def test_generator_method_calls_not_confused_with_global_stream():
    src = (
        "import numpy as np\n"
        "def f():\n"
        "    rng = np.random.default_rng(0)\n"
        "    return rng.normal()\n"
    )
    assert analyze_source(src) == []


def test_sorted_set_iteration_allowed():
    src = "def f(items):\n    return [i for i in sorted(set(items))]\n"
    assert analyze_source(src) == []


def test_set_display_in_for_loop_flagged():
    src = "for x in {1, 2, 3}:\n    print(x)\n"
    assert [f.rule for f in analyze_source(src)] == ["D104"]


def test_shard_dict_iteration_flagged_unless_sorted():
    bad = (
        "def merge(by_shard):\n"
        "    return [v for k, v in by_shard.items()]\n"
    )
    good = (
        "def merge(by_shard):\n"
        "    return [v for k, v in sorted(by_shard.items())]\n"
    )
    assert [f.rule for f in analyze_source(bad)] == ["D105"]
    assert analyze_source(good) == []


def test_shard_tokens_match_whole_tokens_only():
    # `maps`/`shape` contain "ap"/"ha" substrings but are not AP dicts.
    clean = (
        "def f(maps, shape_info):\n"
        "    a = [v for v in maps.values()]\n"
        "    b = [k for k in shape_info.keys()]\n"
        "    return a, b\n"
    )
    assert analyze_source(clean) == []
    flagged = (
        "def f(room_reports, aps):\n"
        "    for room, r in room_reports.items():\n"
        "        pass\n"
        "    for ap in aps.keys():\n"
        "        pass\n"
    )
    assert [f.rule for f in analyze_source(flagged)] == ["D105", "D105"]


def test_shard_dict_attribute_access_flagged():
    src = (
        "def f(state):\n"
        "    return [k for k in state.by_room.keys()]\n"
    )
    assert [f.rule for f in analyze_source(src)] == ["D105"]


def test_shard_dict_noqa_suppresses():
    src = (
        "def f(by_shard):\n"
        "    return [  # order is display-only here\n"
        "        v for v in by_shard.values()  # repro: noqa[D105]\n"
        "    ]\n"
    )
    (finding,) = analyze_source(src)
    assert finding.rule == "D105" and finding.suppressed
