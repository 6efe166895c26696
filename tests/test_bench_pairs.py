"""Statistics and record layout of ``tools/bench_pairs.py`` on fixed numbers
(no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [20.0, 22.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0, 36.0, 38.0]
CHANGE = [41.0, 43.0, 23.0, 47.0, 49.0, 51.0, 53.0, 55.0, 57.0, 59.0]


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "higher")
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (24.5, 29.0, 33.5)
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (44.0, 50.0, 54.5)
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["change_worse_by"] == round((29.0 - 50.0) / 29.0, 4)
    assert s["gain_over_parent_iqr"] == pytest.approx(21.0 / 9.0)
    assert s["ratio"] == pytest.approx(50.0 / 29.0)
    lo, hi = s["ratio_ci95"]
    assert lo < s["ratio"] < hi
    assert s["parent_values"] == PARENT and s["change_values"] == CHANGE


def test_summary_of_a_lower_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "lower")
    assert s["change_wins"] == 1
    assert s["change_worse_by"] == round((50.0 - 29.0) / 29.0, 4)
    assert s["gain_over_parent_iqr"] == pytest.approx(-21.0 / 9.0)


def test_ties_are_not_wins_and_a_flat_parent_has_no_iqr_gain():
    s = bench_pairs.summarize([5.0] * 4, [5.0, 5.0, 6.0, 4.0], "higher")
    assert s["change_wins"] == 1
    assert s["gain_over_parent_iqr"] is None


def test_bootstrap_interval_is_reproducible_and_collapses_on_equal_runs():
    first = bench_pairs.bootstrap_ratio_interval(PARENT, CHANGE, samples=2000, seed=3)
    assert first == bench_pairs.bootstrap_ratio_interval(PARENT, CHANGE, samples=2000, seed=3)
    assert first[0] <= first[1]
    doubled = [2.0 * p for p in PARENT]
    assert bench_pairs.bootstrap_ratio_interval(PARENT, doubled, samples=500) == [2.0, 2.0]


def test_summary_needs_matching_pairs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "higher")


STAT = """cpu  4451115 0 166388 9941713 27333 0 33147 145852 0 0
cpu0 2266768 0 84089 4926284 17572 0 14109 72594 0 0
cpu1 2184346 0 82299 5015429 9761 0 19038 73257 0 0
intr 123456 0 9
ctxt 987654
"""


def test_steal_ticks_come_from_the_aggregate_cpu_line():
    assert bench_pairs.steal_ticks(STAT) == 145852
    with pytest.raises(ValueError):
        bench_pairs.steal_ticks("cpu0 1 2 3 4 5 6 7 8 9 10\n")


def test_load_snapshot_reads_loadavg_and_stat(tmp_path):
    (tmp_path / "loadavg").write_text("0.25 0.27 0.35 1/85 12046\n")
    (tmp_path / "stat").write_text(STAT)
    assert bench_pairs.load_snapshot(tmp_path) == {
        "loadavg": "0.25 0.27 0.35 1/85 12046", "steal_ticks": 145852,
    }
    assert bench_pairs.load_snapshot(tmp_path / "missing") is None


def test_pairs_keep_setup_s_and_import_s_side_by_side_per_seed(monkeypatch):
    def fake_run(tree, workload, seed, trace):
        value = {"parent": 0.2, "change": 0.25}[tree] + seed / 1000
        metrics = {"setup_s": {"value": value}, "ops_per_s": {"value": 100.0 + seed}}
        result = {"metrics": metrics, "failed": 0, "attempted": 10, "correct": True}
        return {"seed": seed, "import_s": value - 0.05, "meta": {}, "result": result, "load": None}

    monkeypatch.setattr(bench_pairs, "run_perfbench", fake_run)
    metrics = [{"name": "setup_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    _, pairs = bench_pairs.paired_runs({"parent": "parent", "change": "change"}, "w", [2, 3], metrics)
    assert pairs["setup_and_import_s"] == {
        side: [{"seed": seed, "setup_s": base + seed / 1000, "import_s": base + seed / 1000 - 0.05}
               for seed in (2, 3)]
        for side, base in (("parent", 0.2), ("change", 0.25))
    }
    assert pairs["metrics"]["setup_s"]["parent_values"] == [0.202, 0.203]


def test_import_seconds_times_one_import_of_the_tree():
    seconds = bench_pairs.import_seconds(_PATH.parents[1])
    assert 0.0 < seconds < 60.0
