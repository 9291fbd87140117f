"""scripts/bench_pairs.py's summary on synthetic pairs; the benchmark itself
never runs here."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# parent runs 10.0-10.9 ms: median 10.45, quartiles 10.175 and 10.725 by
# statistics.quantiles' exclusive method, as perfbench/reference.py takes them
PARENT = [10.0 + 0.1 * i for i in range(10)]


def test_clear_gain_holds(bench_pairs):
    s = bench_pairs.summarize([(p, p - 2.0) for p in PARENT], "lower", 0.25)
    assert s["parent"] == pytest.approx((10.45, 10.175, 10.725))
    assert s["change"] == pytest.approx((8.45, 8.175, 8.725))
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["gain_holds"] and s["within_bound"]


def test_eight_wins_of_ten_is_not_a_gain(bench_pairs):
    pairs = [(p, p - 2.0) for p in PARENT[:8]] + [(p, p + 1.0) for p in PARENT[8:]]
    s = bench_pairs.summarize(pairs, "lower", 0.25)
    assert s["wins"] == 8 and not s["gain_holds"]


def test_nine_wins_with_a_tie(bench_pairs):
    pairs = [(p, p - 2.0) for p in PARENT[:9]] + [(PARENT[9], PARENT[9])]
    s = bench_pairs.summarize(pairs, "lower", 0.25)
    assert s["wins"] == 9 and s["gain_holds"]
    tied = bench_pairs.summarize([(p, p) for p in PARENT], "lower", 0.25)
    assert tied["wins"] == 0 and not tied["gain_holds"] and tied["within_bound"]


def test_gap_inside_the_parent_spread_is_not_a_gain(bench_pairs):
    # wins every pair, but the medians differ by 0.5 < the parent's 0.55 spread;
    # linear quartiles (0.45 apart) would have let it through
    s = bench_pairs.summarize([(p, p - 0.5) for p in PARENT], "lower", 0.25)
    assert s["wins"] == 10 and not s["gain_holds"]
    assert bench_pairs.summarize([(p, p - 0.6) for p in PARENT], "lower", 0.25)["gain_holds"]


def test_fewer_than_ten_pairs_is_not_a_gain(bench_pairs):
    s = bench_pairs.summarize([(p, p - 2.0) for p in PARENT[:9]], "lower", 0.25)
    assert s["wins"] == 9 and not s["gain_holds"]


def test_higher_is_better_direction(bench_pairs):
    up = bench_pairs.summarize([(p, p + 2.0) for p in PARENT], "higher", 0.25)
    down = bench_pairs.summarize([(p, p - 2.0) for p in PARENT], "higher", 0.25)
    assert up["wins"] == 10 and up["gain_holds"]
    assert down["wins"] == 0 and not down["gain_holds"] and down["within_bound"]


def test_bound_is_relative_to_the_parent_median(bench_pairs):
    # parent median 10.45 with a 10% bound: 1.045 worse is the limit
    assert bench_pairs.summarize([(p, p + 1.0) for p in PARENT], "lower", 0.1)["within_bound"]
    assert not bench_pairs.summarize([(p, p + 1.1) for p in PARENT], "lower",
                                     0.1)["within_bound"]


# a bimodal parent: median 10.5, quartiles 8 and 13, a spread of 5 > 0.25 * 10.5
BIMODAL = [8.0] * 5 + [13.0] * 5


def test_a_bound_inside_a_wide_parent_spread_is_unresolved(bench_pairs):
    s = bench_pairs.summarize([(p, p + 0.5) for p in BIMODAL], "lower", 0.25)
    assert s["within_bound"] and not s["resolved"]
    assert bench_pairs.bound_verdict(s) == "unresolved"
    # winning every pair is not enough: a change run of 12.9 is slower than 8
    s = bench_pairs.summarize([(p, p - 0.1) for p in BIMODAL], "lower", 0.25)
    assert s["wins"] == 10 and bench_pairs.bound_verdict(s) == "unresolved"


def test_every_change_run_beating_every_parent_run_resolves(bench_pairs):
    s = bench_pairs.summarize([(p, 7.5) for p in BIMODAL], "lower", 0.25)
    assert s["resolved"] and bench_pairs.bound_verdict(s) == "ok"
    s = bench_pairs.summarize([(p, 13.5) for p in BIMODAL], "higher", 0.25)
    assert s["resolved"] and bench_pairs.bound_verdict(s) == "ok"
    s = bench_pairs.summarize([(p, 8.0) for p in BIMODAL], "lower", 0.25)
    assert bench_pairs.bound_verdict(s) == "unresolved"  # ties beat nothing


def test_a_narrow_parent_spread_resolves_and_an_exceeded_bound_stays_exceeded(bench_pairs):
    s = bench_pairs.summarize([(p, p + 0.5) for p in PARENT], "lower", 0.25)
    assert s["resolved"] and bench_pairs.bound_verdict(s) == "ok"
    s = bench_pairs.summarize([(p, p + 5.0) for p in BIMODAL], "lower", 0.25)
    assert not s["within_bound"] and bench_pairs.bound_verdict(s) == "EXCEEDED"


SPEC = {"run_seconds": 1, "end_to_end": [
    {"name": "step_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}


@pytest.mark.parametrize("change_rss, code", [(9.0, 0), (11.0, 0), (11.6, 1)])
def test_main_exits_1_when_a_bound_is_exceeded(bench_pairs, monkeypatch, tmp_path, capsys,
                                               change_rss, code):
    # parent peak_rss_mb 10.45 in the median; a 10% bound allows up to 11.495
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    runs = {"parent": iter(PARENT), "change": iter([change_rss] * 10)}

    def run_once(root, workload, seed, seconds):
        assert (workload, seed, seconds) == ("w", 1, 1)
        side = "parent" if root.name == "parent" else "change"
        return {"step_ms": 5.0, "peak_rss_mb": next(runs[side])}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    (tmp_path / "parent").mkdir()
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path),
            "--workload", "w", "--seed", "1", "--pairs", "10"]
    assert bench_pairs.main(argv) == code
    out, err = capsys.readouterr()
    assert out.count("bound EXCEEDED") == code
    assert ("bound EXCEEDED: peak_rss_mb" in err) == bool(code)


def test_out_writes_the_pairs_and_the_verdicts(bench_pairs, monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "parent").mkdir()
    runs = {"parent": iter(PARENT), "change": iter([p - 2.0 for p in PARENT])}

    def run_once(root, workload, seed, seconds):
        side = "parent" if root.name == "parent" else "change"
        return {"step_ms": 5.0, "peak_rss_mb": next(runs[side])}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path),
                             "--workload", "w", "--seed", "2", "--pairs", "10",
                             "--out", str(out)]) == 0
    saved = json.loads(out.read_text())
    assert (saved["workload"], saved["seed"], saved["run_seconds"]) == ("w", 2, 1)
    assert [pair["parent_first"] for pair in saved["pairs"]] == [True, False] * 5
    assert [pair["parent"]["peak_rss_mb"] for pair in saved["pairs"]] == PARENT
    assert [pair["change"]["peak_rss_mb"] for pair in saved["pairs"]] == [
        p - 2.0 for p in PARENT]
    rss, step = saved["metrics"]["peak_rss_mb"], saved["metrics"]["step_ms"]
    assert rss["parent"] == pytest.approx({"median": 10.45, "q1": 10.175, "q3": 10.725})
    assert rss["change"] == pytest.approx({"median": 8.45, "q1": 8.175, "q3": 8.725})
    assert (rss["unit"], rss["better"], rss["bound"]) == ("MB", "lower", 0.1)
    assert (rss["wins"], rss["bound_verdict"], rss["gain_holds"]) == (10, "ok", True)
    assert (step["wins"], step["bound_verdict"], step["gain_holds"]) == (0, "ok", False)

