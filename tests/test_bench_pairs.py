"""`summary` and `claims` in scripts/bench_pairs.py, which decide every
claimed gain, the checkout record that says what a BENCH file compared,
and the one-round counts it keeps and compares."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
script = runpy.run_path(str(SCRIPT))
summary, regressions, unresolved, claims, count_changes = (
    script["summary"], script["regressions"], script["unresolved"],
    script["claims"], script["count_changes"])
checkout_state = script["checkout_state"]

BETTER = {"evals_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}


def pair(parent: dict, change: dict) -> dict:
    return {side: {"metrics": {name: {"value": v} for name, v in values.items()}}
            for side, values in (("parent", parent), ("change", change))}


def test_wins_follow_the_declared_direction_and_ties_count_for_neither():
    faster_and_lighter = pair(
        {"w.evals_per_s": 10, "w.setup_s": 2.0, "w.peak_rss_mb": 90},
        {"w.evals_per_s": 12, "w.setup_s": 1.0, "w.peak_rss_mb": 80})
    slower_and_heavier = pair(
        {"w.evals_per_s": 10, "w.setup_s": 1.0, "w.peak_rss_mb": 80},
        {"w.evals_per_s": 8, "w.setup_s": 2.0, "w.peak_rss_mb": 90})
    tie = pair({"w.evals_per_s": 10, "w.setup_s": 1.0, "w.peak_rss_mb": 80},
               {"w.evals_per_s": 10, "w.setup_s": 1.0, "w.peak_rss_mb": 80})
    pairs = [faster_and_lighter] * 3 + [slower_and_heavier, tie]
    assert summary(pairs, BETTER)["wins"] == {
        "w.evals_per_s": 3, "w.peak_rss_mb": 3, "w.setup_s": 3}


def test_medians_ratios_and_exclusive_quartiles():
    parent = [float(v) for v in range(1, 11)]
    change = [2 * v for v in parent]
    pairs = [pair({"w.evals_per_s": p}, {"w.evals_per_s": c})
             for p, c in zip(parent, change)]
    got = summary(pairs, BETTER)
    assert got["median"] == {"parent": {"w.evals_per_s": 5.5},
                             "change": {"w.evals_per_s": 11.0},
                             "ratio": {"w.evals_per_s": 2.0}}
    # exclusive method: positions (n + 1) / 4 = 2.75 and 3 (n + 1) / 4 = 8.25
    assert got["quartiles"] == {"parent": {"w.evals_per_s": [2.75, 8.25]},
                                "change": {"w.evals_per_s": [5.5, 16.5]}}
    assert got["wins"] == {"w.evals_per_s": 10}


def test_mismatched_metric_names_raise():
    pairs = [pair({"w.setup_s": 1.0}, {"w.setup_s": 1.0}),
             pair({"w.setup_s": 1.0}, {"w.peak_rss_mb": 80})]
    with pytest.raises(ValueError, match="different metrics"):
        summary(pairs, BETTER)


def test_regressions_are_end_to_end_medians_past_their_relative_bound():
    declared = {"end_to_end": [
        {"name": "cells_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    old = {"a.cells_per_s": 100.0, "b.cells_per_s": 100.0,
           "a.peak_rss_mb": 40.0, "b.peak_rss_mb": 40.0,
           "a.setup_s": 1.0, "a.rate_kernel.calls": 10.0}
    new = {"a.cells_per_s": 70.0,    # 30 % slower: past 0.25
           "b.cells_per_s": 80.0,    # 20 % slower: within
           "a.peak_rss_mb": 45.0,    # 12.5 % heavier: past 0.1
           "b.peak_rss_mb": 36.0,    # lighter
           "a.setup_s": 1.2,         # 20 % slower: within
           "a.rate_kernel.calls": 99.0}   # per-layer: no bound
    medians = summary([pair(old, new)] * 3, BETTER | {
        "cells_per_s": "higher", "rate_kernel.calls": "lower"})["median"]
    assert regressions(medians, declared) == [
        {"metric": "a.cells_per_s", "parent": 100.0, "change": 70.0,
         "bound": 0.25},
        {"metric": "a.peak_rss_mb", "parent": 40.0, "change": 45.0,
         "bound": 0.1}]


def test_unresolved_are_end_to_end_metrics_whose_parent_spreads_past_bound():
    declared = {"end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "evals_per_s", "better": "higher", "bound": 0.25}]}
    # (parent, change) per pair for each metric
    runs = {
        # parent quartiles 0.3 and 0.5 about a 0.4 median: 0.5 > 0.25
        "wide.setup_s": [(0.3, 0.3), (0.4, 0.4), (0.5, 0.5)] * 2,
        # as wide, but every change run is faster than every parent run
        "faster.setup_s": [(0.3, 0.2), (0.4, 0.2), (0.5, 0.2)] * 2,
        # parent quartiles 0.95 and 1.05 about 1.0: 0.1 < 0.25
        "narrow.setup_s": [(0.95, 2.0), (1.0, 2.0), (1.05, 2.0)] * 2,
        # wide; the change wins every pair, but not every run: 140 > 101
        "wide.evals_per_s": [(60, 100), (100, 101), (140, 150)] * 2,
        "wide.rate_kernel.calls": [(1, 1), (5, 5), (9, 9)] * 2,  # no bound
    }
    pairs = [pair({name: v[i][0] for name, v in runs.items()},
                  {name: v[i][1] for name, v in runs.items()})
             for i in range(6)]
    stats = summary(pairs, BETTER | {"rate_kernel.calls": "lower"})
    found = unresolved(stats, pairs, declared)
    assert [f["metric"] for f in found] == ["wide.evals_per_s",
                                            "wide.setup_s"]
    assert found[1] == {"metric": "wide.setup_s", "parent": 0.4,
                        "quartiles": stats["quartiles"]["parent"]
                        ["wide.setup_s"], "bound": 0.25}


def test_claims_need_nine_of_ten_wins_and_a_gap_past_the_parent_spread():
    parent = [float(v) for v in range(100, 110)]    # quartiles 101.75, 107.25
    runs = {
        # wins 10 of 10 by 10: past the 5.5 quartile distance
        "clear.evals_per_s": [(p, p + 10) for p in parent],
        # wins 9 of 10, the median 7 better: claimable
        "nine.evals_per_s": [(p, p + 8) for p in parent[:9]]
                            + [(parent[9], parent[9] - 1)],
        # wins 8 of 10 by far: too few wins
        "eight.evals_per_s": [(p, p + 50) for p in parent[:8]]
                             + [(p, p) for p in parent[8:]],
        # wins every pair, but the median only 3 better: within the spread
        "narrow.evals_per_s": [(p, p + 3) for p in parent],
        # lower is better: 10 less in every pair is a gain
        "clear.setup_s": [(p, p - 10) for p in parent],
        # 10 more in every pair is a loss, not a gain
        "worse.setup_s": [(p, p + 10) for p in parent],
    }
    pairs = [pair({name: v[i][0] for name, v in runs.items()},
                  {name: v[i][1] for name, v in runs.items()})
             for i in range(10)]
    stats = summary(pairs, BETTER)
    assert stats["quartiles"]["parent"]["clear.evals_per_s"] == [101.75,
                                                                  107.25]
    assert claims(stats, len(pairs), BETTER) == {
        "clear.evals_per_s": True, "clear.setup_s": True,
        "eight.evals_per_s": False, "narrow.evals_per_s": False,
        "nine.evals_per_s": True, "worse.setup_s": False}


def git(repo: Path, *args) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         *args], check=True, capture_output=True, text=True).stdout.strip()


def test_checkout_state_names_the_commit_and_a_dirty_tree(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "a.py").write_text("x = 1\n")
    git(repo, "add", "a.py")
    git(repo, "commit", "-q", "-m", "one")
    head = git(repo, "rev-parse", "HEAD")
    assert checkout_state(repo) == {"head": head, "dirty": False}
    (repo / "a.py").write_text("x = 2\n")                 # tracked edit
    assert checkout_state(repo) == {"head": head, "dirty": True}
    git(repo, "checkout", "-q", "a.py")
    (repo / "b.py").write_text("")                        # untracked file
    assert checkout_state(repo) == {"head": head, "dirty": True}


def test_checkout_state_of_a_plain_directory_is_null(tmp_path):
    # also inside a git checkout: the repository above is not reported
    repo = tmp_path / "repo"
    plain = repo / "export"
    plain.mkdir(parents=True)
    git(repo, "init", "-q")
    git(repo, "commit", "-q", "--allow-empty", "-m", "one")
    assert checkout_state(repo)["head"] is not None
    assert checkout_state(plain) == {"head": None, "dirty": None}
    assert checkout_state(tmp_path / "missing") == {"head": None,
                                                    "dirty": None}


def test_a_failed_run_raises_with_its_status_and_stderr_tail(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'line {i}', file=sys.stderr)\n"
        "sys.exit(1)\n")
    with pytest.raises(RuntimeError) as failed:
        script["run"](tmp_path, 0)
    message = str(failed.value)
    assert "bench/run.py exited with status 1" in message
    assert message.endswith("\n".join(f"line {i}" for i in range(10, 30)))
    assert "line 9\n" not in message


PER_LAYER = [{"name": "rate_kernel.calls", "unit": "count/cell",
              "better": "lower"},
             {"name": "codebook.calls", "unit": "count/cell",
              "better": "lower"},
             {"name": "rate_kernel.ms", "unit": "ms/cell", "better": "lower"}]


def run_main(tmp_path, monkeypatch, metrics):
    """Run `main` with `bench/run.py` replaced by a call that returns
    metrics(checkout name, trace, one_round); returns (calls, record)."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "cells_per_s", "unit": "1/s",
                        "better": "higher", "bound": 0.25}],
        "per_layer": PER_LAYER}))
    calls = []

    def fake_run(checkout, trace, seed=0, seconds=script["SECONDS"]):
        calls.append((checkout.name, trace, seed, seconds))
        one_round = (seed, seconds) == (3, 0.01)
        return {"correct": True, "failed": 0,
                "metrics": metrics(checkout.name, trace, one_round)}

    main = script["main"]
    monkeypatch.setitem(main.__globals__, "run", fake_run)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--out", str(out)])
    main()
    return calls, json.loads(out.read_text())


def test_counts_of_one_traced_round_per_side_are_written(tmp_path,
                                                          monkeypatch):
    def metrics(side, trace, one_round):
        return {"w.cells_per_s": {"value": 5.0, "unit": "1/s"},
                "w.rate_kernel.calls": {"value": 7.0 if one_round else 9.0,
                                        "unit": "count/cell"}}

    calls, record = run_main(tmp_path, monkeypatch, metrics)
    # 10 pairs per trace setting, then the one round on each side
    assert len(calls) == 42
    assert calls[-2:] == [("parent", 1, 3, 0.01), ("change", 1, 3, 0.01)]
    one_round = {"w.rate_kernel.calls": {"value": 7.0, "unit": "count/cell"}}
    assert record["counts"] == {
        "command": "bench/run.py --workload all --seed 3 --seconds 0.01 "
                   "--trace 1",
        "parent": one_round, "change": one_round}
    assert record["count_changes"] == {"w": {}}


def test_an_unwritable_out_fails_before_the_first_run(tmp_path, monkeypatch):
    ran = []
    main = script["main"]
    monkeypatch.setitem(main.__globals__, "run", lambda *a: ran.append(a))
    out = tmp_path / "missing" / "BENCH.json"
    root = str(SCRIPT.parent.parent)    # a checkout with a BENCHMARK.json
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", root, root,
                                      "--out", str(out)])
    with pytest.raises(FileNotFoundError):
        main()
    assert ran == []
    assert list(tmp_path.iterdir()) == []


def test_trace1_bounds_are_not_applicable(tmp_path, monkeypatch):
    # the traced runs report per-layer metrics only; the untraced ones
    # hold a 40 % slowdown, which trace0 reports
    def metrics(side, trace, one_round):
        if trace:
            return {"w.rate_kernel.calls": {"value": 7.0,
                                            "unit": "count/cell"}}
        return {"w.cells_per_s": {"value": 3.0 if side == "change" else 5.0,
                                  "unit": "1/s"}}

    _, record = run_main(tmp_path, monkeypatch, metrics)
    assert record["trace1"]["regressions"] is None
    assert record["trace1"]["unresolved"] is None
    assert [r["metric"] for r in record["trace0"]["regressions"]] == [
        "w.cells_per_s"]
    assert record["trace0"]["unresolved"] == []


def test_count_changes_list_differing_counts_per_workload():
    def side(values):
        return {name: {"value": v, "unit": "-"} for name, v in values.items()}

    counts = {
        "parent": side({"a.rate_kernel.calls": 7.0, "a.codebook.calls": 9.0,
                        "a.rate_kernel.ms": 1.0, "b.rate_kernel.calls": 3.0,
                        "b.codebook.calls": 4.0}),
        # a: codebook.calls fell, and the ms (not a count) moved;
        # b: equal counts, but one side lacks codebook.calls
        "change": side({"a.rate_kernel.calls": 7.0, "a.codebook.calls": 2.0,
                        "a.rate_kernel.ms": 2.0, "b.rate_kernel.calls": 3.0})}
    assert count_changes(counts, {"per_layer": PER_LAYER}) == {
        "a": {"codebook.calls": {"parent": 9.0, "change": 2.0}},
        "b": {"codebook.calls": {"parent": 4.0, "change": None}}}
