"""The summary and pairing logic of tools/bench_pairs.py, without running
the benchmark."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("11-13,20") == [11, 12, 13, 20]
    assert bench_pairs.parse_seeds("5") == [5]
    for text in ("20-11", "1,20-11", ""):
        with pytest.raises((bench_pairs.argparse.ArgumentTypeError,
                            ValueError)):
            bench_pairs.parse_seeds(text)


def test_a_reversed_seed_range_exits_before_any_export(monkeypatch, capsys):
    def export_sides(*args):
        raise AssertionError("exported")

    monkeypatch.setattr(bench_pairs, "export_sides", export_sides)
    with pytest.raises(SystemExit) as done:
        bench_pairs.main(["--parent", "HEAD", "--workload", "corpus",
                          "--seeds", "20-11", "--seconds", "1",
                          "--out", "unused.json"])
    assert done.value.code == 2
    assert "empty seed range '20-11'" in capsys.readouterr().err


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_a_clear_lower_is_better_gain_counts():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [p - 0.2 for p in parent]
    change[3] = parent[3] + 0.01          # one loss
    s = bench_pairs.summarize(list(zip(parent, change)), "lower")
    assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (9, 1, 10)
    assert s["gain_counts"]
    assert s["change_over_parent"] == pytest.approx(0.8, abs=0.01)


def test_ties_count_for_neither_side():
    pairs = [(1.0, 0.5)] * 8 + [(1.0, 1.0)] * 2
    s = bench_pairs.summarize(pairs, "lower")
    assert (s["change_wins"], s["parent_wins"]) == (8, 0)
    assert not s["gain_counts"]             # 8 of 10 is under nine tenths


def test_fewer_than_ten_pairs_support_no_gain():
    nine = bench_pairs.summarize([(1.0, 0.5)] * 9, "lower")
    ten = bench_pairs.summarize([(1.0, 0.5)] * 10, "lower")
    assert (nine["change_wins"], ten["change_wins"]) == (9, 10)
    assert not nine["gain_counts"]
    assert ten["gain_counts"]


def test_higher_is_better_flips_the_direction():
    pairs = [(10.0 + k, 20.0 + k) for k in range(10)]
    up = bench_pairs.summarize(pairs, "higher")
    down = bench_pairs.summarize(pairs, "lower")
    assert (up["change_wins"], up["gain_counts"]) == (10, True)
    assert (down["change_wins"], down["parent_wins"]) == (0, 10)
    assert not down["gain_counts"]


def test_a_win_inside_the_parent_spread_does_not_count():
    # every pair won, but by less than the parent's interquartile range
    parent = [1.0, 1.4, 0.8, 1.2, 0.9, 1.3, 1.1, 1.0, 1.2, 0.9]
    s = bench_pairs.summarize([(p, p - 0.05) for p in parent], "lower")
    assert s["change_wins"] == 10
    assert s["parent"]["q3"] - s["parent"]["q1"] > 0.05
    assert not s["gain_counts"]


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_bench(root, workload, seed, seconds, trace):
        calls.append((root, seed, trace))
        return {"metrics": {"wall_s": 2.0 if root == "P" else 1.0},
                "digest": "d"}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    rec = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "corpus",
                                [7, 8, 9], 40.0, {"wall_s": ("lower", 0.25)})
    assert [p["first"] for p in rec["pairs"]] == ["parent", "change", "parent"]
    assert calls == [("P", 7, 0), ("C", 7, 0), ("C", 8, 0), ("P", 8, 0),
                     ("P", 9, 0), ("C", 9, 0), ("P", 7, 1), ("C", 7, 1)]
    assert rec["summary"]["wall_s"]["change_wins"] == 3


STEADY = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
WIDE = [1.0, 1.6, 0.6, 1.3, 0.8, 1.5, 0.7, 1.0, 1.4, 0.9]


@pytest.mark.parametrize("parent, change, better, verdict", [
    (STEADY, STEADY, "lower", "ok"),
    (STEADY, [p * 1.2 for p in STEADY], "lower", "ok"),      # inside 25 %
    (STEADY, [p * 1.3 for p in STEADY], "lower", "worse"),
    (STEADY, [p * 1.3 for p in STEADY], "higher", "ok"),
    (STEADY, [p * 0.7 for p in STEADY], "higher", "worse"),
    (WIDE, WIDE, "lower", "unresolved"),     # the parent spread hides 25 %
    (WIDE, [0.5 * min(WIDE)] * 10, "lower", "ok"),  # every change run wins
    (WIDE, [1.3 * max(WIDE)] * 10, "lower", "worse"),
])
def test_regression_verdict_against_the_bound(parent, change, better,
                                              verdict):
    pairs = list(zip(parent, change))
    assert bench_pairs.regression(pairs, better, 0.25) == verdict


def test_pairs_record_whether_the_digests_match(monkeypatch):
    def fake_bench(root, workload, seed, seconds, trace):
        moved = root == "C" and seed == 8
        return {"metrics": {"wall_s": 1.0}, "digest": "e" if moved else "d"}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    rec = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "corpus",
                                [7, 8, 9], 40.0, {"wall_s": ("lower", 0.25)})
    assert [p["digests_match"] for p in rec["pairs"]] == [True, False, True]
    assert rec["summary"]["wall_s"]["regression"] == "ok"


def fake_run(failed=0, code=0):
    return {"metrics": {"wall_s": 1.0}, "digest": "d", "attempted": 5,
            "failed": failed, "exit": code}


CLEAN = "0/20 operations, 0 nonzero exits"


@pytest.mark.parametrize("bad, status, parent, change", [
    ({}, 0, CLEAN, CLEAN),
    ({("C", 8, 0): fake_run(failed=2, code=1)}, 1,
     CLEAN, "2/20 operations, 1 nonzero exits"),
    ({("P", 7, 1): fake_run(code=3)}, 1,          # the traced run counts
     "0/20 operations, 1 nonzero exits", CLEAN),
])
def test_failed_runs_are_printed_and_set_the_exit_status(
        monkeypatch, capsys, bad, status, parent, change):
    def fake_bench(root, workload, seed, seconds, trace):
        return bad.get((root, seed, trace), fake_run())

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    rec = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "corpus",
                                [7, 8, 9], 40.0, {"wall_s": ("lower", 0.25)})
    assert bench_pairs.report({"workloads": {"corpus": rec}}) == status
    out = capsys.readouterr().out
    assert f"corpus          parent failed {parent}" in out
    assert f"corpus          change failed {change}" in out


@pytest.mark.parametrize("parent, change, verdict, status", [
    ([1.0] * 5, [1.5] * 5, "worse", 1),      # 50 % slower, bound 25 %
    ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0], "unresolved", 0),
    ([1.0] * 5, [1.1] * 5, "ok", 0),
])
def test_a_worse_metric_sets_the_exit_status(monkeypatch, capsys, parent,
                                             change, verdict, status):
    walls = {"P": parent, "C": change}

    def fake_bench(root, workload, seed, seconds, trace):
        return fake_run() | {"metrics": {"wall_s": walls[root][seed - 1]}}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    rec = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "corpus",
                                [1, 2, 3, 4, 5], 40.0,
                                {"wall_s": ("lower", 0.25)})
    assert rec["summary"]["wall_s"]["regression"] == verdict
    assert bench_pairs.report({"workloads": {"corpus": rec}}) == status
    assert f" {verdict}\n" in capsys.readouterr().out


def test_each_metric_prints_the_parents_interquartile_range(monkeypatch,
                                                            capsys):
    # the parent's wall_s over seeds 1-5 is 1.0 ... 1.4 (quartiles 1.1
    # and 1.3), the change's 0.5 ... 0.9
    def fake_bench(root, workload, seed, seconds, trace):
        wall = 0.9 + 0.1 * seed - (0.5 if root == "C" else 0.0)
        return fake_run() | {"metrics": {"wall_s": wall}}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    rec = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "corpus",
                                [1, 2, 3, 4, 5], 40.0,
                                {"wall_s": ("lower", 0.25)})
    assert bench_pairs.report({"workloads": {"corpus": rec}}) == 0
    assert ("corpus          wall_s         parent 1.2 (IQR 0.2) change 0.7 "
            "(0.583x) wins 5/5 ok\n") in capsys.readouterr().out


def test_pairs_whose_host_moved_are_printed(monkeypatch, capsys):
    # the host-loop time of each (side, seed): seed 2's pair ran 20 %
    # slower on the change's side, seed 3's 15 % faster, seed 4's has
    # no host-loop time on one side
    loops = {("P", 1): 0.150, ("C", 1): 0.160, ("P", 2): 0.100,
             ("C", 2): 0.120, ("P", 3): 0.200, ("C", 3): 0.170,
             ("P", 4): None, ("C", 4): 0.100}

    def fake_bench(root, workload, seed, seconds, trace):
        return fake_run() | {"host_loop_s": loops[root, seed]}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    rec = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "corpus",
                                [1, 2, 3, 4], 40.0,
                                {"wall_s": ("lower", 0.25)})
    ratios = [p["host_loop_ratio"] for p in rec["pairs"]]
    assert ratios[:3] == pytest.approx([0.160 / 0.150, 1.2, 0.85])
    assert ratios[3] is None
    assert bench_pairs.report({"workloads": {"corpus": rec}}) == 0
    out = capsys.readouterr().out
    assert ("corpus          host loop moved more than 10% in 2/4 pairs: "
            "seed 2 1.200x, seed 3 0.850x\n") in out


def test_both_sides_run_from_fresh_exports(tmp_path, monkeypatch):
    """Neither side runs from the checkout: the parent is a ``git archive``
    export of the revision and the change a copy of the working tree's
    tracked and untracked, non-ignored files, both under one temporary
    directory."""
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "run.py").write_text("old\n")
    (repo / "gone.txt").write_text("tracked\n")
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
    (repo / "pkg" / "run.py").write_text("edited\n")
    (repo / "pkg" / "new.py").write_text("unstaged\n")
    (repo / "out.log").write_text("ignored\n")
    (repo / "gone.txt").unlink()
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    sides = bench_pairs.export_sides("HEAD", tmp_path / "tmp")
    for root in sides.values():
        assert root.parent == tmp_path / "tmp"
        assert root != bench_pairs.ROOT
    parent, change = sides["parent"], sides["change"]
    assert (parent / "pkg" / "run.py").read_text() == "old\n"
    assert (change / "pkg" / "run.py").read_text() == "edited\n"
    assert (change / "pkg" / "new.py").is_file()
    assert not (parent / "pkg" / "new.py").exists()
    assert not (change / "out.log").exists()
    assert not (change / "gone.txt").exists()
    assert (parent / "gone.txt").is_file()


def test_the_record_holds_each_sides_source_lines(tmp_path, monkeypatch,
                                                  capsys):
    """``src_lines`` counts the lines of ``src/curvlab/*.py`` in each
    side's export, as ``wc -l`` would, and the summary prints both."""
    repo = tmp_path / "repo"
    pkg = repo / "src" / "curvlab"
    pkg.mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}')
    (pkg / "a.py").write_text("1\n2\n3\n")
    (pkg / "b.py").write_text("1\n2\n")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
    (pkg / "a.py").write_text("1\n")
    (pkg / "c.py").write_text("1\n2\n3\n4\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "bench",
                        lambda root, workload, seed, seconds, trace: fake_run())
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "corpus",
                             "--seeds", "1", "--seconds", "1",
                             "--out", str(out)]) == 0
    record = bench_pairs.json.loads(out.read_text())
    assert record["src_lines"] == {"parent": 5, "change": 7}
    assert "src/curvlab lines: parent 5 change 7 (+2)\n" in \
        capsys.readouterr().out
