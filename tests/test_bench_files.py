"""Committed benchmark trajectories: every BENCH_*.json at the root of the
repository holds the runs behind a claimed gain or loss, and its summary is
what those runs say."""

import json
import math
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}


def test_a_trajectory_is_committed():
    assert BENCH_FILES, "no BENCH_*.json at the root of the repository"


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_holds_its_runs_and_their_summary(path):
    bench = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", bench["revisions"]["parent"])
    assert isinstance(bench["revisions"]["change"], str) and bench["revisions"]["change"]
    assert "python=" in bench["env"] and "numpy=" in bench["env"]
    assert bench["sets"]
    for entry in bench["sets"]:
        workload, seed, seconds = entry["workload"], entry["seed"], entry["seconds"]
        assert workload in WORKLOADS
        assert isinstance(seed, int) and seed >= 0 and seconds > 0
        command = entry["command"].split()
        assert command[:2] == ["python3", "perfbench/run.py"]
        flags = dict(zip(command[2::2], command[3::2]))
        assert flags["--workload"] == workload and int(flags["--seed"]) == seed
        assert float(flags["--seconds"]) == seconds

        pairs = entry["pairs"]
        assert pairs
        for pair in pairs:
            assert pair["first"] in ("parent", "change")
            for side in ("parent", "change"):
                run = pair[side]
                assert run["correct"] is True and run["failed"] == 0 and run["attempted"] > 0, (workload, side)
                assert set(run["metrics"]) >= set(END_TO_END)

        assert set(entry["metrics"]) == set(END_TO_END)
        for name, better in END_TO_END.items():
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            ratio = statistics.median(c / p for p, c in zip(parent, change))
            won = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
            summary = entry["metrics"][name]
            assert math.isclose(summary["median_ratio"], ratio, rel_tol=1e-9), (workload, seed, name)
            assert summary["pairs_won"] == won and summary["pairs"] == len(pairs), (workload, seed, name)
