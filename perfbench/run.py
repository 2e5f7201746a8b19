"""diffloc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(perfbench/worker.py) that imports diffloc from src/ with BLAS pinned to one
thread, so peak memory is per workload.  With --trace 0 the end-to-end
metrics are measured untraced, and set-up is timed in that interpreter plus
SETUP_CHILDREN more fresh ones.  With --trace 1 untraced and traced rounds
alternate, and the per-layer metrics come from the traced ones.  Without
--workload every workload in BENCHMARK.json runs in turn.

The report names every metric with its unit; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every correctness check passed; it is 2, with no result, when the
checkout holds no diffloc sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
SETUP_CHILDREN = 2
# One run must end within 180 s; leave room for start-up and the report.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {' '.join(args)} did not finish within {remaining:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    main = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if trace:
        return {"worker": main, "metrics": main.get("layer", {})}
    setups = [main] + [run_worker([*common, "--setup-only"], deadline) for _ in range(SETUP_CHILDREN)]
    metrics = {
        "setup_s": statistics.median(s["setup_scaled"] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    if main.get("fwd_scaled"):
        metrics["grad_items_per_s"] = main["grad_items"] / statistics.median(main["grad_scaled"])
        metrics["forward_items_per_s"] = main["fwd_items"] / statistics.median(main["fwd_scaled"])
    return {"worker": main, "metrics": metrics, "setups": [s["setup_s"] for s in setups]}


def report(name: str, seed: int, trace: int, result: dict, units: dict) -> None:
    """Human-readable lines: the end-to-end metrics under the names users
    know them by, the samples behind them, and the environment."""
    w, m = result["worker"], result["metrics"]
    print(f"== {name}  seed={seed}  {'traced' if trace else 'untraced'}")
    if not trace:
        print(f"  setup_s              {m['setup_s']:.4f} s  host-scaled median of fresh interpreters; wall {spread(result['setups'])}")
        if "grad_items_per_s" in m:
            grad = f"host-scaled median; wall {spread(w['grad_walls'])}"
            fwd = f"host-scaled median; wall {spread(w['fwd_walls'])}"
            if name == "diagnostics":
                print(f"  gradcheck_s          {statistics.median(w['grad_scaled']):.4f} s  {w['grad_items']} rows, {grad}")
                print(f"  distcheck_s          {statistics.median(w['fwd_scaled']):.4f} s  {w['fwd_items']} rows, {fwd}")
                print(f"  varcompare_s         {w['varcompare_s']:.4f} s  wall of one call")
            else:
                print(f"  train_examples_per_s {m['grad_items_per_s']:.2f} examples/s  {w['grad_items']} per train(), {grad}")
                print(f"  eval_examples_per_s  {m['forward_items_per_s']:.2f} examples/s  {w['fwd_items']} per evaluate(), {fwd}")
        for key, value in w.get("quality", {}).items():
            print(f"  {key.split('.', 1)[1]:<20} {value!r}")
        print(f"  peak_rss_mb          {m['peak_rss_mb']:.1f} MiB")
    else:
        print(f"  {w.get('traced_pairs', 0)} untraced/traced round pairs, {w.get('spans', 0)} spans kept from the first")
        if w.get("absent"):
            print(f"  not in diffloc, so not traced: {', '.join(w['absent'])}")
        for key in sorted(m):
            if m[key]:
                print(f"  {key:<48} {m[key]:.6g} {units.get(key, '')}")
    print(f"  failed_frac          {w['failed'] / max(w['attempted'], 1):.4f}  ({w['failed']} of {w['attempted']} operations)")
    for problem in w["problems"]:
        print(f"  FAILED: {problem}")
    env = " ".join(f"{k}={v}" for k, v in w["env"].items())
    print(f"  env: {env}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diffloc benchmark")
    parser.add_argument("--workload", help="one workload from BENCHMARK.json; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out-seed", type=int, help="seed kept back for confirming a claimed gain")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "diffloc" / "__init__.py").is_file():
        print(f"diffloc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.held_out_seed is not None:
        note = " (this is it: confirm claims only)" if args.seed == args.held_out_seed else ""
        print(f"held-out seed: {args.held_out_seed}{note}")

    selected = [args.workload] if args.workload else names
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        deadline = monotonic() + RUN_LIMIT_S
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as err:
            print(f"{name}: {err}", file=sys.stderr)
            return 1
        report(name, args.seed, args.trace, result, units)
        worker, metrics = result["worker"], result["metrics"]
        if set(metrics) != set(units):
            missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
            print(f"{name}: metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}", file=sys.stderr)
            return 1
        prefix = f"{name}/" if len(selected) > 1 else ""
        for key in units:
            outcome["metrics"][prefix + key] = {"value": metrics[key], "unit": units[key]}
        outcome["attempted"] += worker["attempted"]
        outcome["failed"] += worker["failed"]
        outcome["correct"] = outcome["correct"] and worker["failed"] == 0
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
