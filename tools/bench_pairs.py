#!/usr/bin/env python3
"""Paired parent/change runs of ``perfbench``, written as a ``BENCH_<n>.json`` record.

    python3 tools/bench_pairs.py --parent ../parent-checkout --change . --out BENCH_13.json

Both trees are checkouts of this repository.  For every workload in the
change tree's ``BENCHMARK.json`` and every seed (2-11 by default), the tool
runs ``python3 perfbench/run.py --workload W --seed S --trace 0`` once in
each tree, alternating which tree goes first; workloads run one after the
other and never in parallel.  It then keeps the seed-1 runs at ``--trace 0``
and ``--trace 1`` of both trees (``records``) and times the tier-1 suite in
both trees (``tier1``), unless ``--pairs-only`` is given.

For each end-to-end metric the record holds both sides' per-seed values,
medians and quartiles, the number of pairs the change wins, how much worse
the change's median is (a fraction of the parent's, in the metric's own
direction) and the change/parent median ratio with a paired bootstrap 95%
interval.  The interval is a second view next to the ``BENCHMARK.json``
bounds, not a replacement for them.  Failed ops are kept per seed.

Each run also keeps the machine's load around it (``load``): the
``/proc/loadavg`` line and the steal ticks of ``/proc/stat``, both read
(never written) before and after the run, and the steal ticks in between.
A set disturbed by other tenants of a shared machine shows there.

Before each run the tool also times ``import framekit, framekit.cli`` in a
fresh interpreter of that tree (``import_s``), the child whose wall time
``perfbench/run.py`` adds to ``setup_s``.  ``perfbench`` waits on that child
by polling, so its share of ``setup_s`` is rounded up to the next poll, in
steps of up to 50 ms; this tool waits without a timeout, with no polling.
Each workload's pairs list ``setup_s`` and ``import_s`` per seed side by
side (``setup_and_import_s``), so a step of ``setup_s`` can be told apart
from a change in import time.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SEEDS = tuple(range(2, 12))
RECORD_SEED = 1
BOOTSTRAP_SAMPLES = 10_000
RUN_TIMEOUT_S = 900
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]


# ---------------------------------------------------------------------------
# statistics


def bootstrap_ratio_interval(parent, change, samples=BOOTSTRAP_SAMPLES, seed=0):
    """95% interval of ``median(change) / median(parent)`` over resampled pairs.

    Pairs are resampled whole (the ``i``-th parent run with the ``i``-th
    change run), from a fixed seed, so the interval is reproducible.
    """
    rng = random.Random(seed)
    n = len(parent)
    ratios = []
    for _ in range(samples):
        picks = [rng.randrange(n) for _ in range(n)]
        ratios.append(
            statistics.median(change[i] for i in picks) / statistics.median(parent[i] for i in picks)
        )
    cuts = statistics.quantiles(ratios, n=40, method="inclusive")
    return [cuts[0], cuts[-1]]


def summarize(parent, change, better: str) -> dict:
    """One metric over paired runs; ``better`` is ``"higher"`` or ``"lower"``."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    return {
        "parent_median": p_med,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "change_median": c_med,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "change_wins": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        "pairs": len(parent),
        "change_worse_by": round(sign * (p_med - c_med) / p_med, 4),
        # how far the median moved in the better direction, in parent inter-quartile ranges
        "gain_over_parent_iqr": sign * (c_med - p_med) / (p_q3 - p_q1) if p_q3 > p_q1 else None,
        "ratio": c_med / p_med,
        "ratio_ci95": bootstrap_ratio_interval(parent, change),
        "parent_values": list(parent),
        "change_values": list(change),
    }


# ---------------------------------------------------------------------------
# machine load


def steal_ticks(stat_text: str) -> int:
    """The steal ticks of the aggregate ``cpu`` line of a ``/proc/stat`` text.

    The fields after ``cpu`` are user, nice, system, idle, iowait, irq,
    softirq and steal, in clock ticks summed over all CPUs.
    """
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8])
    raise ValueError("no aggregate cpu line")


def load_snapshot(proc: Path = Path("/proc")) -> dict | None:
    """``/proc/loadavg`` and the ``/proc/stat`` steal ticks now, or ``None`` without them."""
    try:
        loadavg = (proc / "loadavg").read_text().strip()
        steal = steal_ticks((proc / "stat").read_text())
    except (OSError, ValueError, IndexError):
        return None
    return {"loadavg": loadavg, "steal_ticks": steal}


def _measured(run):
    """``run()``'s result and the machine load around it."""
    before = load_snapshot()
    result = run()
    after = load_snapshot()
    steal = after["steal_ticks"] - before["steal_ticks"] if before and after else None
    return result, {"before": before, "after": after, "steal_ticks_during": steal}


# ---------------------------------------------------------------------------
# runs


def _src_env(tree: Path) -> dict:
    """The environment with ``tree/src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    return env


def import_seconds(tree: Path) -> float:
    """Wall time of a fresh interpreter that imports ``framekit, framekit.cli``
    from ``tree`` and exits, waited on with no timeout and so with no polling."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import framekit, framekit.cli"], cwd=tree,
                   env=_src_env(tree), check=True)
    return time.perf_counter() - start


def run_perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its seed, the import time of ``tree``
    just before it, its ``# meta`` line and its result line."""
    import_s = import_seconds(tree)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc, load = _measured(
        lambda: subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta "))
    return {"seed": seed, "import_s": import_s, "meta": meta, "result": json.loads(lines[-1]), "load": load}


def run_tier1(tree: Path) -> dict:
    start = time.perf_counter()
    proc, load = _measured(
        lambda: subprocess.run([sys.executable, *TIER1], cwd=tree, env=_src_env(tree), capture_output=True,
                               text=True, timeout=RUN_TIMEOUT_S)
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    summary = next((l.strip("= ") for l in reversed(lines) if re.search(r"\d+ (passed|failed)", l)), "")
    durations = [
        {"test": m.group(2), "s": float(m.group(1))}
        for m in (re.match(r"([\d.]+)s \w+\s+(\S+)", l) for l in lines) if m
    ]
    return {"summary": summary, "wall_s": round(wall, 3), "durations_top5": durations[:5], "load": load}


def paired_runs(trees: dict, workload: str, seeds, metrics: list) -> tuple[dict, dict]:
    """The ``# meta`` of one workload's last run, and the summary of its pairs."""
    sides = ("parent", "change")
    runs = {"parent": [], "change": []}
    loads = {"parent": [], "change": []}
    imports = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        for side in sides if k % 2 == 0 else sides[::-1]:
            run = run_perfbench(trees[side], workload, seed, 0)
            runs[side].append(run["result"])
            loads[side].append(run["load"])
            imports[side].append({"seed": seed, "setup_s": run["result"]["metrics"]["setup_s"]["value"],
                                  "import_s": run["import_s"]})
            print(f"  {workload} seed {seed} {side}: "
                  f"{runs[side][-1]['metrics']['ops_per_s']['value']:.3f} ops/s", file=sys.stderr)
    return run["meta"], {
        "seeds": list(seeds),
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in sides},
        "failed_per_seed": {s: [r["failed"] for r in runs[s]] for s in sides},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in sides},
        "correct_all_runs": all(r["correct"] for s in sides for r in runs[s]),
        "load_per_seed": loads,
        "setup_and_import_s": imports,
        "metrics": {
            m["name"]: summarize(
                [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                m["better"],
            )
            for m in metrics
        },
    }


def _machine(meta: dict) -> str:
    blas = meta.get("blas", {})
    return (f"{meta.get('nproc')} CPUs ({meta.get('cpu_model')}), Python {meta.get('python')}, "
            f"numpy {meta.get('numpy')}, {blas.get('name')} {blas.get('version')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", default=".", type=Path, help="checkout of the change (default .)")
    parser.add_argument("--out", required=True, type=Path, help="record to write, e.g. BENCH_13.json")
    parser.add_argument("--about", default="", help="what the change is, for the record")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs-only", action="store_true", help="skip the seed-1 records and tier-1")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = args.seeds

    record = {
        "about": args.about,
        "machine": "",
        "commands": {
            "records": f"python3 perfbench/run.py --workload W --seed {RECORD_SEED} --trace {{0,1}}",
            "pairs": f"python3 perfbench/run.py --workload W --seed S --trace 0, seeds "
                     f"{' '.join(map(str, seeds))}, parent and change alternating which runs first, "
                     "workloads run one after the other",
            "tier1": f"PYTHONPATH=src python {' '.join(TIER1)}",
            "import": "python3 -c 'import framekit, framekit.cli' with the tree's src first on "
                      "PYTHONPATH, before each run, waited on with no timeout",
            "tool": "python3 tools/bench_pairs.py --parent <parent checkout> --change <change checkout>",
        },
    }
    if not args.pairs_only:
        record["records"] = {side: {} for side in trees}
        for workload in workloads:
            for side, tree in trees.items():
                record["records"][side][workload] = {
                    f"trace{t}": run_perfbench(tree, workload, RECORD_SEED, t) for t in (0, 1)
                }
        record["tier1"] = {side: run_tier1(tree) for side, tree in trees.items()}
    key = f"pairs_trace0_seeds_{min(seeds)}_to_{max(seeds)}"
    record[key] = {}
    for workload in workloads:
        meta, record[key][workload] = paired_runs(trees, workload, seeds, spec["end_to_end"])
    record["machine"] = _machine(meta)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
