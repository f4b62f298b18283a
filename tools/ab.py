"""Paired A/B runs of the benchmark: a base commit against this checkout.

    python3 tools/ab.py --base REF --out BENCH_N.json [--pairs 10]
        [--seconds S] [--workload NAME ...]

The base commit is checked out with `git worktree` under `tools/out/`
(git-ignored) and removed again at the end. For each workload the tool
runs `perfbench/run.py` untraced, alternating base and head: pair `i` runs
both sides with seed `1000 + i`, the base first in even pairs and the head
first in odd ones, so slow drift of the host falls on both sides alike.
`--base .` compares this checkout with itself (an A/A run). After the
pairs, each side makes one traced run (`--trace 1`) of the workload on
seed `1000 + pairs`, which no pair used, to show in which layer a change
lands.

The output file holds the commits, the machine (nproc, Python and numpy
versions), every run's metrics, and per workload and end-to-end metric
the head/base ratio of each pair, their median with a distribution-free
interval (`median_interval`) and its coverage, each side's median and
quartiles, and how many pairs the head won (ties count for neither side),
and under `traced` each side's per-layer metrics from its traced run with
their head/base ratio (`traced_record`). Metric names and better
directions come from `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tools" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED0 = 1000  # pair i runs seed SEED0 + i


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One run, untraced unless `trace`; returns the result line of
    `perfbench/run.py`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"ab: {workload} seed {seed} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(xs: list[float]) -> list[float]:
    return [float(q) for q in np.percentile(xs, [25, 50, 75])]


def median_interval(xs: list[float]) -> tuple[float, float, float]:
    """Order-statistic interval for the median of `xs`, and its coverage.

    The interval is [x_(k), x_(n+1-k)] of the sorted values, for the largest
    k with 2·P(Bin(n, 1/2) <= k-1) <= 0.05; it covers the median with
    probability 1 - 2·P(Bin(n, 1/2) <= k-1) whatever the distribution. With
    fewer than 6 values no such k exists, and the interval is the min and
    the max (k = 1) with their lower coverage.
    """
    xs, n = sorted(xs), len(xs)

    def tail(k: int) -> float:  # P(Bin(n, 1/2) <= k - 1)
        return sum(math.comb(n, j) for j in range(k)) / 2**n

    k = 1
    while 2 * tail(k + 1) <= 0.05:
        k += 1
    return xs[k - 1], xs[n - k], 1 - 2 * tail(k)


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: paired ratios, their median with its
    order-statistic interval, each side's quartiles, and the head's wins."""
    out = {}
    for m in SPEC["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        ratios = np.array(head) / np.array(base)
        lo, hi, coverage = median_interval(ratios.tolist())
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        out[name] = {
            "ratios": ratios.tolist(),
            "median_ratio": float(np.median(ratios)),
            "median_interval": [lo, hi],
            "coverage": coverage,
            "base_quartiles": quartiles(base),
            "head_quartiles": quartiles(head),
            "head_wins": f"{wins}/{len(pairs)}",
            "better": m["better"],
        }
    return out


def traced_record(seed: int, base: dict, head: dict) -> dict:
    """The traced runs of both sides: per declared per-layer metric, each
    side's value (None where its run never reached the layer) and the
    head/base ratio where both have a nonzero base."""
    layers = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        b, h = base["metrics"].get(name), head["metrics"].get(name)
        layers[name] = {
            "base": b,
            "head": h,
            "ratio": h / b if b and h is not None else None,
            "better": m["better"],
        }
    return {
        "seed": seed,
        "correct": {"base": base["correct"], "head": head["correct"]},
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare against; '.' for this checkout")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default every workload)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]

    head_sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    if args.base == ".":
        base_dir, base_sha = ROOT, "."
    else:
        base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
        base_dir = OUT / f"base-{base_sha[:12]}"
        if base_dir.exists():
            git("worktree", "remove", "--force", str(base_dir))
        OUT.mkdir(parents=True, exist_ok=True)
        git("worktree", "add", "--detach", str(base_dir), base_sha)
    try:
        runs: dict[str, list[dict]] = {}
        traced: dict[str, dict] = {}
        for w in workloads:
            runs[w] = []
            for i in range(args.pairs):
                seed = SEED0 + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(base_dir if side == "base" else ROOT, w, seed, args.seconds)
                runs[w].append(pair)
                b, h = (pair[s]["metrics"]["days_per_s"] for s in ("base", "head"))
                print(f"{w} pair {i} seed {seed}: days/s base {b:.3f} head {h:.3f} ratio {h / b:.3f}",
                      flush=True)
            seed = SEED0 + args.pairs
            traced[w] = traced_record(
                seed, *(bench(d, w, seed, args.seconds, trace=True) for d in (base_dir, ROOT))
            )
    finally:
        if base_dir != ROOT:
            git("worktree", "remove", "--force", str(base_dir))

    doc = {
        "base": {"sha": base_sha},
        "head": {"sha": head_sha, "uncommitted_changes": dirty},
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed0": SEED0},
        "workloads": {
            w: {"summary": summarize(runs[w]), "pairs": runs[w], "traced": traced[w]}
            for w in workloads
        },
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for w in workloads:
        for name, s in doc["workloads"][w]["summary"].items():
            lo, hi = s["median_interval"]
            print(f"{w:<18} {name:<12} median head/base {s['median_ratio']:.3f} "
                  f"[{lo:.3f}, {hi:.3f}] ({s['coverage']:.1%})  head wins {s['head_wins']}")
        for name, layer in traced[w]["layers"].items():
            if layer["ratio"] is not None:
                print(f"{w:<18} traced {name:<36} base {layer['base']:.6g} "
                      f"head {layer['head']:.6g} head/base {layer['ratio']:.3f}")


if __name__ == "__main__":
    main()
