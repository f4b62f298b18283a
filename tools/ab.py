"""Paired A/B runs of the benchmark: a base commit against this checkout.

    python3 tools/ab.py --base REF --out BENCH_N.json [--pairs 10]
        [--seconds S] [--workload NAME ...]

The base commit is checked out with `git worktree` under `tools/out/`
(git-ignored) and removed again at the end. For each workload the tool
runs `perfbench/run.py` untraced, alternating base and head: pair `i` runs
both sides with seed `1000 + i`, the base first in even pairs and the head
first in odd ones, so slow drift of the host falls on both sides alike.
`--base .` compares this checkout with itself (an A/A run).

The output file holds the commits, the machine (nproc, Python and numpy
versions), every run's metrics, and per workload and end-to-end metric
the head/base ratio of each pair, their median with a percentile-bootstrap
95% interval, each side's median and quartiles, and how many pairs the
head won (ties count for neither side). Metric names and better
directions come from `BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tools" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOOTSTRAP = 10_000
SEED0 = 1000  # pair i runs seed SEED0 + i


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; returns the result line of `perfbench/run.py`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
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


def summarize(pairs: list[dict], rng: np.random.Generator) -> dict:
    """Per end-to-end metric: paired ratios, their median and bootstrap
    interval, each side's quartiles, and the head's wins."""
    out = {}
    for m in SPEC["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        ratios = np.array(head) / np.array(base)
        boot = np.median(rng.choice(ratios, (BOOTSTRAP, len(ratios))), axis=1)
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        out[name] = {
            "ratios": ratios.tolist(),
            "median_ratio": float(np.median(ratios)),
            "ci95": [float(x) for x in np.percentile(boot, [2.5, 97.5])],
            "base_quartiles": quartiles(base),
            "head_quartiles": quartiles(head),
            "head_wins": f"{wins}/{len(pairs)}",
            "better": m["better"],
        }
    return out


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
    finally:
        if base_dir != ROOT:
            git("worktree", "remove", "--force", str(base_dir))

    rng = np.random.default_rng(0)
    doc = {
        "base": {"sha": base_sha},
        "head": {"sha": head_sha, "uncommitted_changes": dirty},
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed0": SEED0,
                     "bootstrap": BOOTSTRAP},
        "workloads": {
            w: {"summary": summarize(runs[w], rng), "pairs": runs[w]} for w in workloads
        },
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for w in workloads:
        for name, s in doc["workloads"][w]["summary"].items():
            lo, hi = s["ci95"]
            print(f"{w:<18} {name:<12} median head/base {s['median_ratio']:.3f} "
                  f"[{lo:.3f}, {hi:.3f}]  head wins {s['head_wins']}")


if __name__ == "__main__":
    main()
