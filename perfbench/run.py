"""fracmarket benchmark: simulated days per second on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S                # every workload
    python3 perfbench/run.py --workload NAME --seed N --digest   # round-0 digest

An untraced run (``--trace 0``) measures the end-to-end metrics: days/s
over `S` seconds of whole rounds, the median set-up time of several fresh
interpreters, and the peak resident memory of the process and its pool
workers. A traced run (``--trace 1``) runs the same rounds untraced for
`S`/2 seconds, then traced for `S`/2, checks that both give identical
aggregates, and reports per-layer metrics computed from the spans; a
declared layer the run never reached is left out of the result line and
listed as absent. Either run checks its outputs after timing. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. Metric names and units are those of `BENCHMARK.json`. Run records
and span files go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import env

PROBE = env.ROOT / "perfbench" / "setup_probe.py"
SETUP_SAMPLES = 9

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# declared metric name -> unit, in declaration order
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has set `name` up."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), name, str(seed)], stdout=subprocess.PIPE, text=True
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if line.strip() != "ready" or probe.returncode != 0:
        sys.exit(f"perfbench: set-up probe for {name} failed (exit {probe.returncode})")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest waited-for child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def overall_rate(rates: list[float]) -> float:
    """Days per second over all the rounds: their total days over their total
    time, since rounds hold equal numbers of days."""
    return len(rates) / sum(1.0 / r for r in rates)


def run_rounds(w, seconds: float, min_rounds: int, max_rounds: int | None = None, between=None):
    """Whole rounds until `seconds` have passed; returns outputs and days/s per round.

    `between(elapsed)` runs after each round, outside the round's timing.
    """
    results, rates = [], []
    begin = time.perf_counter()
    while len(results) < min_rounds or (
        time.perf_counter() < begin + seconds
        and (max_rounds is None or len(results) < max_rounds)
    ):
        start = time.perf_counter()
        results.append(w.run_round(len(results)))
        rates.append(w.days_per_round / (time.perf_counter() - start))
        if between:
            between(time.perf_counter() - begin)
    return results, rates


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object and prints a report."""
    import checks
    import workloads
    from tracer import PARTIAL_UNITS, Tracer, layer_metrics

    w = workloads.WORKLOADS[name](seed, env.OUT)
    w.make_inputs()
    w.setup()

    if not trace:
        # set-up samples are spread over the run, between rounds, so that
        # they meet the same host conditions as the rounds do
        setups = [probe_setup(name, seed)]

        def sample_setup(elapsed: float) -> None:
            if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
                setups.append(probe_setup(name, seed))

        results, rates = run_rounds(w, seconds, w.min_rounds, between=sample_setup)
        while len(setups) < SETUP_SAMPLES:
            setups.append(probe_setup(name, seed))
        peak = peak_rss_mb()
        problems = w.check(results)
        rounds = len(results)
        metrics = {
            "days_per_s": overall_rate(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
        }
        units = END_TO_END
        extra, absent = {}, []
        samples = {"round_rates": rates, "setup_samples": setups}
    else:
        results, rates = run_rounds(w, seconds / 2, w.min_rounds)
        tracer = Tracer(env.OUT)
        tracer.discard_worker_files()
        tracer.install()
        try:
            traced, traced_rates = run_rounds(w, seconds / 2, 1, max_rounds=len(results))
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        problems = checks.check_equal(
            "traced rounds against the untraced rounds of the same seeds",
            [w.record(r) for r in results[: len(traced)]],
            [w.record(r) for r in traced],
        )
        problems += w.check(results)
        rounds = len(results) + len(traced)
        samples = {"round_rates": rates, "traced_round_rates": traced_rates}
        layers = layer_metrics(tracer.spans, w.day_span, w.jobs)
        layers["trace.overhead_ratio"] = overall_rate(traced_rates) / overall_rate(rates)
        units = {**PER_LAYER, **PARTIAL_UNITS}
        # a layer the run never reached has no value: it is left out of the
        # result line rather than reported as 0, which would read as a gain
        metrics = {k: layers[k] for k in PER_LAYER if layers.get(k) is not None}
        extra = {k: layers[k] for k in PARTIAL_UNITS if layers.get(k) is not None}
        absent = sorted(k for k in units if k not in metrics and k not in extra)
        tracer.write(env.OUT / f"{name}.spans.jsonl.gz")
        print(f"info: {len(tracer.spans)} spans written to perfbench/out/{name}.spans.jsonl.gz")
        if absent or tracer.absent:
            print(f"info: absent layers: {', '.join(absent) or 'none'}; names not found: "
                  f"{', '.join(sorted(tracer.absent)) or 'none'}")

    record0 = w.record(results[0])
    sha = workloads.digest(record0)
    status = "passed" if not problems else f"FAILED ({len(problems)} problems)"
    days = rounds * w.days_per_round
    print(f"{name} seed {seed}: {days} days in {rounds} rounds, 0 failed, checks {status}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    for k, v in {**metrics, **extra}.items():
        print(f"  {k:<36} {v:.6g} {units[k]}")
    print(f"info: round-0 sha256 {sha}; recompute with: "
          f"python3 perfbench/run.py --workload {name} --seed {seed} --digest")

    result = {
        "correct": not problems,
        "attempted": days,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(env.OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as f:
        json.dump(
            {**result, "partial_layers": extra, "absent_layers": absent, **samples,
             "round0_sha256": sha, "problems": problems},
            f,
            indent=1,
        )
    return result


def digest_only(name: str, seed: int) -> None:
    import workloads

    w = workloads.WORKLOADS[name](seed, env.OUT)
    w.make_inputs()
    w.setup()
    print(f"{workloads.digest(w.record(w.run_round(0)))}  {name} seed {seed} round 0")


def main(argv=None) -> int:
    env.use_checkout_source()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                    help="one workload (default: every workload, in one process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digest", action="store_true",
                    help="print the SHA-256 of round 0's output records and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    env.OUT.mkdir(parents=True, exist_ok=True)

    if args.digest:
        if args.workload is None:
            ap.error("--digest needs --workload")
        digest_only(args.workload, args.seed)
        return 0

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {n: bench(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload:
        final = results[args.workload]
    else:
        # every workload in one process: peak_rss_mb is the peak so far
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
