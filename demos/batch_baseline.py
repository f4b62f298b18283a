"""Monte Carlo estimate of the default market's liquidity statistics.

Each repetition regenerates the population from the packaged profile and
trades for one day. 200 repetitions keep this quick to run; the shipped
reference statistics are quoted at 1000.
"""

from fracmarket import DEFAULT_TARGETS, ModelParams, default_profile, run_batch

REPS = 200

agg = run_batch(ModelParams.baseline(), default_profile(), REPS, master_seed=0)

print(f"{agg.n_experiments} days simulated "
      f"({agg.n_undefined_ratio} with an empty book, excluded from the ratio)\n")
print(f"{'metric':18s} {'mean':>10s} {'std':>10s} {'target':>10s}")
for name in ("liquidity_ratio", "n_offers", "n_trades", "offered_shares", "traded_shares"):
    print(f"{name:18s} {agg.mean(name):10.3f} {agg.std(name):10.3f} "
          f"{getattr(DEFAULT_TARGETS, name):10.3f}")
