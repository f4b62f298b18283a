"""Searching for an endowment profile that hits given market statistics.

Endowments are the one part of the market the day engine does not pin down:
the same behavioral parameters produce very different liquidity depending
on who holds shares and how much cash buyers carry. This runs a small
random search (the packaged profile was produced the same way, with a much
larger budget) against the default targets.
"""

from fracmarket import DEFAULT_TARGETS, calibrate_profile

# 15 candidates x 30 days each: a couple of minutes. The packaged profile
# used budget 1200 and 200 days per candidate.
profile, objective = calibrate_profile(
    DEFAULT_TARGETS,
    search_budget=15,
    seed=3,
    reps=30,
    progress=lambda idx, obj, best: print(
        f"candidate {idx:2d}: objective {obj:8.4f} (best so far {best:.4f})"
    ),
)

print(f"\nbest objective {objective:.4f}")
print(f"seller holders: {profile.ps_holder_frac:.2f} of {profile.n_ps}, "
      f"dist {profile.share_dist_ps.family} {profile.share_dist_ps.args}")
print(f"buyer cash:     {profile.cash_dist_pb.family} {profile.cash_dist_pb.args}")
