"""Buying estimation accuracy with sensor activations.

The ten-sensor diffusion benchmark has two tiers of sensors: four sit
near the field's interior antinodes and carry most of the information,
six sit near the cold boundary. Walking the sparsity penalty upward
prunes the cheap tier first, then everything, tracing out the
price curve between "measure everything" and "measure nothing".

Takes a few seconds: each point is a full solve on the 25-state plant.
The CLI equivalent writes the same data to CSV:

    persched sweep configs/tradeoff_sweep.yaml --out out/tradeoff

Run:  python3 demos/03_sparsity_tradeoff.py
"""

import numpy as np

import persched as ps
from persched.model import BENCHMARK_SENSOR_SITES


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def surviving_sites(schedule):
    active = np.flatnonzero(schedule.activation_counts > 0)
    return [BENCHMARK_SENSOR_SITES[m] for m in active]


def main():
    sys = ps.benchmark_system()
    period, eta = 10, 5

    banner("The plant")
    print(f"{sys.n_states} states on a 5 x 5 lattice, {sys.n_sensors} candidate sensors,")
    print(f"period {period}, at most {eta} activations per sensor per period.")

    banner("Walking the penalty upward")
    print(f"{'gamma':>7} {'activations':>12} {'sensors kept':>13} {'J':>9} {'iters':>6}")
    results = []
    for gamma in (0.05, 0.15, 2.0):
        report = ps.run(sys, ps.AdmmConfig(period=period, gamma=gamma, eta=eta))
        kept = int((report.schedule.activation_counts > 0).sum())
        results.append((gamma, report))
        print(
            f"{gamma:>7g} {report.schedule.total_activations:>12d} {kept:>13d} "
            f"{report.j_polished:>9.4f} {report.iterations:>6d}"
        )

    banner("What survives the middle penalty")
    mid = results[1][1]
    print("activation counts per sensor:", mid.schedule.activation_counts.tolist())
    print("surviving sensor sites:", surviving_sites(mid.schedule))
    print("(the four interior antinodes; the boundary sensors are dropped)")
    print()
    print(mid.schedule.to_text())

    banner("The price curve")
    j_full, j_mid, j_empty = (r.j_polished for _, r in results)
    full_act = results[0][1].schedule.total_activations
    mid_act = mid.schedule.total_activations
    print(
        f"dropping from {full_act} to {mid_act} activations costs "
        f"{(j_mid - j_full) / j_full:.1%} in average error"
    )
    print(
        f"dropping the rest costs another {(j_empty - j_mid) / j_mid:.1%}: "
        "the kept activations were the valuable ones"
    )


if __name__ == "__main__":
    main()
