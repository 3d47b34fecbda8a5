"""Buying estimation accuracy with sensor activations.

The ten-sensor diffusion benchmark has two tiers of sensors: four sit
near the field's interior antinodes and carry most of the information,
six sit near the cold boundary. Walking the sparsity penalty upward
prunes the cheap tier first, then everything, tracing out the
price curve between "measure everything" and "measure nothing".

Takes a few seconds: each point is a full solve on the 25-state plant of
configs/tradeoff_sweep.yaml, whose sweep the CLI writes to CSV:

    persched sweep configs/tradeoff_sweep.yaml --out out/tradeoff

Run:  python3 demos/03_sparsity_tradeoff.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

import persched as ps

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "tradeoff_sweep.yaml"


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def surviving_sites(schedule, sites):
    active = np.flatnonzero(schedule.activation_counts > 0)
    return [tuple(sites[m]) for m in active]


def main():
    exp = ps.load_experiment(CONFIG)
    sites = yaml.safe_load(CONFIG.read_text())["system"]["field"]["sensor_sites"]
    sys, period, eta = exp.system, exp.admm.period, exp.admm.eta

    banner("The plant")
    print(f"{sys.n_states} states on a 5 x 5 lattice, {sys.n_sensors} candidate sensors,")
    print(f"period {period}, at most {eta} activations per sensor per period.")

    banner("Walking the penalty upward")
    print(f"{'gamma':>7} {'activations':>12} {'sensors kept':>13} {'J':>9} {'iters':>6}")
    results = []
    for gamma in (0.05, 0.15, 2.0):
        report = ps.run(sys, replace(exp.admm, gamma=gamma))
        kept = int((report.schedule.activation_counts > 0).sum())
        results.append((gamma, report))
        print(
            f"{gamma:>7g} {report.schedule.total_activations:>12d} {kept:>13d} "
            f"{report.j_polished:>9.4f} {report.iterations:>6d}"
        )

    banner("What survives the middle penalty")
    mid = results[1][1]
    print("activation counts per sensor:", mid.schedule.activation_counts.tolist())
    print("surviving sensor sites:", surviving_sites(mid.schedule, sites))
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
