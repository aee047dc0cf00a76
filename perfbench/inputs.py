"""Seeded input generation.

Every op draws its inputs from ``numpy.random.default_rng([seed, *key])``
with a key unique to that op, so the same ``--seed`` gives the same
inputs and no two ops share one.  Inputs differ in their numbers (rates,
workload seeds, grid horizons), never in comments or whitespace: the
result cache keys on the lowered model and must see every op as new
work.
"""

from __future__ import annotations

import numpy as np

#: Stream id of the untimed warm-up op, distinct from every op index.
WARMUP = 10**9

# 2,048 states each: 2^11 client configurations on one medium, and
# 2^5 x 2^6 on two interleaved segments.
PC_LAN_11 = """\
lam = {lam};
mu  = {mu};
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
Medium  = (send, mu).Medium;
PC[11] <send> Medium
"""

PC_LAN_5_6 = """\
lam = {lam};
mu  = {mu};
PC      = (think, lam).PCready;
PCready = (send, infty).PC;
Medium1 = (send, mu).Medium1;
Medium2 = (send, mu).Medium2;
(PC[5] <send> Medium1) || (PC[6] <send> Medium2)
"""

STEADY_STATES = 2048


def rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def workload_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(1, 2**31 - 1))


def steady_source(seed: int, index: int) -> str:
    """Op ``index`` of ``steady_2k``: the two PC-LAN forms alternate."""
    gen = rng(seed, index)
    template = PC_LAN_11 if index % 2 == 0 else PC_LAN_5_6
    return template.format(
        lam=f"{gen.uniform(0.2, 0.8):.12f}", mu=f"{gen.uniform(3.0, 8.0):.12f}"
    )


def paper_inputs(seed: int, index: int) -> dict:
    gen = rng(seed, index)
    return {"seed": workload_seed(gen), "n_clients": int(gen.integers(80, 121))}


def makespan_horizon(mapping, workload) -> float:
    """Six times the heaviest machine's full-availability load, where
    the makespan CDF of the synthetic workloads is within 1e-2 of 1."""
    from repro.allocation import APPLICATIONS, MACHINES

    loads = [
        sum(
            workload.etc[APPLICATIONS.index(app), MACHINES.index(machine)]
            for app in mapping.applications_on(machine)
        )
        for machine in MACHINES
    ]
    return 6.0 * float(max(loads))


#: Grid points of each ``batch`` makespan CDF.
BATCH_POINTS = 201


def batch_inputs(seed: int, index: int):
    """Op ``index`` of ``batch``: Mappings A and B alternate, each on a
    fresh synthetic workload."""
    from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload

    mapping = MAPPING_A if index % 2 == 0 else MAPPING_B
    workload = synthetic_workload(seed=workload_seed(rng(seed, index)))
    times = np.linspace(0.0, makespan_horizon(mapping, workload), BATCH_POINTS)
    return mapping, workload, times
