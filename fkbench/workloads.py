"""The benchmark's workloads: one INI config and one command list each.

The workload seed drives the CLI's ``--seed`` and shifts the environment by
an exact dyadic amount.  Seed 0 gives the reference configs unshifted.

- quasicrystal: offset k/16 with k = 37 * seed mod 64.  Solver work varies
  little with the offset (ground-energy sweeps within about 10%).
- circle and soft-chain: phase (seed mod 4)/4.  These phases are multiples of
  the grid step h = 0.05, so each discretized chain problem is a translate of
  the seed-0 one and costs the same, while the Mane tables, which start at
  x = 0, do change.  Off-grid phases change the refinement path: calibrate's
  chain solve took 0.8 to 2.2 s across phases k/64, which would swamp any
  change a run is meant to show.
"""

from __future__ import annotations

QUASICRYSTAL = """\
[environment]
variant = quasicrystal
alpha = (-1+1√5)/2
offset = {shift}
seeds = 3

[lagrangian]
spring = quadratic
lambda = 1.618
a0 = 0.5
a1 = 1.0

[grid]
h = 0.08
x = 2.0
n_max = 100
n_outer = 64
w = 8
n_list = 4,8,16,32

[output]
directory = out
"""

CIRCLE = """\
[environment]
variant = circle
phase = {shift}

[lagrangian]
spring = quadratic
lambda = 0.5
k = {k}

[grid]
h = 0.05
x = 4.0
n_max = 100
n_outer = 64
w = 8
n_list = {n_list}

[lp]
n = 56
t_max = 2.0

[output]
directory = out
"""

WORKLOADS = {
    "quasicrystal": ("ground-energy", "mane", "calibrate", "tower", "env-report"),
    "circle": ("ground-energy", "mane", "calibrate", "lp"),
    "soft-chain": ("ground-energy",),
}


def config_text(workload: str, seed: int) -> str:
    """The INI config of a workload at a seed; every shift is an exact dyadic."""
    if workload == "quasicrystal":
        return QUASICRYSTAL.format(shift=repr((37 * seed) % 64 / 16))
    if workload == "circle":
        return CIRCLE.format(shift=repr(seed % 4 / 4), k="1.0", n_list="4,8,16,32")
    if workload == "soft-chain":
        return CIRCLE.format(shift=repr(seed % 4 / 4), k="0.1", n_list="8,16,32,64")
    raise KeyError(workload)
