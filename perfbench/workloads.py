"""The benchmark's four pinned workloads and the CLI configs they generate.

Every workload is one CLI mode on one fixed source shape.  A run of the
benchmark invokes the CLI several times on the same shape; only the config
seed changes between invocations.  Invocation 0 of every run uses
REFERENCE_SEED, whose output is compared with the bytes recorded in
`reference/`, and invocations 1, 2, ... take seeds drawn from the workload
seed, so the same workload seed always gives the same configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

REFERENCE_SEED = 2024

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # CLI subcommand and config "mode"
    base: dict  # the config minus its size keys and seed
    sizes: dict = field(default_factory=dict)  # size name -> size keys

    @property
    def seeded(self) -> bool:
        return self.mode in ("montecarlo", "audit")

    def config(self, size: str, seed: int | None) -> dict:
        cfg = {"mode": self.mode, **self.base, **self.sizes[size]}
        if self.seeded:
            cfg["seed"] = seed
        return cfg

    def configs(self, workload_seed: int, size: str):
        """Endless stream of invocation configs: the reference seed first,
        then seeds drawn from the workload seed."""
        rng = random.Random(f"{self.name}/{workload_seed}")
        yield self.config(size, REFERENCE_SEED)
        while True:
            yield self.config(size, rng.getrandbits(63))

    def items(self, cfg: dict) -> int:
        """Work units of one invocation: trials, or sweep grid points."""
        if self.seeded:
            return cfg["trials"]
        return len(cfg["c_grid"]) * len(cfg["n_grid"])


def _runs(fractions, n=None) -> dict:
    source = {"kind": "runs", "first_bit": 0, "fractions": list(fractions)}
    if n is not None:
        source["n"] = n
    return source


WORKLOADS = {
    w.name: w
    for w in (
        # Many tiny trials: per-trial Python overhead (seeding, maximal_runs
        # on 8 short traces, two detector calls) is the cost.  n > 20 keeps
        # the oracle out of the default estimators.
        Workload(
            "mc-short",
            "montecarlo",
            {"source": _runs([0.2, 0.3, 0.1, 0.25, 0.15], 40), "p": 0.1, "traces": 8},
            {"full": {"trials": 6000}, "tiny": {"trials": 300}},
        ),
        # Few large trials: mask bandwidth and the per-copy window scan over
        # 750 copies of the block dominate; seeding is about 1%.
        Workload(
            "mc-long",
            "montecarlo",
            {"source": {"kind": "repeat", "pattern": "001", "ell": 0.25, "n": 3000},
             "p": 0.17, "traces": 32},
            {"full": {"trials": 200}, "tiny": {"trials": 10}},
        ),
        # The 2^18-row brute-force oracle on every trial, plus the audit
        # patterns, is_subsequence, and every estimator on shared masks.
        Workload(
            "audit-oracle",
            "audit",
            {"source": _runs([0.25, 0.125, 0.1875, 0.0625, 0.25, 0.125], 18),
             "p": 0.35, "traces": 4},
            {"full": {"trials": 60}, "tiny": {"trials": 10}},
        ),
        # Inclusion-exclusion over 2^16 - 1 subsets per grid point; nothing
        # is simulated.  Four fractions tie at the maximum and twelve more
        # tie below it, so grouping equal run lengths has something to group.
        # c* = 0.1 * ln(1 / 0.6) = 0.0511 sits inside the c grid.
        Workload(
            "sweep-ie",
            "sweep",
            {"source": _runs([0.1] * 4 + [0.05] * 12), "p": 0.4},
            {"full": {"c_grid": [0.03, 0.05, 0.08], "n_grid": [100, 200, 400]},
             "tiny": {"c_grid": [0.05], "n_grid": [100]}},
        ),
    )
}
