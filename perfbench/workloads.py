"""The benchmark's workloads: spec trees, a scenario and run plans.

Every workload is a :class:`repro.api.RunSpec` tree whose ``seed`` is the
benchmark's ``--seed``; the program sees only the spec.  churn-sampled
uses a scenario registered here through the public ``register_scenario``
API: a *rolling outage*, where silo ``t mod n`` misses round ``t`` and
makes its weight up when it returns.  The number of releases at a new
effective sigma -- each one a fresh subsampled-Gaussian RDP curve, about
3 s of scalar Python -- is then the same on every seed, while the seed
still draws the data, the model, the user sample and the noise.  (IID
dropout, as in the builtin ``carryover-makeup``, made that count swing
between 6 and 10 per 10 rounds from seed to seed.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Seed whose final metric, epsilon and parameter digest are pinned in
#: ``pinned.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class RollingOutage:
    """Silo ``t mod n`` is down in round ``t``; every other silo is up."""

    def draw(self, t: int, n_silos: int, rng: np.random.Generator) -> np.ndarray:
        mask = np.ones(n_silos, dtype=bool)
        mask[t % n_silos] = False
        return mask


def register_scenarios() -> None:
    """Register the rolling-outage scenario (idempotent per process)."""
    from repro.api.registries import SCENARIOS, register_scenario
    from repro.sim.policies import SyncPolicy

    if "bench-rolling-carryover" in SCENARIOS:
        return

    @register_scenario(
        "bench-rolling-carryover",
        description="silo t mod n misses round t and makes the weight up "
        "on return (carryover gain 2)",
    )
    def _rolling_carryover(rounds: int, n_silos: int) -> dict:
        return dict(policy=SyncPolicy(), renorm="carryover",
                    dropout=RollingOutage(), carryover_max_gain=2.0)


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its spec and how a run is planned."""

    name: str
    #: "train" (Trainer), "sim" (FederationSimulator) or "net"
    #: (FederationServer + silo processes).
    kind: str
    #: Fewest full sessions (fresh interpreter: set-up plus every round)
    #: in an untraced run.
    min_sessions: int
    #: Extra set-up-only fresh interpreters after each session, so that
    #: ``setup_s`` is a median over several cold starts.
    setup_probes: int
    #: seed -> RunSpec tree.
    spec_tree: Callable[[int], dict]


def _fig05_train(seed: int) -> dict:
    # examples/specs/fig05.toml, run for 12 rounds with evaluation every
    # round; the dataset follows the workload seed.
    return {
        "name": "fig05-train", "seed": seed, "rounds": 12, "eval_every": 1,
        "dataset": {"name": "mnist", "users": 50, "silos": 5,
                    "records": 1200, "test_records": 300,
                    "distribution": "uniform"},
        "model": {"name": "auto"},
        "method": {"name": "uldp-avg-w", "sigma": 5.0, "local_epochs": 1,
                   "local_lr": 0.1},
        "privacy": {"delta": 1e-05},
    }


def _churn_sampled(seed: int) -> dict:
    # Rounds 0-5 each release at a new (q, sigma_eff) and pay for a fresh
    # subsampled-Gaussian RDP curve; rounds 6 and 7 repeat the outage
    # pattern of rounds 1 and 2, so their curves come from the cache.
    return {
        "name": "churn-sampled", "seed": seed, "rounds": 8,
        "sim": {"scenario": "bench-rolling-carryover", "scale": "small"},
        "method": {"name": "uldp-avg-w", "sample_rate": 0.5},
    }


def _net_ideal(seed: int) -> dict:
    return {
        "name": "net-ideal", "seed": seed, "rounds": 60,
        "sim": {"scenario": "ideal-sync", "scale": "small"},
        "method": {"name": "uldp-avg-w"},
        # Every silo must answer every round: a lost silo aborts the run
        # (counted as failed) instead of silently shrinking the round.
        "net": {"port": 0, "join_timeout": 60.0, "round_timeout": 60.0,
                "ping_timeout": 10.0, "min_quorum": 5},
    }


# churn-sampled runs but is not in BENCHMARK.json: on a 2-core host its
# run-to-run spread of round_s.p50 reached 26%, above any allowed bound.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig05-train", "train", 2, 2, _fig05_train),
        Workload("churn-sampled", "sim", 2, 2, _churn_sampled),
        Workload("net-ideal", "net", 3, 0, _net_ideal),
    )
}
