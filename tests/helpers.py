"""Shared generators for the randomized suites."""

import numpy as np

import reference
from pinchsim import (PowerAllocation, SystemConfig, dbm_to_watts,
                      make_deployment)


def random_config(rng, n_max=4, k_max=4, l_max=12):
    n = int(rng.integers(1, n_max + 1))
    l_positions = int(rng.integers(2, l_max + 1))
    k = int(rng.integers(1, min(k_max, l_positions) + 1))
    return SystemConfig(
        d1=float(rng.uniform(5.0, 30.0)),
        d2=float(rng.uniform(2.0, 8.0)),
        height=float(rng.uniform(2.0, 5.0)),
        kappa_db_per_m=float(rng.choice([0.0, 0.05, 0.1, 0.2])),
        pt_dbm=float(rng.uniform(10.0, 40.0)),
        n_users=n,
        k_antennas=k,
        l_positions=l_positions,
        seed=int(rng.integers(0, 2 ** 32)),
    )


def random_instance(rng, **limits):
    """(config, deployment, equal allocation) with random geometry."""
    cfg = random_config(rng, **limits)
    deployment = make_deployment(cfg, rng)
    return cfg, deployment, PowerAllocation.equal(cfg.n_users)


def random_subset(rng, l_positions, k_max):
    size = int(rng.integers(1, min(k_max, l_positions) + 1))
    picks = rng.choice(l_positions, size=size, replace=False)
    return tuple(sorted(int(i) for i in picks))


def oracle_sum_rate(cfg, deployment, antenna_points, alloc):
    """Route one activation through the independent scalar reference."""
    return reference.reference_sum_rate(
        deployment.users.tolist(),
        antenna_points.tolist(),
        deployment.feed.tolist(),
        dbm_to_watts(cfg.pt_dbm),
        dbm_to_watts(cfg.noise_dbm),
        cfg.kappa_db_per_m,
        cfg.carrier_hz,
        cfg.n_eff,
        list(alloc.alpha),
    )
