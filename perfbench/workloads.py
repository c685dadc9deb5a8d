"""Seeded inputs for the benchmark workloads.

Each workload is one or more `partlysmooth experiment` runs.  From the seed
this module writes, per run, a config JSON and, for a fixed-design sweep,
the design CSV it references; the program under test receives only these
files.  Fixed designs are drawn and screened with the package's own
find_certified_design, so every fixed-design sweep runs on a certified
instance.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Why each workload exists: the layer it stresses and the optimisation it
# exercises or deliberately bypasses.
WHY = {
    "fixed_l1_p200": (
        "fixed p=200 design, so two O(p^3) SVDs per solve on an unchanged Gamma "
        "dominate; a Gamma-fixed fast path shows here"
    ),
    "fresh_l1_p10": (
        "fresh p=10 design per trial, so no Gamma reuse is possible and Python "
        "overhead per solver iteration dominates"
    ),
}

WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Run:
    """One `partlysmooth experiment` invocation of a workload."""

    label: str
    config: str  # path of the config JSON
    trials: int  # total trials the run performs
    check: str  # "smallest_noise" or "largest_n": sweep point whose rate is checked


def _toeplitz(p, rho):
    i = np.arange(p)
    return rho ** np.abs(i[:, None] - i[None, :])


def _amplitudes(rng, size):
    return rng.uniform(1.0, 2.0, size) * rng.choice([-1.0, 1.0], size)


def _sparse(rng, p, k):
    beta = np.zeros(p)
    beta[np.sort(rng.choice(p, k, replace=False))] = _amplitudes(rng, k)
    return beta


def _write_csv(path, m):
    # 17 significant digits round-trip every float exactly
    np.savetxt(path, m, fmt="%.17g", delimiter=",")


def _write_json(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _certified(reg, cov, n, beta0, min_margin, base_seed):
    from partlysmooth import find_certified_design

    x, _, _ = find_certified_design(reg, cov, n, beta0, min_margin=min_margin, base_seed=base_seed)
    return x


def _noise_sweep(out_dir, label, seed, reg_cfg, x, beta0, noise_levels, trials):
    _write_csv(os.path.join(out_dir, f"{label}_design.csv"), x)
    cfg = {
        "regularizer": reg_cfg,
        "design": {"kind": "explicit", "matrix_csv": f"{label}_design.csv"},
        "signal": {"kind": "explicit", "beta0": beta0.tolist()},
        "experiment": {
            "kind": "noise_stability",
            "sweep": {"noise_levels": list(noise_levels)},
            "mu_rule": {"kind": "proportional"},
            "trials": trials,
            "base_seed": seed,
            "jobs": 1,
        },
    }
    path = os.path.join(out_dir, f"{label}.json")
    _write_json(path, cfg)
    return Run(label, path, trials * len(noise_levels), "smallest_noise")


def _fixed_l1_p200(out_dir, seed):
    from partlysmooth import L1

    # an evenly spaced support at a seeded offset: Toeplitz rows correlate
    # neighbours by 0.5, and with a random support the solver iterations of
    # the sweep swung from 3000 to 5200 over seeds 1-10 (spaced: 2980-3320)
    rng = np.random.default_rng([seed, 1])
    beta0 = np.zeros(200)
    beta0[rng.integers(20) + 20 * np.arange(10)] = _amplitudes(rng, 10)
    x = _certified(L1(), _toeplitz(200, 0.5), 1000, beta0, 0.1, seed * 1000)
    return [_noise_sweep(out_dir, "fixed_l1_p200", seed, {"kind": "l1"}, x, beta0,
                         (1e-3, 1e-2, 1e-1), trials=10)]


def _fresh_l1_p10(out_dir, seed):
    rng = np.random.default_rng([seed, 2])
    cfg = {
        "regularizer": {"kind": "l1"},
        "design": {"kind": "gaussian_rows", "identity_dim": 10, "n": 100},
        "signal": {"kind": "explicit", "beta0": _sparse(rng, 10, 3).tolist()},
        "experiment": {
            "kind": "consistency",
            "sweep": {"sample_sizes": [100, 400, 1600]},
            "mu_rule": {"kind": "power", "exponent": 0.25, "scale": 1.0},
            "trials": 40,
            "noise_sigma": 1.0,
            "base_seed": seed,
            "jobs": 1,
        },
    }
    path = os.path.join(out_dir, "fresh_l1_p10.json")
    _write_json(path, cfg)
    return [Run("fresh_l1_p10", path, 120, "largest_n")]


def generate(workload: str, seed: int, out_dir: str) -> list:
    """Write the inputs of one workload into out_dir; return its runs."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "fixed_l1_p200":
        return _fixed_l1_p200(out_dir, seed)
    if workload == "fresh_l1_p10":
        return _fresh_l1_p10(out_dir, seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
