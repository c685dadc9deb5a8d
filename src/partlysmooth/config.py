"""JSON config parsing for the command line tools.

One JSON file describes a whole run.  Matrices may be written inline as
nested arrays or referenced as CSV files through *_csv keys; CSV paths are
resolved relative to the config file's directory.  See the README for the
full schema and worked examples.

Every *_from_config function raises ConfigError with a readable message on
malformed input, and each spec type has a matching *_to_config so that a
parsed configuration can be serialized back to an equivalent file.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import regularizers
from .experiments import ExperimentConfig, MuRule
from .problems import DesignSpec, SignalSpec, load_matrix_csv
from .regularizers import RI_TOL, ZERO_TOL, Regularizer
from .solver import SolveOptions

# the one sweep key that each experiment kind's file carries
_SWEEP_BY_KIND = {
    "noise_stability": "noise_levels",
    "consistency": "sample_sizes",
    "sharpness": "mu_values",
    "identification_profile": "noise_levels",
}
EXPERIMENT_KINDS = tuple(_SWEEP_BY_KIND)


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def require_key(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"{context} is missing required key {key!r}")
    return cfg[key]


def matrix_from_config(cfg: dict, key: str, base_dir: str, context: str) -> np.ndarray:
    inline = cfg.get(key)
    csv_path = cfg.get(f"{key}_csv")
    if (inline is None) == (csv_path is None):
        raise ConfigError(f"{context} needs exactly one of {key!r} or '{key}_csv'")
    if inline is not None:
        try:
            return np.asarray(inline, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{context}: {key} is not a numeric array: {exc}") from exc
    try:
        return load_matrix_csv(os.path.join(base_dir, csv_path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{context}: cannot load {csv_path!r}: {exc}") from exc


def regularizer_from_config(cfg: dict) -> Regularizer:
    try:
        return regularizers.from_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def design_from_config(cfg: dict, base_dir: str = ".") -> DesignSpec:
    kind = require_key(cfg, "kind", "design")
    try:
        if kind == "explicit":
            return DesignSpec.explicit(matrix_from_config(cfg, "matrix", base_dir, "design"))
        if kind == "gaussian_rows":
            n = require_key(cfg, "n", "gaussian_rows design")
            if "identity_dim" in cfg:
                cov = np.eye(int(cfg["identity_dim"]))
            else:
                cov = matrix_from_config(cfg, "covariance", base_dir, "gaussian_rows design")
            return DesignSpec.gaussian(cov, int(n))
    except ValueError as exc:
        raise ConfigError(f"design: {exc}") from exc
    raise ConfigError(f"unknown design kind {kind!r}")


def design_to_config(spec: DesignSpec) -> dict:
    if spec.kind == "explicit":
        return {"kind": "explicit", "matrix": spec.matrix.tolist()}
    return {"kind": "gaussian_rows", "covariance": spec.covariance.tolist(), "n": spec.n}


def signal_from_config(cfg: dict) -> SignalSpec:
    kind = require_key(cfg, "kind", "signal")
    amp = tuple(cfg.get("amplitude_range", (1.0, 2.0)))
    try:
        if kind == "explicit":
            return SignalSpec.explicit(np.asarray(require_key(cfg, "beta0", "signal"), dtype=float))
        if kind == "sparse":
            return SignalSpec.sparse(
                int(require_key(cfg, "p", "sparse signal")),
                int(require_key(cfg, "support_size", "sparse signal")),
                amp,
            )
        if kind == "group_sparse":
            return SignalSpec.group_sparse(int(require_key(cfg, "active_groups", "group signal")), amp)
        if kind == "low_rank":
            return SignalSpec.low_rank(int(require_key(cfg, "rank", "low_rank signal")), amp)
        if kind == "piecewise_constant":
            return SignalSpec.piecewise_constant(
                int(require_key(cfg, "p", "piecewise signal")),
                int(require_key(cfg, "segments", "piecewise signal")),
                amp,
            )
    except ValueError as exc:
        raise ConfigError(f"signal: {exc}") from exc
    raise ConfigError(f"unknown signal kind {kind!r}")


def signal_to_config(spec: SignalSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.kind == "explicit":
        out["beta0"] = spec.beta0.tolist()
        return out
    out["amplitude_range"] = list(spec.amplitude_range)
    if spec.kind == "sparse":
        out.update(p=spec.p, support_size=spec.support_size)
    elif spec.kind == "group_sparse":
        out.update(active_groups=spec.active_groups)
    elif spec.kind == "low_rank":
        out.update(rank=spec.rank)
    elif spec.kind == "piecewise_constant":
        out.update(p=spec.p, segments=spec.segments)
    return out


def solve_options_from_config(cfg: dict) -> SolveOptions:
    known = {"step", "max_iter", "fp_tol", "zero_tol", "trace_models"}
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown solver options: {sorted(unknown)}")
    try:
        return SolveOptions(
            step=cfg.get("step"),
            max_iter=int(cfg.get("max_iter", 100_000)),
            fp_tol=float(cfg.get("fp_tol", 1e-10)),
            zero_tol=float(cfg.get("zero_tol", ZERO_TOL)),
            trace_models=bool(cfg.get("trace_models", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"solver options: {exc}") from exc


def solve_options_to_config(opts: SolveOptions) -> dict:
    return {
        "step": opts.step,
        "max_iter": opts.max_iter,
        "fp_tol": opts.fp_tol,
        "zero_tol": opts.zero_tol,
        "trace_models": opts.trace_models,
    }


def mu_rule_from_config(cfg: dict) -> MuRule:
    kind = require_key(cfg, "kind", "mu rule")
    try:
        return MuRule(
            kind=kind,
            value=cfg.get("value"),
            scale=cfg.get("scale"),
            exponent=cfg.get("exponent"),
        )
    except ValueError as exc:
        raise ConfigError(f"mu rule: {exc}") from exc


def mu_rule_to_config(rule: MuRule) -> dict:
    out = {"kind": rule.kind}
    for key in ("value", "scale", "exponent"):
        if getattr(rule, key) is not None:
            out[key] = getattr(rule, key)
    return out


def tolerances_from_config(cfg: dict) -> dict:
    known = {"zero_tol", "ri_tol", "injectivity_tol"}
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    return {
        "zero_tol": float(cfg.get("zero_tol", ZERO_TOL)),
        "ri_tol": float(cfg.get("ri_tol", RI_TOL)),
        "injectivity_tol": float(cfg.get("injectivity_tol", 1e-8)),
    }


def experiment_from_config(cfg: dict, base_dir: str = ".") -> tuple:
    """Parse a full experiment file into (kind, ExperimentConfig)."""
    exp = require_key(cfg, "experiment", "config")
    if not isinstance(exp, dict):
        raise ConfigError("'experiment' must be an object")
    kind = require_key(exp, "kind", "experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")

    sweep = require_key(exp, "sweep", "experiment")
    if not isinstance(sweep, dict) or len(sweep) != 1:
        raise ConfigError("experiment sweep must be an object with exactly one key")
    (key, sweep_values), = sweep.items()
    expected = _SWEEP_BY_KIND[kind]
    if key != expected:
        raise ConfigError(f"experiment kind {kind!r} sweeps {expected!r}, got {key!r}")
    if not isinstance(sweep_values, list) or not sweep_values:
        raise ConfigError("sweep values must be a nonempty array")

    sigma = exp.get("noise_sigma")
    try:
        tol = tolerances_from_config(cfg.get("tolerances", {}))
        config = ExperimentConfig(
            regularizer=regularizer_from_config(require_key(cfg, "regularizer", "config")),
            design=design_from_config(require_key(cfg, "design", "config"), base_dir),
            signal=signal_from_config(require_key(cfg, "signal", "config")),
            sweep_values=tuple(sweep_values),
            mu_rule=mu_rule_from_config(require_key(exp, "mu_rule", "experiment")),
            trials=int(require_key(exp, "trials", "experiment")),
            base_seed=int(exp.get("base_seed", 0)),
            noise_sigma=None if sigma is None else float(sigma),
            solve=solve_options_from_config(cfg.get("solver", {})),
            jobs=int(exp["jobs"]) if "jobs" in exp else None,
            zero_tol=tol["zero_tol"],
            ri_tol=tol["ri_tol"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return kind, config


def experiment_to_config(kind: str, config: ExperimentConfig) -> dict:
    """Inverse of experiment_from_config, up to default filling."""
    sweep_values = list(config.sweep_values)
    if kind == "consistency":
        sweep_values = [int(v) for v in sweep_values]
    exp = {
        "kind": kind,
        "sweep": {_SWEEP_BY_KIND[kind]: sweep_values},
        "mu_rule": mu_rule_to_config(config.mu_rule),
        "trials": config.trials,
        "base_seed": config.base_seed,
    }
    if config.noise_sigma is not None:
        exp["noise_sigma"] = config.noise_sigma
    if config.jobs is not None:
        exp["jobs"] = config.jobs
    return {
        "regularizer": config.regularizer.to_config(),
        "design": design_to_config(config.design),
        "signal": signal_to_config(config.signal),
        "solver": solve_options_to_config(config.solve),
        "tolerances": {"zero_tol": config.zero_tol, "ri_tol": config.ri_tol},
        "experiment": exp,
    }
