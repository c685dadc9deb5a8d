"""JSON config parsing for the command line tools.

One JSON file describes a whole run, and this module alone reads it:
certify_from_config, solve_from_config and experiment_from_config turn a
loaded file into what each command runs on.  Matrices may be written inline
as nested arrays or referenced as CSV files through *_csv keys; CSV paths
are resolved relative to the config file's directory.  See the README for
the full schema and worked examples.

Every *_from_config function raises ConfigError with a readable message on
malformed input, including a key that no reader of its object uses.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .experiments import EXPERIMENTS, ExperimentConfig, MuRule, _out_of_range
from .linalg import INJECTIVITY_TOL
from .problems import (
    DEFAULT_AMPLITUDE_RANGE,
    DesignSpec,
    SignalSpec,
    load_matrix_csv,
    make_design,
    make_signal,
)
from .regularizers import L1, RI_TOL, ZERO_TOL, AnalysisL1, GroupL1L2, Nuclear, Regularizer
from .solver import CanonicalParameters, SolveOptions


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""


def load_config(path) -> tuple:
    """(the parsed file, the directory its CSV paths are relative to)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg, os.path.dirname(os.path.abspath(path))


def require_key(cfg: dict, key: str, context: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} must be a JSON object")
    if key not in cfg:
        raise ConfigError(f"{context} is missing required key {key!r}")
    return cfg[key]


def _only_keys(cfg, known, context):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def number(value, name: str, *, integer=False, nonnegative=False, optional=False):
    """The file value of key `name` as a finite float, or an int if integer.

    Anything else (null, non-numeric text, a boolean, NaN, +-inf, a fraction
    for an integer, a negative if nonnegative) raises ConfigError naming the
    key and the value, except null for an optional key, which means unset.
    """
    if optional and value is None:
        return None
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()) or (nonnegative and x < 0):
        want = ("an integer" if integer else "a finite number") + (" >= 0" if nonnegative else "")
        raise ConfigError(f"{name} must be {want}, got {json.dumps(value, default=str)}")
    # a JSON integer stays exact beyond float precision
    return (value if isinstance(value, int) else int(x)) if integer else x


def _spec(make, context, *args, **kwargs):
    """make(*args, **kwargs), with the spec's own ValueError as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


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
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: cannot load {csv_path!r}: {exc}") from exc


def _vector_from_config(cfg: dict, key: str, base_dir: str, context: str) -> np.ndarray:
    v = np.atleast_1d(matrix_from_config(cfg, key, base_dir, context).squeeze())
    if v.ndim != 1:
        raise ConfigError(f"{context}: {key} must be a vector")
    return v


def _integers(value, name: str):
    """The file's integer, or nested lists of them, each read by number()."""
    if isinstance(value, list):
        return [_integers(v, name) for v in value]
    return number(value, name, integer=True)


# kind: (class, the keys besides "kind")
_REGULARIZERS = {
    "l1": (L1, ()),
    "group_l1l2": (GroupL1L2, ("groups",)),
    "nuclear": (Nuclear, ("matrix_shape",)),
    "analysis_l1": (AnalysisL1, ("operator", "operator_csv", "operator_shape")),
}


def regularizer_from_config(cfg: dict, base_dir: str = ".") -> Regularizer:
    kind = require_key(cfg, "kind", "regularizer")
    if not isinstance(kind, str) or kind not in _REGULARIZERS:
        raise ConfigError(f"unknown regularizer kind {kind!r}")
    make, keys = _REGULARIZERS[kind]
    context = f"{kind} regularizer"
    _only_keys(cfg, ("kind", *keys), context)
    if kind == "analysis_l1":
        args = [matrix_from_config(cfg, "operator", base_dir, context)]
        shape = _integers(cfg.get("operator_shape", []), "regularizer.operator_shape")
        if "operator_shape" in cfg and list(args[0].shape) != shape:
            raise ConfigError(
                f"{context}: operator shape {args[0].shape} != declared {cfg['operator_shape']}"
            )
    else:
        # the other kinds' keys hold integers: group indices, the matrix shape
        args = [_integers(require_key(cfg, key, context), f"regularizer.{key}") for key in keys]
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"regularizer: {exc}") from exc


def _check_dimension(reg_cfg: dict, reg: Regularizer, shape: tuple, key: str):
    """Refuse data of this shape, whose last axis is its dimension, when the
    penalty's keys fix another dimension p; the error names both keys.

    L1 fits data of every dimension.
    """
    fixing = [k for k in _REGULARIZERS[reg.kind][1] if k in reg_cfg]
    if fixing and shape[-1:] != (reg.p,):
        raise ConfigError(
            f"regularizer.{fixing[0]} gives dimension {reg.p}, but {key} has shape {shape}"
        )


def design_from_config(cfg: dict, base_dir: str = ".", default_n=None) -> DesignSpec:
    """The design section; a gaussian_rows design without n takes default_n if set."""
    kind = require_key(cfg, "kind", "design")
    if kind == "explicit":
        _only_keys(cfg, ("kind", "matrix", "matrix_csv"), "explicit design")
        matrix = matrix_from_config(cfg, "matrix", base_dir, "design")
        return _spec(DesignSpec.explicit, "design", matrix)
    if kind == "gaussian_rows":
        _only_keys(
            cfg, ("kind", "n", "identity_dim", "covariance", "covariance_csv"),
            "gaussian_rows design",
        )
        if "n" in cfg or default_n is None:
            n = number(require_key(cfg, "n", "gaussian_rows design"), "design.n", integer=True)
        else:
            n = default_n
        if "identity_dim" in cfg:
            if "covariance" in cfg or "covariance_csv" in cfg:
                raise ConfigError("gaussian_rows design: give identity_dim or covariance, not both")
            cov = np.eye(number(cfg["identity_dim"], "design.identity_dim", integer=True))
        else:
            cov = matrix_from_config(cfg, "covariance", base_dir, "gaussian_rows design")
        return _spec(DesignSpec.gaussian, "design", cov, n)
    raise ConfigError(f"unknown design kind {kind!r}")


# the integer keys of each random signal kind
_SIGNAL_KEYS = {
    "sparse": ("p", "support_size"),
    "group_sparse": ("active_groups",),
    "low_rank": ("rank",),
    "piecewise_constant": ("p", "segments"),
}


def signal_from_config(cfg: dict) -> SignalSpec:
    kind = require_key(cfg, "kind", "signal")
    if kind == "explicit":
        _only_keys(cfg, ("kind", "beta0"), "explicit signal")
        return _spec(SignalSpec.explicit, "signal", require_key(cfg, "beta0", "signal"))
    if not isinstance(kind, str) or kind not in _SIGNAL_KEYS:
        raise ConfigError(f"unknown signal kind {kind!r}")
    _only_keys(cfg, ("kind", "amplitude_range", *_SIGNAL_KEYS[kind]), f"{kind} signal")
    amp = np.atleast_1d(cfg.get("amplitude_range", DEFAULT_AMPLITUDE_RANGE))
    amp = tuple(number(a, "signal.amplitude_range") for a in amp)
    counts = {
        key: number(require_key(cfg, key, f"{kind} signal"), f"signal.{key}", integer=True)
        for key in _SIGNAL_KEYS[kind]
    }
    return _spec(SignalSpec, "signal", kind=kind, amplitude_range=amp, **counts)


def solve_options_from_config(cfg: dict, zero_tol: float = ZERO_TOL) -> SolveOptions:
    """The solver section; zero_tol comes from the tolerances section."""
    _only_keys(cfg, ("step", "max_iter", "fp_tol"), "solver")
    return _spec(
        SolveOptions,
        "solver",
        step=number(cfg.get("step"), "solver.step", optional=True),
        max_iter=number(
            cfg.get("max_iter", SolveOptions.max_iter), "solver.max_iter", integer=True
        ),
        fp_tol=number(cfg.get("fp_tol", SolveOptions.fp_tol), "solver.fp_tol"),
        zero_tol=zero_tol,
    )


def mu_rule_from_config(cfg: dict) -> MuRule:
    kind = require_key(cfg, "kind", "mu rule")
    keys = ("value", "scale", "exponent")
    _only_keys(cfg, ("kind", *keys), "mu_rule")
    values = [number(cfg.get(k), f"mu_rule.{k}", optional=True) for k in keys]
    return _spec(MuRule, "mu rule", kind, *values)


_TOLERANCES = {"zero_tol": ZERO_TOL, "ri_tol": RI_TOL, "injectivity_tol": INJECTIVITY_TOL}


def tolerances_from_config(cfg: dict) -> dict:
    """The tolerances section, defaults filled: keyword arguments of the certificates."""
    _only_keys(cfg, _TOLERANCES, "tolerances")
    return {
        key: number(cfg.get(key, default), f"tolerances.{key}", nonnegative=True)
        for key, default in _TOLERANCES.items()
    }


# the top-level keys of each command's file
_CERTIFY_KEYS = (
    "regularizer", "tolerances", "gamma", "gamma_csv", "design", "beta0", "beta0_csv",
    "signal", "seed",
)
_SOLVE_KEYS = (
    "regularizer", "tolerances", "solver", "lambda", "x", "x_csv", "y", "y_csv", "beta0",
    "beta0_csv", "design", "signal", "noise_sigma", "seed",
)
_EXPERIMENT_KEYS = ("regularizer", "design", "signal", "solver", "tolerances", "experiment")


def _gives(cfg, keys, others) -> bool:
    """Whether cfg takes its data from keys rather than from the alternative, others.

    A file giving keys from both sources raises ConfigError naming one of each.
    """
    given = [k for k in keys if k in cfg]
    also = [k for k in others if k in cfg]
    if given and also:
        raise ConfigError(
            f"config gives both {given[0]!r} and {also[0]!r}: they are alternative "
            "sources, give one"
        )
    return bool(given)


def _seed(cfg, seed):
    """The seed argument, else the file's seed, else 0."""
    value = cfg.get("seed", 0) if seed is None else seed
    return number(value, "seed", integer=True, nonnegative=True)


def _no_seed(cfg, seed, draws):
    """Refuse a seed, the file's or the seed argument, when nothing is drawn.

    draws names what a seed would draw.
    """
    if "seed" in cfg:
        raise ConfigError(f"config key 'seed' is read only to draw {draws}; this file has none")
    if seed is not None:
        raise ConfigError(f"seed {seed} is read only to draw {draws}; this file has none")


def certify_from_config(cfg: dict, base_dir: str = ".", seed=None) -> tuple:
    """(regularizer, gamma, beta0, tolerances) of a certify file.

    seed overrides the file's, and like it is an error when no signal is drawn.
    """
    _only_keys(cfg, _CERTIFY_KEYS, "certify config")
    reg = regularizer_from_config(require_key(cfg, "regularizer", "config"), base_dir)
    tol = tolerances_from_config(cfg.get("tolerances", {}))
    if _gives(cfg, ("gamma", "gamma_csv"), ("design",)):
        gamma = matrix_from_config(cfg, "gamma", base_dir, "config")
        _check_dimension(cfg["regularizer"], reg, gamma.shape, "gamma")
    elif "design" in cfg:
        spec = design_from_config(cfg["design"], base_dir)
        x = spec.matrix
        # explicit designs give X^T X / n; gaussian rows, the population covariance
        gamma = spec.covariance if x is None else x.T @ x / x.shape[0]
        _check_dimension(cfg["regularizer"], reg, gamma.shape, "design")
    else:
        raise ConfigError("config needs 'gamma' (inline or CSV) or a 'design' section")
    if _gives(cfg, ("beta0", "beta0_csv"), ("signal",)):
        _no_seed(cfg, seed, "a signal")
        beta0 = _vector_from_config(cfg, "beta0", base_dir, "config")
        _check_dimension(cfg["regularizer"], reg, beta0.shape, "beta0")
    elif "signal" in cfg:
        spec = signal_from_config(cfg["signal"])
        beta0 = make_signal(spec, reg, np.random.default_rng(_seed(cfg, seed)))
    else:
        raise ConfigError("config needs 'beta0' (inline or CSV) or a 'signal' section")
    return reg, gamma, beta0, tol


def solve_from_config(cfg: dict, base_dir: str = ".", seed=None) -> tuple:
    """(regularizer, theta, options, tolerances, beta0) of a solve file.

    theta = (lambda / n, X^T y / n, X^T X / n) at the file's lambda; beta0
    is None for x/y data without one.  A generated instance draws its
    design, then its signal, then its noise from one default_rng(seed).
    seed overrides the file's, and like it is an error when no instance is
    generated.
    """
    _only_keys(cfg, _SOLVE_KEYS, "solve config")
    reg = regularizer_from_config(require_key(cfg, "regularizer", "config"), base_dir)
    tol = tolerances_from_config(cfg.get("tolerances", {}))
    opts = solve_options_from_config(cfg.get("solver", {}), tol["zero_tol"])
    lam = number(require_key(cfg, "lambda", "config"), "lambda")
    if not lam > 0:
        raise ConfigError(f"lambda must be > 0, got {json.dumps(cfg['lambda'], default=str)}")
    # a generated instance brings its own beta0
    _gives(cfg, ("beta0", "beta0_csv"), ("signal",))
    if _gives(cfg, ("x", "x_csv", "y", "y_csv"), ("design", "signal", "noise_sigma")):
        _no_seed(cfg, seed, "an instance from design, signal and noise_sigma")
        x = matrix_from_config(cfg, "x", base_dir, "config")
        if x.ndim != 2:
            raise ConfigError(f"x must be a matrix, got shape {x.shape}")
        _check_dimension(cfg["regularizer"], reg, x.shape, "x")
        y = _vector_from_config(cfg, "y", base_dir, "config")
        if y.shape[0] != x.shape[0]:
            raise ConfigError(f"y has length {y.shape[0]} but x has {x.shape[0]} rows")
        beta0 = None
        if "beta0" in cfg or "beta0_csv" in cfg:
            beta0 = _vector_from_config(cfg, "beta0", base_dir, "config")
            if beta0.shape[0] != x.shape[1]:
                raise ConfigError(
                    f"beta0 has length {beta0.shape[0]} but x has {x.shape[1]} columns"
                )
    else:
        needed = [k for k in ("design", "signal", "noise_sigma") if k not in cfg]
        if needed:
            raise ConfigError(
                "config needs either x/y data or design+signal+noise_sigma "
                f"(missing {needed})"
            )
        design = design_from_config(cfg["design"], base_dir)
        signal = signal_from_config(cfg["signal"])
        sigma = number(cfg["noise_sigma"], "noise_sigma", nonnegative=True)
        rng = np.random.default_rng(_seed(cfg, seed))
        x = make_design(design, rng)
        _check_dimension(cfg["regularizer"], reg, x.shape, "design")
        beta0 = make_signal(signal, reg, rng)
        if x.shape[1] != beta0.shape[0]:
            raise ConfigError(
                f"design has p={x.shape[1]} columns but the signal has length {beta0.shape[0]}"
            )
        y = x @ beta0 + sigma * rng.standard_normal(x.shape[0])
    n = x.shape[0]
    theta = CanonicalParameters(mu=lam / n, u=x.T @ y / n, gamma=x.T @ x / n)
    return reg, theta, opts, tol, beta0


def experiment_from_config(cfg: dict, base_dir: str = ".") -> tuple:
    """Parse a full experiment file into (kind, ExperimentConfig)."""
    _only_keys(cfg, _EXPERIMENT_KEYS, "experiment config")
    exp = require_key(cfg, "experiment", "config")
    kind = require_key(exp, "kind", "experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {tuple(EXPERIMENTS)}")
    expected, reads = EXPERIMENTS[kind]
    _only_keys(exp, ("kind", "sweep", "trials", "base_seed", "jobs", *reads), f"{kind} experiment")

    sweep = require_key(exp, "sweep", "experiment")
    if not isinstance(sweep, dict) or len(sweep) != 1:
        raise ConfigError("experiment sweep must be an object with exactly one key")
    (key, sweep_values), = sweep.items()
    if key != expected:
        raise ConfigError(f"experiment kind {kind!r} sweeps {expected!r}, got {key!r}")
    if not isinstance(sweep_values, list) or not sweep_values:
        raise ConfigError("sweep values must be a nonempty array")

    sweep_values = tuple(
        number(v, f"experiment.sweep.{key}", integer=key == "sample_sizes") for v in sweep_values
    )
    mu_rule = (
        mu_rule_from_config(require_key(exp, "mu_rule", "experiment"))
        if "mu_rule" in reads else None
    )
    # the harnesses' own range rule, refused here under the file's key
    found = _out_of_range(key, sweep_values, mu_rule)
    if found:
        raise ConfigError(f"experiment.sweep.{key} must be {found[1]}, got {found[0]}")

    tol_cfg = cfg.get("tolerances", {})
    # injectivity_tol applies to certify and solve only
    _only_keys(tol_cfg, ("zero_tol", "ri_tol"), "experiment tolerances")
    tol = tolerances_from_config(tol_cfg)
    reg_cfg = require_key(cfg, "regularizer", "config")
    reg = regularizer_from_config(reg_cfg, base_dir)
    # a consistency design draws n from its sweep, so its file needs none
    design = design_from_config(
        require_key(cfg, "design", "config"), base_dir,
        sweep_values[0] if key == "sample_sizes" else None,
    )
    data = design.covariance if design.matrix is None else design.matrix
    _check_dimension(reg_cfg, reg, data.shape, "design")
    signal = signal_from_config(require_key(cfg, "signal", "config"))
    # group_sparse and low_rank signals take their p from the penalty
    if signal.p is not None:
        _check_dimension(reg_cfg, reg, (signal.p,), "signal")
    args = dict(
        regularizer=reg,
        design=design,
        signal=signal,
        sweep_values=sweep_values,
        trials=number(require_key(exp, "trials", "experiment"), "experiment.trials", integer=True),
        mu_rule=mu_rule,
        base_seed=number(
            exp.get("base_seed", 0), "experiment.base_seed", integer=True, nonnegative=True
        ),
        noise_sigma=number(exp.get("noise_sigma"), "experiment.noise_sigma", optional=True),
        solve=solve_options_from_config(cfg.get("solver", {}), tol["zero_tol"]),
        jobs=number(exp.get("jobs", 1), "experiment.jobs", integer=True),
        ri_tol=tol["ri_tol"],
    )
    return kind, _spec(ExperimentConfig, "experiment", **args)

