"""JSON config parsing for the command line tools.

One JSON file describes a whole run, and this module alone reads it:
certify_from_config, solve_from_config and experiment_from_config turn a
loaded file into what each command runs on.  Matrices may be written inline
as nested arrays or referenced as CSV files through *_csv keys; CSV paths
are resolved relative to the config file's directory.  See the README for
the full schema and worked examples.

Every *_from_config function raises ConfigError with a readable message on
malformed input, including a key that no reader of its object uses, and
each spec type has a matching *_to_config so that a parsed configuration
can be serialized back to an equivalent file.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .experiments import ExperimentConfig, MuRule
from .linalg import INJECTIVITY_TOL
from .problems import (
    DEFAULT_AMPLITUDE_RANGE,
    DesignSpec,
    ProblemInstance,
    SignalSpec,
    canonical_parameters,
    generate_instance,
    load_matrix_csv,
    make_signal,
)
from .regularizers import L1, RI_TOL, ZERO_TOL, AnalysisL1, GroupL1L2, Nuclear, Regularizer
from .solver import SolveOptions

# the one sweep key that each experiment kind's file carries
_SWEEP_BY_KIND = {
    "noise_stability": "noise_levels",
    "consistency": "sample_sizes",
    "sharpness": "mu_values",
    "identification_profile": "noise_levels",
}
EXPERIMENT_KINDS = tuple(_SWEEP_BY_KIND)
# sharpness sweeps mu itself, so its file has no mu_rule
_READS_MU_RULE = tuple(k for k in EXPERIMENT_KINDS if k != "sharpness")


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


# kind: (class, the keys besides "kind"); Regularizer.to_config writes them
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
        if "operator_shape" in cfg and list(args[0].shape) != cfg["operator_shape"]:
            raise ConfigError(
                f"{context}: operator shape {args[0].shape} != declared {cfg['operator_shape']}"
            )
    else:
        args = [require_key(cfg, key, context) for key in keys]
    # the constructors index into the file's own values (groups, shapes)
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"regularizer: {exc}") from exc


def design_from_config(cfg: dict, base_dir: str = ".") -> DesignSpec:
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
        n = number(require_key(cfg, "n", "gaussian_rows design"), "design.n", integer=True)
        if "identity_dim" in cfg:
            if "covariance" in cfg or "covariance_csv" in cfg:
                raise ConfigError("gaussian_rows design: give identity_dim or covariance, not both")
            cov = np.eye(number(cfg["identity_dim"], "design.identity_dim", integer=True))
        else:
            cov = matrix_from_config(cfg, "covariance", base_dir, "gaussian_rows design")
        return _spec(DesignSpec.gaussian, "design", cov, n)
    raise ConfigError(f"unknown design kind {kind!r}")


def design_to_config(spec: DesignSpec) -> dict:
    if spec.kind == "explicit":
        return {"kind": "explicit", "matrix": spec.matrix.tolist()}
    return {"kind": "gaussian_rows", "covariance": spec.covariance.tolist(), "n": spec.n}


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


def signal_to_config(spec: SignalSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.kind == "explicit":
        out["beta0"] = spec.beta0.tolist()
        return out
    out["amplitude_range"] = list(spec.amplitude_range)
    out.update({key: getattr(spec, key) for key in _SIGNAL_KEYS[spec.kind]})
    return out


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


def solve_options_to_config(opts: SolveOptions) -> dict:
    return {"step": opts.step, "max_iter": opts.max_iter, "fp_tol": opts.fp_tol}


def mu_rule_from_config(cfg: dict) -> MuRule:
    kind = require_key(cfg, "kind", "mu rule")
    keys = ("value", "scale", "exponent")
    _only_keys(cfg, ("kind", *keys), "mu_rule")
    values = [number(cfg.get(k), f"mu_rule.{k}", optional=True) for k in keys]
    return _spec(MuRule, "mu rule", kind, *values)


def mu_rule_to_config(rule: MuRule) -> dict:
    out = {"kind": rule.kind}
    for key in ("value", "scale", "exponent"):
        if getattr(rule, key) is not None:
            out[key] = getattr(rule, key)
    return out


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
    return number(cfg.get("seed", 0), "seed", integer=True) if seed is None else seed


def certify_from_config(cfg: dict, base_dir: str = ".", seed=None) -> tuple:
    """(regularizer, gamma, beta0, tolerances) of a certify file; seed overrides the file's."""
    _only_keys(cfg, _CERTIFY_KEYS, "certify config")
    reg = regularizer_from_config(require_key(cfg, "regularizer", "config"), base_dir)
    tol = tolerances_from_config(cfg.get("tolerances", {}))
    if _gives(cfg, ("gamma", "gamma_csv"), ("design",)):
        gamma = matrix_from_config(cfg, "gamma", base_dir, "config")
    elif "design" in cfg:
        spec = design_from_config(cfg["design"], base_dir)
        x = spec.matrix
        # explicit designs give X^T X / n; gaussian rows, the population covariance
        gamma = spec.covariance if x is None else x.T @ x / x.shape[0]
    else:
        raise ConfigError("config needs 'gamma' (inline or CSV) or a 'design' section")
    if _gives(cfg, ("beta0", "beta0_csv"), ("signal",)):
        beta0 = _vector_from_config(cfg, "beta0", base_dir, "config")
    elif "signal" in cfg:
        spec = signal_from_config(cfg["signal"])
        beta0 = make_signal(spec, reg, np.random.default_rng(_seed(cfg, seed)))
    else:
        raise ConfigError("config needs 'beta0' (inline or CSV) or a 'signal' section")
    return reg, gamma, beta0, tol


def solve_from_config(cfg: dict, base_dir: str = ".", seed=None) -> tuple:
    """(regularizer, theta, options, tolerances, beta0) of a solve file.

    theta holds the canonical parameters at the file's lambda; beta0 is None
    for x/y data without one.  seed overrides the file's.
    """
    _only_keys(cfg, _SOLVE_KEYS, "solve config")
    reg = regularizer_from_config(require_key(cfg, "regularizer", "config"), base_dir)
    tol = tolerances_from_config(cfg.get("tolerances", {}))
    opts = solve_options_from_config(cfg.get("solver", {}), tol["zero_tol"])
    lam = number(require_key(cfg, "lambda", "config"), "lambda")
    # a generated instance brings its own beta0
    _gives(cfg, ("beta0", "beta0_csv"), ("signal",))
    if _gives(cfg, ("x", "x_csv", "y", "y_csv"), ("design", "signal", "noise_sigma")):
        x = matrix_from_config(cfg, "x", base_dir, "config")
        y = _vector_from_config(cfg, "y", base_dir, "config")
        if y.shape[0] != x.shape[0]:
            raise ConfigError(f"y has length {y.shape[0]} but x has {x.shape[0]} rows")
        beta0 = None
        if "beta0" in cfg or "beta0_csv" in cfg:
            beta0 = _vector_from_config(cfg, "beta0", base_dir, "config")
        zeros = np.zeros(x.shape[1]) if beta0 is None else beta0
        inst = ProblemInstance(x=x, beta0=zeros, w=np.zeros(x.shape[0]), y=y, seed=-1)
    else:
        needed = [k for k in ("design", "signal", "noise_sigma") if k not in cfg]
        if needed:
            raise ConfigError(
                "config needs either x/y data or design+signal+noise_sigma "
                f"(missing {needed})"
            )
        inst = generate_instance(
            design_from_config(cfg["design"], base_dir),
            signal_from_config(cfg["signal"]),
            number(cfg["noise_sigma"], "noise_sigma"),
            _seed(cfg, seed),
            reg,
        )
        beta0 = inst.beta0
    return reg, canonical_parameters(inst, lam), opts, tol, beta0


def experiment_from_config(cfg: dict, base_dir: str = ".") -> tuple:
    """Parse a full experiment file into (kind, ExperimentConfig)."""
    _only_keys(cfg, _EXPERIMENT_KEYS, "experiment config")
    exp = require_key(cfg, "experiment", "config")
    kind = require_key(exp, "kind", "experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {EXPERIMENT_KINDS}")
    reads_mu_rule = kind in _READS_MU_RULE
    keys = ["kind", "sweep", "trials", "base_seed", "noise_sigma", "jobs"]
    if reads_mu_rule:
        keys.append("mu_rule")
    _only_keys(exp, keys, f"{kind} experiment")

    sweep = require_key(exp, "sweep", "experiment")
    if not isinstance(sweep, dict) or len(sweep) != 1:
        raise ConfigError("experiment sweep must be an object with exactly one key")
    (key, sweep_values), = sweep.items()
    expected = _SWEEP_BY_KIND[kind]
    if key != expected:
        raise ConfigError(f"experiment kind {kind!r} sweeps {expected!r}, got {key!r}")
    if not isinstance(sweep_values, list) or not sweep_values:
        raise ConfigError("sweep values must be a nonempty array")

    tol_cfg = cfg.get("tolerances", {})
    # injectivity_tol applies to certify and solve only
    _only_keys(tol_cfg, ("zero_tol", "ri_tol"), "experiment tolerances")
    tol = tolerances_from_config(tol_cfg)
    args = dict(
        regularizer=regularizer_from_config(
            require_key(cfg, "regularizer", "config"), base_dir
        ),
        design=design_from_config(require_key(cfg, "design", "config"), base_dir),
        signal=signal_from_config(require_key(cfg, "signal", "config")),
        sweep_values=tuple(number(v, f"experiment.sweep.{key}") for v in sweep_values),
        trials=number(require_key(exp, "trials", "experiment"), "experiment.trials", integer=True),
        mu_rule=(
            mu_rule_from_config(require_key(exp, "mu_rule", "experiment"))
            if reads_mu_rule else None
        ),
        base_seed=number(exp.get("base_seed", 0), "experiment.base_seed", integer=True),
        noise_sigma=number(exp.get("noise_sigma"), "experiment.noise_sigma", optional=True),
        solve=solve_options_from_config(cfg.get("solver", {}), tol["zero_tol"]),
        jobs=number(exp["jobs"], "experiment.jobs", integer=True) if "jobs" in exp else None,
        ri_tol=tol["ri_tol"],
    )
    return kind, _spec(ExperimentConfig, "experiment", **args)


def experiment_to_config(kind: str, config: ExperimentConfig) -> dict:
    """Inverse of experiment_from_config, up to default filling."""
    sweep_values = list(config.sweep_values)
    if kind == "consistency":
        sweep_values = [int(v) for v in sweep_values]
    exp = {
        "kind": kind,
        "sweep": {_SWEEP_BY_KIND[kind]: sweep_values},
        "trials": config.trials,
        "base_seed": config.base_seed,
    }
    if config.mu_rule is not None and kind in _READS_MU_RULE:
        exp["mu_rule"] = mu_rule_to_config(config.mu_rule)
    if config.noise_sigma is not None:
        exp["noise_sigma"] = config.noise_sigma
    if config.jobs is not None:
        exp["jobs"] = config.jobs
    return {
        "regularizer": config.regularizer.to_config(),
        "design": design_to_config(config.design),
        "signal": signal_to_config(config.signal),
        "solver": solve_options_to_config(config.solve),
        "tolerances": {"zero_tol": config.solve.zero_tol, "ri_tol": config.ri_tol},
        "experiment": exp,
    }
