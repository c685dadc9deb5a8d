"""Monte-Carlo experiments for model recovery.

Four harnesses, all built on the same trial engine:

* noise_stability_sweep: fixed design, noise level swept; measures how often
  the solver recovers the exact active model of beta0 when the certificate
  says it should.
* consistency_sweep: sample size swept with fresh Gaussian designs per trial
  and mu_n = c * n^(-exponent), 0 < exponent < 1/2; measures recovery rate
  as n grows.
* sharpness_experiment: mu swept at a fixed small noise level on an instance
  whose certificate is strictly outside; recovery should essentially never
  happen, including in the noiseless limit.
* identification_profile: noise sweep with per-iterate model traces; reports
  when the solver's iterates lock onto their final model.

Every trial is reproducible from (config, base_seed): setup draws (fixed
design, signal) use base_seed, trial k overall uses base_seed + 1 + k.
Records are emitted in task order regardless of the parallelism degree.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .certificate import Certificate, check_model_stability
from .problems import (
    DesignSpec,
    SignalSpec,
    canonical_parameters,
    correlation_noise,
    generate_instance,
    make_design,
    make_signal,
)
from .regularizers import RI_TOL, ModelDescriptor, Regularizer, same_model
from .solver import Quadratic, SolveOptions, forward_backward_batch

MU_RULE_KINDS = ("fixed", "proportional", "power")


@dataclass(frozen=True)
class MuRule:
    """Penalty schedule.

    fixed: mu = value.  proportional: mu = scale * sigma (scale defaults to
    2 / certificate margin).  power: mu = scale * n^(-exponent) with
    0 < exponent < 1/2 (defaults: scale 1, exponent 1/4).
    """

    kind: str
    value: Optional[float] = None
    scale: Optional[float] = None
    exponent: Optional[float] = None

    def __post_init__(self):
        if self.kind not in MU_RULE_KINDS:
            raise ValueError(f"unknown mu rule kind {self.kind!r}")
        if self.kind == "fixed" and (self.value is None or self.value <= 0):
            raise ValueError("fixed mu rule needs value > 0")
        if self.kind == "power":
            exp = 0.25 if self.exponent is None else self.exponent
            if not 0 < exp < 0.5:
                raise ValueError(f"power rule exponent must be in (0, 1/2), got {exp}")
            object.__setattr__(self, "exponent", exp)
            object.__setattr__(self, "scale", 1.0 if self.scale is None else float(self.scale))

    def resolve(self, sigma: Optional[float], n: int) -> float:
        if self.kind == "fixed":
            return float(self.value)
        if self.kind == "proportional":
            if self.scale is None:
                raise ValueError("proportional mu rule has no scale set")
            if sigma is None or sigma <= 0:
                raise ValueError("proportional mu rule needs sigma > 0")
            return float(self.scale) * float(sigma)
        return float(self.scale) * float(n) ** (-float(self.exponent))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a harness needs, minus the experiment kind itself.

    The harness fixes what sweep_values are: noise levels, sample sizes or
    mu values.  mu_rule is required by every harness but sharpness, whose
    mu values are the sweep itself.  solve.zero_tol reads every model: in
    the solver, the target, each trial's final descriptor and the
    certificate.
    """

    regularizer: Regularizer
    design: DesignSpec
    signal: SignalSpec
    sweep_values: tuple
    trials: int
    mu_rule: Optional[MuRule] = None
    base_seed: int = 0
    noise_sigma: Optional[float] = None
    solve: SolveOptions = SolveOptions()
    jobs: Optional[int] = None
    ri_tol: float = RI_TOL

    def __post_init__(self):
        values = tuple(float(v) for v in self.sweep_values)
        if not values:
            raise ValueError("sweep_values must be nonempty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        object.__setattr__(self, "sweep_values", values)


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    n: int
    sigma: float
    mu: float
    identified: bool
    boundary_flag: bool
    error_norm: float
    eps_norm: float
    identification_iter: Optional[int]
    converged: bool
    certificate_margin: float


@dataclass(frozen=True)
class SummaryRow:
    sweep_value: float
    trials: int
    converged_count: int
    boundary_count: int
    identification_rate: float
    mean_error_ratio: float
    max_error_ratio: float
    mean_identification_iter: float


@dataclass
class ProfileStats:
    identification_iters: list
    finite_fraction: float
    post_match_fraction: float


@dataclass
class ExperimentResult:
    kind: str
    records: list
    summary: list
    certificate: Optional[Certificate] = None
    noiseless_identified: Optional[dict] = None
    profile: Optional[ProfileStats] = None


# ---------------------------------------------------------------------------
# trial engine


@dataclass(frozen=True)
class _Shared:
    """What every trial of one sweep shares.

    designs holds one design per sweep point, or the single design of a
    fixed-design sweep, whose Gamma is then prepared once as quad.  A
    process pool receives this once per worker, not with every task.
    """

    reg: Regularizer
    designs: tuple
    signal: SignalSpec
    opts: SolveOptions
    target: ModelDescriptor
    margin: float
    boundary: bool
    quad: Optional[Quadratic] = None


def _draw(shared, point, sigma, mu, seed):
    """Trial `seed`'s problem and what its record needs of the instance.

    Returns (theta, (seed, n, beta0, ||X^T w / n||)); the instance itself,
    with its design, is dropped here, so a batch holds no designs.
    """
    inst = generate_instance(shared.designs[point], shared.signal, sigma, seed, shared.reg)
    theta = canonical_parameters(inst, mu * inst.n, shared.quad)
    return theta, (seed, inst.n, inst.beta0, float(np.linalg.norm(correlation_noise(inst))))


def _run_batch(shared, tasks):
    """The trials of several sweep points, solved as one forward_backward_batch.

    A task is (design index, sigma, mu, seeds), one trial per seed.  Returns
    one list of (record, model trace, final descriptor) per task, in order.
    Every row of a batch gets the bits it gets alone, so how the tasks are
    grouped changes no result.  Module-level so worker processes can import
    it.
    """
    thetas, facts = zip(*(
        _draw(shared, point, sigma, mu, seed)
        for point, sigma, mu, seeds in tasks for seed in seeds
    ))
    solved = zip(facts, forward_backward_batch(thetas, shared.reg, shared.opts))
    return [
        [_outcome(shared, sigma, mu, *next(solved)) for _ in seeds]
        for _, sigma, mu, seeds in tasks
    ]


def _outcome(shared, sigma, mu, facts, res):
    """(record, model trace, final descriptor) of one solved trial."""
    seed, n, beta0, eps_norm = facts
    desc = shared.reg.descriptor(res.beta, shared.opts.zero_tol)
    record = TrialRecord(
        seed=seed,
        n=n,
        sigma=sigma,
        mu=mu,
        identified=bool(res.converged and same_model(desc, shared.target)),
        boundary_flag=shared.boundary,
        error_norm=float(np.linalg.norm(res.beta - beta0)),
        eps_norm=eps_norm,
        identification_iter=res.identification_iter,
        converged=res.converged,
        certificate_margin=shared.margin,
    )
    return record, res.model_trace, desc


_WORKER_SHARED = None  # set once in each pool worker by _init_worker


def _init_worker(shared):
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _run_worker_point(task):
    [outs] = _run_batch(_WORKER_SHARED, [task])
    return outs


def _run_trials(shared, points, config):
    """Run config.trials trials at each point (design index, sigma, mu).

    Trial k of the whole run uses seed base_seed + 1 + k.  jobs=None or 1
    runs serially: a fixed design (shared.quad set) solves all its points
    as one batch, whose rows cost O(p) each; fresh designs solve one batch
    per point, since each of their rows carries its own p x p Gamma.
    jobs > 1 hands whole points to a process pool, which gets `shared` once
    per worker.  Returns one list of _run_batch outputs per point, in order.
    """
    trials, jobs = config.trials, config.jobs
    tasks = []
    for i, (point, sigma, mu) in enumerate(points):
        first = config.base_seed + 1 + i * trials
        tasks.append((point, sigma, mu, list(range(first, first + trials))))
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        if shared.quad is not None:
            return _run_batch(shared, tasks)
        return [outs for task in tasks for outs in _run_batch(shared, [task])]
    # deferred: concurrent.futures.process adds tens of ms to every import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)), initializer=_init_worker, initargs=(shared,)
    ) as pool:
        return list(pool.map(_run_worker_point, tasks))


def _result(kind, values, batches, cert, **extras):
    """The ExperimentResult of a sweep: batches[i] holds the trials at values[i]."""
    by_value = [(float(v), [out[0] for out in batch]) for v, batch in zip(values, batches)]
    return ExperimentResult(
        kind=kind,
        records=[r for _, records in by_value for r in records],
        summary=_summarize(by_value),
        certificate=cert,
        **extras,
    )


def _summarize(records_by_value):
    rows = []
    for value, records in records_by_value:
        conv = [r for r in records if r.converged]
        boundary = [r for r in records if r.boundary_flag]
        eligible = [r for r in conv if not r.boundary_flag]
        rate = (
            sum(r.identified for r in eligible) / len(eligible) if eligible else float("nan")
        )
        ratios = [r.error_norm / r.eps_norm for r in conv if r.eps_norm > 0]
        iters = [r.identification_iter for r in conv if r.identification_iter is not None]
        rows.append(
            SummaryRow(
                sweep_value=value,
                trials=len(records),
                converged_count=len(conv),
                boundary_count=len(boundary),
                identification_rate=rate,
                mean_error_ratio=float(np.mean(ratios)) if ratios else float("nan"),
                max_error_ratio=float(np.max(ratios)) if ratios else float("nan"),
                mean_identification_iter=float(np.mean(iters)) if iters else float("nan"),
            )
        )
    return rows


def _make_shared(config: ExperimentConfig, cert, beta0, designs, quad=None) -> _Shared:
    margin = cert.verdict.margin if cert.usable else float("nan")
    return _Shared(
        reg=config.regularizer,
        designs=tuple(designs),
        signal=SignalSpec.explicit(beta0),
        opts=config.solve,
        target=config.regularizer.descriptor(beta0, config.solve.zero_tol),
        margin=margin,
        boundary=cert.inconclusive,
        quad=quad,
    )


def _fixed_setup(config: ExperimentConfig):
    """Draw the shared design and signal once from base_seed; prepare Gamma.

    Returns (shared, certificate, n).
    """
    rng = np.random.default_rng(config.base_seed)
    x = make_design(config.design, rng)
    beta0 = make_signal(config.signal, config.regularizer, rng)
    if x.shape[1] != beta0.shape[0]:
        raise ValueError("design and signal dimensions differ")
    quad = Quadratic(x.T @ x / x.shape[0])
    cert = check_model_stability(
        quad.gamma, beta0, config.regularizer, config.solve.zero_tol, config.ri_tol
    )
    return _make_shared(config, cert, beta0, [DesignSpec.explicit(x)], quad), cert, x.shape[0]


def _noise_setup(config: ExperimentConfig):
    """A fixed design with one point per noise level, mu from the rule.

    A proportional rule without a scale gets the default c = 2 / margin.
    Returns (shared, certificate, points).
    """
    rule = config.mu_rule
    if rule is None:
        raise ValueError("a noise sweep needs a mu_rule")
    shared, cert, n = _fixed_setup(config)
    if rule.kind == "proportional" and rule.scale is None:
        if not cert.usable or cert.verdict.margin <= 0:
            raise ValueError(
                "default proportional mu rule needs a certified instance "
                "(positive margin); set the scale explicitly"
            )
        rule = replace(rule, scale=2.0 / cert.verdict.margin)
    return shared, cert, [(0, sigma, rule.resolve(sigma, n)) for sigma in config.sweep_values]


def noise_stability_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Recovery rate and error ratios across noise levels on a fixed design."""
    shared, cert, points = _noise_setup(config)
    batches = _run_trials(shared, points, config)
    return _result("noise_stability", config.sweep_values, batches, cert)


def consistency_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Recovery rate across sample sizes with fresh designs per trial."""
    if config.design.kind != "gaussian_rows":
        raise ValueError("consistency_sweep needs a gaussian_rows design")
    if config.mu_rule is None or config.mu_rule.kind != "power":
        raise ValueError("consistency_sweep needs a power mu rule")
    sizes = [int(v) for v in config.sweep_values]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sample sizes must be strictly increasing, got {sizes}")
    sigma = config.noise_sigma
    if sigma is None or sigma < 0:
        raise ValueError("consistency_sweep needs noise_sigma >= 0")

    rng = np.random.default_rng(config.base_seed)
    beta0 = make_signal(config.signal, config.regularizer, rng)
    cov = config.design.covariance
    # population certificate: the stability condition is checked on the
    # covariance the rows are drawn from
    cert = check_model_stability(
        cov, beta0, config.regularizer, config.solve.zero_tol, config.ri_tol
    )
    # every trial draws its own design, so each prepares its own Gamma
    shared = _make_shared(config, cert, beta0, [DesignSpec.gaussian(cov, n) for n in sizes])
    points = [(i, sigma, config.mu_rule.resolve(sigma, n)) for i, n in enumerate(sizes)]
    batches = _run_trials(shared, points, config)
    return _result("consistency", sizes, batches, cert)


def sharpness_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Non-recovery across a mu grid on an instance certified outside."""
    sigma = config.noise_sigma
    if sigma is None or sigma < 0:
        raise ValueError("sharpness_experiment needs noise_sigma >= 0")
    shared, cert, _ = _fixed_setup(config)
    if cert.stable:
        warnings.warn(
            "sharpness experiment on an instance whose certificate is strictly "
            "interior; recovery is expected there", stacklevel=2,
        )

    # deterministic noiseless check per mu: the solution should be off the
    # model of beta0 even with w = 0
    checks = [(0, 0.0, mu, [config.base_seed]) for mu in config.sweep_values]
    noiseless = {
        mu: rec.identified
        for mu, [(rec, _, _)] in zip(config.sweep_values, _run_batch(shared, checks))
    }

    points = [(0, sigma, mu) for mu in config.sweep_values]
    batches = _run_trials(shared, points, config)
    return _result(
        "sharpness", config.sweep_values, batches, cert, noiseless_identified=noiseless
    )


def identification_profile(config: ExperimentConfig) -> ExperimentResult:
    """Noise sweep with model traces; reports identification statistics."""
    traced = replace(config, solve=replace(config.solve, trace_models=True))
    shared, cert, points = _noise_setup(traced)
    batches = _run_trials(shared, points, traced)

    iters = []
    matches = 0
    finite = 0
    converged_total = 0
    for record, trace, final_desc in (out for batch in batches for out in batch):
        if not record.converged:
            continue
        converged_total += 1
        k = record.identification_iter
        if k is not None and k < traced.solve.max_iter:
            finite += 1
            iters.append(k)
        # the retrospective definition makes every post-identification
        # descriptor equal the final one; verify, then compare to the target
        if not all(same_model(d, final_desc) for d in trace[k:]):
            raise RuntimeError(
                f"trial seed {record.seed}: the model trace changes after "
                f"identification iterate {k}"
            )
        if same_model(final_desc, shared.target):
            matches += 1
    profile = ProfileStats(
        identification_iters=iters,
        finite_fraction=finite / converged_total if converged_total else float("nan"),
        post_match_fraction=matches / converged_total if converged_total else float("nan"),
    )
    return _result(
        "identification_profile", config.sweep_values, batches, cert, profile=profile
    )


def find_certified_design(reg, covariance, n, beta0, min_margin=0.0, base_seed=0, max_tries=100):
    """Search design seeds until the empirical covariance certifies beta0.

    Returns (x, certificate, seed).  Raises if no draw within
    max_tries produces a stable certificate with margin >= min_margin.
    """
    spec = DesignSpec.gaussian(covariance, n)
    beta0 = np.asarray(beta0, dtype=float)
    for k in range(max_tries):
        seed = base_seed + k
        x = make_design(spec, np.random.default_rng(seed))
        cert = check_model_stability(x.T @ x / n, beta0, reg)
        if cert.stable and cert.verdict.margin >= min_margin:
            return x, cert, seed
    raise RuntimeError(
        f"no certified design with margin >= {min_margin} in {max_tries} draws"
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


RECORD_COLUMNS = (
    "seed", "n", "sigma", "mu", "identified", "boundary_flag", "error_norm",
    "eps_norm", "identification_iter", "converged", "certificate_margin",
)

SUMMARY_COLUMNS = (
    "sweep_value", "trials", "converged_count", "boundary_count",
    "identification_rate", "mean_error_ratio", "max_error_ratio",
    "mean_identification_iter",
)


def write_records_csv(records, path):
    """One row per trial, floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow([_fmt(getattr(r, c)) for c in RECORD_COLUMNS])


def write_summary_json(result: ExperimentResult, path):
    """Aggregate summary: one entry per sweep point plus certificate info."""
    payload = {
        "kind": result.kind,
        "rows": [
            {c: getattr(row, c) for c in SUMMARY_COLUMNS} for row in result.summary
        ],
    }
    cert = result.certificate
    if cert is not None:
        payload["certificate"] = {
            "usable": cert.usable,
            "subspace_dim": cert.subspace_dim,
            "smallest_singular": cert.injectivity.smallest_singular,
        }
        if cert.usable:
            payload["certificate"]["status"] = cert.verdict.status
            payload["certificate"]["margin"] = cert.verdict.margin
            payload["certificate"]["tangent_residual"] = cert.verdict.tangent_residual
    if result.noiseless_identified is not None:
        payload["noiseless_identified"] = {
            _fmt(mu): bool(v) for mu, v in result.noiseless_identified.items()
        }
    if result.profile is not None:
        payload["profile"] = {
            "identification_iters": result.profile.identification_iters,
            "finite_fraction": result.profile.finite_fraction,
            "post_match_fraction": result.profile.post_match_fraction,
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
        fh.write("\n")


def write_plot_csv(result: ExperimentResult, path):
    """Long-format summary table, one row per sweep point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in result.summary:
            writer.writerow([_fmt(getattr(row, c)) for c in SUMMARY_COLUMNS])
