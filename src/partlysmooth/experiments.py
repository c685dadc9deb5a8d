"""Monte-Carlo experiments for model recovery.

Three harnesses, all built on the same trial engine:

* noise_stability_sweep: fixed design, noise level swept; measures how often
  the solver recovers the exact active model of beta0 when the certificate
  says it should, and profiles when the iterates lock onto their final
  model and how often that model is the target's.
* consistency_sweep: sample size swept with fresh Gaussian designs per trial
  and mu_n = c * n^(-exponent), 0 < exponent < 1/2; measures recovery rate
  as n grows.
* sharpness_experiment: mu swept at a fixed small noise level on an instance
  whose certificate is strictly outside; recovery should essentially never
  happen, including in the noiseless limit.

Every trial is reproducible from (config, base_seed): setup draws (fixed
design, signal) use base_seed, trial k overall uses base_seed + 1 + k.
Records are emitted in task order regardless of the parallelism degree.

A batch draws each sweep point's trials with one draw_trials call (trial
seed s on the stream of Philox key s, products as stacks) and passes the
stacks of all its points to one forward_backward_batch (all three looked
up here, so tests can wrap them).  A point's outcomes stay columns: slices
of the batch's arrays beside the point's n, sigma and mu.  A sweep's
TrialTable holds them and is the one form of its trials: the summaries read
its columns through masks, and records.csv (RECORD_COLUMNS) and plot.csv
are written a column at a time, a value that many rows share formatted
once, in the bytes csv.writer would write.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .certificate import Certificate, _check_tolerances, check_model_stability
from .linalg import _check_integer, _row_dots
from .problems import _SEED_BOUND, DesignSpec, SignalSpec, draw_trials, make_design, make_signal
from .regularizers import RI_TOL, Regularizer
from .solver import SolveOptions, forward_backward_batch


def _is_real(x) -> bool:
    """x is a real number, and not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_))


# kind: the fields the rule reads
MU_RULE_KINDS = {"fixed": ("value",), "proportional": ("scale",), "power": ("scale", "exponent")}


@dataclass(frozen=True)
class MuRule:
    """Penalty schedule.

    fixed: mu = value.  proportional: mu = scale * sigma (scale defaults to
    2 / certificate margin).  power: mu = scale * n^(-exponent) with
    0 < exponent < 1/2 (defaults: scale 1, exponent 1/4).  A field the kind
    does not read is an error, as is a field that is not a finite real
    number (a boolean included) or a scale <= 0.
    """

    kind: str
    value: Optional[float] = None
    scale: Optional[float] = None
    exponent: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in MU_RULE_KINDS:
            raise ValueError(f"unknown mu rule kind {self.kind!r}")
        for name in ("value", "scale", "exponent"):
            x = getattr(self, name)
            if x is not None and name not in MU_RULE_KINDS[self.kind]:
                raise ValueError(f"a {self.kind} mu rule does not read {name}")
            if x is not None and not (_is_real(x) and math.isfinite(x)):
                raise ValueError(f"mu rule {name} must be a finite number, got {x!r}")
        if self.scale is not None and not self.scale > 0:
            raise ValueError(f"mu rule scale must be > 0, got {self.scale}")
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


def _out_of_range(key, values, mu_rule):
    """(the first sweep value out of key's range, that range), or None.

    key names what the values are.  A noise level is >= 0, and > 0 under a
    proportional mu rule (mu = 0 otherwise); mu values are > 0 and sample
    sizes >= 1.  The harnesses and the file parser both read this rule.
    """
    proportional = mu_rule is not None and mu_rule.kind == "proportional"
    if key == "sample_sizes":
        bad, want = [v for v in values if v < 1], ">= 1"
    elif key == "mu_values" or proportional:
        bad, want = [v for v in values if not v > 0], "> 0"
    else:
        bad, want = [v for v in values if v < 0], ">= 0"
    rule = " under a proportional mu rule" if proportional else ""
    return (bad[0], want + rule) if bad else None


# kind: (its sweep key, naming what sweep_values are, and the optional
# ExperimentConfig fields it reads); a field it reads is required and any other is refused.  sharpness
# sweeps mu itself, and a noise sweep takes sigma from its sweep
EXPERIMENTS = {
    "noise_stability": ("noise_levels", ("mu_rule",)),
    "consistency": ("sample_sizes", ("mu_rule", "noise_sigma")),
    "sharpness": ("mu_values", ("noise_sigma",)),
}


def _check_entry(harness, kind, config):
    """Refuse, before any set-up, a config that kind's harness cannot run:
    an optional field it reads left unset, one it never reads set, or a
    sweep value out of range."""
    key, reads = EXPERIMENTS[kind]
    for name in ("mu_rule", "noise_sigma"):
        if (getattr(config, name) is None) == (name in reads):
            raise ValueError(f"{harness} {'needs' if name in reads else 'does not read'} {name}")
    found = _out_of_range(key, config.sweep_values, config.mu_rule)
    if found:
        bad, want = found
        what = "mu" if key == "mu_values" else key.replace("_", " ")
        raise ValueError(f"{harness} needs sweep_values ({what}) {want}, got {bad}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a harness needs, minus the experiment kind itself.

    The harness fixes what sweep_values are: noise levels, sample sizes or
    mu values.  EXPERIMENTS says which of mu_rule and noise_sigma each
    harness reads; it needs those and refuses the other, and a sweep value
    out of range, before any set-up.  noise_sigma and the sweep values are
    finite real numbers, not booleans.  solve.zero_tol reads every model: in
    the solver, beta0's model key and the certificate.  jobs is the number
    of worker processes, 1 for a serial run.
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
    jobs: int = 1
    ri_tol: float = RI_TOL

    def __post_init__(self):
        values = tuple(self.sweep_values)
        if not values:
            raise ValueError("sweep_values must be nonempty")
        for name, x in [("noise_sigma", self.noise_sigma)] + [("sweep_values", v) for v in values]:
            if x is not None and not _is_real(x):
                raise ValueError(f"{name} must be a real number, got {x!r}")
            if x is not None and not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x}")
        if self.noise_sigma is not None and self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for name in ("trials", "base_seed", "jobs"):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        last = self.base_seed + self.trials * len(values)  # the last trial's seed
        if last >= _SEED_BOUND:
            raise ValueError(
                f"base_seed={self.base_seed} puts the last trial seed at {last}, past 2**128 - 1"
            )
        _check_tolerances(ri_tol=self.ri_tol)
        object.__setattr__(self, "sweep_values", tuple(float(v) for v in values))
        if self.noise_sigma is not None:
            object.__setattr__(self, "noise_sigma", float(self.noise_sigma))


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


# the columns of records.csv, in order: a trial's seed, its sweep point's
# n, sigma and mu, its outcomes, and the sweep certificate's flag and margin
RECORD_COLUMNS = (
    "seed", "n", "sigma", "mu", "identified", "boundary_flag", "error_norm", "eps_norm",
    "identification_iter", "converged", "certificate_margin",
)
# the record columns whose value a whole sweep point shares, and a whole sweep
_POINT_VALUES = ("n", "sigma", "mu")
_SWEEP_VALUES = ("boundary_flag", "certificate_margin")


@dataclass(frozen=True, eq=False)
class TrialColumns:
    """The trials of one sweep point, as columns in seed order.

    n, sigma and mu are the point's, shared by its trials; the arrays are
    the slices of its rows in the batch that solved them, one per record
    column that is neither a point's nor a sweep's.
    identification_iter holds an integer per trial, which records.csv
    writes only where converged.
    """

    n: int
    sigma: float
    mu: float
    seed: np.ndarray
    identified: np.ndarray
    error_norm: np.ndarray
    eps_norm: np.ndarray
    identification_iter: np.ndarray
    converged: np.ndarray


@dataclass(frozen=True, eq=False)
class TrialTable:
    """A sweep's trials as columns: one TrialColumns per sweep point, in
    task order, and the certificate's boundary flag and margin, which every
    trial shares.  array gives any of RECORD_COLUMNS over every trial.
    """

    points: list
    boundary_flag: bool
    certificate_margin: float

    def __len__(self) -> int:
        return sum(len(point.seed) for point in self.points)

    def _runs(self, name):
        """Column name as (value, count) runs when rows share its value, else None."""
        if name in _SWEEP_VALUES:
            return [(getattr(self, name), len(self))]
        if name in _POINT_VALUES:
            return [(getattr(point, name), len(point.seed)) for point in self.points]
        return None

    def array(self, name) -> np.ndarray:
        """Record column name over every trial, in task order, as one array."""
        runs = self._runs(name)
        if runs is not None:
            values, counts = zip(*runs)
            return np.repeat(values, counts)
        return np.concatenate([getattr(point, name) for point in self.points])

    def fields(self, name) -> list:
        """Record column name as the fields records.csv writes, a shared value
        formatted once: "" for the identification_iter of a trial that did
        not converge."""
        runs = self._runs(name)
        if runs is not None:
            return [x for value, count in runs for x in [_FORMATS[type(value)](value)] * count]
        values = self.array(name).tolist()
        fields = list(map(_FORMATS[type(values[0])], values))
        if name == "identification_iter":
            return [x if ok else "" for x, ok in zip(fields, self.array("converged").tolist())]
        return fields


@dataclass(eq=False)
class ExperimentResult:
    """A sweep's outcome.  trials holds every trial as columns, in task
    order, which the summaries and the writers read."""

    kind: str
    trials: TrialTable
    summary: list
    certificate: Optional[Certificate] = None
    noiseless_identified: Optional[dict] = None
    profile: Optional[ProfileStats] = None


# ---------------------------------------------------------------------------
# trial engine


@dataclass(frozen=True, eq=False)
class _Shared:
    """What every trial of one sweep shares.

    design is the sweep's one design, which owns what it prepares: a fixed
    design's quad, with ||Gamma||, and its root come with it, so a pool
    worker gets them once, not per task.  target is beta0's model key.
    """

    reg: Regularizer
    design: DesignSpec
    beta0: np.ndarray
    opts: SolveOptions
    target: object


def _run_batch(shared, tasks):
    """The trials of several sweep points, solved as one forward_backward_batch.

    A task is (n, sigma, mu, seeds), one trial per seed on n rows of
    shared.design, and one draw_trials call draws each task's problems.  The
    batch solves the tasks' u stacks end to end, on a fixed design's own
    quad or on the tasks' Gamma stacks end to end.
    Returns one TrialColumns per task, in order, whose arrays are slices of
    the batch's: identified is one comparison of the final model keys with
    beta0's.  Every row of a batch gets the bits it gets alone, so how the
    tasks are grouped changes no result.
    Module-level so worker processes can import it.
    """
    beta0, design = shared.beta0, shared.design
    draws = [draw_trials(design, beta0, sigma, mu, seeds, n) for n, sigma, mu, seeds in tasks]
    solved = forward_backward_batch(
        np.repeat([draw.mu for draw in draws], [len(draw.u) for draw in draws]),
        np.concatenate([draw.u for draw in draws]),
        design.quad or np.concatenate([draw.gamma for draw in draws]),
        shared.reg, shared.opts,
    )
    # ||beta - beta0|| of every trial, as np.linalg.norm computes it
    errors = solved.beta - beta0
    error_norms = np.sqrt(_row_dots(errors, errors))
    # keys differ where they differ in any entry, as the solver reads them
    identified = solved.converged & ~(solved.keys != shared.target).any(axis=1)
    points, start = [], 0
    for (n, sigma, mu, seeds), draw in zip(tasks, draws):
        rows = slice(start, start + len(seeds))
        points.append(TrialColumns(
            n=n, sigma=sigma, mu=mu, seed=np.asarray(seeds), identified=identified[rows],
            error_norm=error_norms[rows], eps_norm=draw.eps_norms,
            identification_iter=solved.identification_iter[rows], converged=solved.converged[rows],
        ))
        start = rows.stop
    return points


_WORKER_SHARED = None  # set once in each pool worker by _init_worker


def _init_worker(shared):
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _run_worker_point(task):
    [point] = _run_batch(_WORKER_SHARED, [task])
    return point


# what a serial batch's stack of per-row Gammas may hold, in bytes
GAMMA_STACK_BYTES = 8 << 20


def _group_points(shared, tasks):
    """Consecutive tasks in batches whose Gamma stack fits GAMMA_STACK_BYTES.

    A row costs p^2 float64 of stack when it brings its own Gamma and none
    when it shares a fixed design's quad, so a fixed-design sweep is one batch.
    A task is never split: a point over the budget is a batch of its own.
    """
    p = shared.beta0.shape[0]
    row_bytes = 0 if shared.design.quad is not None else 8 * p * p
    groups, size = [], 0
    for task in tasks:
        cost = row_bytes * len(task[3])
        if groups and size + cost <= GAMMA_STACK_BYTES:
            groups[-1].append(task)
            size += cost
        else:
            groups.append([task])
            size = cost
    return groups


def _run_trials(shared, points, config):
    """Run config.trials trials at each point (n, sigma, mu).

    Trial k of the whole run uses seed base_seed + 1 + k.  jobs=1 runs
    serially, as few batches as _group_points allows: the loop of a
    batch runs as many steps as its slowest row, not the sum over points.
    jobs > 1 hands whole points to a process pool, which gets `shared` once
    per worker.  Returns one TrialColumns per point, in order.
    """
    trials, jobs = config.trials, config.jobs
    tasks = []
    for i, (n, sigma, mu) in enumerate(points):
        first = config.base_seed + 1 + i * trials
        tasks.append((n, sigma, mu, list(range(first, first + trials))))
    if jobs == 1 or len(tasks) == 1:
        return [
            point for group in _group_points(shared, tasks) for point in _run_batch(shared, group)
        ]
    # deferred: concurrent.futures.process adds tens of ms to every import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)), initializer=_init_worker, initargs=(shared,)
    ) as pool:
        return list(pool.map(_run_worker_point, tasks))


def _result(kind, values, points, cert, **extras):
    """The ExperimentResult of a sweep: points[i] holds the trials at values[i]."""
    margin = cert.verdict.margin if cert.usable else float("nan")
    boundary = cert.inconclusive
    return ExperimentResult(
        kind=kind,
        trials=TrialTable(points, boundary, margin),
        summary=[_summarize(float(v), point, boundary) for v, point in zip(values, points)],
        certificate=cert,
        **extras,
    )


def _summarize(value, point, boundary):
    """The SummaryRow of one sweep point's trials; boundary is the sweep's flag.

    The rate is over converged trials off the boundary, the error ratios
    over converged trials with eps_norm > 0, and each is nan over none.
    """
    conv = point.converged
    converged = int(np.count_nonzero(conv))
    eligible = 0 if boundary else converged
    rate = int(np.count_nonzero(point.identified & conv)) / eligible if eligible else float("nan")
    has_eps = conv & (point.eps_norm > 0)
    ratios = point.error_norm[has_eps] / point.eps_norm[has_eps]
    iters = point.identification_iter[conv]
    return SummaryRow(
        sweep_value=value,
        trials=len(conv),
        converged_count=converged,
        boundary_count=len(conv) if boundary else 0,
        identification_rate=rate,
        mean_error_ratio=float(np.mean(ratios)) if ratios.size else float("nan"),
        max_error_ratio=float(np.max(ratios)) if ratios.size else float("nan"),
        mean_identification_iter=float(np.mean(iters)) if iters.size else float("nan"),
    )


def _make_shared(config: ExperimentConfig, beta0, design) -> _Shared:
    return _Shared(
        reg=config.regularizer,
        design=design,
        beta0=beta0,
        opts=config.solve,
        target=config.regularizer.model_keys(beta0[None], config.solve.zero_tol)[0],
    )


def _fixed_setup(config: ExperimentConfig):
    """Draw the shared design and signal once from base_seed; prepare Gamma.

    The design's root, quad and ||Gamma|| are read before the certificate
    ends set-up, so the sweep does per-trial work only.  Returns (shared, certificate, n).
    """
    rng = np.random.default_rng(config.base_seed)
    x = make_design(config.design, rng)
    beta0 = make_signal(config.signal, config.regularizer, rng)
    if x.shape[1] != beta0.shape[0]:
        raise ValueError("design and signal dimensions differ")
    # an explicit spec already holds x, read-only; root first, which gives quad
    design = config.design if config.design.kind == "explicit" else DesignSpec.explicit(x)
    design.root, design.quad.norm
    cert = check_model_stability(
        design.quad.gamma, beta0, config.regularizer, config.solve.zero_tol, config.ri_tol
    )
    return _make_shared(config, beta0, design), cert, x.shape[0]


def _noise_setup(config: ExperimentConfig):
    """A fixed design with one point per noise level, mu from the rule.

    A proportional rule without a scale gets the default c = 2 / margin.
    Returns (shared, certificate, points).
    """
    rule = config.mu_rule
    shared, cert, n = _fixed_setup(config)
    if rule.kind == "proportional" and rule.scale is None:
        if not cert.usable or cert.verdict.margin <= 0:
            raise ValueError(
                "default proportional mu rule needs a certified instance "
                "(positive margin); set the scale explicitly"
            )
        rule = replace(rule, scale=2.0 / cert.verdict.margin)
    return shared, cert, [(n, sigma, rule.resolve(sigma, n)) for sigma in config.sweep_values]


def noise_stability_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Recovery rate and error ratios across noise levels on a fixed design.

    The result's profile covers all trials.  A trial identifies finitely when
    it converged with an identification_iter below solve.max_iter;
    identification_iters lists those iterations and finite_fraction is
    their share.  post_match_fraction is the share whose identified
    column is true.  A trial that does not converge counts against both.
    """
    _check_entry("noise_stability_sweep", "noise_stability", config)
    shared, cert, points = _noise_setup(config)
    trials = _run_trials(shared, points, config)
    result = _result("noise_stability", config.sweep_values, trials, cert)
    table = result.trials
    iters = table.array("identification_iter")
    finite = iters[table.array("converged") & (iters < config.solve.max_iter)].tolist()
    result.profile = ProfileStats(
        identification_iters=finite,
        finite_fraction=len(finite) / len(table),
        post_match_fraction=int(np.count_nonzero(table.array("identified"))) / len(table),
    )
    return result


def consistency_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Recovery rate across sample sizes with fresh designs per trial.

    The design gives the covariance and its root, read once before the
    certificate ends set-up; each sample size draws its trials through them.
    """
    _check_entry("consistency_sweep", "consistency", config)
    if config.design.kind != "gaussian_rows":
        raise ValueError("consistency_sweep needs a gaussian_rows design")
    if config.mu_rule.kind != "power":
        raise ValueError("consistency_sweep needs a power mu rule")
    if not all(v.is_integer() for v in config.sweep_values):
        raise ValueError(f"sample sizes must be whole numbers, got {list(config.sweep_values)}")
    sizes = [int(v) for v in config.sweep_values]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sample sizes must be strictly increasing, got {sizes}")
    sigma = config.noise_sigma

    rng = np.random.default_rng(config.base_seed)
    beta0 = make_signal(config.signal, config.regularizer, rng)
    config.design.root  # factored here, in set-up
    # population certificate: the stability condition is checked on the
    # covariance the rows are drawn from
    cert = check_model_stability(
        config.design.covariance, beta0, config.regularizer, config.solve.zero_tol, config.ri_tol
    )
    shared = _make_shared(config, beta0, config.design)
    points = [(n, sigma, config.mu_rule.resolve(sigma, n)) for n in sizes]
    return _result("consistency", sizes, _run_trials(shared, points, config), cert)


def sharpness_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Non-recovery across a mu grid on an instance certified outside."""
    _check_entry("sharpness_experiment", "sharpness", config)
    shared, cert, n = _fixed_setup(config)
    if cert.stable:
        warnings.warn(
            "sharpness experiment on an instance whose certificate is strictly "
            "interior; recovery is expected there", stacklevel=2,
        )

    # deterministic noiseless check per mu: the solution should be off the
    # model of beta0 even with w = 0
    checks = [(n, 0.0, mu, [config.base_seed]) for mu in config.sweep_values]
    noiseless = {
        mu: bool(point.identified[0])
        for mu, point in zip(config.sweep_values, _run_batch(shared, checks))
    }

    points = [(n, config.noise_sigma, mu) for mu in config.sweep_values]
    return _result(
        "sharpness", config.sweep_values, _run_trials(shared, points, config), cert,
        noiseless_identified=noiseless,
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


# how records.csv and plot.csv write a field of each type their columns
# hold, one type per column: true/false, an integer as such, a float at 17
# significant digits
_FORMATS = {bool: lambda x: "true" if x else "false", int: str, float: "{:.17g}".format}

SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


def _write_table(path, names, columns):
    """A header line of names, then one line per row of columns of fields.

    The bytes csv.writer writes for these lines: no column name and no
    field _FORMATS makes holds a delimiter, quote or line break, so none is
    quoted.
    """
    lines = [",".join(names), *map(",".join, zip(*columns))]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_records_csv(trials: TrialTable, path):
    """One row per trial of a sweep's TrialTable (ExperimentResult.trials),
    floats at 17 significant digits."""
    _write_table(path, RECORD_COLUMNS, [trials.fields(name) for name in RECORD_COLUMNS])


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
            _FORMATS[float](mu): bool(v) for mu, v in result.noiseless_identified.items()
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
    columns = [[getattr(row, name) for row in result.summary] for name in SUMMARY_COLUMNS]
    _write_table(path, SUMMARY_COLUMNS, [list(map(_FORMATS[type(c[0])], c)) for c in columns])
