"""Forward-backward splitting for regularized quadratic objectives.

The problem is parameterized by theta = (mu, u, Gamma) and reads

    E(beta) = J(beta) + (1/(2 mu)) <Gamma beta, beta> - (1/mu) <beta, u>
              + (1/(2 mu)) <Gamma^+ u, u>.

With mu = lambda/n, u = X^T y / n and Gamma = X^T X / n this is
J(beta) + ||X beta - y||^2 / (2 n mu), so E is nonnegative whenever u lies
in the image of Gamma.

Iteration:  beta <- prox_{tau mu J}(beta + tau (u - Gamma beta)) from
beta = 0, with a fixed step 0 < tau < 2 / ||Gamma||.  Along the way the
solver tracks the model key of every iterate, so the first iteration after
which the model never changes again (the identification point) can be
reported retrospectively, and it returns the key of the final iterate.

A run stops at a fixed point or at a certified minimizer, and converged
means one of the two.  The fixed-point rule is ||beta_k - beta_{k-1}|| <=
t_k, with the threshold t_k = fp_tol * max(1, ||beta_{k-1}||).  Once the
iterates have identified the model of the minimizer, forward-backward only
converges linearly on it (Liang, Fadili & Peyre 2014), while one solve on
that model gives the minimizer itself.  So an iterate beta_k whose model key
has held for one step, once per run of one model, goes to the penalty's
certified_minimizers.  For l1 that is the point b with b_S solving
Gamma_SS b_S = u_S - mu s on beta_k's support S and signs s, and zero off
S.  It is certified when its signs and model key are beta_k's and its dual
vector eta = (u - Gamma b) / mu has |eta| < 1 - delta off S, where
delta = (zero_tol + t_k) / (tau mu).  Then b is the minimizer of E, unique
as Gamma_SS is invertible and |eta| < 1 off S; and a forward-backward step
from any point within zero_tol + t_k of b leaves every coordinate off S at
exactly zero, since 0 < tau < 2 / ||Gamma|| makes I - tau Gamma
nonexpansive.  A certified row leaves with b as its iterate k, and keeps
its step's fp_residual.  A row that fails goes on iterating.  The other
penalties have no certificate and stop at a fixed point only.

||Gamma|| costs an O(p^3) symmetric eigenvalue solve and Gamma^+ an O(p^3)
SVD.  A Quadratic keeps each once it is computed, and every problem sharing
Gamma can share it, such as the trials of a fixed-design sweep, whose
set-up reads its design's quad.norm.  The step needs ||Gamma|| before the
first iteration: a batch on one shared Quadratic reads its norm, and a batch
on a stack of Gammas computes all their norms in one stacked eigvalsh call,
with the bits of one call per matrix.  Gamma^+ only enters the objective's
constant term, so a solve records J and the
quadratic part of every iterate and its SolveResult adds the constant when
the objective is first read.  A caller that never reads it, such as the
Monte-Carlo sweeps, never computes Gamma^+.

forward_backward_batch iterates many problems of one dimension at once, one
row of a T x p array per problem, and gives each problem the bits it gets
when solved alone, in one BatchResult.  It takes the batch as arrays, mu, the
T x p stack u and one shared Quadratic or a T x p x p stack of Gammas;
forward_backward is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .linalg import (
    check_symmetric, gamma_products, pseudoinverse, spectral_norms, _as_vector, _check_integer,
    _row_dots,
)
from .regularizers import ZERO_TOL, ModelDescriptor, Regularizer

# relative step as a fraction of the stability limit 2/||Gamma||
DEFAULT_STEP_FRACTION = 0.9


class Quadratic:
    """A validated design covariance Gamma, prepared for repeated solves.

    norm = ||Gamma|| bounds the step size and pinv = Gamma^+ gives the
    objective's constant term.  Each is computed on first use and kept.
    Gamma must not be modified once it is prepared.
    """

    def __init__(self, gamma):
        self.gamma = check_symmetric(gamma, name="gamma")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    @cached_property
    def norm(self) -> float:
        # the largest |eigenvalue| of the symmetric Gamma, which costs about
        # half an SVD; the step, and with it every iterate and records.csv
        # byte, depends on its bits, so a Gamma stack takes the same call
        return float(spectral_norms(self.gamma))

    @cached_property
    def pinv(self) -> np.ndarray:
        return pseudoinverse(self.gamma)


def _check_mu(mu) -> np.ndarray:
    """mu as a float array of its own shape, every value finite and >= 0."""
    mu = np.asarray(mu, dtype=float)
    bad = ~(np.isfinite(mu) & (mu >= 0))
    if np.count_nonzero(bad):
        raise ValueError(f"mu must be finite and >= 0, got {float(mu[bad][0])}")
    return mu


@dataclass(frozen=True, eq=False)
class CanonicalParameters:
    """Scale-free problem data theta = (mu, u, Gamma).

    mu >= 0 is the penalty weight per sample, u the response correlation and
    Gamma the (symmetric PSD) design covariance.  Solving requires mu > 0;
    u must lie in the image of Gamma for E to be nonnegative, which holds
    for u = X^T y / n.

    gamma may be an array or a Quadratic shared with other problems; either
    way theta.gamma is the array and theta.quad its Quadratic.
    """

    mu: float
    u: np.ndarray
    gamma: Union[np.ndarray, Quadratic]
    quad: Quadratic = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = float(_check_mu(self.mu))
        u = _as_vector(self.u, name="u")
        quad = self.gamma if isinstance(self.gamma, Quadratic) else Quadratic(self.gamma)
        if quad.dim != u.shape[0]:
            raise ValueError("u and gamma dimensions differ")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "gamma", quad.gamma)
        object.__setattr__(self, "quad", quad)


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for forward_backward.

    step=None picks tau = 0.9 * (2 / ||Gamma||).  An explicit step must
    satisfy 0 < tau < 2 / ||Gamma|| or the solve is refused.  zero_tol is
    the threshold the iterates' models are read with.
    """

    step: Optional[float] = None
    max_iter: int = 100_000
    fp_tol: float = 1e-10
    zero_tol: float = ZERO_TOL

    def __post_init__(self):
        object.__setattr__(self, "max_iter", _check_integer(self.max_iter, "max_iter"))
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (np.isfinite(self.fp_tol) and self.fp_tol > 0):
            raise ValueError(f"fp_tol must be finite and > 0, got {self.fp_tol}")
        if not (np.isfinite(self.zero_tol) and self.zero_tol >= 0):
            raise ValueError(f"zero_tol must be finite and >= 0, got {self.zero_tol}")


@dataclass(eq=False)
class SolveResult:
    """Outcome of a forward-backward run.

    iterations counts prox steps actually taken.  objective_trace[k] is the
    objective value after k steps (index 0 is the zero start), so descent
    can be audited a posteriori; objective is its last entry.  Both are
    evaluated on first read, which computes Gamma^+ if no read on the same
    Quadratic has yet.  identification_iter is the first iterate index from
    which the model descriptor stays equal to the final one (0 when the
    zero start already carries the final model); it is None for
    non-converged runs.  model is the descriptor of beta, read with the
    solve's zero_tol.  converged means a fixed point or a certified
    minimizer; a run that stops at the latter has it as its last iterate,
    whose objective, the minimum of E, is no higher than any before it.
    """

    beta: np.ndarray
    iterations: int
    converged: bool
    fp_residual: float
    step: float
    identification_iter: Optional[int]
    model: ModelDescriptor
    # the problem solved, and per iterate J and the quadratic part
    # 0.5 <Gamma b, b> - <b, u>: what objective_trace is evaluated from
    _mu: float = field(repr=False, compare=False)
    _u: np.ndarray = field(repr=False, compare=False)
    _quad: Quadratic = field(repr=False, compare=False)
    _terms: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def objective_trace(self) -> np.ndarray:
        j, quadratic = self._terms
        u = self._u
        return j + (quadratic + 0.5 * (self._quad.pinv @ u) @ u) / self._mu

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


@dataclass(eq=False)
class BatchResult:
    """Outcome of forward_backward_batch: row i of each array is problem i's.

    The fields are SolveResult's, with keys the final betas' model_keys and
    identification_iter an identification point only where converged.  [i]
    (i < 0 counts from the end) is problem i's SolveResult, with its columns
    of the terms and the key_descriptor of keys[i]; a row of a Gamma stack
    gets its own Quadratic there, whose Gamma^+ the objective computes.
    """

    beta: np.ndarray
    keys: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    fp_residual: np.ndarray
    step: np.ndarray
    identification_iter: np.ndarray
    _reg: Regularizer = field(repr=False)
    # the problems solved, mu broadcast to one value per row
    _mu: np.ndarray = field(repr=False)
    _u: np.ndarray = field(repr=False)
    _gamma: Union[Quadratic, np.ndarray] = field(repr=False)
    # J and the quadratic part, problem i's in columns _start[i] to _start[i + 1]
    _terms: np.ndarray = field(repr=False)
    _start: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.beta)

    def __getitem__(self, i) -> SolveResult:
        i = range(len(self))[i]
        converged = bool(self.converged[i])
        return SolveResult(
            beta=self.beta[i], iterations=int(self.iterations[i]), converged=converged,
            fp_residual=float(self.fp_residual[i]), step=float(self.step[i]),
            identification_iter=int(self.identification_iter[i]) if converged else None,
            model=self._reg.key_descriptor(self.keys[i]),
            _mu=float(self._mu[i]), _u=self._u[i],
            _terms=self._terms[:, self._start[i]:self._start[i + 1]],
            _quad=self._gamma if isinstance(self._gamma, Quadratic) else Quadratic(self._gamma[i]),
        )


def forward_backward(
    theta: CanonicalParameters,
    reg: Regularizer,
    opts: SolveOptions = SolveOptions(),
) -> SolveResult:
    """Minimize E(., theta) by forward-backward splitting, from beta = 0.

    Parameters
    ----------
    theta : CanonicalParameters
        Problem data; mu must be strictly positive.
    reg : Regularizer
        The penalty J.
    opts : SolveOptions
        Step size, stopping rule, zero threshold of the models.

    Returns
    -------
    SolveResult
        Converged means that within max_iter steps the relative fixed-point
        residual ||beta_{k+1} - beta_k|| <= fp_tol * max(1, ||beta_k||) was
        met, or an iterate was polished to a certified minimizer (module
        docstring); otherwise the result is flagged, not raised.  This is
        forward_backward_batch on a batch of one.
    """
    return forward_backward_batch(theta.mu, theta.u[None], theta.quad, reg, opts)[0]


def _step_sizes(mu: np.ndarray, lip: np.ndarray, opts: SolveOptions) -> np.ndarray:
    """The step of every problem, from arrays of their mu and ||Gamma||.

    The default is DEFAULT_STEP_FRACTION * 2 / ||Gamma|| (1 when Gamma = 0);
    an explicit step must lie in (0, 2 / ||Gamma||).  The first problem
    refused, for mu <= 0 or an unstable step, raises its error.
    """
    positive = lip > 0
    if opts.step is None:
        tau = np.divide(DEFAULT_STEP_FRACTION * 2.0, lip, out=np.ones_like(lip), where=positive)
        bad = mu <= 0
    else:
        tau = np.full_like(lip, float(opts.step))
        limit = np.divide(2.0, lip, out=np.full_like(lip, np.inf), where=positive)
        bad = (mu <= 0) | (tau <= 0) | (positive & (tau >= limit))
    if np.count_nonzero(bad):
        i = np.flatnonzero(bad)[0]
        if mu[i] <= 0:
            raise ValueError(f"forward-backward needs mu > 0, got {float(mu[i])}")
        raise ValueError(
            f"step {float(tau[i])} outside the stable range (0, {float(limit[i])})"
        )
    return tau


def forward_backward_batch(
    mu,
    u,
    gamma: Union[Quadratic, np.ndarray],
    reg: Regularizer,
    opts: SolveOptions = SolveOptions(),
) -> BatchResult:
    """forward_backward on several problems of one dimension at once.

    Row i of the T x p array u is problem i's u.  mu is one value for every
    problem or one per row, and gamma one Quadratic that every problem
    shares, broadcast over the rows, or a T x p x p stack, one Gamma per
    row.  They are checked once, with the checks and messages of
    CanonicalParameters.

    The iterates form a T x p array, one row per problem, every row starting
    at zero, and a row leaves the batch once it reaches a fixed point or a
    certified minimizer (module docstring) or has taken max_iter steps.
    The rows checked at one step go to the penalty's certified_minimizers
    together.  Every operation gives a row the bits it gets alone:
    linalg.gamma_products for Gamma b, one dot per row norm, elementwise
    arithmetic and the penalty's step_batch, whose magnitudes give each
    iterate's J and model key as value and model_keys read them.  So each
    problem's result has the same bits whatever else is in the batch, and
    wherever its row sits.  Each step logs J and the quadratic part of the
    rows still in the batch, so one slow row does not keep a full-length
    trace for every row; after the loop the log fills one 2 x
    sum(iterations + 1) buffer, and problem i's objective trace is evaluated
    from its own columns.  Returns the BatchResult of the problems, in
    order; an empty batch or a non-finite iterate in any row raises
    ValueError.
    """
    mu = _check_mu(mu)
    u = _as_vector(u, name="u", stacked=True)
    count, p = u.shape
    if not count:
        raise ValueError("forward_backward_batch needs at least one problem")
    if mu.ndim > 1 or mu.size not in (1, count):
        raise ValueError(f"mu must be one value or one per problem, got shape {mu.shape}")
    mu = np.broadcast_to(mu, count)
    shared = isinstance(gamma, Quadratic)
    if not shared:
        gamma = check_symmetric(gamma, name="gamma", stacked=True)
    gam = gamma.gamma if shared else gamma
    if gam.shape != ((p, p) if shared else (count, p, p)):
        raise ValueError("u and gamma dimensions differ")
    lip = np.full(count, gamma.norm) if shared else spectral_norms(gam)
    # overflow to inf, as the per-problem float arithmetic does, with no
    # warning: the checks below refuse it
    with np.errstate(over="ignore"):
        tau = _step_sizes(mu, lip, opts)
        weights = tau * mu
    refused = ~(np.isfinite(weights) & (weights >= 0))
    if np.count_nonzero(refused):
        raise ValueError(f"prox weight must be finite and >= 0, got {weights[refused][0]}")
    beta = np.zeros((count, p))
    rows = np.arange(count)  # the problem of each row still in the batch

    def quadratic(b, gam_b):
        # E's quadratic part row by row: 0.5 * b @ gb is (0.5 * b) @ gb
        return _row_dots(0.5 * b, gam_b) - _row_dots(b, u)

    gam_beta = gamma_products(gam, beta)
    # per step, the problems of the rows still in the batch, their J and
    # their quadratic part, from which SolveResult evaluates the objective;
    # J of the zero start also validates its length against the penalty
    log = [(rows, np.full(count, reg.value(beta[0])), quadratic(beta, gam_beta))]
    keys = reg.model_keys(beta, opts.zero_tol)
    out = BatchResult(  # filled in as the rows leave
        beta=np.empty((count, p)), keys=np.empty_like(keys), iterations=np.empty(count, int),
        converged=np.empty(count, bool), fp_residual=np.empty(count), step=tau,
        identification_iter=np.zeros(count, int), _reg=reg, _mu=mu, _u=u, _gamma=gamma,
        _terms=None, _start=None,
    )
    tau = tau[:, None]
    for k in range(1, opts.max_iter + 1):
        beta_next, size = reg.step_batch(beta + tau * (u - gam_beta), weights)
        j_next, keys_next = size.sum(axis=1), size > opts.zero_tol
        # count_nonzero is the cheapest test of a small boolean array
        finite = np.isfinite(j_next)
        if np.count_nonzero(finite) < finite.size:
            raise ValueError(
                f"forward-backward iterate {k} of problem {rows[~finite][0]} "
                "has non-finite entries"
            )
        # Euclidean norms as np.linalg.norm computes them (sqrt of a dot)
        delta = beta_next - beta
        fp_residual = np.sqrt(_row_dots(delta, delta))
        threshold = opts.fp_tol * np.maximum(1.0, np.sqrt(_row_dots(beta, beta)))
        converged = fp_residual <= threshold
        changed = (keys_next != keys).any(axis=1)
        if np.count_nonzero(changed):
            out.identification_iter[rows[changed]] = k
        keys = keys_next
        gam_beta = gamma_products(gam, beta_next)
        # the rows whose model has held for one step, checked once per model
        # run (module docstring)
        check = (out.identification_iter[rows] == k - 1) & ~converged
        if np.count_nonzero(check):
            i = np.flatnonzero(check)
            found = reg.certified_minimizers(
                beta_next[i], keys[i], u[i], mu[rows[i]], gam if shared else gam[i],
                1.0 - (opts.zero_tol + threshold[i]) / weights[i], opts.zero_tol,
            )
            if found is not None:
                polished, gam_polished, j_polished, certified = found
                i = i[certified]
                beta_next[i], gam_beta[i] = polished[certified], gam_polished[certified]
                j_next[i] = j_polished[certified]
                converged[i] = True
        log.append((rows, j_next, quadratic(beta_next, gam_beta)))
        beta = beta_next
        # after max_iter steps every row leaves, converged or not
        stop = converged | (k == opts.max_iter)
        if np.count_nonzero(stop):
            leaving = rows[stop]
            out.beta[leaving], out.keys[leaving] = beta[stop], keys[stop]
            out.converged[leaving], out.fp_residual[leaving] = converged[stop], fp_residual[stop]
            out.iterations[leaving] = k
            keep = ~stop
            if not keep.any():
                break
            rows, beta, keys = rows[keep], beta[keep], keys[keep]
            gam_beta, u, tau, weights = gam_beta[keep], u[keep], tau[keep], weights[keep]
            gam = gam if shared else gam[keep]
    # step k of the log writes column _start[i] + k of its rows' problems i
    problems, j, quadratic_part = (np.concatenate(part) for part in zip(*log))
    out._start = np.concatenate([[0], np.cumsum(out.iterations + 1)])
    at = out._start[problems] + np.repeat(np.arange(len(log)), [len(entry[0]) for entry in log])
    out._terms = np.empty((2, out._start[-1]))
    out._terms[0, at], out._terms[1, at] = j, quadratic_part
    return out
