"""Forward-backward splitting for regularized quadratic objectives.

The problem is parameterized by theta = (mu, u, Gamma) and reads

    E(beta) = J(beta) + (1/(2 mu)) <Gamma beta, beta> - (1/mu) <beta, u>
              + (1/(2 mu)) <Gamma^+ u, u>.

With mu = lambda/n, u = X^T y / n and Gamma = X^T X / n this is
J(beta) + ||X beta - y||^2 / (2 n mu), so E is nonnegative whenever u lies
in the image of Gamma.

Iteration:  beta <- prox_{tau mu J}(beta + tau (u - Gamma beta)) with a
fixed step 0 < tau < 2 / ||Gamma||.  Along the way the solver tracks the
active-model descriptor of every iterate, so the first iteration after
which the model never changes again (the identification point) can be
reported retrospectively.

||Gamma|| and Gamma^+ each cost an O(p^3) SVD.  A Quadratic computes them
once, on first use, and every problem sharing Gamma can share it, such as
the trials of a fixed-design sweep.  The step needs ||Gamma|| before the
first iteration; Gamma^+ only enters the objective's constant term, so a
solve records J and the quadratic part of every iterate and its
SolveResult adds the constant when the objective is first read.  A caller
that never reads it, such as the Monte-Carlo sweeps, never computes Gamma^+.

forward_backward_batch iterates many problems of one dimension at once, one
row of a T x p array per problem, and gives each problem the bits it gets
when solved alone; forward_backward is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .linalg import check_symmetric, pseudoinverse, spectral_norm, _as_vector
from .regularizers import ZERO_TOL, Regularizer, check_prox_weight

# relative step as a fraction of the stability limit 2/||Gamma||
DEFAULT_STEP_FRACTION = 0.9


class Quadratic:
    """A validated design covariance Gamma, prepared for repeated solves.

    lip = ||Gamma|| bounds the step size and pinv = Gamma^+ gives the
    objective's constant term.  Each is computed on first use and kept:
    lip by the first solve, pinv by the first objective read.
    Gamma must not be modified once it is prepared.
    """

    def __init__(self, gamma):
        self.gamma = check_symmetric(gamma, name="gamma")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    @cached_property
    def lip(self) -> float:
        # spectral_norm (an SVD) rather than a cheaper eigvalsh: the step,
        # and with it every iterate and records.csv byte, depends on its bits
        return spectral_norm(self.gamma)

    @cached_property
    def pinv(self) -> np.ndarray:
        return pseudoinverse(self.gamma)


@dataclass(frozen=True)
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
        object.__setattr__(self, "mu", float(self.mu))
        if not np.isfinite(self.mu) or self.mu < 0:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        u = _as_vector(self.u, name="u")
        quad = self.gamma if isinstance(self.gamma, Quadratic) else Quadratic(self.gamma)
        if quad.dim != u.shape[0]:
            raise ValueError("u and gamma dimensions differ")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "gamma", quad.gamma)
        object.__setattr__(self, "quad", quad)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @cached_property
    def _const(self) -> float:
        return 0.5 * (self.quad.pinv @ self.u) @ self.u


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for forward_backward.

    step=None picks tau = 0.9 * (2 / ||Gamma||).  An explicit step must
    satisfy 0 < tau < 2 / ||Gamma|| or the solve is refused.  zero_tol is
    the threshold the iterates' models are read with.  trace_models
    additionally stores the per-iterate descriptor sequence on the result.
    """

    step: Optional[float] = None
    max_iter: int = 100_000
    fp_tol: float = 1e-10
    zero_tol: float = ZERO_TOL
    trace_models: bool = False

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (np.isfinite(self.fp_tol) and self.fp_tol > 0):
            raise ValueError(f"fp_tol must be finite and > 0, got {self.fp_tol}")
        if not (np.isfinite(self.zero_tol) and self.zero_tol >= 0):
            raise ValueError(f"zero_tol must be finite and >= 0, got {self.zero_tol}")


@dataclass
class SolveResult:
    """Outcome of a forward-backward run.

    iterations counts prox steps actually taken.  objective_trace[k] is the
    objective value after k steps (index 0 is the initial point), so descent
    can be audited a posteriori; objective is its last entry.  Both are
    evaluated on first read, which computes Gamma^+ if no read on the same
    Quadratic has yet.  identification_iter is the first iterate index from
    which the model descriptor stays equal to the final one (0 when the
    initial point already carries the final model); it is None for
    non-converged runs.  model_trace is populated only when trace_models
    was set, aligned with objective_trace.
    """

    beta: np.ndarray
    iterations: int
    converged: bool
    fp_residual: float
    step: float
    identification_iter: Optional[int]
    model_trace: Optional[list] = None
    # the problem solved, and per iterate J and the quadratic part
    # 0.5 <Gamma b, b> - <b, u>: what objective_trace is evaluated from
    _theta: Optional[CanonicalParameters] = field(default=None, repr=False, compare=False)
    _terms: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @cached_property
    def objective_trace(self) -> np.ndarray:
        j, quadratic = self._terms
        theta = self._theta
        return j + (quadratic + theta._const) / theta.mu

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


def forward_backward(
    theta: CanonicalParameters,
    reg: Regularizer,
    opts: SolveOptions = SolveOptions(),
    beta_init=None,
) -> SolveResult:
    """Minimize E(., theta) by forward-backward splitting.

    Parameters
    ----------
    theta : CanonicalParameters
        Problem data; mu must be strictly positive.
    reg : Regularizer
        The penalty J.
    opts : SolveOptions
        Step size, stopping rule, model tracing.
    beta_init : array, optional
        Starting point (default: the zero vector).

    Returns
    -------
    SolveResult
        Converged means the relative fixed-point residual
        ||beta_{k+1} - beta_k|| <= fp_tol * max(1, ||beta_k||) was met
        within max_iter steps; otherwise the result is flagged, not raised.
        This is forward_backward_batch on a batch of one.
    """
    inits = None if beta_init is None else [beta_init]
    return forward_backward_batch([theta], reg, opts, inits)[0]


def _step_size(theta: CanonicalParameters, opts: SolveOptions) -> float:
    if theta.mu <= 0:
        raise ValueError(f"forward-backward needs mu > 0, got {theta.mu}")
    lip = theta.quad.lip
    if opts.step is None:
        return DEFAULT_STEP_FRACTION * 2.0 / lip if lip > 0 else 1.0
    tau = float(opts.step)
    if tau <= 0 or (lip > 0 and tau >= 2.0 / lip):
        raise ValueError(
            f"step {tau} outside the stable range (0, {2.0 / lip if lip > 0 else np.inf})"
        )
    return tau


def _row_dots_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# a[i].dot(b[i]) for every row, with its bits: both run one BLAS dot per
# row, while (a * b).sum(1) and einsum sum in another order.  np.vecdot
# (numpy >= 2) is the faster of the two.
_row_dots = getattr(np, "vecdot", _row_dots_matmul)


def forward_backward_batch(
    thetas,
    reg: Regularizer,
    opts: SolveOptions = SolveOptions(),
    beta_init=None,
) -> list:
    """forward_backward on several problems of one dimension at once.

    The iterates form a T x p array, one row per problem, and a row leaves
    the batch once it meets its stopping rule.  Every operation acts on one
    row at a time (one gemv with the row's Gamma, one dot per row norm,
    elementwise arithmetic, the penalty's step_batch), so each problem's
    result has the same bits whatever else is in the batch.  The problems
    may share one Quadratic, which is then broadcast over the rows, or each
    bring their own.  beta_init, when given, holds one starting point per
    problem.  Returns one SolveResult per problem, in order; a non-finite
    iterate in any row raises ValueError.
    """
    thetas = list(thetas)
    if not thetas:
        return []
    count, p = len(thetas), thetas[0].dim
    if any(t.dim != p for t in thetas):
        raise ValueError("batched problems must share one dimension")
    taus = [_step_size(t, opts) for t in thetas]
    weights = np.array([check_prox_weight(tau * t.mu) for tau, t in zip(taus, thetas)])
    if beta_init is None:
        beta = np.zeros((count, p))
    else:
        if len(beta_init) != count:
            raise ValueError(f"{len(beta_init)} starting points for {count} problems")
        beta = np.array([_as_vector(b, p, "beta_init") for b in beta_init])

    shared = all(t.quad is thetas[0].quad for t in thetas)
    gam = thetas[0].gamma if shared else np.stack([t.gamma for t in thetas])
    u = np.array([t.u for t in thetas])
    tau = np.array(taus)[:, None]
    rows = np.arange(count)  # the problem of each row still in the batch

    def quadratic(b, gam_b):
        # E's quadratic part row by row: 0.5 * b @ gb is (0.5 * b) @ gb
        return _row_dots(0.5 * b, gam_b) - _row_dots(b, u)

    gam_beta = np.matmul(gam, beta[..., None])[..., 0]
    # per iterate J and the quadratic part, from which SolveResult evaluates
    # the objective: batch row i writes terms[slots[i]]; a row's terms are
    # copied out when it leaves, and its slot dropped at the next growth
    terms = np.empty((count, 2, min(opts.max_iter + 1, 64)))
    slots = np.arange(count)
    # J of each initial point also validates its length against the
    # penalty, once per solve
    terms[:, 0, 0] = [reg.value(b) for b in beta]
    terms[:, 1, 0] = quadratic(beta, gam_beta)
    keys = reg.model_keys(beta, opts.zero_tol)
    run_start = np.zeros(count, dtype=int)  # first iterate of the current model run
    # per problem, (iterate, descriptor) at each model change
    changes = [[(0, reg.key_descriptor(key))] for key in keys] if opts.trace_models else None

    done = [None] * count  # (beta, iterations, converged, fp_residual, trace) per problem
    for k in range(1, opts.max_iter + 1):
        beta_next, keys_next, j_next = reg.step_batch(
            beta + tau * (u - gam_beta), weights, opts.zero_tol
        )
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
        changed = keys_next != keys
        if np.count_nonzero(changed):
            if changed.ndim > 1:
                changed = changed.any(axis=1)
            run_start[rows[changed]] = k
            if changes is not None:
                for i in np.flatnonzero(changed):
                    changes[rows[i]].append((k, reg.key_descriptor(keys_next[i])))
        keys = keys_next
        gam_beta = np.matmul(gam, beta_next[..., None])[..., 0]
        if k == terms.shape[2]:
            grown = np.empty((len(rows), 2, min(2 * k, opts.max_iter + 1)))
            grown[:, :, :k] = terms[slots, :, :k]
            terms, slots = grown, np.arange(len(rows))
        terms[slots, 0, k] = j_next
        terms[slots, 1, k] = quadratic(beta_next, gam_beta)
        beta = beta_next
        stop = fp_residual <= threshold
        if np.count_nonzero(stop):
            for i in np.flatnonzero(stop):
                trace = terms[slots[i], :, : k + 1].copy()
                done[rows[i]] = (beta[i].copy(), k, True, float(fp_residual[i]), trace)
            keep = ~stop
            if not keep.any():
                break
            rows, slots, beta, keys = rows[keep], slots[keep], beta[keep], keys[keep]
            gam_beta = gam_beta[keep]
            u, tau, weights = u[keep], tau[keep], weights[keep]
            fp_residual = fp_residual[keep]
            if not shared:
                gam = gam[keep]
    else:  # max_iter steps taken: the rows still here did not converge
        for i, row in enumerate(rows):
            trace = terms[slots[i], :, : opts.max_iter + 1].copy()
            done[row] = (beta[i].copy(), opts.max_iter, False, float(fp_residual[i]), trace)

    results = []
    for row, ((b, iters, converged, fp, trace), step, theta) in enumerate(
        zip(done, taus, thetas)
    ):
        models = None
        if changes is not None:
            marks = changes[row] + [(iters + 1, None)]
            models = [d for (start, d), (end, _) in zip(marks, marks[1:]) for _ in range(end - start)]
        results.append(
            SolveResult(
                beta=b,
                iterations=iters,
                converged=converged,
                fp_residual=fp,
                step=step,
                identification_iter=int(run_start[row]) if converged else None,
                model_trace=models,
                _theta=theta,
                _terms=trace,
            )
        )
    return results
