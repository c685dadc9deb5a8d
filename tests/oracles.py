"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: brute-force sign enumeration for the
lasso and for the analysis prox, generic derivative-free minimization for
prox checks, the analysis margin as a linear program, each penalty's own
value formula, model rule and one-row proximal map, the one-row off-model
dual norm of l1 and the group norm, a one-problem forward-backward loop,
one-trial instance, explicit-design and Wishart draws, the explicit designs
of a certificate-margin family, and the subspace helpers (span, projector,
distance) that only the tests need.
Slow but simple, so the expected values in the tests do not inherit the
package's own bugs.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from partlysmooth import (
    L1, CanonicalParameters, DesignSpec, ModelDescriptor, Subspace, make_design, make_signal,
)
from partlysmooth.regularizers import PROX_INNER_MAX_ITER, PROX_INNER_TOL


def trivial(p):
    """The zero subspace of R^p."""
    return Subspace(np.zeros((p, 0)))


def span(columns, rank_tol=1e-10):
    """Orthonormalize the column span of an arbitrary p x k array."""
    a = np.asarray(columns, dtype=float)
    if a.shape[1] == 0:
        return trivial(a.shape[0])
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > rank_tol * (s[0] if s.size else 1.0)))
    return Subspace(u[:, :r])


def projector(subspace):
    """Orthogonal projector onto the subspace, as a full p x p matrix."""
    return subspace.basis @ subspace.basis.T


def subspace_distance(t1, t2):
    """Operator-norm distance between the orthogonal projectors.

    Equals the sine of the largest principal angle when the subspaces have
    equal dimension, and 1.0 whenever the dimensions differ.
    """
    if t1.ambient_dim != t2.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return float(np.linalg.norm(projector(t1) - projector(t2), 2))


def tv_operator(p):
    """p x (p-1) operator whose transpose takes successive differences."""
    dt = np.zeros((p - 1, p))
    for i in range(p - 1):
        dt[i, i] = -1.0
        dt[i, i + 1] = 1.0
    return dt.T


def lasso_minimizers(mu, u, gamma, tol=1e-9):
    """All minimizers of ||b||_1 + (0.5 b'Gamma b - b'u)/mu by sign patterns.

    Enumerates the 3^p stationarity patterns, so only sensible for tiny p.
    Returns the list of minimizing vectors (one entry when the restriction
    of gamma to the optimal support is invertible).
    """
    u = np.asarray(u, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    p = u.shape[0]
    points = []
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=p):
        s = np.array(signs)
        sup = np.flatnonzero(s != 0)
        beta = np.zeros(p)
        if sup.size:
            gs = gamma[np.ix_(sup, sup)]
            try:
                beta[sup] = np.linalg.solve(gs, u[sup] - mu * s[sup])
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(beta[sup]) != s[sup]):
                continue
        off = np.flatnonzero(s == 0)
        resid = u - gamma @ beta
        if off.size and np.any(np.abs(resid[off]) > mu * (1 + tol)):
            continue
        val = np.abs(beta).sum() + (0.5 * beta @ (gamma @ beta) - beta @ u) / mu
        points.append((val, beta))
    assert points, "no stationary sign pattern found"
    best = min(v for v, _ in points)
    return [b for v, b in points if v <= best + tol * max(1.0, abs(best))]


def analysis_prox_enumerated(d, beta, gamma, tol=1e-9):
    """Prox of ||D^T x||_1 at beta by enumerating sign patterns of D^T x.

    Assumes every column subset of D is linearly independent (true for
    difference operators), so the inactive multipliers are determined.
    """
    d = np.asarray(d, dtype=float)
    beta = np.asarray(beta, dtype=float)
    q = d.shape[1]
    found = []
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=q):
        s = np.array(signs)
        act = np.flatnonzero(s != 0)
        ina = np.flatnonzero(s == 0)
        shifted = beta - gamma * (d[:, act] @ s[act]) if act.size else beta.copy()
        if ina.size:
            di = d[:, ina]
            v = np.linalg.solve(di.T @ di, di.T @ shifted) / gamma
            if np.max(np.abs(v)) > 1.0 + tol:
                continue
            x = shifted - gamma * (di @ v)
        else:
            x = shifted
        z = d.T @ x
        if act.size:
            zs = np.where(np.abs(z[act]) <= tol, 0.0, np.sign(z[act]))
            if np.any(zs != s[act]):
                continue
        if ina.size and np.max(np.abs(z[ina])) > tol * max(1.0, np.abs(x).max()):
            continue
        found.append(x)
    assert found, "no stationary sign pattern found"
    for x in found[1:]:
        assert np.allclose(x, found[0], atol=1e-7), "prox enumeration is ambiguous"
    return found[0]


def analysis_margin_lp(d, cosupport, eta, offset):
    """1 - min ||alpha||_inf over D_I alpha = eta - offset, by a linear program.

    The analysis margin for any operator, redundant or not: variables
    (alpha, t), minimize t subject to -t <= alpha_i <= t and the equality
    system reduced against an orthonormal basis of Im(D_I), so that it stays
    consistent when eta meets the tangent equation only up to rounding.
    """
    d_i = np.asarray(d, dtype=float)[:, list(cosupport)]
    k = d_i.shape[1]
    if k == 0:
        return 1.0
    u, s, _ = np.linalg.svd(d_i, full_matrices=False)
    b = u[:, : int(np.sum(s > 1e-10 * s[0]))]
    res = scipy.optimize.linprog(
        np.append(np.zeros(k), 1.0),
        A_ub=np.block([[np.eye(k), -np.ones((k, 1))], [-np.eye(k), -np.ones((k, 1))]]),
        b_ub=np.zeros(2 * k),
        A_eq=np.hstack([b.T @ d_i, np.zeros((b.shape[1], 1))]),
        b_eq=b.T @ (np.asarray(eta, dtype=float) - offset),
        bounds=[(None, None)] * k + [(0, None)],
        method="highs",
    )
    assert res.success, res.message
    return 1.0 - float(res.x[-1])

def descriptor(reg, beta, zero_tol):
    """The model descriptor of one vector beta, by the rule of reg's kind.

    One vector at a time and one rule per penalty, written out apart from
    the package's model_keys masks: the reference they are checked against.
    """
    beta = np.asarray(beta, dtype=float)
    if reg.kind == "l1":
        support = np.flatnonzero(np.abs(beta) > zero_tol)
        return ModelDescriptor(reg.kind, tuple(support.tolist()))
    if reg.kind == "group_l1l2":
        active = tuple(
            i for i, g in enumerate(reg.groups) if np.linalg.norm(beta[g]) > zero_tol
        )
        return ModelDescriptor(reg.kind, active)
    if reg.kind == "nuclear":
        s = np.linalg.svd(beta.reshape(reg.shape, order="F"), compute_uv=False)
        return ModelDescriptor(reg.kind, int(np.sum(s > zero_tol)))
    z = reg.operator.T @ beta
    cosupport = np.flatnonzero(np.abs(z) <= zero_tol)
    return ModelDescriptor(reg.kind, tuple(cosupport.tolist()))


def penalty_value(reg, beta):
    """J(beta) of one vector beta, by the formula of reg's kind.

    One vector at a time: the per-group norms summed in Python, one SVD of
    the matrix, one product D^T beta.  Written out apart from the package's
    magnitudes, so that value is checked against something it does not read.
    """
    beta = np.asarray(beta, dtype=float)
    if reg.kind == "l1":
        return float(np.abs(beta).sum())
    if reg.kind == "group_l1l2":
        return float(sum(np.linalg.norm(beta[g]) for g in reg.groups))
    if reg.kind == "nuclear":
        return float(np.linalg.svd(beta.reshape(reg.shape, order="F"), compute_uv=False).sum())
    return float(np.abs(reg.operator.T @ beta).sum())


def off_model_max(reg, eta, active):
    """The dual norm of one vector eta off a model, for l1 or the group norm.

    active is the model's descriptor data: the support, or the active
    groups.  The largest |eta_i| off the support through an index mask, or
    the largest per-group np.linalg.norm off the active groups in a Python
    loop; 0 when nothing is off.  The one-row formulas the package read
    before its batched off_model_max.  The loop's Python max drops a NaN
    group norm that follows a finite one, so it is no reference for NaN.
    """
    eta = np.asarray(eta, dtype=float)
    if reg.kind == "l1":
        off = np.ones(eta.shape[0], dtype=bool)
        off[list(active)] = False
        return float(np.abs(eta[off]).max()) if off.any() else 0.0
    active = set(active)
    worst = 0.0
    for i, g in enumerate(reg.groups):
        if i not in active:
            worst = max(worst, float(np.linalg.norm(eta[g])))
    return worst


def prox(reg, v, weight):
    """The penalty's proximal map of one vector v: step_batch on a one-row batch."""
    out, _ = reg.step_batch(np.asarray(v, dtype=float)[None], np.array([float(weight)]))
    return out[0]


def one_row_prox(reg, beta, gamma):
    """argmin_x 0.5 ||x - beta||^2 + gamma J(x) of one vector, by reg's kind.

    The one-row maps the package had before its batched step_batch: the
    l1 soft threshold, a Python loop over the groups with one
    np.linalg.norm each, one 2-d SVD of the column-major matrix, and the
    analysis dual min_{||v||_inf <= gamma} ||beta - D v||^2 by accelerated
    projected gradient with adaptive restart, to the package's tolerance.
    """
    beta = np.asarray(beta, dtype=float)
    if reg.kind == "l1":
        return np.copysign(np.maximum(np.abs(beta) - gamma, 0.0), beta)
    if reg.kind == "group_l1l2":
        out = np.zeros_like(beta)
        for g in reg.groups:
            nrm = np.linalg.norm(beta[g])
            if nrm > gamma:
                out[g] = beta[g] * (1.0 - gamma / nrm)
        return out
    if reg.kind == "nuclear":
        u, s, vt = np.linalg.svd(beta.reshape(reg.shape, order="F"), full_matrices=False)
        return (u @ (np.maximum(s - gamma, 0.0)[:, None] * vt)).ravel(order="F")
    d = reg.operator
    if gamma == 0.0:
        return beta.copy()
    step = 1.0 / np.linalg.norm(d, 2) ** 2
    v = v_prev = np.zeros(d.shape[1])
    t = 1.0
    for _ in range(PROX_INNER_MAX_ITER):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = v + ((t - 1.0) / t_next) * (v - v_prev)
        v_next = np.clip(y + step * (d.T @ (beta - d @ y)), -gamma, gamma)
        mapped = np.clip(v_next + step * (d.T @ (beta - d @ v_next)), -gamma, gamma)
        if np.linalg.norm(mapped - v_next) <= PROX_INNER_TOL:
            return beta - d @ mapped
        if np.dot(y - v_next, v_next - v) > 0.0:
            t_next = 1.0
        v_prev, v, t = v, v_next, t_next
    raise AssertionError("the reference analysis prox did not converge")


def prox_reference(value_fn, beta, gamma):
    """argmin_x 0.5 ||x - beta||^2 + gamma * J(x) by direct minimization."""
    beta = np.asarray(beta, dtype=float)

    def obj(x):
        return 0.5 * np.sum((x - beta) ** 2) + gamma * value_fn(x)

    res = scipy.optimize.minimize(
        obj, beta, method="Powell",
        options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 100000, "maxfev": 400000},
    )
    assert res.success or res.status == 1, res.message
    return res.x


@dataclass(frozen=True)
class Instance:
    """One trial y = X beta0 + w."""

    x: np.ndarray
    beta0: np.ndarray
    w: np.ndarray
    y: np.ndarray

    @property
    def n(self):
        return self.x.shape[0]


def generate_instance(design, signal, noise_sigma, seed, reg):
    """One trial from default_rng(seed), drawn design, then signal, then noise.

    The draw a generated solve file makes, kept as its reference.
    """
    rng = np.random.default_rng(seed)
    x = make_design(design, rng)
    beta0 = make_signal(signal, reg, rng)
    w = noise_sigma * rng.standard_normal(x.shape[0])
    return Instance(x=x, beta0=beta0, w=w, y=x @ beta0 + w)


def explicit_trial(design, beta0, sigma, seed):
    """(Gamma, u, eps) of one trial on an explicit design X, drawn from theta.

    M = V diag(sqrt(max(lambda, 0))) from the eigendecomposition
    X^T X = V diag(lambda) V^T, so M M^T = X^T X.  From a fresh
    Generator(Philox(key=seed)), p normals z; Gamma = X^T X / n,
    eps = sigma M z / n, which has the law of X^T w / n for
    w ~ N(0, sigma^2 I_n), and u = Gamma beta0 + eps.  The one-trial draw
    that draw_trials stacks.
    """
    x = design.matrix
    n, p = x.shape
    gram = x.T @ x
    vals, vecs = np.linalg.eigh(gram)
    m = vecs * np.sqrt(np.clip(vals, 0.0, None))
    z = np.random.Generator(np.random.Philox(key=seed)).standard_normal(p)
    gamma = gram / n
    eps = sigma * (m @ z) / n
    return gamma, gamma @ beta0 + eps, eps


def wishart_trial(design, beta0, sigma, seed):
    """(Gamma, u, eps) of one fresh gaussian_rows trial, by Bartlett's decomposition.

    From a fresh Generator(Philox(key=seed)), with k = min(n, p): k
    chi-squares with n, n - 1, ... degrees of freedom, the normals of the
    strict upper trapezoid of the k x p factor B (row by row), then k
    normals z.  B is filled one element at a time and every product is 2-d:
    M = R B^T with R the design's root, Gamma = M M^T / n,
    eps = sigma M z / n and u = Gamma beta0 + eps.  The one-trial draw that
    draw_trials stacks.
    """
    n, root = design.n, design.root
    p = root.shape[0]
    k = min(n, p)
    rng = np.random.Generator(np.random.Philox(key=seed))
    chi = rng.chisquare(n - np.arange(k))
    normals = iter(rng.standard_normal(k * p - k * (k + 1) // 2))
    z = rng.standard_normal(k)
    b = np.zeros((k, p))
    for i in range(k):
        b[i, i] = math.sqrt(chi[i])
        for j in range(i + 1, p):
            b[i, j] = next(normals)
    m = root @ b.T
    gamma = m @ m.T / n
    eps = sigma * (m @ z) / n
    return gamma, gamma @ beta0 + eps, eps


def margin_family(reg, beta0, t):
    """An explicit design on which beta0's pre-certificate has margin 1 - t.

    For l1 or the group norm, whose models are coordinate subspaces T.  With
    e the model vector of beta0 and j the first coordinate off T, Gamma is
    the identity but for an equicorrelated block Gamma_TT = 0.7 I + 0.3 1 1^T
    (so that the restricted inverse matters) and Gamma_jT = Gamma_Tj =
    t e_T / (e_T^T Gamma_TT^-1 e_T).  The pre-certificate is then
    eta = Gamma_.T Gamma_TT^-1 e_T, whose only entry off T is eta_j = t, and
    the margin (l1: |eta_j|; group: the norm of j's group) is 1 - t.  Gamma
    is positive definite while t^2 < e_T^T Gamma_TT^-1 e_T, and the design
    is X = sqrt(p) L^T, p rows, with L L^T = Gamma.
    """
    beta0 = np.asarray(beta0, dtype=float)
    p = beta0.shape[0]
    geometry = reg.model(beta0)
    on = geometry.subspace.basis.any(axis=1)
    j = int(np.flatnonzero(~on)[0])
    gamma = np.eye(p)
    block = 0.7 * np.eye(on.sum()) + 0.3
    gamma[np.ix_(on, on)] = block
    e = geometry.model_vector[on]
    gamma[j, on] = gamma[on, j] = t * e / (e @ np.linalg.solve(block, e))
    return DesignSpec.explicit(np.sqrt(p) * np.linalg.cholesky(gamma).T)


def canonical_parameters(instance, lam):
    """theta = (lambda/n, X^T y / n, X^T X / n) of one trial."""
    n, x = instance.n, instance.x
    return CanonicalParameters(mu=lam / n, u=x.T @ instance.y / n, gamma=x.T @ x / n)


def energy(theta, j_value, beta, gamma_beta):
    """E(beta) from J(beta) and Gamma beta, both already computed; mu > 0.

    The expression the batched solver evaluates row by row, term for term.
    """
    const = 0.5 * (theta.quad.pinv @ theta.u) @ theta.u
    return j_value + (0.5 * beta @ gamma_beta - beta @ theta.u + const) / theta.mu


def gamma_product(gam, beta):
    """Gamma beta as row 0 of block @ Gamma, beta alone in a zero 4 x p block.

    The product linalg.gamma_products gives every row (Gamma symmetric).
    """
    block = np.zeros((4, beta.shape[0]))
    block[0] = beta
    return (block @ gam)[0]


def lasso_polish(theta, beta, zero_tol, bound):
    """beta's lasso minimizer on its support and signs, if certified, else None.

    Solves Gamma_SS b_S = u_S - mu sign(beta_S) on the support S of beta and
    keeps the result when its signs and descriptor are beta's and
    |u - Gamma b| / mu < bound off S.  Returns (b, Gamma b) then, Gamma b
    as gamma_product gives it.
    """
    u, gam = theta.u, theta.gamma
    support = np.flatnonzero(np.abs(beta) > zero_tol)
    signs = np.sign(beta[support])
    polished = np.zeros_like(beta)
    if support.size:
        try:
            polished[support] = np.linalg.solve(
                gam[np.ix_(support, support)], u[support] - theta.mu * signs
            )
        except np.linalg.LinAlgError:
            return None
    gam_polished = gamma_product(gam, polished)
    off = np.ones(beta.shape[0], dtype=bool)
    off[support] = False
    eta = np.abs(u - gam_polished)[off] / theta.mu
    if (
        np.array_equal(np.sign(polished[support]), signs)
        and descriptor(L1(), polished, zero_tol) == descriptor(L1(), beta, zero_tol)
        and (not off.any() or eta.max() < bound)
    ):
        return polished, gam_polished
    return None


def forward_backward_scalar(theta, reg, opts):
    """Forward-backward on one problem from zero, one vector iterate at a time.

    The solver's loop before it was batched, kept as the reference the
    batched engine must match bit for bit; its proximal map is the
    penalty's step_batch on one row (prox).  An l1 iterate whose model has
    held for one step, and that has not met the fixed-point rule, is
    polished by lasso_polish with the margin 1 - (zero_tol + fp threshold)
    / (tau mu); a certified one ends the run.  Returns the fields of a
    SolveResult as a dict, plus "models", the descriptor of every iterate
    (index 0 is the zero start), which the solver does not keep.
    """
    norm = np.abs(np.linalg.eigvalsh(theta.gamma)).max() if theta.gamma.size else 0.0
    tau = (0.9 * 2.0 / norm if norm else 1.0) if opts.step is None else float(opts.step)
    beta = np.zeros_like(theta.u)
    mu, u, gam = theta.mu, theta.u, theta.gamma
    weight = tau * mu
    gam_beta = gamma_product(gam, beta)
    trace = [energy(theta, reg.value(beta), beta, gam_beta)]
    desc = descriptor(reg, beta, opts.zero_tol)
    models = [desc]
    run_start = 0
    converged = False
    for k in range(1, opts.max_iter + 1):
        beta_next = prox(reg, beta + tau * (u - gam_beta), weight)
        desc_next, j_next = descriptor(reg, beta_next, opts.zero_tol), reg.value(beta_next)
        if not math.isfinite(j_next):
            raise ValueError(f"iterate {k} has non-finite entries")
        delta = beta_next - beta
        fp_residual = math.sqrt(delta.dot(delta))
        threshold = opts.fp_tol * max(1.0, math.sqrt(beta.dot(beta)))
        if desc_next != desc:
            run_start = k
            desc = desc_next
        converged = fp_residual <= threshold
        gam_beta = gamma_product(gam, beta_next)
        if reg.kind == "l1" and run_start == k - 1 and not converged:
            found = lasso_polish(
                theta, beta_next, opts.zero_tol, 1.0 - (opts.zero_tol + threshold) / weight
            )
            if found is not None:
                beta_next, gam_beta = found
                j_next, converged = reg.value(beta_next), True
        trace.append(energy(theta, j_next, beta_next, gam_beta))
        models.append(desc_next)
        beta = beta_next
        if converged:
            break
    return dict(
        beta=beta,
        iterations=k,
        converged=converged,
        fp_residual=fp_residual,
        objective=trace[-1],
        objective_trace=np.asarray(trace),
        step=tau,
        identification_iter=run_start if converged else None,
        model=desc,
        models=models,
    )
