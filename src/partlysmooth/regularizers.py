"""Partly smooth regularizers and their local model geometry.

Four penalties share one interface: the l1 norm, the group l1-l2 norm, the
nuclear norm on square matrices (handled as column-major vectorized p0 x p0
matrices), and the analysis-l1 penalty ||D^T beta||_1 for a fixed analysis
operator D.

Each regularizer knows how to

* read the magnitudes of the rows of a batch (|beta_i|, the group norms,
  the singular values or |(D^T beta)_i|): J is a row's sum, its model the
  mask of those above zero_tol, and off_model_max the largest one off a mask,
* compute its proximal map  argmin_x 0.5 ||x - beta||^2 + gamma J(x),
* read the full model of a point: the descriptor its mask stands for, the
  tangent subspace T and the model vector e = P_T(subdifferential), and
* classify a candidate dual vector against the subdifferential at that
  model: strictly inside its relative interior, on the boundary, or outside,
* and, for l1 only, minimize the solver's problem on an iterate's model and
  certify the result (certified_minimizers), which lets the solver stop.

The classification is what drives every stability certificate downstream, so
its margin conventions are fixed here once: margin > 0 means strict interior,
with magnitude measuring the distance to the boundary in the natural dual
norm of the penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .linalg import (
    RANK_TOL, Subspace, gamma_products, _as_matrix, _as_vector, _check_integer, project,
)

ZERO_TOL = 1e-8
RI_TOL = 1e-6

# inner solver knobs for the analysis-l1 prox (dual projected gradient)
PROX_INNER_TOL = 1e-9
PROX_INNER_MAX_ITER = 10_000


@dataclass(frozen=True)
class ModelDescriptor:
    """Discrete identity of an active model.

    data is a sorted tuple of indices (support, active groups, cosupport)
    or a single integer (matrix rank), depending on the regularizer kind.
    """

    kind: str
    data: Union[tuple, int]

    def __str__(self):
        return f"{self.kind}:{self.data}"


def check_prox_weight(gamma) -> float:
    """Validate a prox weight: finite and >= 0."""
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError(f"prox weight must be finite and >= 0, got {gamma}")
    return gamma


@dataclass(frozen=True, eq=False)
class ModelGeometry:
    """Local geometry of a regularizer at a point.

    subspace is the model tangent space T, model_vector is
    e = P_T(subdifferential).  offset is the affine shift of the
    subdifferential; it differs from e only for analysis regularizers
    (where it is D_J sign(D^T beta)_J) and is None otherwise.
    """

    descriptor: ModelDescriptor
    subspace: Subspace
    model_vector: np.ndarray
    offset: Optional[np.ndarray] = None


@dataclass(frozen=True)
class CertificateVerdict:
    """Position of a dual vector relative to the subdifferential.

    status is one of "interior", "boundary", "outside".  margin is the
    distance to the boundary measured in the penalty's dual norm (negative
    when outside).  tangent_residual is || P_T eta - e ||; a vector that
    fails the tangent equation is outside regardless of margin.
    """

    status: str
    margin: float
    tangent_residual: float


class Regularizer:
    """Common interface; concrete penalties subclass this."""

    kind: str = ""

    # -- interface ---------------------------------------------------------
    def magnitudes(self, beta) -> np.ndarray:
        """The T x k magnitudes of the rows of the T x p array beta, unvalidated.

        J is a row's sum and its model the mask of the entries above zero_tol.
        """
        raise NotImplementedError

    def prox(self, beta, gamma: float) -> np.ndarray:
        raise NotImplementedError

    def value(self, beta) -> float:
        """J(beta): the sum of beta's magnitudes."""
        # a penalty without p (L1) takes beta of any length
        beta = _as_vector(beta, getattr(self, "p", None), "beta")
        return float(self.magnitudes(beta[None]).sum(axis=1)[0])

    def descriptor(self, beta, zero_tol: float = ZERO_TOL) -> ModelDescriptor:
        """The discrete descriptor of beta's model: its model_keys row, read back."""
        beta = _as_vector(beta, getattr(self, "p", None), "beta")
        return self.key_descriptor(self.model_keys(beta[None], zero_tol)[0])

    def model(self, beta, zero_tol: float = ZERO_TOL) -> ModelGeometry:
        """Full local geometry (descriptor, tangent subspace, model vector)."""
        raise NotImplementedError

    def step_batch(self, v, weights):
        """The penalty's share of one solver iteration, for every row of v.

        Returns (out, magnitudes(out)), out[i] = prox(v[i], weights[i]): the
        solver reads each row's J and model key off the magnitudes.  This
        default loops prox over the rows.  An override may skip validating v
        and weights: the solver checks the weights once per solve, and after
        each step that J(out) is finite, which fails exactly when an entry of
        out is not.  An override must return the same bits row by row.
        """
        out = np.empty_like(v)
        for i, weight in enumerate(weights.tolist()):
            out[i] = self.prox(v[i], weight)
        return out, self.magnitudes(out)

    def model_keys(self, beta, zero_tol: float) -> np.ndarray:
        """The models of the rows of the T x p array beta, as a T x k bool mask.

        The magnitudes above zero_tol, as the solver reads them off
        step_batch.  Two rows share a model exactly when their masks are
        equal.  beta is not validated.
        """
        return self.magnitudes(beta) > zero_tol

    def key_descriptor(self, key) -> ModelDescriptor:
        """The descriptor that one row of model_keys stands for: its set indices."""
        return ModelDescriptor(self.kind, tuple(np.flatnonzero(key).tolist()))

    def certified_minimizers(self, beta, keys, u, mu, gam, bound, zero_tol):
        """Minimize each row's problem on its model, and certify the result.

        Row i of the T x p array beta is an iterate of the solver's problem
        (mu[i], u[i], Gamma), and keys[i] its model_keys row, read with
        zero_tol.  gam is one p x p Gamma shared by the rows or a T x p x p
        stack, one per row.  Returns (polished, gamma_polished, values,
        certified), one row per row of beta: the minimizer of E on the row's
        model, Gamma times it from linalg.gamma_products as the solver's
        iterates get it, its J, and whether it is certified,
        that is the minimizer of E itself on keys[i]'s model, with the dual
        vector eta = (u[i] - Gamma b) / mu[i] below bound[i] off the model,
        in the penalty's dual norm.  Each row gets the bits it gets alone.
        This default has no certificate and returns None.
        """
        return None

    def off_model_max(self, eta, keys) -> np.ndarray:
        """Each row's dual norm off its model: its largest magnitude with an unset key, else 0."""
        return np.where(keys, 0.0, self.magnitudes(eta)).max(axis=1, initial=0.0)

    def _interior_margin(self, geometry: ModelGeometry, eta: np.ndarray) -> float:
        """1 - off_model_max of eta, keyed by the descriptor's set indices.

        Nuclear and AnalysisL1 override it: the nuclear normal-space norm
        needs the point's singular vectors, and the analysis margin is an LP.
        """
        keys = np.zeros(self.magnitudes(eta[None]).shape, dtype=bool)
        keys[0, list(geometry.descriptor.data)] = True
        return 1.0 - float(self.off_model_max(eta[None], keys)[0])

    # -- shared logic ------------------------------------------------------
    def ri_membership(self, geometry: ModelGeometry, eta, tol: float = RI_TOL) -> CertificateVerdict:
        """Classify eta against the subdifferential at the given geometry."""
        eta = _as_vector(eta, geometry.subspace.ambient_dim, "eta")
        residual = float(np.linalg.norm(project(eta, geometry.subspace) - geometry.model_vector))
        margin = self._interior_margin(geometry, eta)
        if residual > tol or margin < -tol:
            status = "outside"
        elif margin > tol:
            status = "interior"
        else:
            status = "boundary"
        return CertificateVerdict(status=status, margin=margin, tangent_residual=residual)


class L1(Regularizer):
    """The l1 norm.  Model: support set, sign vector on the support."""

    kind = "l1"

    def magnitudes(self, beta) -> np.ndarray:
        return np.abs(beta)

    def prox(self, beta, gamma: float) -> np.ndarray:
        beta = _as_vector(beta, name="beta")
        gamma = check_prox_weight(gamma)
        return np.copysign(np.maximum(np.abs(beta) - gamma, 0.0), beta)

    def step_batch(self, v, weights):
        # size is |out| bit for bit: it is +0, positive or NaN
        size = np.maximum(np.abs(v) - weights[:, None], 0.0)
        return np.copysign(size, v), size

    def certified_minimizers(self, beta, keys, u, mu, gam, bound, zero_tol):
        # on support S with signs s, the minimizer solves
        # Gamma_SS b_S = u_S - mu s, in one stacked solve per support size
        signs = np.where(keys, np.sign(beta), 0.0)
        polished = np.zeros_like(beta)
        sizes = np.count_nonzero(keys, axis=1)
        for size in sorted(set(sizes.tolist()) - {0}):
            rows = np.flatnonzero(sizes == size)
            support = np.nonzero(keys[rows])[1].reshape(-1, size)
            at = rows[:, None], support
            if gam.ndim == 2:
                block = gam[support[:, :, None], support[:, None, :]]
            else:
                block = gam[rows[:, None, None], support[:, :, None], support[:, None, :]]
            polished[at] = _solve_stack(block, u[at] - mu[rows, None] * signs[at])
        gamma_polished = gamma_products(gam, polished)
        size = self.magnitudes(polished)
        # signs and model keys kept, and eta = (u - Gamma b) / mu below bound off the model
        certified = (
            (np.sign(polished) == signs).all(axis=1)
            & ((size > zero_tol) == keys).all(axis=1)
            & (self.off_model_max((u - gamma_polished) / mu[:, None], keys) < bound)
        )
        return polished, gamma_polished, size.sum(axis=1), certified

    def model(self, beta, zero_tol: float = ZERO_TOL) -> ModelGeometry:
        beta = _as_vector(beta, name="beta")
        desc = self.descriptor(beta, zero_tol)
        support = list(desc.data)
        sub = Subspace.coordinates(beta.shape[0], support)
        e = np.zeros_like(beta)
        e[support] = np.sign(beta[support])
        return ModelGeometry(desc, sub, e)


def _solve_stack(a, b):
    """x with a[i] x[i] = b[i] for a T x s x s stack, NaN where a[i] is singular.

    One LAPACK solve per matrix, as np.linalg.solve makes for one, so a
    row's bits do not depend on the stack it is in.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_solve_stack(a[i : i + 1], b[i : i + 1]) for i in range(len(a))])


class GroupL1L2(Regularizer):
    """Sum of euclidean norms over a fixed partition of the coordinates."""

    kind = "group_l1l2"

    def __init__(self, groups):
        blocks = [
            np.asarray(sorted(_check_integer(i, "groups index") for i in g), dtype=int)
            for g in groups
        ]
        if not blocks:
            raise ValueError("need at least one group")
        flat = np.concatenate(blocks)
        p = int(flat.max()) + 1 if flat.size else 0
        seen = np.zeros(p, dtype=bool)
        for b in blocks:
            if b.size == 0:
                raise ValueError("empty group")
            if b.min() < 0:
                raise ValueError("negative coordinate index in group")
            if seen[b].any():
                raise ValueError("groups overlap")
            seen[b] = True
        if not seen.all():
            missing = np.flatnonzero(~seen)
            raise ValueError(f"groups do not cover coordinates {missing.tolist()}")
        self.groups = blocks
        self.p = p

    # the group norms, one column per group
    def magnitudes(self, beta) -> np.ndarray:
        return np.stack([np.linalg.norm(beta[:, g], axis=1) for g in self.groups], axis=1)

    def prox(self, beta, gamma: float) -> np.ndarray:
        beta = _as_vector(beta, self.p, "beta")
        gamma = check_prox_weight(gamma)
        out = np.zeros_like(beta)
        for g in self.groups:
            nrm = np.linalg.norm(beta[g])
            if nrm > gamma:
                out[g] = beta[g] * (1.0 - gamma / nrm)
        return out

    def model(self, beta, zero_tol: float = ZERO_TOL) -> ModelGeometry:
        beta = _as_vector(beta, self.p, "beta")
        desc = self.descriptor(beta, zero_tol)
        coords = [j for i in desc.data for j in self.groups[i].tolist()]
        sub = Subspace.coordinates(self.p, coords)
        e = np.zeros_like(beta)
        for i in desc.data:
            g = self.groups[i]
            e[g] = beta[g] / np.linalg.norm(beta[g])
        return ModelGeometry(desc, sub, e)


class Nuclear(Regularizer):
    """Nuclear norm of a square matrix, vectorized column-major.

    Vectors of length p0*p0 are reshaped with order="F"; the model of a
    point is its numerical rank, with the usual fixed-rank tangent space
    { U A^T + B V^T } of dimension p0^2 - (p0 - r)^2.
    """

    kind = "nuclear"

    def __init__(self, shape):
        shape = tuple(_check_integer(s, "matrix_shape entry") for s in shape)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise ValueError(f"need a square matrix shape, got {shape}")
        self.shape = shape
        self.p = shape[0] * shape[1]

    def _mat(self, beta) -> np.ndarray:
        beta = _as_vector(beta, self.p, "beta")
        return beta.reshape(self.shape, order="F")

    def _vec(self, m) -> np.ndarray:
        return np.asarray(m, dtype=float).ravel(order="F")

    # the singular values, by one SVD call on the column-major stack
    def magnitudes(self, beta) -> np.ndarray:
        p0 = self.shape[0]
        return np.linalg.svd(beta.reshape(-1, p0, p0).swapaxes(1, 2), compute_uv=False)

    def prox(self, beta, gamma: float) -> np.ndarray:
        gamma = check_prox_weight(gamma)
        u, s, vt = np.linalg.svd(self._mat(beta), full_matrices=False)
        return self._vec(u @ (np.maximum(s - gamma, 0.0)[:, None] * vt))

    def key_descriptor(self, key) -> ModelDescriptor:
        return ModelDescriptor(self.kind, int(np.count_nonzero(key)))

    def model(self, beta, zero_tol: float = ZERO_TOL) -> ModelGeometry:
        desc = self.descriptor(beta, zero_tol)
        r = desc.data
        u, _, vt = np.linalg.svd(self._mat(beta), full_matrices=True)
        p0 = self.shape[0]
        # orthonormal Frobenius basis of {U A^T + B V^T}: all u_i v_j^T with
        # i < r or j < r (complementary pairs span the normal space)
        cols = []
        for i in range(p0):
            for j in range(p0):
                if i < r or j < r:
                    cols.append(np.outer(u[:, i], vt[j, :]).ravel(order="F"))
        basis = np.stack(cols, axis=1) if cols else np.zeros((self.p, 0))
        e = self._vec(u[:, :r] @ vt[:r, :])
        return ModelGeometry(desc, Subspace(basis), e)

    def _interior_margin(self, geometry, eta) -> float:
        # spectral norm of the normal-space part of eta
        h = self._mat(eta)
        normal = h - self._mat(project(eta, geometry.subspace))
        return 1.0 - float(np.linalg.norm(normal, 2))


class AnalysisL1(Regularizer):
    """The analysis penalty ||D^T beta||_1 for a fixed p x q operator D.

    The model of a point is the cosupport I = { i : (D^T beta)_i = 0 },
    with tangent space T = ker(D_I^T).  The prox has no closed form; it is
    computed through the dual problem min_{||v||_inf <= gamma} ||beta - D v||^2
    by accelerated projected gradient with adaptive restart.
    """

    kind = "analysis_l1"

    def __init__(self, operator):
        d = _as_matrix(operator, "analysis operator")
        if d.shape[0] < 1 or d.shape[1] < 1:
            raise ValueError(f"analysis operator must be nonempty, got shape {d.shape}")
        self.operator = d
        self.p, self.q = d.shape
        sv = np.linalg.svd(d, compute_uv=False)
        self._lipschitz = float(sv[0] ** 2)

    # |D^T beta|, from one stacked D^T beta
    def magnitudes(self, beta) -> np.ndarray:
        return np.abs(np.matmul(self.operator.T, beta[..., None])[..., 0])

    def prox(self, beta, gamma: float) -> np.ndarray:
        beta = _as_vector(beta, self.p, "beta")
        gamma = check_prox_weight(gamma)
        if gamma == 0.0 or self._lipschitz == 0.0:
            return beta.copy()
        d = self.operator
        step = 1.0 / self._lipschitz
        v = np.zeros(self.q)
        v_prev = v
        t = 1.0
        for _ in range(PROX_INNER_MAX_ITER):
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = v + ((t - 1.0) / t_next) * (v - v_prev)
            grad_y = -d.T @ (beta - d @ y)
            v_next = np.clip(y - step * grad_y, -gamma, gamma)
            # honest fixed-point residual of the unaccelerated map at v_next
            grad_v = -d.T @ (beta - d @ v_next)
            mapped = np.clip(v_next - step * grad_v, -gamma, gamma)
            residual = float(np.linalg.norm(mapped - v_next))
            if residual <= PROX_INNER_TOL:
                return beta - d @ mapped
            # restart the momentum when it points uphill
            if np.dot(y - v_next, v_next - v) > 0.0:
                t_next = 1.0
            v_prev, v, t = v, v_next, t_next
        raise RuntimeError(
            f"analysis prox did not converge in {PROX_INNER_MAX_ITER} iterations "
            f"(fixed-point residual {residual:.3e} > {PROX_INNER_TOL})"
        )

    def key_descriptor(self, key) -> ModelDescriptor:
        # the cosupport: the entries of D^T beta not above zero_tol
        return ModelDescriptor(self.kind, tuple(np.flatnonzero(~key).tolist()))

    def model(self, beta, zero_tol: float = ZERO_TOL) -> ModelGeometry:
        desc = self.descriptor(beta, zero_tol)
        beta = _as_vector(beta, self.p, "beta")
        cosupport = list(desc.data)
        if cosupport:
            import scipy.linalg  # deferred: scipy dominates the package's import time

            basis = scipy.linalg.null_space(self.operator[:, cosupport].T)
            sub = Subspace(basis)
        else:
            sub = Subspace.full(self.p)
        signs = np.sign(self.operator.T @ beta)
        signs[cosupport] = 0.0
        offset = self.operator @ signs
        e = project(offset, sub)
        return ModelGeometry(desc, sub, e, offset=offset)

    def _interior_margin(self, geometry, eta) -> float:
        import scipy.optimize  # deferred, as in model()

        cosupport = np.asarray(geometry.descriptor.data, dtype=int)
        if cosupport.size == 0:
            return 1.0
        if geometry.offset is None:
            raise ValueError("analysis geometry is missing its subdifferential offset")
        d_i = self.operator[:, cosupport]
        rhs = eta - geometry.offset
        # reduce against an orthonormal basis of Im(D_I) so that the equality
        # system stays consistent when eta only satisfies the tangent
        # equation up to tolerance
        u, s, _ = np.linalg.svd(d_i, full_matrices=False)
        rank = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
        if rank == 0:
            return 1.0
        b = u[:, :rank]
        k = cosupport.size
        # variables (u_I, t): minimize t subject to B^T D_I u = B^T rhs,
        # -t <= u_i <= t
        c = np.zeros(k + 1)
        c[-1] = 1.0
        a_eq = np.hstack([b.T @ d_i, np.zeros((rank, 1))])
        b_eq = b.T @ rhs
        a_ub = np.block([
            [np.eye(k), -np.ones((k, 1))],
            [-np.eye(k), -np.ones((k, 1))],
        ])
        bounds = [(None, None)] * k + [(0, None)]
        res = scipy.optimize.linprog(
            c, A_ub=a_ub, b_ub=np.zeros(2 * k), A_eq=a_eq, b_eq=b_eq,
            bounds=bounds, method="highs",
        )
        if res.status == 2:  # infeasible: not even in the affine hull
            return -np.inf
        if not res.success:
            raise RuntimeError(f"interior-margin LP failed: {res.message}")
        return 1.0 - float(res.x[-1])
