"""Partly smooth regularizers and their local model geometry.

Four penalties share one interface: the l1 norm, the group l1-l2 norm, the
nuclear norm on square matrices (handled as column-major vectorized p0 x p0
matrices), and the analysis-l1 penalty ||D^T beta||_1 for a fixed analysis
operator D.

Each regularizer knows how to

* read the magnitudes of the rows of a batch (|beta_i|, the group norms,
  the singular values or |(D^T beta)_i|): J is a row's sum, its model the
  mask of those above zero_tol, and off_model_max the largest one off a mask,
* take its proximal map  argmin_x 0.5 ||x - v||^2 + w J(x)  of every row of
  a batch at once, with the magnitudes of the result (step_batch, the
  penalty's one call per solver iteration),
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

# inner solver knobs for the analysis-l1 proximal map (dual projected gradient)
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

        Returns (out, magnitudes(out)), out[i] the proximal map
        argmin_x 0.5 ||x - v[i]||^2 + weights[i] J(x): the solver reads each
        row's J and model key off the magnitudes.  Each penalty implements
        its proximal map once, here, and a row gets the bits it gets alone.
        v and weights need not be validated: the solver checks the weights
        once per solve, and after each step that J(out) is finite, which
        fails exactly when an entry of out is not.  A penalty whose map
        would not end on a non-finite row (an SVD, an inner loop) refuses it.
        """
        raise NotImplementedError

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
        needs the point's singular vectors, and the analysis margin reads the
        dual on the cosupport off one least-squares solve.
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
        # the coordinates in group order, where each group starts in it, and
        # each coordinate's group
        sizes = [b.size for b in blocks]
        self._order = flat
        self._starts = np.cumsum([0] + sizes[:-1])
        self._group_of = np.empty(p, dtype=int)
        self._group_of[flat] = np.repeat(np.arange(len(blocks)), sizes)

    # the group norms, one column per group, from one sum of squares per batch
    def magnitudes(self, beta) -> np.ndarray:
        return np.sqrt(np.add.reduceat(np.square(beta[:, self._order]), self._starts, axis=1))

    def step_batch(self, v, weights):
        # each group scaled by max(||v_g|| - w, 0) / ||v_g||, a zero group by 0
        norms = self.magnitudes(v)
        scale = np.divide(np.maximum(norms - weights[:, None], 0.0), norms,
                          out=np.zeros_like(norms), where=norms > 0.0)
        out = v * scale[:, self._group_of]
        return out, self.magnitudes(out)

    def model(self, beta, zero_tol: float = ZERO_TOL) -> ModelGeometry:
        beta = _as_vector(beta, self.p, "beta")
        desc = self.descriptor(beta, zero_tol)
        active = np.isin(self._group_of, desc.data)
        norms = self.magnitudes(beta[None])[0, self._group_of]
        e = np.divide(beta, norms, out=np.zeros_like(beta), where=active)
        return ModelGeometry(desc, Subspace.coordinates(self.p, np.flatnonzero(active)), e)


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

    # the singular values, by one SVD call on the column-major stack
    def magnitudes(self, beta) -> np.ndarray:
        p0 = self.shape[0]
        return np.linalg.svd(beta.reshape(-1, p0, p0).swapaxes(1, 2), compute_uv=False)

    def step_batch(self, v, weights):
        # the singular values shrunk, by one SVD and one matmul of the stack;
        # an SVD with an inf or NaN may not return
        v = _as_vector(v, self.p, "the forward point", stacked=True)
        p0 = self.shape[0]
        u, s, vt = np.linalg.svd(v.reshape(-1, p0, p0).swapaxes(1, 2), full_matrices=False)
        out = np.matmul(u, np.maximum(s - weights[:, None], 0.0)[..., None] * vt)
        out = out.swapaxes(1, 2).reshape(v.shape)
        return out, self.magnitudes(out)

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
        e = (u[:, :r] @ vt[:r, :]).ravel(order="F")
        return ModelGeometry(desc, Subspace(basis), e)

    def _interior_margin(self, geometry, eta) -> float:
        # spectral norm of the normal-space part of eta
        h = self._mat(eta)
        normal = h - self._mat(project(eta, geometry.subspace))
        return 1.0 - float(np.linalg.norm(normal, 2))


class AnalysisL1(Regularizer):
    """The analysis penalty ||D^T beta||_1 for a fixed p x q operator D.

    D must have full column rank q (so q <= p).  The model of a point is the
    cosupport I = { i : (D^T beta)_i = 0 }, with tangent space T = ker(D_I^T).
    A dual vector eta is in the subdifferential when D_I alpha_I = eta - offset
    for some ||alpha_I||_inf <= 1; D_I is injective, so alpha_I is unique and
    the margin is 1 - ||alpha_I||_inf.  The prox has no closed form; it is
    computed through the dual problem min_{||v||_inf <= gamma} ||beta - D v||^2
    by accelerated projected gradient with adaptive restart.
    """

    kind = "analysis_l1"

    def __init__(self, operator):
        d = _as_matrix(operator, "analysis operator")
        if d.shape[0] < 1 or d.shape[1] < 1:
            raise ValueError(f"analysis operator must be nonempty, got shape {d.shape}")
        sv = np.linalg.svd(d, compute_uv=False)
        rank = int(np.sum(sv > RANK_TOL * sv[0]))
        if rank < d.shape[1]:
            raise ValueError(
                f"analysis operator of shape {d.shape} must have full column rank "
                f"{d.shape[1]}, got rank {rank}"
            )
        self.operator = d
        self.p, self.q = d.shape
        self._lipschitz = float(sv[0] ** 2)

    # |D^T beta|, from one stacked D^T beta
    def magnitudes(self, beta) -> np.ndarray:
        return np.abs(np.matmul(self.operator.T, beta[..., None])[..., 0])

    def step_batch(self, v, weights):
        # one row at a time; the inner loop would not end on an inf or NaN
        v = _as_vector(v, self.p, "the forward point", stacked=True)
        out = np.array([self._prox(row, weight) for row, weight in zip(v, weights.tolist())])
        return out, self.magnitudes(out)

    def _prox(self, beta, gamma: float) -> np.ndarray:
        """The proximal map of one row beta at weight gamma (class docstring)."""
        if gamma == 0.0:
            return beta
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
            # ker(D_I^T): the right singular vectors of D_I^T past its rank
            # |I|, as columns of a C-ordered p x p copy; a basis with row
            # stride p keeps the projection bits this model has always had
            vt = np.linalg.svd(self.operator[:, cosupport].T, full_matrices=True)[2]
            sub = Subspace(vt.T.copy()[:, len(cosupport):])
        else:
            sub = Subspace.full(self.p)
        signs = np.sign(self.operator.T @ beta)
        signs[cosupport] = 0.0
        offset = self.operator @ signs
        e = project(offset, sub)
        return ModelGeometry(desc, sub, e, offset=offset)

    def _interior_margin(self, geometry, eta) -> float:
        # alpha_I from one least-squares solve (class docstring)
        if geometry.offset is None:
            raise ValueError("analysis geometry is missing its subdifferential offset")
        d_i = self.operator[:, list(geometry.descriptor.data)]
        alpha = np.linalg.lstsq(d_i, eta - geometry.offset, rcond=None)[0]
        return 1.0 - float(np.abs(alpha).max(initial=0.0))
