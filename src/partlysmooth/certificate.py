"""Model-stability certificates.

Given the population (or empirical) covariance Gamma and a target vector
beta0, the linearized pre-certificate is

    eta = Gamma (P_T Gamma P_T)^+ e,

where T and e are the tangent space and model vector of the regularizer at
beta0.  When ker(Gamma) does not meet T and eta lies strictly inside the
subdifferential at beta0, the active model of beta0 is stable: low-noise,
well-tuned solves recover it exactly.  A strictly-outside eta certifies the
opposite.  A boundary verdict is inconclusive and reported as such.

Strictly inside means P_T eta = e and eta's dual norm off the model below 1:
Regularizer.off_model_max for l1 and groups, as in the solver's certified
stop; nuclear and analysis-l1 keep their own margins (a spectral norm, an
LP).  The same test of eta = (u - Gamma beta)/mu at a solver output beta,
with restricted injectivity there, certifies that beta is the unique minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    INJECTIVITY_TOL,
    InjectivityReport,
    check_symmetric,
    pseudoinverse,
    restricted_injectivity,
    _as_vector,
)
from .regularizers import RI_TOL, ZERO_TOL, CertificateVerdict, ModelGeometry, Regularizer


@dataclass(frozen=True, eq=False)
class Certificate:
    """A dual vector eta classified on a model, plus what it takes to read it.

    check_model_stability gives the pre-certificate at beta0, whose eta and
    verdict are None where restricted injectivity fails (usable is False).
    certify_uniqueness gives the certificate at a solution, verdict always
    set.  stable needs a usable, strictly interior certificate: a stable
    model at beta0, a unique solution at a solution.  A usable boundary
    verdict is inconclusive (the test cannot decide either way there).
    """

    eta: Optional[np.ndarray]
    verdict: Optional[CertificateVerdict]
    injectivity: InjectivityReport
    geometry: ModelGeometry

    @property
    def usable(self) -> bool:
        return self.injectivity.holds

    @property
    def stable(self) -> bool:
        return self.usable and self.verdict.status == "interior"

    @property
    def inconclusive(self) -> bool:
        return self.usable and self.verdict.status == "boundary"

    @property
    def subspace_dim(self) -> int:
        return self.geometry.subspace.dim


def _check_tolerances(**tolerances):
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def check_model_stability(
    gamma,
    beta0,
    reg: Regularizer,
    zero_tol: float = ZERO_TOL,
    ri_tol: float = RI_TOL,
    injectivity_tol: float = INJECTIVITY_TOL,
) -> Certificate:
    """The linearized pre-certificate of (gamma, beta0) under the regularizer.

    The restricted operator is inverted in basis coordinates: with B an
    orthonormal basis of T, (P_T Gamma P_T)^+ e = B (B^T Gamma B)^+ B^T e,
    so eta = Gamma B (B^T Gamma B)^+ (B^T e).
    """
    _check_tolerances(zero_tol=zero_tol, ri_tol=ri_tol, injectivity_tol=injectivity_tol)
    gamma = check_symmetric(gamma, name="gamma")
    geometry = reg.model(beta0, zero_tol)
    if gamma.shape[0] != geometry.subspace.ambient_dim:
        raise ValueError("gamma and beta0 dimensions differ")
    injectivity = restricted_injectivity(gamma, geometry.subspace, injectivity_tol)
    if not injectivity.holds:
        return Certificate(eta=None, verdict=None, injectivity=injectivity, geometry=geometry)
    b = geometry.subspace.basis
    if b.shape[1]:
        reduced = pseudoinverse(b.T @ gamma @ b) @ (b.T @ geometry.model_vector)
        eta = gamma @ (b @ reduced)
    else:
        eta = np.zeros(gamma.shape[0])
    verdict = reg.ri_membership(geometry, eta, ri_tol)
    return Certificate(eta=eta, verdict=verdict, injectivity=injectivity, geometry=geometry)


def certify_uniqueness(
    theta,
    beta,
    reg: Regularizer,
    zero_tol: float = ZERO_TOL,
    ri_tol: float = RI_TOL,
    injectivity_tol: float = INJECTIVITY_TOL,
) -> Certificate:
    """The dual certificate of beta for theta: stable means beta is the unique minimizer.

    verdict classifies eta = (u - Gamma beta)/mu at the model of beta itself.
    Sufficient condition for uniqueness: that verdict is strictly interior
    and Gamma is injective on the tangent space at beta.
    """
    _check_tolerances(zero_tol=zero_tol, ri_tol=ri_tol, injectivity_tol=injectivity_tol)
    if theta.mu <= 0:
        raise ValueError(f"dual certificate needs mu > 0, got {theta.mu}")
    beta = _as_vector(beta, theta.u.shape[0], "beta")
    eta = (theta.u - theta.gamma @ beta) / theta.mu
    geometry = reg.model(beta, zero_tol)
    verdict = reg.ri_membership(geometry, eta, ri_tol)
    injectivity = restricted_injectivity(theta.gamma, geometry.subspace, injectivity_tol)
    return Certificate(eta=eta, verdict=verdict, injectivity=injectivity, geometry=geometry)
