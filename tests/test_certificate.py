"""Pre-certificates, stability verdicts, dual certificates, uniqueness."""

import numpy as np
import pytest

from partlysmooth import (
    AnalysisL1,
    CanonicalParameters,
    GroupL1L2,
    L1,
    Nuclear,
    certify_uniqueness,
    check_model_stability,
    project,
)

import oracles

G3 = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.6], [0.6, 0.6, 1.0]])
G3_BOUNDARY = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 1.0]])


def test_identity_design():
    cert = check_model_stability(np.eye(3), [1.0, -2.0, 0.0], L1())
    assert cert.usable
    np.testing.assert_allclose(cert.eta, [1.0, -1.0, 0.0], atol=1e-10)
    assert cert.verdict.status == "interior"
    assert cert.verdict.margin == pytest.approx(1.0, abs=1e-10)
    assert cert.verdict.tangent_residual == pytest.approx(0.0, abs=1e-10)
    assert cert.subspace_dim == 2
    assert cert.stable and not cert.inconclusive


def test_correlated_design_interior():
    gamma = np.array([[1.0, 0.5], [0.5, 1.0]])
    cert = check_model_stability(gamma, [2.0, 0.0], L1())
    np.testing.assert_allclose(cert.eta, [1.0, 0.5], atol=1e-10)
    assert cert.verdict.margin == pytest.approx(0.5, abs=1e-10)
    assert cert.verdict.status == "interior"


def test_correlated_design_outside():
    cert = check_model_stability(G3, [1.0, 1.0, 0.0], L1())
    np.testing.assert_allclose(cert.eta, [1.0, 1.0, 1.2], atol=1e-10)
    assert cert.verdict.status == "outside"
    assert cert.verdict.margin == pytest.approx(-0.2, abs=1e-10)
    assert not cert.stable and not cert.inconclusive


def test_boundary_is_inconclusive():
    cert = check_model_stability(G3_BOUNDARY, [1.0, 1.0, 0.0], L1())
    np.testing.assert_allclose(cert.eta, [1.0, 1.0, 1.0], atol=1e-10)
    assert cert.verdict.status == "boundary"
    assert cert.verdict.margin == pytest.approx(0.0, abs=1e-10)
    assert not cert.stable and cert.inconclusive


def test_injectivity_failure_is_flagged():
    # duplicated predictor: Gamma has rank one but the support needs rank two
    cert = check_model_stability(np.ones((2, 2)), [1.0, -1.0], L1())
    assert not cert.usable
    assert cert.eta is None and cert.verdict is None
    assert cert.injectivity.smallest_singular < 1e-8
    assert not cert.stable and not cert.inconclusive


def test_zero_signal_is_trivially_stable():
    cert = check_model_stability(np.eye(4), np.zeros(4), L1())
    assert cert.usable and cert.subspace_dim == 0
    np.testing.assert_allclose(cert.eta, np.zeros(4))
    assert cert.verdict.status == "interior"


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        check_model_stability(np.eye(3), [1.0, 0.0], L1())


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("name", ["zero_tol", "ri_tol", "injectivity_tol"])
@pytest.mark.parametrize("check", [
    lambda **tol: check_model_stability(np.eye(2), [1.5, 0.0], L1(), **tol),
    lambda **tol: certify_uniqueness(
        CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2)), [0.9, 0.0], L1(), **tol
    ),
], ids=["stability", "uniqueness"])
def test_tolerances_are_validated(check, name, value):
    # a NaN ri_tol would read every margin as boundary, a NaN injectivity_tol
    # every subspace as non-injective, and a negative zero_tol every entry as
    # active
    with pytest.raises(ValueError, match=name):
        check(**{name: value})


def certified_cases(rng):
    """Random well-conditioned problems for each regularizer kind."""
    cases = []
    # l1: near-identity covariance keeps the certificate usable
    p = 8
    a = rng.normal(size=(p, p)) * 0.15
    gamma = np.eye(p) + a @ a.T
    beta = np.zeros(p)
    beta[[1, 4]] = [1.5, -2.0]
    cases.append((L1(), gamma, beta))

    reg = GroupL1L2([[0, 1], [2, 3], [4, 5]])
    a = rng.normal(size=(6, 6)) * 0.15
    beta = np.zeros(6)
    beta[[0, 1]] = [1.0, 2.0]
    cases.append((reg, np.eye(6) + a @ a.T, beta))

    reg = Nuclear((3, 3))
    a = rng.normal(size=(9, 9)) * 0.1
    m = np.outer(rng.normal(size=3), rng.normal(size=3))
    cases.append((reg, np.eye(9) + a @ a.T, m.ravel(order="F")))

    reg = AnalysisL1(oracles.tv_operator(6))
    a = rng.normal(size=(6, 6)) * 0.15
    beta = np.repeat([1.0, 3.0], 3)
    cases.append((reg, np.eye(6) + a @ a.T, beta))
    return cases


def test_tangent_equation_holds():
    # P_T eta = e whenever the restricted operator is invertible on T
    rng = np.random.default_rng(20)
    for _ in range(10):
        for reg, gamma, beta in certified_cases(rng):
            cert = check_model_stability(gamma, beta, reg)
            assert cert.usable
            geo = cert.geometry
            np.testing.assert_allclose(
                project(cert.eta, geo.subspace), geo.model_vector, atol=1e-8
            )


def test_eta_in_image_of_gamma():
    rng = np.random.default_rng(21)
    for reg, gamma, beta in certified_cases(rng):
        cert = check_model_stability(gamma, beta, reg)
        coef, *_ = np.linalg.lstsq(gamma, cert.eta, rcond=None)
        np.testing.assert_allclose(gamma @ coef, cert.eta, atol=1e-8)


def test_scale_invariance():
    # eta depends on Gamma only through its restriction pattern: scaling
    # Gamma by c > 0 cancels between the two factors
    rng = np.random.default_rng(22)
    for reg, gamma, beta in certified_cases(rng):
        a = check_model_stability(gamma, beta, reg)
        b = check_model_stability(3.7 * gamma, beta, reg)
        np.testing.assert_allclose(a.eta, b.eta, atol=1e-9)


def test_singular_but_injective_gamma():
    # rank-deficient design whose kernel avoids the tangent space
    gamma = np.diag([1.0, 1.0, 0.0])
    cert = check_model_stability(gamma, [2.0, 0.0, 0.0], L1())
    assert cert.usable
    np.testing.assert_allclose(cert.eta, [1.0, 0.0, 0.0], atol=1e-12)
    assert cert.verdict.status == "interior"


# ---------------------------------------------------------------------------
# dual certificates at candidate solutions


def test_dual_certificate_at_minimizer():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    # closed-form lasso solution for identity gamma
    beta = np.array([0.9, 0.0])
    v = certify_uniqueness(theta, beta, L1()).verdict
    assert v.status == "interior"
    assert v.margin == pytest.approx(1.0, abs=1e-12)
    assert v.tangent_residual == pytest.approx(0.0, abs=1e-12)


def test_dual_certificate_rejects_non_minimizer():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    v = certify_uniqueness(theta, np.array([1.0, 0.0]), L1()).verdict
    assert v.status == "outside"
    assert v.tangent_residual == pytest.approx(1.0, abs=1e-12)


def test_dual_certificate_needs_positive_mu():
    theta = CanonicalParameters(0.0, np.array([1.0]), np.eye(1))
    with pytest.raises(ValueError):
        certify_uniqueness(theta, np.array([0.5]), L1())


def test_uniqueness_checks_the_length_of_beta():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    with pytest.raises(ValueError, match="beta has length 1, expected 2"):
        certify_uniqueness(theta, np.array([0.5]), L1())


class _CountingL1(L1):
    models = 0

    def model(self, *args):
        self.models += 1
        return super().model(*args)


def test_uniqueness_certificate():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    reg = _CountingL1()
    rep = certify_uniqueness(theta, np.array([0.9, 0.0]), reg)
    assert rep.stable
    assert rep.verdict.status == "interior"
    assert rep.injectivity.holds
    # one model geometry serves both the dual certificate and injectivity
    assert reg.models == 1


def test_uniqueness_fails_on_duplicated_columns():
    # two identical predictors: any split of the mass is optimal
    gamma = np.ones((2, 2))
    u = np.array([1.0, 1.0])
    theta = CanonicalParameters(0.2, u, gamma)
    beta = np.array([0.8, 0.0])  # one of the minimizers
    rep = certify_uniqueness(theta, beta, L1())
    assert not rep.stable
