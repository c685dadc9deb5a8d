"""Acceptance gate.

Ten end-to-end checks covering the package's core claims: prox optimality
for every penalty, certificate correctness against hand-computed values,
solver agreement with an exhaustive oracle, the statistical behavior of the
Monte-Carlo harnesses (recovery under small noise, consistency in n, failure
on uncertified instances, finite-step identification), a descent audit over
every solve the gate performs, and the structural reductions between
penalties.

Each check prints one line, ``criterion NN PASS/FAIL: <label>``, collected
again in the terminal summary by conftest.  Statistical checks use pinned
seeds and pinned thresholds; they are deterministic reruns, not flaky
samples.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import partlysmooth.experiments as exps
from partlysmooth import (
    AnalysisL1,
    DesignSpec,
    ExperimentConfig,
    GroupL1L2,
    L1,
    MuRule,
    Nuclear,
    SignalSpec,
    check_model_stability,
    find_certified_design,
    forward_backward,
    forward_backward_batch,
    identification_profile,
    make_signal,
    noise_stability_sweep,
    consistency_sweep,
    sharpness_experiment,
)
from partlysmooth.solver import CanonicalParameters

from oracles import lasso_minimizers, subspace_distance, tv_operator

RESULTS = []

# carries state between ordered criteria: the certified design from
# criterion 4 is reused by criterion 7, the descent audit by criterion 8
SHARED = {}
DESCENT = {"solves": 0, "worst": -np.inf}


@contextmanager
def _criterion(number, label):
    try:
        yield
    except BaseException:
        line = f"criterion {number:2d} FAIL: {label}"
        RESULTS.append(line)
        print(line)
        raise
    line = f"criterion {number:2d} PASS: {label}"
    RESULTS.append(line)
    print(line)


def _audit_trace(trace, mu):
    # the reported objective is (energy + const)/mu; monotonicity is audited
    # on the energy itself so the slack is not inflated by the 1/mu scaling
    worst = -np.inf
    for prev, cur in zip(trace, trace[1:]):
        slack = 1e-12 * max(1.0, mu * abs(prev))
        worst = max(worst, mu * (cur - prev) - slack)
    return worst


def _audit(result, mu):
    DESCENT["solves"] += 1
    DESCENT["worst"] = max(DESCENT["worst"], _audit_trace(result.objective_trace, mu))


def _checked_fb(theta, reg):
    result = forward_backward(theta, reg)
    _audit(result, theta.mu)
    return result


def _checked_batch(thetas, reg, options):
    # the sweeps solve their trials in batches: audit every solve of each
    thetas = list(thetas)
    results = forward_backward_batch(thetas, reg, options)
    assert len(results) == len(thetas)
    for theta, result in zip(thetas, results):
        _audit(result, theta.mu)
    return results


def test_criterion_01_prox_optimality():
    with _criterion(1, "prox outputs satisfy subgradient optimality, all penalties"):
        start = time.monotonic()
        suites = [
            (L1(), 30),
            (GroupL1L2([list(range(3 * i, 3 * i + 3)) for i in range(10)]), 30),
            (Nuclear((5, 5)), 25),
            (AnalysisL1(tv_operator(20)), 20),
        ]
        rng = np.random.default_rng(101)
        for reg, p in suites:
            for _ in range(100):
                beta = rng.standard_normal(p) * rng.uniform(0.5, 2.0)
                gamma = 10.0 ** rng.uniform(-1.5, 0.5)
                out = reg.prox(beta, gamma)
                subgrad = (beta - out) / gamma
                verdict = reg.ri_membership(reg.model(out), subgrad)
                assert verdict.status in ("interior", "boundary"), (
                    f"{reg.kind}: prox violates optimality, "
                    f"margin {verdict.margin:.3e}, residual {verdict.tangent_residual:.3e}"
                )
                assert verdict.tangent_residual <= 1e-6
        assert time.monotonic() - start < 30.0


def test_criterion_02_certificate_hand_examples():
    with _criterion(2, "pre-certificate matches hand-computed examples to 1e-10"):
        reg = L1()

        cert = check_model_stability(np.eye(3), np.array([1.0, -2.0, 0.0]), reg)
        assert np.max(np.abs(cert.eta - [1.0, -1.0, 0.0])) <= 1e-10
        assert abs(cert.verdict.margin - 1.0) <= 1e-10
        assert cert.verdict.status == "interior"

        gamma = np.array([[1.0, 0.5], [0.5, 1.0]])
        cert = check_model_stability(gamma, np.array([2.0, 0.0]), reg)
        assert np.max(np.abs(cert.eta - [1.0, 0.5])) <= 1e-10
        assert abs(cert.verdict.margin - 0.5) <= 1e-10

        gamma = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.6], [0.6, 0.6, 1.0]])
        cert = check_model_stability(gamma, np.array([1.0, 1.0, 0.0]), reg)
        assert np.max(np.abs(cert.eta - [1.0, 1.0, 1.2])) <= 1e-10
        assert abs(cert.verdict.margin - (-0.2)) <= 1e-10
        assert cert.verdict.status == "outside"


def test_criterion_03_solver_vs_enumeration():
    with _criterion(3, "forward-backward matches sign-pattern enumeration, p=4"):
        rng = np.random.default_rng(33)
        reg = L1()
        for _ in range(50):
            a = rng.standard_normal((16, 4))
            x0 = np.zeros(4)
            x0[rng.permutation(4)[:2]] = rng.uniform(1.0, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            y = a @ x0 + 0.1 * rng.standard_normal(16)
            gamma = a.T @ a / 16
            u = a.T @ y / 16
            mu = 10.0 ** rng.uniform(-2.0, -0.5)
            theta = CanonicalParameters(mu, u, gamma)
            res = _checked_fb(theta, reg)
            assert res.converged
            best = min(
                np.max(np.abs(res.beta - m)) for m in lasso_minimizers(mu, u, gamma)
            )
            assert best <= 1e-6


def test_criterion_04_noise_stability(monkeypatch):
    with _criterion(4, "certified design identifies the support at small noise"):
        monkeypatch.setattr(exps, "forward_backward_batch", _checked_batch)
        start = time.monotonic()
        reg = L1()
        beta0 = make_signal(SignalSpec.sparse(20, 3), reg, np.random.default_rng(7))
        x, cert, _ = find_certified_design(
            reg, np.eye(20), 200, beta0, min_margin=0.1, base_seed=0
        )
        assert cert.stable
        assert cert.verdict.margin > 0.1
        config = ExperimentConfig(
            regularizer=reg,
            design=DesignSpec.explicit(x),
            signal=SignalSpec.explicit(beta0),
            sweep_values=(1e-1, 1e-2, 1e-3, 1e-4),
            mu_rule=MuRule("proportional"),
            trials=50,
            base_seed=11,
            jobs=1,
        )
        SHARED["criterion4_config"] = config
        res = noise_stability_sweep(config)
        rates = {row.sweep_value: row.identification_rate for row in res.summary}
        # perfect identification required at the two smallest noise levels
        assert rates[1e-3] == 1.0
        assert rates[1e-4] == 1.0
        # error-to-noise ratio stays in one band across two decades of sigma
        ratios = [row.max_error_ratio for row in res.summary]
        assert max(ratios) <= 5.0 * min(ratios)
        assert time.monotonic() - start < 120.0


def test_criterion_05_consistency_in_n(monkeypatch):
    with _criterion(5, "identification rate grows with n under mu = n^-1/4"):
        monkeypatch.setattr(exps, "forward_backward_batch", _checked_batch)
        start = time.monotonic()
        config = ExperimentConfig(
            regularizer=L1(),
            design=DesignSpec.gaussian(np.eye(10), 100),
            signal=SignalSpec.sparse(10, 3),
            sweep_values=(100, 400, 1600),
            mu_rule=MuRule("power", exponent=0.25, scale=1.0),
            trials=200,
            noise_sigma=1.0,
            base_seed=23,
            jobs=1,
        )
        res = consistency_sweep(config)
        rates = [row.identification_rate for row in res.summary]
        assert rates[-1] >= 0.90
        # monotone up to a single small statistical inversion
        drops = [prev - cur for prev, cur in zip(rates, rates[1:]) if prev > cur]
        assert len(drops) <= 1
        assert all(d <= 0.02 for d in drops)
        assert time.monotonic() - start < 300.0


def test_criterion_06_sharpness_of_failure(monkeypatch):
    with _criterion(6, "uncertified construction never identifies the model"):
        monkeypatch.setattr(exps, "forward_backward_batch", _checked_batch)
        gamma = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.6], [0.6, 0.6, 1.0]])
        x = np.sqrt(3.0) * np.linalg.cholesky(gamma).T
        config = ExperimentConfig(
            regularizer=L1(),
            design=DesignSpec.explicit(x),
            signal=SignalSpec.explicit(np.array([1.0, 1.0, 0.0])),
            sweep_values=(1e-1, 1e-2, 1e-3),
            trials=50,
            noise_sigma=1e-4,
            base_seed=5,
            jobs=1,
        )
        res = sharpness_experiment(config)
        assert res.certificate.verdict.status == "outside"
        assert res.certificate.verdict.margin == pytest.approx(-0.2, abs=1e-9)
        # even the noiseless solve lands off the true model at every mu
        assert set(res.noiseless_identified.values()) == {False}
        for row in res.summary:
            assert row.identification_rate <= 0.10


def test_criterion_07_finite_identification(monkeypatch):
    with _criterion(7, "solver locks onto the true model in finitely many steps"):
        monkeypatch.setattr(exps, "forward_backward_batch", _checked_batch)
        base = SHARED.get("criterion4_config")
        assert base is not None, "criterion 4 must produce its certified design first"
        config = replace(base, sweep_values=(1e-3, 1e-4))
        res = identification_profile(config)
        assert res.profile.finite_fraction >= 0.95
        assert res.profile.post_match_fraction == 1.0


def test_criterion_08_descent_audit():
    with _criterion(8, "objective non-increasing on every audited solve"):
        # criteria 3-7 route every solve through the auditing wrapper
        assert DESCENT["solves"] >= 1000, f"only {DESCENT['solves']} solves audited"
        assert DESCENT["worst"] <= 0.0, (
            f"objective increased by {DESCENT['worst']:.3e} beyond slack"
        )


def test_criterion_09_nuclear_end_to_end(monkeypatch):
    with _criterion(9, "rank-2 recovery through the nuclear-norm pipeline"):
        monkeypatch.setattr(exps, "forward_backward_batch", _checked_batch)
        start = time.monotonic()
        reg = Nuclear((8, 8))
        beta0 = make_signal(SignalSpec.low_rank(2), reg, np.random.default_rng(13))
        x, cert, _ = find_certified_design(
            reg, np.eye(64), 220, beta0, min_margin=0.3, base_seed=0
        )
        assert cert.stable
        config = ExperimentConfig(
            regularizer=reg,
            design=DesignSpec.explicit(x),
            signal=SignalSpec.explicit(beta0),
            sweep_values=(1e-3,),
            mu_rule=MuRule("proportional"),
            trials=30,
            base_seed=17,
            jobs=1,
        )
        res = noise_stability_sweep(config)
        assert res.summary[0].identification_rate >= 0.90
        assert time.monotonic() - start < 180.0


def test_criterion_10_reductions():
    with _criterion(10, "singleton groups and identity analysis reduce to l1"):
        p = 12
        l1 = L1()
        grp = GroupL1L2([[i] for i in range(p)])
        ana = AnalysisL1(np.eye(p))
        rng = np.random.default_rng(55)
        for _ in range(100):
            beta = rng.standard_normal(p) * 2.0
            gamma = 10.0 ** rng.uniform(-1.5, 0.5)

            assert abs(grp.value(beta) - l1.value(beta)) <= 1e-12
            assert np.max(np.abs(grp.prox(beta, gamma) - l1.prox(beta, gamma))) <= 1e-12
            mg, ml = grp.model(beta), l1.model(beta)
            assert mg.descriptor.data == ml.descriptor.data
            assert subspace_distance(mg.subspace, ml.subspace) <= 1e-12
            assert np.max(np.abs(mg.model_vector - ml.model_vector)) <= 1e-12

            assert abs(ana.value(beta) - l1.value(beta)) <= 1e-12
            assert np.max(np.abs(ana.prox(beta, gamma) - l1.prox(beta, gamma))) <= 1e-6
            ma = ana.model(beta)
            support = set(ml.descriptor.data)
            assert set(ma.descriptor.data) == set(range(p)) - support
            assert subspace_distance(ma.subspace, ml.subspace) <= 1e-9
            assert np.max(np.abs(ma.model_vector - ml.model_vector)) <= 1e-9
