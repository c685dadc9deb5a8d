"""Forward-backward solver: convergence, descent, identification."""

import numpy as np
import pytest

from partlysmooth import (
    AnalysisL1,
    CanonicalParameters,
    GroupL1L2,
    L1,
    Nuclear,
    Quadratic,
    SolveOptions,
    certify_uniqueness,
    forward_backward,
    forward_backward_batch,
    same_model,
)

import oracles


def test_parameter_validation():
    with pytest.raises(ValueError):
        CanonicalParameters(-0.1, np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        CanonicalParameters(np.nan, np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        CanonicalParameters(0.1, np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        CanonicalParameters(0.1, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    assert theta.dim == 2


def energy(theta, reg, beta):
    beta = np.asarray(beta, dtype=float)
    return oracles.energy(theta, reg.value(beta), beta, theta.gamma @ beta)


def test_image_residual():
    # || Gamma Gamma^+ u - u ||, zero exactly when u is in Im(Gamma)
    def residual(theta):
        return np.linalg.norm(theta.gamma @ (theta.quad.pinv @ theta.u) - theta.u)

    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert residual(theta) == pytest.approx(0.0, abs=1e-12)
    theta = CanonicalParameters(0.1, np.array([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert residual(theta) == pytest.approx(1.0)


def test_objective_example():
    theta = CanonicalParameters(1.0, np.array([1.0, 0.0]), np.eye(2))
    assert energy(theta, L1(), [1.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        forward_backward(CanonicalParameters(0.0, np.array([1.0]), np.eye(1)), L1())


def test_objective_nonnegative_when_consistent():
    rng = np.random.default_rng(30)
    for _ in range(20):
        p = int(rng.integers(1, 8))
        x = rng.normal(size=(2 * p, p))
        gamma = x.T @ x / (2 * p)
        u = gamma @ rng.normal(size=p)  # guaranteed in the image
        theta = CanonicalParameters(float(rng.uniform(0.05, 1.0)), u, gamma)
        beta = rng.normal(size=p)
        assert energy(theta, L1(), beta) >= -1e-10


def test_identity_design_lasso():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    # unit step on the identity maps straight to the closed-form solution
    res = forward_backward(theta, L1(), SolveOptions(step=1.0))
    np.testing.assert_allclose(res.beta, [0.9, 0.0], atol=1e-12)
    assert res.converged
    assert res.iterations == 2
    assert res.identification_iter == 1
    np.testing.assert_allclose(res.objective_trace, [5.0, 0.95, 0.95], atol=1e-12)
    assert res.objective == pytest.approx(0.95)


def test_identity_design_lasso_default_step():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    res = forward_backward(theta, L1())
    assert res.step == pytest.approx(1.8)  # 0.9 * 2 / ||gamma||
    np.testing.assert_allclose(res.beta, [0.9, 0.0], atol=1e-9)
    assert res.converged


def test_warm_start_at_solution():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    res = forward_backward(theta, L1(), beta_init=[0.9, 0.0])
    assert res.converged and res.iterations == 1
    assert res.fp_residual == 0.0
    assert res.identification_iter == 0


def test_large_mu_gives_zero():
    theta = CanonicalParameters(0.35, np.array([0.3, -0.2]), np.eye(2))
    res = forward_backward(theta, L1())
    np.testing.assert_array_equal(res.beta, [0.0, 0.0])
    theta = CanonicalParameters(0.25, np.array([0.3, -0.2]), np.eye(2))
    res = forward_backward(theta, L1())
    np.testing.assert_allclose(res.beta, [0.05, 0.0], atol=1e-11)


def test_step_validation():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    for bad in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            forward_backward(theta, L1(), SolveOptions(step=bad))
    res = forward_backward(theta, L1(), SolveOptions(step=1.0))
    assert res.step == 1.0
    np.testing.assert_allclose(res.beta, [0.9, 0.0], atol=1e-9)


def test_mu_zero_rejected():
    theta = CanonicalParameters(0.0, np.array([1.0, 0.0]), np.eye(2))
    with pytest.raises(ValueError):
        forward_backward(theta, L1())


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iter=0)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolveOptions(fp_tol=bad)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolveOptions(zero_tol=bad)
    SolveOptions(zero_tol=0.0)


def test_max_iter_exhaustion_is_flagged():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(20, 5))
    gamma = x.T @ x / 20
    u = gamma @ rng.normal(size=5)
    theta = CanonicalParameters(0.01, u, gamma)
    res = forward_backward(theta, L1(), SolveOptions(max_iter=2))
    assert not res.converged
    assert res.iterations == 2
    assert res.identification_iter is None
    assert res.fp_residual > 0


def random_problem(reg, p, rng, n_factor=4):
    n = n_factor * p
    x = rng.normal(size=(n, p))
    gamma = x.T @ x / n
    beta0 = rng.normal(size=p)
    u = gamma @ beta0 + x.T @ rng.normal(size=n) * 0.05 / n
    mu = float(10 ** rng.uniform(-2, -0.5))
    return CanonicalParameters(mu, u, gamma)


def test_objective_descent_all_kinds():
    rng = np.random.default_rng(32)
    kinds = [
        (L1(), 8),
        (GroupL1L2([[0, 1, 2], [3, 4], [5, 6, 7]]), 8),
        (Nuclear((3, 3)), 9),
        (AnalysisL1(oracles.tv_operator(8)), 8),
    ]
    for reg, p in kinds:
        for _ in range(5):
            theta = random_problem(reg, p, rng)
            res = forward_backward(theta, reg)
            trace = res.objective_trace
            slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
            assert np.all(np.diff(trace) <= slack), f"ascent step for {reg.kind}"
            assert res.converged


def test_solution_satisfies_dual_certificate():
    # a posteriori optimality: the dual vector at the solve output must be
    # a valid subgradient at the solution's own model
    rng = np.random.default_rng(33)
    kinds = [
        (L1(), 8),
        (GroupL1L2([[0, 1, 2], [3, 4], [5, 6, 7]]), 8),
        (Nuclear((3, 3)), 9),
        (AnalysisL1(oracles.tv_operator(8)), 8),
    ]
    for reg, p in kinds:
        for _ in range(3):
            theta = random_problem(reg, p, rng)
            res = forward_backward(theta, reg)
            assert res.converged
            v = certify_uniqueness(theta, res.beta, reg, ri_tol=1e-5).verdict
            assert v.status in ("interior", "boundary"), (reg.kind, v)
            assert v.tangent_residual <= 1e-5


def test_matches_enumerated_lasso():
    rng = np.random.default_rng(34)
    for _ in range(12):
        p = 4
        x = rng.normal(size=(8, p))
        gamma = x.T @ x / 8
        beta0 = np.zeros(p)
        k = int(rng.integers(0, p + 1))
        if k:
            beta0[rng.choice(p, k, replace=False)] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
        w = rng.normal(size=8) * float(10 ** rng.uniform(-3, -1))
        u = x.T @ (x @ beta0 + w) / 8
        mu = float(10 ** rng.uniform(-2, -0.5))
        theta = CanonicalParameters(mu, u, gamma)
        res = forward_backward(theta, L1())
        assert res.converged
        minimizers = oracles.lasso_minimizers(mu, u, gamma)
        dist = min(np.linalg.norm(res.beta - b) for b in minimizers)
        assert dist <= 1e-6


def test_identification_iter_matches_trace():
    rng = np.random.default_rng(35)
    for _ in range(10):
        theta = random_problem(L1(), 6, rng)
        res = forward_backward(theta, L1(), SolveOptions(trace_models=True))
        assert res.converged
        trace = res.model_trace
        assert len(trace) == res.iterations + 1
        k = res.identification_iter
        assert 0 <= k <= res.iterations
        final = trace[-1]
        assert all(same_model(d, final) for d in trace[k:])
        if k > 0:
            assert not same_model(trace[k - 1], final)


def test_trace_disabled_by_default():
    theta = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    assert forward_backward(theta, L1()).model_trace is None


def test_objective_agrees_with_result():
    rng = np.random.default_rng(36)
    theta = random_problem(L1(), 5, rng)
    res = forward_backward(theta, L1())
    assert energy(theta, L1(), res.beta) == pytest.approx(res.objective, abs=1e-10)


def test_shared_quadratic(svd_calls):
    gamma = np.array([[2.0, 0.5], [0.5, 1.0]])
    quad = Quadratic(gamma)
    thetas = [CanonicalParameters(mu, np.array([1.0, -0.5]), quad) for mu in (0.3, 0.1)]
    results = []
    for theta in thetas:
        assert theta.quad is quad and theta.gamma is quad.gamma
        results.append(forward_backward(theta, L1()))
    # Gamma^+ only enters the objective, which nothing has read yet
    assert svd_calls == {"spectral_norm": 1, "pseudoinverse": 0}
    for res in results:
        assert res.objective == res.objective_trace[-1]
    assert svd_calls == {"spectral_norm": 1, "pseudoinverse": 1}
    # an array still works and prepares its own, with the same results
    own = CanonicalParameters(0.1, np.array([1.0, -0.5]), gamma)
    assert own.quad is not quad
    a, b = forward_backward(own, L1()), forward_backward(thetas[1], L1())
    assert np.array_equal(a.beta, b.beta) and np.array_equal(a.objective_trace, b.objective_trace)
    with pytest.raises(ValueError):
        CanonicalParameters(0.1, np.zeros(3), quad)
    with pytest.raises(ValueError):
        Quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_non_finite_iterate_raises():
    # a finite u whose gradient step overflows: the first iterate is infinite
    kinds = [
        (L1(), 2),
        (GroupL1L2([[0], [1]]), 2),
        (Nuclear((2, 2)), 4),
        (AnalysisL1(np.eye(2)), 2),
    ]
    for reg, p in kinds:
        u = np.zeros(p)
        u[0] = 1e308
        theta = CanonicalParameters(0.1, u, np.eye(p))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                forward_backward(theta, reg)


# ---------------------------------------------------------------------------
# the batched engine: the same bits as the one-problem reference loop

PENALTIES = [
    (L1(), 8),
    (GroupL1L2([[0, 1, 2], [3, 4], [5, 6, 7]]), 8),
    (Nuclear((3, 3)), 9),
    (AnalysisL1(oracles.tv_operator(8)), 8),
]
PENALTY_IDS = [reg.kind for reg, _ in PENALTIES]


RESULT_FIELDS = (
    "beta", "iterations", "converged", "fp_residual", "objective", "objective_trace", "step",
    "identification_iter", "model_trace",
)


def assert_same_bits(result, ref):
    """Every public SolveResult field equal, arrays bit for bit."""
    for name in RESULT_FIELDS:
        want = ref[name] if isinstance(ref, dict) else getattr(ref, name)
        got = getattr(result, name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, name
        else:
            assert got == want, name


def mixed_batch(reg, p, rng, size):
    """size problems: the first half share one Quadratic, the rest bring their own."""
    quad = Quadratic(random_problem(reg, p, rng).gamma)
    thetas = []
    for i in range(size):
        theta = random_problem(reg, p, rng)
        if i < size // 2:
            u = quad.gamma @ rng.normal(size=p)
            theta = CanonicalParameters(float(10 ** rng.uniform(-2, -0.5)), u, quad)
        thetas.append(theta)
    return thetas


@pytest.mark.parametrize("reg, p", PENALTIES, ids=PENALTY_IDS)
def test_batch_matches_scalar_loop_shared_and_stacked_gamma(reg, p):
    rng = np.random.default_rng(40)
    thetas = mixed_batch(reg, p, rng, 6)
    opts = SolveOptions()
    # the shared half alone broadcasts one Gamma; the whole batch stacks them
    for batch in (thetas[:3], thetas):
        results = forward_backward_batch(batch, reg, opts)
        assert len(results) == len(batch)
        for theta, res in zip(batch, results):
            assert res.converged
            assert_same_bits(res, oracles.forward_backward_scalar(theta, reg, opts))


@pytest.mark.parametrize("reg, p", PENALTIES, ids=PENALTY_IDS)
def test_batch_matches_scalar_loop_with_options(reg, p):
    rng = np.random.default_rng(41)
    thetas = mixed_batch(reg, p, rng, 5)
    solved = forward_backward(thetas[0], reg).beta
    # row 0 starts at its solution and leaves the batch after one step
    starts = [solved] + [rng.normal(size=p) for _ in thetas[1:]]
    # an explicit step must be stable for every problem in the batch
    step = 0.5 / max(t.quad.lip for t in thetas)
    cases = [
        (SolveOptions(max_iter=6), None),
        (SolveOptions(max_iter=6, trace_models=True), starts),
        (SolveOptions(trace_models=True), starts),
        (SolveOptions(max_iter=70), starts),  # past the trace buffer's first growth
        (SolveOptions(step=step, max_iter=25, fp_tol=1e-6), starts),
    ]
    for opts, inits in cases:
        results = forward_backward_batch(thetas, reg, opts, inits)
        for i, (theta, res) in enumerate(zip(thetas, results)):
            init = None if inits is None else inits[i]
            assert_same_bits(res, oracles.forward_backward_scalar(theta, reg, opts, init))
        if inits is not None:
            assert results[0].converged and results[0].iterations == 1
    capped = forward_backward_batch(thetas, reg, SolveOptions(max_iter=6))
    assert not any(r.converged for r in capped)
    assert all(r.iterations == 6 and r.identification_iter is None for r in capped)


def test_trial_alone_matches_trial_in_batch_of_40():
    rng = np.random.default_rng(42)
    reg = L1()
    for thetas in (mixed_batch(reg, 10, rng, 40), mixed_batch(reg, 10, rng, 80)[:40]):
        batch = forward_backward_batch(thetas, reg, SolveOptions(trace_models=True))
        assert len({r.iterations for r in batch}) > 1  # rows leave at different steps
        for i in (0, 13, 26, 39):
            alone = forward_backward(thetas[i], reg, SolveOptions(trace_models=True))
            assert_same_bits(batch[i], alone)


def test_row_dots_have_the_bits_of_a_blas_dot():
    from partlysmooth import solver

    rng = np.random.default_rng(44)
    # np.vecdot where numpy has it, the matmul form before numpy 2
    for dots in (solver._row_dots, solver._row_dots_matmul):
        for rows, p in ((1, 1), (3, 10), (40, 10), (7, 257)):
            a, b = rng.normal(size=(rows, p)), rng.normal(size=(rows, p)) * 1e3
            got = dots(a, b)
            assert got.tolist() == [x.dot(y) for x, y in zip(a, b)]


def test_batch_non_finite_row_raises():
    rng = np.random.default_rng(43)
    for reg, p in PENALTIES:
        good = random_problem(reg, p, rng)
        u = np.zeros(p)
        u[0] = 1e308
        bad = CanonicalParameters(0.1, u, np.eye(p))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                forward_backward_batch([good, bad, good], reg)


def test_batch_validation():
    a = CanonicalParameters(0.1, np.array([1.0, 0.0]), np.eye(2))
    b = CanonicalParameters(0.1, np.array([1.0, 0.0, 0.5]), np.eye(3))
    assert forward_backward_batch([], L1()) == []
    with pytest.raises(ValueError):
        forward_backward_batch([a, b], L1())  # dimensions differ
    with pytest.raises(ValueError):
        forward_backward_batch([a, a], L1(), beta_init=[[0.0, 0.0]])  # one start for two
    with pytest.raises(ValueError):
        forward_backward_batch([a], L1(), beta_init=[[0.0, 0.0, 0.0]])  # wrong length
    with pytest.raises(ValueError):
        forward_backward_batch([a, CanonicalParameters(0.0, a.u, np.eye(2))], L1())  # mu = 0
