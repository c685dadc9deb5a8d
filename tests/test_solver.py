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
    theta = CanonicalParameters(0.1, [1, 0], np.eye(2))
    assert theta.u.dtype == float and theta.u.shape == (2,) and theta.quad.dim == 2


def _message(fn, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return str(info.value)


def test_stacked_parameters_check_as_the_constructor_does():
    gammas = np.stack([np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])])
    u = np.array([[1.0, 0.0], [0.5, -0.5]])
    for mu in (0.1, [0.1, 0.2]):
        batch = forward_backward_batch(mu, u, gammas, L1())
        for row, res in enumerate(batch):
            alone = forward_backward(
                CanonicalParameters(np.broadcast_to(mu, 2)[row], u[row], gammas[row]), L1()
            )
            assert_same_bits(res, alone)
    nan_u = u.copy()
    nan_u[1, 0] = np.nan
    asym = gammas.copy()
    asym[1, 0, 1] = 0.7
    inf_gamma = gammas.copy()
    inf_gamma[0, 1, 1] = np.inf
    for mu, us, gs in ((-0.1, u, gammas), (np.nan, u, gammas), (0.1, nan_u, gammas),
                       (0.1, u, asym), (0.1, u, inf_gamma), (0.1, u, np.stack([np.eye(3)] * 2)),
                       ([0.1, -0.1], u, gammas), (0.1, u, Quadratic(np.eye(3)))):
        row = 1 if gs is asym or us is nan_u or np.ndim(mu) else 0
        one_mu = np.broadcast_to(mu, 2)[row]
        one_gamma = gs if isinstance(gs, Quadratic) else gs[row]
        assert _message(forward_backward_batch, mu, us, gs, L1()) == _message(
            CanonicalParameters, one_mu, us[row], one_gamma
        )
    # what only a batch can get wrong: its row count
    assert _message(forward_backward_batch, 0.1, u, np.stack([np.eye(2)] * 3), L1()) == (
        "u and gamma dimensions differ")
    assert _message(forward_backward_batch, [0.1] * 3, u, gammas, L1()) == (
        "mu must be one value or one per problem, got shape (3,)")


def test_batch_refuses_a_row_as_that_problem_alone():
    rng = np.random.default_rng(45)
    good = [random_problem(L1(), 4, rng) for _ in range(3)]
    mu, u, gammas = (np.array([getattr(t, name) for t in good]) for name in ("mu", "u", "gamma"))
    zero_mu = CanonicalParameters(0.0, good[1].u, good[1].gamma)
    # mu = 0 in the middle of a batch, with shared and stacked Gammas
    refused = "forward-backward needs mu > 0, got 0.0"
    assert _message(forward_backward, zero_mu, L1()) == refused
    zeroed = mu.copy()
    zeroed[1] = 0.0
    for gamma in (gammas, good[1].quad):
        assert _message(forward_backward_batch, zeroed, u, gamma, L1()) == refused
    # an explicit step stable for every row but the one with the largest ||Gamma||
    lips = [t.quad.norm for t in good]
    worst = int(np.argmax(lips))
    limit = 2.0 / lips[worst]
    opts = SolveOptions(step=limit)
    assert limit < min(2.0 / lip for i, lip in enumerate(lips) if i != worst)
    refused = f"step {limit} outside the stable range (0, {limit})"
    assert _message(forward_backward, good[worst], L1(), opts) == refused
    assert _message(forward_backward_batch, mu, u, gammas, L1(), opts) == refused
    # with Gamma = 0 every positive step is stable
    flat = CanonicalParameters(0.1, np.zeros(4), np.zeros((4, 4)))
    assert _message(forward_backward, flat, L1(), SolveOptions(step=-1.0)) == (
        "step -1.0 outside the stable range (0, inf)")
    # a prox weight tau * mu that overflows
    huge = CanonicalParameters(1e308, good[2].u, 1e-3 * good[2].gamma)
    assert "prox weight" in _message(forward_backward, huge, L1())
    assert _message(
        forward_backward_batch, [good[0].mu, huge.mu], np.stack([good[0].u, huge.u]),
        np.stack([good[0].gamma, huge.gamma]), L1(),
    ) == _message(forward_backward, huge, L1())


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
    assert SolveOptions(max_iter=np.int64(5)).max_iter == 5
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolveOptions(fp_tol=bad)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolveOptions(zero_tol=bad)
    SolveOptions(zero_tol=0.0)


@pytest.mark.parametrize("bad", [2.5, True, 3.0, np.True_])
def test_max_iter_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolveOptions(max_iter=bad)


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


def sparse_lasso_batch(rng, size, p):
    """(mu, u, gammas) of size lasso problems of dimension p: sparse beta0, small noise."""
    mu, u, gammas = np.empty(size), np.empty((size, p)), np.empty((size, p, p))
    for i in range(size):
        x = rng.normal(size=(2 * p, p))
        beta0 = np.zeros(p)
        k = int(rng.integers(1, p + 1))
        beta0[rng.choice(p, k, replace=False)] = rng.uniform(1, 2, k) * rng.choice([-1, 1], k)
        y = x @ beta0 + rng.normal(size=2 * p) * 0.1
        mu[i], u[i], gammas[i] = 10 ** rng.uniform(-2, -0.5), x.T @ y / (2 * p), x.T @ x / (2 * p)
    return mu, u, gammas


def stopped_rows(results, opts=SolveOptions()):
    """The rows that left at a certified minimizer, far from the fixed-point rule."""
    limit = [1e3 * opts.fp_tol * max(1.0, np.linalg.norm(beta)) for beta in results.beta]
    return [i for i, res in enumerate(results) if res.converged and res.fp_residual > limit[i]]


@pytest.mark.parametrize("p", [2, 4, 6])
def test_stopped_rows_are_the_lasso_minimizers(p):
    rng = np.random.default_rng(50 + p)
    mu, u, gammas = sparse_lasso_batch(rng, 12, p)
    results = forward_backward_batch(mu, u, gammas, L1())
    stopped = stopped_rows(results)
    assert len(stopped) >= 9
    for i in stopped:
        [minimizer] = oracles.lasso_minimizers(mu[i], u[i], gammas[i])
        np.testing.assert_allclose(results.beta[i], minimizer, rtol=1e-10, atol=1e-12)
        assert results[i].model == oracles.descriptor(L1(), minimizer, SolveOptions().zero_tol)


def test_a_polished_objective_is_at_most_the_last_iterates():
    # the polished point is the minimizer of E, so no iterate before it is lower
    rng = np.random.default_rng(56)
    mu, u, gammas = sparse_lasso_batch(rng, 40, 5)
    results = forward_backward_batch(mu, u, gammas, L1())
    stopped = stopped_rows(results)
    assert len(stopped) >= 30
    for i in stopped:
        trace = results[i].objective_trace
        assert trace[-1] <= trace[-2] and trace[-1] == trace.min()


def _dual_margin_row(factor):
    """l1 on Gamma = I with the minimizer (0.9, 0) and |eta| = 1 - factor * delta off it.

    delta is the margin the stop's certificate demands at its check, step 2,
    the first step after which the support {0} has held for one step:
    (zero_tol + fp threshold) / (tau mu).  Returns the problem and delta.
    """
    mu, opts = 0.1, SolveOptions()
    theta = CanonicalParameters(mu, np.array([1.0, 0.0]), np.eye(2))
    first = forward_backward(theta, L1(), SolveOptions(max_iter=1))
    threshold = opts.fp_tol * max(1.0, np.linalg.norm(first.beta))
    delta = (opts.zero_tol + threshold) / (first.step * mu)
    return CanonicalParameters(mu, np.array([1.0, mu * (1 - factor * delta)]), np.eye(2)), delta


def test_a_row_whose_dual_margin_is_within_delta_of_one_keeps_iterating():
    clear, delta = _dual_margin_row(2.0)
    near, _ = _dual_margin_row(0.5)
    assert 1e-8 < delta < 1e-6
    res = forward_backward(clear, L1())
    assert res.converged and res.iterations == 2 and res.beta.tolist() == [0.9, 0.0]
    # |eta| < 1 still, so the near row has the same minimizer, but only the
    # fixed-point rule stops it
    res = forward_backward(near, L1())
    assert res.converged and res.iterations > 50 and res.identification_iter == 1
    assert res.fp_residual <= SolveOptions().fp_tol
    np.testing.assert_allclose(res.beta, [0.9, 0.0], atol=1e-9)


def test_a_row_whose_polished_signs_flip_keeps_iterating():
    # both coordinates enter positive at step 1 and keep their signs at step
    # 2, but the minimizer on that support with those signs has a negative
    # second coordinate; the row goes on to the minimizer (0.95, 0)
    gamma = np.array([[1.0, 0.9], [0.9, 1.0]])
    theta = CanonicalParameters(0.05, np.array([1.0, 0.85]), gamma)
    for k in (1, 2):
        early = forward_backward(theta, L1(), SolveOptions(max_iter=k))
        assert not early.converged and (early.beta > 0).all()
    assert (np.linalg.solve(gamma, theta.u - theta.mu) < 0).any()
    res = forward_backward(theta, L1())
    assert res.converged and res.iterations > 2 and res.model.data == (0,)
    [minimizer] = oracles.lasso_minimizers(theta.mu, theta.u, gamma)
    np.testing.assert_allclose(res.beta, minimizer, rtol=1e-12)


def test_a_singular_restricted_gamma_leaves_its_stack_neighbour_alone():
    # both rows are checked at step 2 on a support of size 2, in one stacked
    # solve; row 1's Gamma_SS is singular, so its minimizer is not unique
    # and it goes on to the fixed-point rule, while row 0 stops as alone
    gammas = np.array([[[1.0, 0.2], [0.2, 1.0]], np.ones((2, 2))])
    u = np.array([[1.0, 0.9], [1.0, 1.0]])
    results = forward_backward_batch(0.05, u, gammas, L1())
    assert results.iterations[0] == 2 and results.iterations[1] > 2
    assert results.converged.all() and results.fp_residual[1] <= SolveOptions().fp_tol
    for row, res in enumerate(results):
        alone = forward_backward(CanonicalParameters(0.05, u[row], gammas[row]), L1())
        assert_same_bits(res, alone)


def test_other_penalties_have_no_certificate():
    rng = np.random.default_rng(57)
    for reg, p in PENALTIES[1:]:
        beta = rng.normal(size=(3, p))
        assert reg.certified_minimizers(
            beta, reg.model_keys(beta, 1e-8), beta, np.ones(3), np.eye(p), np.ones(3), 1e-8
        ) is None


def test_identification_iter_matches_trace():
    # the reference loop's descriptor of every iterate
    rng = np.random.default_rng(35)
    for _ in range(10):
        theta = random_problem(L1(), 6, rng)
        res = forward_backward(theta, L1())
        assert res.converged
        trace = oracles.forward_backward_scalar(theta, L1(), SolveOptions())["models"]
        assert len(trace) == res.iterations + 1
        k = res.identification_iter
        assert 0 <= k <= res.iterations
        assert res.model == trace[-1]
        assert all(d == res.model for d in trace[k:])
        if k > 0:
            assert trace[k - 1] != res.model


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
    assert svd_calls == {"spectral_norms": 1, "pseudoinverse": 0}
    for res in results:
        assert res.objective == res.objective_trace[-1]
    assert svd_calls == {"spectral_norms": 1, "pseudoinverse": 1}
    # a batch on the same Quadratic reads every objective at no further SVD
    batch = forward_backward_batch([0.3, 0.1], np.array([[1.0, -0.5]] * 2), quad, L1())
    for res, alone in zip(batch, results, strict=True):
        assert np.array_equal(res.objective_trace, alone.objective_trace)
    assert svd_calls == {"spectral_norms": 1, "pseudoinverse": 1}
    # an array still works and prepares its own, with the same results
    own = CanonicalParameters(0.1, np.array([1.0, -0.5]), gamma)
    assert own.quad is not quad
    a, b = forward_backward(own, L1()), forward_backward(thetas[1], L1())
    assert np.array_equal(a.beta, b.beta) and np.array_equal(a.objective_trace, b.objective_trace)
    with pytest.raises(ValueError):
        CanonicalParameters(0.1, np.zeros(3), quad)
    with pytest.raises(ValueError):
        Quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_batch_norms_in_one_stacked_call(svd_calls):
    rng = np.random.default_rng(8)
    gammas = np.array([a @ a.T / 5 for a in rng.normal(size=(5, 4, 5))])
    u = rng.normal(size=(5, 4))
    # a stack's norms: one call for all five
    results = forward_backward_batch(0.2, u, gammas, L1())
    assert svd_calls == {"spectral_norms": 1, "pseudoinverse": 0}
    # one eigenvalue solve each
    assert results.step.tolist() == [1.8 / np.abs(np.linalg.eigvalsh(g)).max() for g in gammas]
    for row, res in enumerate(results):
        alone = forward_backward(CanonicalParameters(0.2, u[row], gammas[row]), L1())
        assert res.step == alone.step and np.array_equal(res.beta, alone.beta)
    # a shared Quadratic's norm: computed by its first batch, kept for the next
    quad = Quadratic(gammas[1])
    svd_calls.update(spectral_norms=0)
    for _ in range(2):
        shared = forward_backward_batch(0.2, u, quad, L1())
        assert svd_calls == {"spectral_norms": 1, "pseudoinverse": 0}
        assert shared.step.tolist() == [results.step[1]] * 5


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
    "identification_iter", "model",
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


def batch_problems(reg, p, rng, size):
    """(mu, u, gammas) of size problems: the first half share one Gamma, the rest bring their own."""
    shared = random_problem(reg, p, rng).gamma
    mu, u, gammas = np.empty(size), np.empty((size, p)), np.empty((size, p, p))
    for i in range(size):
        theta = random_problem(reg, p, rng)
        mu[i], u[i], gammas[i] = theta.mu, theta.u, theta.gamma
        if i < size // 2:
            mu[i], u[i], gammas[i] = 10 ** rng.uniform(-2, -0.5), shared @ rng.normal(size=p), shared
    return mu, u, gammas


def problems(mu, u, gammas):
    """The batch's rows as one-problem parameters."""
    return [CanonicalParameters(*row) for row in zip(mu, u, gammas)]


@pytest.mark.parametrize("reg, p", PENALTIES, ids=PENALTY_IDS)
def test_batch_matches_scalar_loop_shared_and_stacked_gamma(reg, p):
    rng = np.random.default_rng(40)
    mu, u, gammas = batch_problems(reg, p, rng, 6)
    opts = SolveOptions()
    # the shared half on one Quadratic, the same problems with their Gammas
    # stacked, and the whole batch with its own Gammas stacked
    shared = forward_backward_batch(mu[:3], u[:3], Quadratic(gammas[0]), reg, opts)
    stacked = forward_backward_batch(mu[:3], u[:3], gammas[:3], reg, opts)
    for res, twin in zip(shared, stacked, strict=True):
        assert_same_bits(res, twin)
    for size, results in ((3, shared), (6, forward_backward_batch(mu, u, gammas, reg, opts))):
        assert len(results) == size
        for theta, res in zip(problems(mu, u, gammas), results):
            assert res.converged
            assert_same_bits(res, oracles.forward_backward_scalar(theta, reg, opts))
        # a negative index counts from the end, and one past the last row is refused
        for i in range(1, size + 1):
            assert_same_bits(results[-i], results[size - i])
        with pytest.raises(IndexError):
            results[size]


@pytest.mark.parametrize("reg, p", PENALTIES, ids=PENALTY_IDS)
def test_batch_matches_scalar_loop_with_options(reg, p):
    rng = np.random.default_rng(41)
    # row 0 has the solution 0 on Gamma = I: u = c (e_0 - e_1) lies within
    # mu times the unit ball of each penalty's dual norm, so its iterates
    # keep the zero start's model.  With an exact prox the first step lands
    # on 0 and the row leaves the batch after it; the iterative analysis
    # prox lands within 1e-8 of 0 and needs a second step.
    zero_u = np.zeros(p)
    zero_u[:2] = 0.3, -0.3
    mu, u, gammas = batch_problems(reg, p, rng, 5)
    mu, u, gammas = np.r_[0.6, mu], np.vstack([zero_u, u]), np.concatenate([np.eye(p)[None], gammas])
    # an explicit step must be stable for every problem in the batch
    step = 0.5 / max(np.linalg.norm(g, 2) for g in gammas)
    # an l1 row can stop at a certified minimizer from step 2 on
    short = 1 if reg.kind == "l1" else 6
    cases = [
        SolveOptions(max_iter=short),
        SolveOptions(max_iter=6),
        SolveOptions(),
        SolveOptions(max_iter=70),  # past the trace buffer's first growth
        SolveOptions(step=step, max_iter=25, fp_tol=1e-6),
    ]
    for opts in cases:
        results = forward_backward_batch(mu, u, gammas, reg, opts)
        for theta, res in zip(problems(mu, u, gammas), results):
            assert_same_bits(res, oracles.forward_backward_scalar(theta, reg, opts))
        zero = results[0]
        assert zero.converged and zero.identification_iter == 0
        if reg.kind != "analysis_l1":
            assert zero.iterations == 1 and not zero.beta.any()
        if opts.max_iter == short:  # the other rows are still in the batch when it ends
            rest = list(results)[1:]
            assert not any(r.converged for r in rest)
            assert all(r.iterations == short and r.identification_iter is None for r in rest)


def test_trial_alone_matches_trial_in_batch_of_40():
    rng = np.random.default_rng(42)
    reg = L1()
    first = batch_problems(reg, 10, rng, 40)
    second = [a[:40] for a in batch_problems(reg, 10, rng, 80)]
    for mu, u, gammas in (first, second):
        batch = forward_backward_batch(mu, u, gammas, reg)
        assert len({r.iterations for r in batch}) > 1  # rows leave at different steps
        for i in (0, 13, 26, 39):
            alone = forward_backward(CanonicalParameters(mu[i], u[i], gammas[i]), reg)
            assert_same_bits(batch[i], alone)


def test_batch_non_finite_row_raises():
    rng = np.random.default_rng(43)
    for reg, p in PENALTIES:
        good = random_problem(reg, p, rng)
        u = np.zeros(p)
        u[0] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                forward_backward_batch(
                    [good.mu, 0.1, good.mu], np.stack([good.u, u, good.u]),
                    np.stack([good.gamma, np.eye(p), good.gamma]), reg,
                )


def test_batch_validation():
    u = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        forward_backward_batch(0.1, np.zeros((0, 2)), np.zeros((0, 2, 2)), L1())
    with pytest.raises(ValueError):
        forward_backward_batch(0.1, u, np.eye(2)[None, :1], L1())  # dimensions differ
    with pytest.raises(ValueError):
        forward_backward_batch(0.1, u[0], Quadratic(np.eye(2)), L1())  # u is not a stack
    with pytest.raises(ValueError):
        forward_backward_batch(0.1, u, np.eye(2), L1())  # an array Gamma is a stack
    with pytest.raises(ValueError):
        forward_backward_batch([0.1, 0.0], np.vstack([u, u]), Quadratic(np.eye(2)), L1())  # mu = 0
