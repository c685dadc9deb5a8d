"""Instance generation: designs, signals, noise, canonical parameters."""

import numpy as np
import pytest

from partlysmooth import (
    AnalysisL1,
    CanonicalParameters,
    DesignSpec,
    GroupL1L2,
    L1,
    Nuclear,
    SignalSpec,
    SolveOptions,
    Subspace,
    check_model_stability,
    forward_backward,
    forward_backward_batch,
    load_matrix_csv,
    make_design,
    make_signal,
)
from partlysmooth.experiments import _Shared
from partlysmooth.config import ConfigError, solve_from_config
from partlysmooth.problems import draw_trials
from partlysmooth.solver import Quadratic

import oracles


def generated(p, n, support, sigma, seed, lam=3.0):
    """A solve file generating a sparse l1 instance on n identity-covariance rows."""
    return {
        "regularizer": {"kind": "l1"},
        "design": {"kind": "gaussian_rows", "identity_dim": p, "n": n},
        "signal": {"kind": "sparse", "p": p, "support_size": support},
        "noise_sigma": sigma,
        "seed": seed,
        "lambda": lam,
    }


def solved_theta(cfg, seed=None):
    """(theta, beta0) that solve_from_config builds from the file."""
    _, theta, _, _, beta0 = solve_from_config(cfg, seed=seed)
    return theta, beta0


def same_bits(a, b):
    return a.mu == b.mu and all(
        x.tobytes() == y.tobytes() for x, y in ((a.u, b.u), (a.gamma, b.gamma))
    )


def test_same_seed_reproduces_bitwise():
    a, beta_a = solved_theta(generated(6, 40, 2, 0.1, 123))
    b, beta_b = solved_theta(generated(6, 40, 2, 0.1, 123))
    assert same_bits(a, b) and beta_a.tobytes() == beta_b.tobytes()
    # the seed argument overrides the file's
    c, _ = solved_theta(generated(6, 40, 2, 0.1, 0), seed=123)
    assert same_bits(a, c)
    d, _ = solved_theta(generated(6, 40, 2, 0.1, 124))
    assert not np.array_equal(a.gamma, d.gamma)


def test_instance_consistency():
    # design, then signal, then noise from one generator, as the oracle draws them
    theta, beta0 = solved_theta(generated(5, 30, 2, 0.3, 7))
    signal = SignalSpec(kind="sparse", p=5, support_size=2)
    inst = oracles.generate_instance(DesignSpec.gaussian(np.eye(5), 30), signal, 0.3, 7, L1())
    assert same_bits(theta, oracles.canonical_parameters(inst, 3.0))
    assert beta0.tobytes() == inst.beta0.tobytes()
    assert theta.mu == pytest.approx(0.1)
    # eps = u - Gamma beta0 is exactly the correlated noise
    eps = theta.u - theta.gamma @ beta0
    np.testing.assert_allclose(eps, inst.x.T @ inst.w / inst.n, atol=1e-12)
    # u lies in the image of Gamma by construction, even when n < p
    wide, _ = solved_theta(generated(10, 4, 2, 0.5, 3, lam=1.0))
    assert np.linalg.norm(wide.gamma @ (wide.quad.pinv @ wide.u) - wide.u) < 1e-10


def test_canonical_parameters_reuse_a_prepared_gamma():
    # every draw on one explicit design shares the design's one Quadratic,
    # whose Gamma has the bits of X^T X / n
    x = np.random.default_rng(8).normal(size=(30, 5))
    design = DesignSpec.explicit(x)
    beta0 = np.array([1.0, 0.0, -2.0, 0.0, 0.5])
    first = draw_trials(design, beta0, 0.3, 0.1, [7, 8])
    second = draw_trials(design, beta0, 0.3, 0.1, [9])
    assert first.gamma is second.gamma is design.quad
    assert design.quad.gamma.tobytes() == (x.T @ x / 30).tobytes()


def test_gaussian_sweep_factors_the_covariance_once(monkeypatch):
    from partlysmooth import ExperimentConfig, MuRule, consistency_sweep

    real = np.linalg.eigh
    calls = []

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    # the design's root is the one factorization, shared by every sample size
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]])
    config = ExperimentConfig(
        regularizer=L1(),
        design=DesignSpec.gaussian(cov, 20),
        signal=SignalSpec(kind="sparse", p=3, support_size=1),
        sweep_values=(30, 40, 50),
        mu_rule=MuRule("power"),
        trials=12,
        noise_sigma=0.5,
        jobs=1,
    )
    res = consistency_sweep(config)
    assert len(res.trials) == 36 and len(calls) == 1
    assert res.trials.array("n").tolist() == [30] * 12 + [40] * 12 + [50] * 12
    # the stored root draws the bits a fresh factorization would
    spec = DesignSpec.gaussian(cov, 30)
    vals, vecs = real(cov)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    fresh = np.random.default_rng(9).standard_normal((30, 3)) @ root.T
    assert make_design(spec, np.random.default_rng(9)).tobytes() == fresh.tobytes()
    assert not spec.root.flags.writeable


def test_noiseless_instance():
    theta, beta0 = solved_theta(generated(4, 10, 1, 0.0, 5))
    x = make_design(DesignSpec.gaussian(np.eye(4), 10), np.random.default_rng(5))
    # y = X beta0 exactly, so u is X^T X beta0 / n
    assert theta.u.tobytes() == (x.T @ (x @ beta0) / 10).tobytes()


def test_canonical_parameters_example():
    x = np.diag([1.0, 2.0])
    xy = {"regularizer": {"kind": "l1"}, "x": x.tolist(), "y": [1.0, 2.0], "lambda": 0.5}
    drawn = {"regularizer": {"kind": "l1"}, "design": {"kind": "explicit", "matrix": x.tolist()},
             "signal": {"kind": "explicit", "beta0": [1.0, 1.0]}, "noise_sigma": 0.0, "lambda": 0.5}
    for cfg in (xy, drawn):
        theta, _ = solved_theta(cfg)
        assert theta.mu == pytest.approx(0.25)
        np.testing.assert_allclose(theta.u, [0.5, 2.0])
        np.testing.assert_allclose(theta.gamma, np.diag([0.5, 2.0]))


def test_validation():
    for key, bad, want in (("noise_sigma", -0.1, "a finite number >= 0"),
                           ("lambda", -1.0, "> 0"), ("lambda", 0, "> 0")):
        cfg = generated(3, 5, 1, 0.1, 0)
        cfg[key] = bad
        with pytest.raises(ConfigError, match=f"{key} must be {want}, got {bad}$"):
            solve_from_config(cfg)
    cfg = generated(3, 5, 1, 0.1, 0)
    cfg["signal"] = {"kind": "explicit", "beta0": [1.0] * 4}
    with pytest.raises(ConfigError) as info:
        solve_from_config(cfg)
    assert str(info.value) == "design has p=3 columns but the signal has length 4"


# the per-task draw of the sweeps against the one-trial reference

BETA0 = np.array([1.5, 0.0, -2.0, 0.0, 0.7])
COV = np.array([[1.0, 0.3, 0.0, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0, 0.0], [0.0, 0.2, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0, 0.4], [0.1, 0.0, 0.0, 0.4, 1.0]])
DRAW_DESIGNS = {
    "explicit": DesignSpec.explicit(np.random.default_rng(8).normal(size=(37, 5))),
    "gaussian_rows": DesignSpec.gaussian(COV, 23),
    # n < p: Gamma has rank 3, B is a 3 x 5 trapezoid
    "gaussian_rows_wide": DesignSpec.gaussian(COV, 3),
}


def reference_trial(design, sigma, mu, seed):
    """(theta, ||X^T w / n||) of one trial, drawn and computed one object at a time.

    An explicit design's trial is the draw of oracles.explicit_trial, a
    gaussian_rows trial the Wishart draw of oracles.wishart_trial.
    """
    if design.kind == "gaussian_rows":
        n = design.n
        gamma, u, eps = oracles.wishart_trial(design, BETA0, sigma, seed)
    else:
        n = design.matrix.shape[0]
        gamma, u, eps = oracles.explicit_trial(design, BETA0, sigma, seed)
    # mu = lambda / n with lambda = mu * n, as the sweep forms it
    theta = CanonicalParameters(mu=mu * n / n, u=u, gamma=gamma)
    return theta, float(np.linalg.norm(eps))


@pytest.mark.parametrize("kind", DRAW_DESIGNS)
@pytest.mark.parametrize("count", [1, 40])
@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_draw_trials_has_the_bits_of_one_trial_at_a_time(kind, count, sigma):
    design = DRAW_DESIGNS[kind]
    seeds = list(range(101, 101 + count))
    draws = draw_trials(design, BETA0, sigma, 0.3, seeds)
    assert draws.u.shape == (count, 5) and len(draws.eps_norms) == count
    # an explicit design's trials share one Quadratic, a fresh design's come as a stack
    shared = design.kind == "explicit"
    assert isinstance(draws.gamma, Quadratic) == shared
    for k, (seed, eps_norm) in enumerate(zip(seeds, draws.eps_norms.tolist())):
        want, want_eps = reference_trial(design, sigma, 0.3, seed)
        assert draws.mu == want.mu
        assert draws.u[k].tobytes() == want.u.tobytes()
        gamma = draws.gamma.gamma if shared else draws.gamma[k]
        assert gamma.tobytes() == want.gamma.tobytes()
        assert eps_norm == want_eps


TOEPLITZ = 0.5 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))


@pytest.mark.parametrize("n", [50, 3])
def test_fresh_designs_have_the_wishart_moments(n):
    # Gamma = X^T X / n is Wishart: entries with mean Sigma_ij and variance
    # (Sigma_ij^2 + Sigma_ii Sigma_jj) / n, for n > p and for n < p alike;
    # eps = u - Gamma beta0 has covariance sigma^2 Sigma / n.  Each sample
    # moment must lie within 4 standard errors, at a fixed seed.
    count, sigma, beta0 = 10000, 0.8, np.array([1.0, -2.0, 0.0, 0.5])
    draws = draw_trials(DesignSpec.gaussian(TOEPLITZ, n), beta0, sigma, 0.1, range(count))
    gamma = draws.gamma
    var = (TOEPLITZ ** 2 + np.outer(np.diag(TOEPLITZ), np.diag(TOEPLITZ))) / n
    assert np.all(np.abs(gamma.mean(0) - TOEPLITZ) <= 4 * np.sqrt(var / count))
    squares = (gamma - gamma.mean(0)) ** 2
    assert np.all(np.abs(squares.mean(0) - var) <= 4 * squares.std(0) / np.sqrt(count))
    eps = draws.u - np.matmul(gamma, beta0)
    products = eps[:, :, None] * eps[:, None, :]
    assert np.all(np.abs(products.mean(0) - sigma ** 2 * TOEPLITZ / n)
                  <= 4 * products.std(0) / np.sqrt(count))


@pytest.mark.parametrize("n", [40, 3])
def test_explicit_designs_have_the_noise_moments(n):
    # eps = X^T w / n for w ~ N(0, sigma^2 I_n) has mean 0 and covariance
    # sigma^2 X^T X / n^2, here against X itself, not the design's root or
    # the oracle; for n < p as well.  Each sample moment must lie within 4
    # standard errors, at a fixed seed.
    x = np.random.default_rng(6).normal(size=(n, 4)) @ TOEPLITZ
    count, sigma, beta0 = 10000, 0.8, np.array([1.0, -2.0, 0.0, 0.5])
    draws = draw_trials(DesignSpec.explicit(x), beta0, sigma, 0.1, range(count))
    eps = draws.u - draws.gamma.gamma @ beta0
    assert np.all(np.abs(eps.mean(0)) <= 4 * eps.std(0) / np.sqrt(count))
    products = eps[:, :, None] * eps[:, None, :]
    assert np.all(np.abs(products.mean(0) - sigma ** 2 * x.T @ x / n ** 2)
                  <= 4 * products.std(0) / np.sqrt(count))


@pytest.mark.parametrize("n", [50, 3, 4])
def test_fresh_gamma_is_symmetric_with_rank_min_n_p(n):
    draws = draw_trials(DesignSpec.gaussian(TOEPLITZ, n), np.ones(4), 0.5, 0.1, range(30))
    gamma = draws.gamma
    assert gamma.tobytes() == np.ascontiguousarray(gamma.transpose(0, 2, 1)).tobytes()
    assert [np.linalg.matrix_rank(g) for g in gamma] == [min(n, 4)] * 30
    # noiseless: eps is exactly 0 and u exactly Gamma beta0
    quiet = draw_trials(DesignSpec.gaussian(TOEPLITZ, n), np.ones(4), 0.0, 0.1, range(30))
    assert quiet.gamma.tobytes() == gamma.tobytes()
    assert not quiet.eps_norms.any()
    assert quiet.u.tobytes() == np.matmul(gamma, np.ones(4)).tobytes()


def test_draw_trials_refuses_what_one_trial_refuses():
    def message(*args):
        with pytest.raises(ValueError) as info:
            draw_trials(*args)
        return str(info.value)

    for design in DRAW_DESIGNS.values():
        n = design.matrix.shape[0] if design.kind == "explicit" else design.n
        assert message(design, BETA0, -0.1, 0.3, [4]) == "noise_sigma must be >= 0, got -0.1"
        # NaN passes every comparison, so a non-finite value is refused by name
        assert message(design, BETA0, np.nan, 0.3, [4]) == "noise_sigma must be finite, got nan"
        assert message(design, BETA0, np.inf, 0.3, [4]) == "noise_sigma must be finite, got inf"
        assert message(design, BETA0, 0.1, np.nan, [4]) == "mu must be finite, got nan"
        assert message(design, BETA0, 0.1, np.inf, [4]) == "mu must be finite, got inf"
        assert message(design, BETA0[:4], 0.1, 0.3, [4]) == (
            "design has p=5 columns but the signal has length 4")
        # lambda = mu * n
        assert message(design, BETA0, 0.1, -0.5, [4]) == f"lambda must be >= 0, got {-0.5 * n}"
    # an explicit design has its own n; a fresh one takes any n >= 1
    assert message(DRAW_DESIGNS["explicit"], BETA0, 0.1, 0.3, [4], 36) == (
        "the explicit design has n=37 rows, got n=36")
    assert message(DRAW_DESIGNS["gaussian_rows"], BETA0, 0.1, 0.3, [4], 0) == (
        "n must be >= 1, got 0")
    assert message(DRAW_DESIGNS["gaussian_rows"], BETA0, 0.1, 0.3, [4], 2.0) == (
        "n must be an integer, got 2.0")


@pytest.mark.parametrize("n", [3, 40])
def test_draw_trials_at_another_n_draws_the_design_of_that_n(n):
    # n in place of design.n gives the bits of the design built with that n
    given = draw_trials(DRAW_DESIGNS["gaussian_rows"], BETA0, 0.7, 0.3, [5, 6], n)
    built = draw_trials(DesignSpec.gaussian(COV, n), BETA0, 0.7, 0.3, [5, 6])
    assert given.mu == built.mu and given.eps_norms.tobytes() == built.eps_norms.tobytes()
    assert given.u.tobytes() == built.u.tobytes() and given.gamma.tobytes() == built.gamma.tobytes()


class TestDesigns:
    def test_explicit_is_read_only_copy(self):
        # the spec copies its matrix once; every draw shares that copy, and
        # writing to it is refused
        m = np.eye(3)
        spec = DesignSpec.explicit(m)
        m[0, 0] = 99.0
        out = make_design(spec, np.random.default_rng(0))
        assert out is spec.matrix and out[0, 0] == 1.0
        with pytest.raises(ValueError):
            out[0, 0] = 99.0
        assert spec.matrix[0, 0] == 1.0

    def test_explicit_needs_matrix(self):
        with pytest.raises(ValueError):
            DesignSpec(kind="explicit")
        with pytest.raises(ValueError):
            DesignSpec(kind="diagonal")

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            DesignSpec.gaussian(np.diag([1.0, -1.0]), 10)
        with pytest.raises(ValueError):
            DesignSpec.gaussian(np.eye(2), 0)
        spec = DesignSpec.gaussian(np.eye(2), 10)
        assert spec.covariance.shape == (2, 2)

    def test_gaussian_n_must_be_an_integer(self):
        # a fraction or a bool is refused, not truncated
        for n in (2.5, True):
            with pytest.raises(ValueError, match="n must be an integer"):
                DesignSpec.gaussian(np.eye(3), n)
        assert DesignSpec.gaussian(np.eye(3), np.int16(4)).n == 4

    def test_gaussian_covariance_shaping(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        x = make_design(DesignSpec.gaussian(cov, 200000), np.random.default_rng(1))
        emp = x.T @ x / x.shape[0]
        np.testing.assert_allclose(emp, cov, atol=0.03)

    def test_empirical_covariance_converges(self):
        # median spectral error should drop roughly like 1/sqrt(n)
        cov = np.eye(4)
        errs = {}
        for n in (200, 3200):
            draws = []
            for seed in range(20):
                x = make_design(DesignSpec.gaussian(cov, n), np.random.default_rng(seed))
                draws.append(np.linalg.norm(x.T @ x / n - cov, 2))
            errs[n] = np.median(draws)
        ratio = errs[200] / errs[3200]
        assert 2.0 < ratio < 8.0  # sqrt(16) = 4 up to sampling noise


class TestSignals:
    def test_sparse(self):
        rng = np.random.default_rng(2)
        seen_signs = set()
        for _ in range(20):
            beta = make_signal(SignalSpec(kind="sparse", p=10, support_size=3), L1(), rng)
            sup = np.flatnonzero(beta)
            assert sup.size == 3
            mags = np.abs(beta[sup])
            assert np.all((mags >= 1.0) & (mags <= 2.0))
            seen_signs.update(np.sign(beta[sup]).tolist())
        assert seen_signs == {-1.0, 1.0}

    def test_sparse_validation(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="sparse", p=5, support_size=6)
        with pytest.raises(ValueError):
            SignalSpec(kind="sparse", p=5, support_size=2, amplitude_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SignalSpec(kind="sparse", p=5, support_size=2, amplitude_range=(2.0, 1.0))

    @pytest.mark.parametrize("make, count", [
        (lambda v: SignalSpec(kind="sparse", p=10, support_size=v), "support_size"),
        (lambda v: SignalSpec(kind="sparse", p=v, support_size=2), "p"),
        (lambda v: SignalSpec(kind="group_sparse", active_groups=v), "active_groups"),
        (lambda v: SignalSpec(kind="low_rank", rank=v), "rank"),
        (lambda v: SignalSpec(kind="piecewise_constant", p=10, segments=v), "segments"),
    ])
    def test_counts_must_be_integers(self, make, count):
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"{count} must be an integer"):
                make(bad)
        spec = make(np.int64(3))
        assert getattr(spec, count) == 3 and type(getattr(spec, count)) is int

    def test_group_sparse(self):
        reg = GroupL1L2([[0, 1], [2, 3], [4, 5]])
        rng = np.random.default_rng(3)
        beta = make_signal(SignalSpec(kind="group_sparse", active_groups=2), reg, rng)
        active = [i for i, g in enumerate(reg.groups) if np.linalg.norm(beta[g]) > 0]
        assert len(active) == 2
        for i in active:
            assert np.all(np.abs(beta[reg.groups[i]]) >= 1.0)

    def test_group_sparse_needs_group_regularizer(self):
        signal = SignalSpec(kind="group_sparse", active_groups=1)
        with pytest.raises(ValueError):
            make_signal(signal, L1(), np.random.default_rng(0))

    def test_low_rank(self):
        reg = Nuclear((5, 5))
        beta = make_signal(SignalSpec(kind="low_rank", rank=2), reg, np.random.default_rng(4))
        m = beta.reshape(5, 5, order="F")
        s = np.linalg.svd(m, compute_uv=False)
        assert np.sum(s > 1e-10) == 2
        assert np.all((s[:2] >= 1.0) & (s[:2] <= 2.0))

    def test_low_rank_needs_nuclear(self):
        with pytest.raises(ValueError):
            make_signal(SignalSpec(kind="low_rank", rank=1), L1(), np.random.default_rng(0))

    def test_piecewise_constant(self):
        reg = AnalysisL1(oracles.tv_operator(12))
        rng = np.random.default_rng(5)
        for _ in range(10):
            beta = make_signal(SignalSpec(kind="piecewise_constant", p=12, segments=4), reg, rng)
            jumps = np.diff(beta)
            breaks = np.flatnonzero(np.abs(jumps) > 1e-12)
            assert breaks.size == 3  # segments - 1 genuine breakpoints
            assert np.all(np.abs(jumps[breaks]) >= 1.0)

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="piecewise_constant", p=4, segments=5)
        with pytest.raises(ValueError):
            SignalSpec(kind="piecewise_constant", p=4, segments=0)

    def test_explicit_returns_copy(self):
        spec = SignalSpec.explicit(np.array([1.0, 2.0]))
        out = make_signal(spec, L1(), np.random.default_rng(0))
        out[0] = 9.0
        assert spec.beta0[0] == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SignalSpec(kind="spike_train", p=4)


THETA = CanonicalParameters(mu=0.1, u=np.array([1.0, 0.0]), gamma=np.eye(2))


@pytest.mark.parametrize("make", [
    lambda: DesignSpec.explicit(np.eye(2)),
    lambda: DesignSpec.gaussian(np.eye(2), 5),
    lambda: SignalSpec.explicit(np.ones(2)),
    lambda: SignalSpec(kind="sparse", p=4, support_size=2),
    lambda: check_model_stability(np.eye(2), np.array([1.0, 0.0]), L1()),
    lambda: Subspace(np.eye(2)),
    lambda: L1().model(np.array([1.0, 0.0])),
    lambda: CanonicalParameters(mu=0.1, u=np.ones(2), gamma=np.eye(2)),
    lambda: forward_backward(THETA, L1()),
    lambda: forward_backward_batch(np.array([0.1]), THETA.u[None], THETA.gamma[None], L1(),
                                   SolveOptions()),
    lambda: draw_trials(DesignSpec.explicit(np.eye(2)), np.ones(2), 0.1, 0.1, [1]),
    lambda: _Shared(L1(), DesignSpec.explicit(np.eye(2)), np.ones(2), SolveOptions(), None),
], ids=["explicit-design", "gaussian-design", "explicit-signal", "sparse-signal", "certificate",
        "subspace", "model-geometry", "canonical-parameters", "solve-result", "batch-result",
        "trial-draws", "sweep-shared"])
def test_specs_compare_and_hash_by_identity(make):
    # array fields have no one truth value, so a generated == and hash()
    # raised on them: specs and the dataclasses that hold arrays compare and
    # hash by identity
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_load_matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    m = np.array([[1.0, 2.5], [-3.0, 4.0]])
    np.savetxt(path, m, delimiter=",")
    np.testing.assert_allclose(load_matrix_csv(path), m)
    # a single row still comes back 2-d
    np.savetxt(path, np.array([[1.0, 2.0, 3.0]]), delimiter=",")
    assert load_matrix_csv(path).shape == (1, 3)
