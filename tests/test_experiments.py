"""Monte-Carlo harnesses: reproducibility, summaries, serialization."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import partlysmooth.experiments as exps
from partlysmooth import (
    AnalysisL1,
    CanonicalParameters,
    DesignSpec,
    ExperimentConfig,
    GroupL1L2,
    L1,
    MuRule,
    Nuclear,
    SignalSpec,
    SolveOptions,
    consistency_sweep,
    forward_backward,
    forward_backward_batch,
    find_certified_design,
    noise_stability_sweep,
    sharpness_experiment,
    write_plot_csv,
    write_records_csv,
    write_summary_json,
)
from partlysmooth.experiments import (
    RECORD_COLUMNS,
    SUMMARY_COLUMNS,
    SummaryRow,
    TrialColumns,
    TrialTable,
)

import oracles

G3 = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.6], [0.6, 0.6, 1.0]])


def identity_config(**overrides):
    base = dict(
        regularizer=L1(),
        design=DesignSpec.explicit(np.sqrt(6.0) * np.eye(6)),
        signal=SignalSpec.explicit(np.array([1.5, 0.0, 0.0, -2.0, 0.0, 0.0])),
        sweep_values=(0.0, 1e-3),
        mu_rule=MuRule("fixed", value=0.05),
        trials=5,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def same_trials(a, b) -> bool:
    """Whether two sweeps' results hold the same trials: every record column
    equal, in task order, nan matching nan."""
    return all(
        np.array_equal(a.trials.array(c), b.trials.array(c), equal_nan=True)
        for c in RECORD_COLUMNS
    )


class TestMuRule:
    def test_fixed(self):
        assert MuRule("fixed", value=0.3).resolve(None, 10) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            MuRule("fixed")
        with pytest.raises(ValueError):
            MuRule("fixed", value=0.0)

    def test_proportional(self):
        assert MuRule("proportional", scale=2.0).resolve(0.1, 10) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            MuRule("proportional", scale=2.0).resolve(0.0, 10)
        with pytest.raises(ValueError):
            MuRule("proportional").resolve(0.1, 10)  # no scale resolved yet

    def test_power(self):
        rule = MuRule("power")
        assert rule.exponent == 0.25 and rule.scale == 1.0
        assert rule.resolve(None, 16) == pytest.approx(16 ** -0.25)
        assert MuRule("power", scale=1.5, exponent=0.25).resolve(None, 16) == pytest.approx(0.75)
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                MuRule("power", exponent=bad)

    def test_fields_the_kind_does_not_read(self):
        for kind, fields in (("fixed", dict(value=0.1, scale=3.0)),
                             ("fixed", dict(value=0.1, exponent=0.25)),
                             ("proportional", dict(exponent=0.25)),
                             ("proportional", dict(value=0.1)),
                             ("power", dict(value=0.1))):
            with pytest.raises(ValueError, match="does not read"):
                MuRule(kind, **fields)

    def test_scale_must_be_positive(self):
        for kind in ("proportional", "power"):
            for bad in (0.0, -0.6):
                with pytest.raises(ValueError, match="scale"):
                    MuRule(kind, scale=bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MuRule("adaptive")

    @pytest.mark.parametrize("kind, field, bad", [
        ("fixed", "value", math.nan), ("fixed", "value", math.inf),
        ("proportional", "scale", math.inf), ("power", "scale", math.inf),
        ("power", "exponent", math.nan), ("fixed", "value", True),
        ("proportional", "scale", np.True_), ("fixed", "value", "a"),
        ("power", "exponent", "0.3"), ("proportional", "scale", [1.0]),
    ])
    def test_non_finite_fields(self, kind, field, bad):
        with pytest.raises(ValueError, match=f"mu rule {field} must be a finite number"):
            MuRule(kind, **{field: bad})


class TestConfigValidation:
    def test_trials(self):
        with pytest.raises(ValueError):
            identity_config(trials=0)

    @pytest.mark.parametrize("field, bad", [
        ("trials", True), ("trials", 2.5), ("jobs", 1.5), ("jobs", True), ("jobs", None),
        ("base_seed", True), ("base_seed", 1.5),
    ])
    def test_integer_fields(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            identity_config(**{field: bad})

    def test_numpy_integers(self):
        cfg = identity_config(trials=np.int32(2), jobs=np.int64(1), base_seed=np.uint8(4))
        assert (cfg.trials, cfg.jobs, cfg.base_seed) == (2, 1, 4)
        assert type(cfg.trials) is int

    def test_empty_sweep(self):
        with pytest.raises(ValueError):
            identity_config(sweep_values=())

    @pytest.mark.parametrize("field, bad", [
        ("sweep_values", (0.0, math.nan)), ("sweep_values", (math.inf,)),
        ("sweep_values", (-math.inf, 1.0)), ("noise_sigma", math.nan),
        ("noise_sigma", math.inf), ("ri_tol", math.nan),
    ])
    def test_non_finite_fields(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            identity_config(**{field: bad})

    @pytest.mark.parametrize("field, bad, shown", [
        ("sweep_values", (True, 0.1), "True"), ("sweep_values", (0.1, np.False_), repr(np.False_)),
        ("sweep_values", ("0.1",), "'0.1'"), ("noise_sigma", True, "True"),
        ("noise_sigma", np.True_, repr(np.True_)), ("noise_sigma", "1", "'1'"),
    ])
    def test_real_fields_refuse_booleans_and_text(self, field, bad, shown):
        # float(True) is 1.0, so a boolean would otherwise pass as a number
        with pytest.raises(ValueError, match=rf"^{field} must be a real number, got {shown}$"):
            identity_config(**{field: bad})

    def test_negative_noise_sigma(self):
        # refused when the config is built, whichever harness it is for
        with pytest.raises(ValueError, match=r"^noise_sigma must be >= 0, got -1.0$"):
            identity_config(noise_sigma=-1.0)

    def test_last_trial_seed_is_a_128_bit_key(self):
        # 2 points of 5 trials use seeds base_seed + 1 ... base_seed + 10, and
        # each is a Philox key, < 2^128: refused when the config is built
        top = 2 ** 128 - 11
        assert identity_config(base_seed=top).base_seed == top
        with pytest.raises(ValueError, match=(
                rf"^base_seed={top + 1} puts the last trial seed at {2 ** 128}, past 2\*\*128 - 1$")):
            identity_config(base_seed=top + 1)
        res = noise_stability_sweep(identity_config(base_seed=top, trials=1, sweep_values=(0.0,)))
        assert res.trials.array("seed").tolist() == [top + 1]

    def test_noise_sigma_is_a_float(self):
        # a library config's noise_sigma=1 is the float a config file gives,
        # as is each sweep point's sigma
        cfg = TestSharpness().outside_config(noise_sigma=1, trials=2)
        assert type(cfg.noise_sigma) is float
        res = sharpness_experiment(cfg)
        assert [type(point.sigma) for point in res.trials.points] == [float, float]
        assert res.trials.array("sigma").dtype == np.float64


class TestNoiseStability:
    def test_identity_design_recovers(self):
        res = noise_stability_sweep(identity_config())
        assert res.kind == "noise_stability"
        t = res.trials
        assert len(t) == 10
        assert res.certificate.usable
        assert res.certificate.verdict.margin == pytest.approx(1.0, abs=1e-12)
        assert t.array("converged").all() and t.array("identified").all()
        assert t.array("certificate_margin") == pytest.approx(1.0, abs=1e-12)
        noiseless = t.array("sigma") == 0.0
        assert np.count_nonzero(noiseless) == 5
        # with identity covariance the solution is soft thresholding: the
        # noiseless error is exactly mu per active coordinate
        assert t.array("error_norm")[noiseless] == pytest.approx(0.05 * np.sqrt(2), abs=1e-8)
        assert not t.array("eps_norm")[noiseless].any()

    def test_reproducible(self):
        a = noise_stability_sweep(identity_config())
        b = noise_stability_sweep(identity_config())
        assert same_trials(a, b)
        c = noise_stability_sweep(identity_config(base_seed=99))
        assert not same_trials(a, c)

    def test_seed_layout(self):
        res = noise_stability_sweep(identity_config(base_seed=40))
        assert res.trials.array("seed").tolist() == list(range(41, 51))

    def test_default_proportional_scale_requires_certificate(self):
        # outside-certified instance: the 2/margin default has no meaning
        cfg = identity_config(
            design=DesignSpec.explicit(np.sqrt(3.0) * np.linalg.cholesky(G3).T),
            signal=SignalSpec.explicit(np.array([1.0, 1.0, 0.0])),
            sweep_values=(1e-3,),
            mu_rule=MuRule("proportional"),
        )
        with pytest.raises(ValueError):
            noise_stability_sweep(cfg)
        # explicit scale overrides the screening.  At mu = 10 sigma none of
        # 2000 trials identify; at mu = sigma about a quarter do, so five
        # failures there would be a chance event
        ok = replace(cfg, mu_rule=MuRule("proportional", scale=10.0))
        res = noise_stability_sweep(ok)
        assert res.trials.array("identified").tolist() == [False] * 5

    def test_non_converged_trials_are_excluded(self):
        cfg = identity_config(solve=SolveOptions(max_iter=1))
        res = noise_stability_sweep(cfg)
        t = res.trials
        assert not t.array("converged").any() and not t.array("identified").any()
        assert t.fields("identification_iter") == [""] * len(t)
        for row in res.summary:
            assert row.converged_count == 0
            assert math.isnan(row.identification_rate)

    def test_summary_stats(self):
        res = noise_stability_sweep(identity_config(trials=4))
        assert len(res.summary) == 2
        noisy = res.summary[1]
        assert noisy.sweep_value == pytest.approx(1e-3)
        assert noisy.trials == 4 and noisy.converged_count == 4
        assert noisy.identification_rate == 1.0
        assert noisy.boundary_count == 0
        t = res.trials
        recs = t.array("sigma") > 0
        ratios = t.array("error_norm")[recs] / t.array("eps_norm")[recs]
        assert noisy.mean_error_ratio == pytest.approx(np.mean(ratios))
        assert noisy.max_error_ratio == pytest.approx(np.max(ratios))
        assert noisy.mean_identification_iter == pytest.approx(
            np.mean(t.array("identification_iter")[recs])
        )


class TestBoundaryBookkeeping:
    def test_boundary_instances_are_counted_not_rated(self):
        g3b = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        cfg = identity_config(
            design=DesignSpec.explicit(np.sqrt(3.0) * np.linalg.cholesky(g3b).T),
            signal=SignalSpec.explicit(np.array([1.0, 1.0, 0.0])),
            sweep_values=(1e-4,),
            trials=6,
            mu_rule=MuRule("fixed", value=1e-3),
        )
        res = noise_stability_sweep(cfg)
        assert res.trials.array("boundary_flag").all()
        row = res.summary[0]
        assert row.boundary_count == 6
        assert math.isnan(row.identification_rate)


class TestConsistency:
    def base(self, **overrides):
        base = dict(
            regularizer=L1(),
            design=DesignSpec.gaussian(np.eye(6), 50),
            signal=SignalSpec(kind="sparse", p=6, support_size=2),
            sweep_values=(50, 200),
            mu_rule=MuRule("power"),
            trials=25,
            noise_sigma=0.5,
            base_seed=3,
            jobs=1,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_rates_improve_with_n(self):
        res = consistency_sweep(self.base())
        assert res.kind == "consistency"
        t = res.trials
        assert len(t) == 50
        # population certificate on the identity is perfectly interior
        assert res.certificate.verdict.status == "interior"
        rates = [row.identification_rate for row in res.summary]
        assert rates[1] >= rates[0]
        assert rates[1] >= 0.9
        assert sorted(set(t.array("n").tolist())) == [50, 200]
        # mu follows the power rule at each n
        assert t.array("mu") == pytest.approx(t.array("n") ** -0.25)

    def test_every_trial_steps_at_its_own_limit(self, monkeypatch):
        # at n = 20 some trials' ||Gamma|| is past 2 and at n = 400 none is,
        # so no one step would suit every trial; each steps at
        # 0.9 * 2 / ||Gamma|| of its own Gamma
        batches = []

        def recording(mu, u, gamma, reg, opts):
            batches.append((gamma, forward_backward_batch(mu, u, gamma, reg, opts)))
            return batches[-1][1]

        monkeypatch.setattr(exps, "forward_backward_batch", recording)
        cfg = self.base(
            design=DesignSpec.gaussian(np.eye(10), 20),
            signal=SignalSpec("sparse", p=10, support_size=3),
            sweep_values=(20, 400), trials=10, noise_sigma=1.0,
        )
        res = consistency_sweep(cfg)
        assert res.trials.array("converged").all()
        [(gammas, solved)] = batches
        norms = np.array([np.abs(np.linalg.eigvalsh(g)).max() for g in gammas])
        assert solved.step.tolist() == (1.8 / norms).tolist()
        assert norms[:10].max() > 2.0 and norms[10:].max() < 2.0

    def test_fresh_design_per_trial(self):
        res = consistency_sweep(self.base(trials=2, sweep_values=(40, 80)))
        errs = res.trials.array("eps_norm").tolist()
        assert len(set(errs)) == len(errs)

    def test_requires_gaussian_design(self):
        cfg = self.base(design=DesignSpec.explicit(np.eye(6)))
        with pytest.raises(ValueError):
            consistency_sweep(cfg)

    def test_requires_power_rule(self):
        cfg = self.base(mu_rule=MuRule("fixed", value=0.1))
        with pytest.raises(ValueError):
            consistency_sweep(cfg)

    def test_requires_increasing_sizes(self):
        cfg = self.base(sweep_values=(200, 50))
        with pytest.raises(ValueError):
            consistency_sweep(cfg)
        cfg = self.base(sweep_values=(50, 50))
        with pytest.raises(ValueError):
            consistency_sweep(cfg)

    def test_requires_whole_sample_sizes(self):
        # a NaN or infinite size is refused when the config is built
        # (TestConfigValidation.test_non_finite_fields)
        with pytest.raises(ValueError, match="whole numbers"):
            consistency_sweep(self.base(sweep_values=(100.7, 400)))

    def test_requires_noise_sigma(self):
        cfg = self.base(noise_sigma=None)
        with pytest.raises(ValueError):
            consistency_sweep(cfg)


class TestSharpness:
    def outside_config(self, **overrides):
        base = dict(
            regularizer=L1(),
            design=DesignSpec.explicit(np.sqrt(3.0) * np.linalg.cholesky(G3).T),
            signal=SignalSpec.explicit(np.array([1.0, 1.0, 0.0])),
            sweep_values=(1e-1, 1e-2),
            trials=8,
            noise_sigma=1e-4,
            base_seed=1,
            jobs=1,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_never_recovers(self):
        res = sharpness_experiment(self.outside_config())
        assert res.kind == "sharpness"
        assert res.certificate.verdict.status == "outside"
        assert res.noiseless_identified == {0.1: False, 0.01: False}
        for row in res.summary:
            assert row.identification_rate == 0.0

    def test_warns_on_certified_instance(self):
        cfg = self.outside_config(
            design=DesignSpec.explicit(np.sqrt(6.0) * np.eye(6)),
            signal=SignalSpec.explicit(np.array([1.5, 0.0, 0.0, -2.0, 0.0, 0.0])),
            sweep_values=(0.05,),
        )
        with pytest.warns(UserWarning):
            res = sharpness_experiment(cfg)
        assert res.noiseless_identified[0.05] is True

    def test_requires_sigma(self):
        with pytest.raises(ValueError):
            sharpness_experiment(self.outside_config(noise_sigma=None))


class TestIdentificationProfile:
    def test_profile_is_the_noise_sweep_plus_stats(self):
        # at max_iter=9 some trials stop short, and some converge off the target
        cfg = random_design_config(
            sweep_values=(1e-2, 1e-1, 1.0), trials=5, solve=SolveOptions(max_iter=9)
        )
        res = noise_stability_sweep(cfg)
        t = res.trials
        converged = t.array("converged")
        matched = np.count_nonzero(t.array("identified") & converged)
        assert 0 < np.count_nonzero(converged) < len(t)
        assert 0 < matched < np.count_nonzero(converged)
        iters = t.array("identification_iter")[converged].tolist()
        assert res.profile.identification_iters == iters and max(iters) < 9
        # the trials that stop short count against both fractions
        assert res.profile.finite_fraction == len(iters) / len(t)
        assert res.profile.post_match_fraction == matched / len(t)

    def test_profile_on_certified_instance(self):
        cfg = identity_config(sweep_values=(1e-3, 1e-4), trials=6)
        res = noise_stability_sweep(cfg)
        assert res.kind == "noise_stability"
        assert res.profile.finite_fraction == 1.0
        assert res.profile.post_match_fraction == 1.0
        iters = res.profile.identification_iters
        assert len(iters) == 12
        recorded = res.trials.array("identification_iter").tolist()
        assert sorted(iters) == sorted(recorded)

    def test_trials_that_stop_short_count_against_finite_fraction(self):
        # beta0 = 0: only the smallest noise level, whose trials keep the
        # zero start's empty support, the true one, is certified at step 1;
        # the other trials leave it at step 1, so the earliest they can stop
        # is step 2
        cfg = identity_config(
            design=DesignSpec.explicit(np.sqrt(6.0) * np.diag(np.sqrt([0.5, 0.5, 1, 1, 1, 1]))),
            signal=SignalSpec.explicit(np.zeros(6)),
            sweep_values=(1e-2, 0.3, 1.0), trials=10, solve=SolveOptions(max_iter=1),
        )
        res = noise_stability_sweep(cfg)
        assert res.trials.array("converged").tolist() == [True] * 10 + [False] * 20
        assert res.profile.finite_fraction == pytest.approx(1 / 3)
        assert res.profile.post_match_fraction == pytest.approx(1 / 3)
        # given the steps, every trial converges and the fraction is 1
        res = noise_stability_sweep(replace(cfg, solve=SolveOptions()))
        assert res.profile.finite_fraction == 1.0


def random_design_config(**overrides):
    rng = np.random.default_rng(5)
    base = dict(
        design=DesignSpec.explicit(rng.normal(size=(40, 6))),
        signal=SignalSpec.explicit(np.array([1.5, 0.0, 0.0, -2.0, 0.0, 1.0])),
        sweep_values=(1e-2, 1e-1),
        trials=2,
        base_seed=7,
    )
    base.update(overrides)
    return identity_config(**base)


FIXED_DESIGN_SWEEPS = [
    (noise_stability_sweep, {}),
    (sharpness_experiment, dict(
        design=DesignSpec.explicit(np.sqrt(3.0) * np.linalg.cholesky(G3).T),
        signal=SignalSpec.explicit(np.array([1.0, 1.0, 0.0])),
        sweep_values=(0.1, 0.01), noise_sigma=1e-2, mu_rule=None,
    )),
]


@pytest.mark.parametrize("sweep, overrides", FIXED_DESIGN_SWEEPS)
def test_shared_gamma_matches_unshared_replay(monkeypatch, sweep, overrides):
    cfg = random_design_config(**overrides)
    results = []

    def recording(mu, u, gamma, reg, opts):
        batch = forward_backward_batch(mu, u, gamma, reg, opts)
        results.extend(batch)
        return batch

    monkeypatch.setattr(exps, "forward_backward_batch", recording)
    res = sweep(cfg)
    # the trials are the last solves (sharpness first runs noiseless checks)
    t = res.trials
    assert len(t) == 4
    n = cfg.design.matrix.shape[0]
    trials = zip(*(t.array(c).tolist() for c in ("seed", "sigma", "mu")))
    for (seed, sigma, mu), shared in zip(trials, results[-len(t):], strict=True):
        gamma, u, _ = oracles.explicit_trial(cfg.design, cfg.signal.beta0, sigma, seed)
        theta = CanonicalParameters(mu=mu * n / n, u=u, gamma=gamma)
        replay = forward_backward(theta, cfg.regularizer, cfg.solve)
        assert np.array_equal(replay.beta, shared.beta)
        assert replay.iterations == shared.iterations
        assert replay.identification_iter == shared.identification_iter


@pytest.mark.parametrize("sweep, overrides", [
    (noise_stability_sweep, dict(sweep_values=(0.0, 1e-2, 1e-1))),
    (noise_stability_sweep, dict(design=DesignSpec.gaussian(np.eye(6), 40),
                                 sweep_values=(0.0, 1e-2, 1e-1))),
    (sharpness_experiment, FIXED_DESIGN_SWEEPS[1][1]),
], ids=["explicit", "gaussian_rows", "sharpness"])
def test_noise_sweep_factors_no_design_after_set_up(monkeypatch, sweep, overrides):
    # the design's root and ||Gamma|| are computed before the certificate,
    # which ends set-up; the sweep after it makes no eigh or eigvalsh call
    cfg = random_design_config(**overrides)
    if cfg.design.kind == "explicit":
        # a new spec, nothing of it read yet
        cfg = replace(cfg, design=DesignSpec.explicit(cfg.design.matrix))
    real_certificate = exps.check_model_stability
    certified, after = [], []

    def certificate(*args, **kwargs):
        cert = real_certificate(*args, **kwargs)
        certified.append(True)
        return cert

    def counted(real):
        def call(a):
            after.append(bool(certified))
            return real(a)
        return call

    monkeypatch.setattr(exps, "check_model_stability", certificate)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    res = sweep(cfg)
    assert len(res.trials) == 2 * len(cfg.sweep_values) and certified == [True]
    assert True not in after


IDENTIFIED_CASES = [
    (L1(), np.array([1.5, 0.0, 0.0, -2.0, 0.0, 0.0])),
    (GroupL1L2([[0, 1, 2], [3, 4], [5, 6, 7]]), np.array([1.0, -1.0, 0.5, 0, 0, 0, 0, 0])),
    (Nuclear((3, 3)), np.outer([1.0, 2.0, 0.0], [1.0, 0.0, -1.0]).ravel(order="F")),
    (AnalysisL1(oracles.tv_operator(8)), np.repeat([2.0, -1.0], 4)),
]


@pytest.mark.parametrize("reg, beta0", IDENTIFIED_CASES, ids=[r.kind for r, _ in IDENTIFIED_CASES])
def test_identified_from_keys_matches_the_descriptor_rule(monkeypatch, reg, beta0):
    # a trial's identified compares final model masks with beta0's; it must
    # say what the batch's views and the reference model rule say
    batches = []

    def recording(mu, u, gamma, penalty, opts):
        batches.append(forward_backward_batch(mu, u, gamma, penalty, opts))
        return batches[-1]

    monkeypatch.setattr(exps, "forward_backward_batch", recording)
    p = beta0.shape[0]
    target = oracles.descriptor(reg, beta0, SolveOptions().zero_tol)
    seen = set()
    # max_iter=1: before an l1 row's first chance to stop at a certified
    # minimizer, at step 2
    for max_iter in (1, SolveOptions().max_iter):
        cfg = identity_config(
            regularizer=reg, design=DesignSpec.explicit(np.sqrt(p) * np.eye(p)),
            signal=SignalSpec.explicit(beta0), sweep_values=(0.0, 1.0), trials=3,
            solve=SolveOptions(max_iter=max_iter),
        )
        identified = noise_stability_sweep(cfg).trials.array("identified").tolist()
        for ident, res in zip(identified, batches.pop(), strict=True):
            assert ident == (res.converged and res.model == target)
            seen.add((res.converged, ident))
    # rows stopped at max_iter, converged off beta0's model and on it
    assert seen == {(False, False), (True, False), (True, True)}


def test_runners_that_read_mu_rule_need_one():
    for sweep, cfg in ((noise_stability_sweep, identity_config(mu_rule=None)),
                       (consistency_sweep, TestConsistency().base(mu_rule=None))):
        with pytest.raises(ValueError, match="mu.rule"):
            sweep(cfg)


def test_runners_refuse_fields_they_never_read(monkeypatch):
    # refused at entry, naming the field, before the set-up draws anything
    def drawn(*args):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(exps, "make_design", drawn)
    monkeypatch.setattr(exps, "make_signal", drawn)
    outside = TestSharpness().outside_config
    for sweep, cfg, field in (
        (noise_stability_sweep, identity_config(noise_sigma=0.1), "noise_sigma"),
        (sharpness_experiment, outside(mu_rule=MuRule("fixed", value=0.1)), "mu_rule"),
        (sharpness_experiment, outside(sweep_values=(0.1, -1.0)), r"sweep_values \(mu\) > 0"),
    ):
        with pytest.raises(ValueError, match=field):
            sweep(cfg)


def test_fixed_design_and_signal_dimensions_must_agree():
    cfg = identity_config(design=DesignSpec.explicit(np.eye(5)),
                          signal=SignalSpec.explicit(np.ones(4)))
    with pytest.raises(ValueError, match="^design and signal dimensions differ$"):
        noise_stability_sweep(cfg)


def test_runners_refuse_sweep_values_out_of_range_at_entry(monkeypatch):
    # the file parser's range rule, applied before the certificate is computed
    calls = []
    monkeypatch.setattr(exps, "check_model_stability", lambda *args: calls.append(args))
    proportional = MuRule("proportional", scale=1.0)
    for sweep, cfg, message in (
        (noise_stability_sweep, identity_config(sweep_values=(-1.0, 0.0)),
         "noise_stability_sweep needs sweep_values (noise levels) >= 0, got -1.0"),
        (noise_stability_sweep, identity_config(mu_rule=proportional),
         "noise_stability_sweep needs sweep_values (noise levels) > 0 "
         "under a proportional mu rule, got 0.0"),
        (consistency_sweep, TestConsistency().base(sweep_values=(0, 50)),
         "consistency_sweep needs sweep_values (sample sizes) >= 1, got 0.0"),
        (sharpness_experiment, TestSharpness().outside_config(sweep_values=(0.1, 0.0)),
         "sharpness_experiment needs sweep_values (mu) > 0, got 0.0"),
    ):
        with pytest.raises(ValueError) as info:
            sweep(cfg)
        assert str(info.value) == message
    assert calls == []


def test_gamma_prepared_once_per_fixed_design(svd_calls):
    # ||Gamma|| is computed once per design and kept on its spec, so a second
    # sweep on it computes none; the sweeps never read an objective, so none
    # of them computes Gamma^+
    calls = svd_calls
    for sweep, overrides in FIXED_DESIGN_SWEEPS:
        cfg = random_design_config(**overrides)
        # a new spec, nothing of it read yet
        cfg = replace(cfg, design=DesignSpec.explicit(cfg.design.matrix))
        calls.update(spectral_norms=0, pseudoinverse=0)
        assert same_trials(sweep(cfg), sweep(cfg))
        assert calls == {"spectral_norms": 1, "pseudoinverse": 0}, sweep.__name__
    # fresh designs: every trial has its own Gamma, and the batch computes
    # all their norms in one stacked call
    calls.update(spectral_norms=0, pseudoinverse=0)
    res = consistency_sweep(TestConsistency().base(trials=3, sweep_values=(40, 80)))
    assert calls == {"spectral_norms": 1, "pseudoinverse": 0}
    assert len(res.trials) == 6


def test_one_batch_per_fixed_design_sweep(monkeypatch):
    batches = []

    def counted(mu, u, gamma, reg, opts):
        batches.append(len(u))
        return forward_backward_batch(mu, u, gamma, reg, opts)

    monkeypatch.setattr(exps, "forward_backward_batch", counted)
    # 2 sweep points x 2 trials each: one batch of all four trials
    for sweep, overrides in FIXED_DESIGN_SWEEPS:
        batches.clear()
        sweep(random_design_config(**overrides))
        # sharpness first solves its noiseless check per mu as one batch
        want = [2, 4] if sweep is sharpness_experiment else [4]
        assert batches == want, sweep.__name__
    # fresh designs at p=6: the Gamma stack of the whole sweep fits one batch
    batches.clear()
    consistency_sweep(TestConsistency().base(trials=3, sweep_values=(40, 80)))
    assert batches == [6]


def test_fresh_design_batches_fit_the_gamma_budget(monkeypatch):
    batches = []

    def counted(mu, u, gamma, reg, opts):
        batches.append(len(u))
        return forward_backward_batch(mu, u, gamma, reg, opts)

    monkeypatch.setattr(exps, "forward_backward_batch", counted)
    cfg = TestConsistency().base(trials=3, sweep_values=(40, 80, 160))
    want = consistency_sweep(cfg)
    point = 3 * 6 * 6 * 8  # bytes of one sample size's Gamma stack
    for budget, sizes in ((9 * point, [9]), (2 * point, [6, 3]), (point - 1, [3, 3, 3])):
        monkeypatch.setattr(exps, "GAMMA_STACK_BYTES", budget)
        batches.clear()
        assert same_trials(consistency_sweep(cfg), want)
        assert batches == sizes, budget


def test_a_batch_seeds_its_trials_in_one_pass(monkeypatch):
    # one draw_trials call per sweep point, each building one bit generator
    # that it keys to every trial in turn, and no default_rng in a batch:
    # not one generator per trial
    made, calls, batches = [], [], []
    philox, draw, run_batch = np.random.Philox, exps.draw_trials, exps._run_batch

    def counted_bits(*args, **kwargs):
        made.append(args)
        return philox(*args, **kwargs)

    def counted_draw(*args):
        calls.append(list(args[4]))
        return draw(*args)

    def refused(*args, **kwargs):
        raise AssertionError("a batch built a default_rng or another bit generator")

    def counted_batch(shared, tasks):
        made.clear()
        calls.clear()
        with monkeypatch.context() as inside:
            for name in ("default_rng", "PCG64", "PCG64DXSM", "MT19937", "SFC64"):
                inside.setattr(np.random, name, refused)
            inside.setattr(np.random, "Philox", counted_bits)
            points = run_batch(shared, tasks)
        assert calls == [seeds for *_, seeds in tasks]
        assert len(made) == len(tasks)
        batches.append([s for seeds in calls for s in seeds])
        return points

    monkeypatch.setattr(exps, "draw_trials", counted_draw)
    monkeypatch.setattr(exps, "_run_batch", counted_batch)
    for sweep, cfg in (
        (consistency_sweep, TestConsistency().base(trials=3, sweep_values=(40, 80, 160))),
        (noise_stability_sweep, identity_config(trials=3, sweep_values=(1e-3, 1e-2, 1e-1))),
    ):
        batches.clear()
        res = sweep(cfg)
        assert len(res.trials) == 9 and batches, sweep.__name__
        assert [s for seeds in batches for s in seeds] == res.trials.array("seed").tolist()


def test_gamma_budget_at_p10_and_p200():
    def grouping(p, trials, points, quad=None):
        shared = SimpleNamespace(beta0=np.zeros(p), design=SimpleNamespace(quad=quad))
        tasks = [(i, 1.0, 0.1, list(range(trials))) for i in range(points)]
        return [len(group) for group in exps._group_points(shared, tasks)]

    # p=10, 40 trials per point: 32 KB per point, one batch
    assert grouping(10, 40, 3) == [3]
    # p=200, 40 trials per point: 12.8 MB per point, one batch each
    assert grouping(200, 40, 3) == [1, 1, 1]
    # a shared Gamma costs nothing per row
    assert grouping(200, 40, 3, quad=object()) == [3]


def test_consistency_jobs_match_serial():
    cfg = TestConsistency().base(trials=3, sweep_values=(40, 80, 160))
    assert same_trials(consistency_sweep(replace(cfg, jobs=2)), consistency_sweep(cfg))


def test_parallel_jobs_match_serial():
    cfg = identity_config(trials=4)
    serial = noise_stability_sweep(cfg)
    parallel = noise_stability_sweep(replace(cfg, jobs=2))
    assert same_trials(serial, parallel)


def test_lone_trials_match_their_rows_in_a_batch(tmp_path):
    # trials=1: serially every point is one row of a single batch, with
    # jobs=2 each point is solved alone; records.csv has the same bytes
    rng = np.random.default_rng(5)
    beta0 = np.zeros(12)
    beta0[[1, 6]] = [1.5, -2.0]
    noise = identity_config(
        design=DesignSpec.explicit(rng.normal(size=(40, 12))), signal=SignalSpec.explicit(beta0),
        sweep_values=(1e-3, 1e-2, 3e-2, 0.1, 0.3), trials=1,
    )
    fresh = TestConsistency().base(trials=1, sweep_values=(40, 80, 160, 320, 640))
    for sweep, cfg in ((noise_stability_sweep, noise), (consistency_sweep, fresh)):
        written = []
        for jobs in (1, 2):
            path = tmp_path / f"{sweep.__name__}-{jobs}.csv"
            write_records_csv(sweep(replace(cfg, jobs=jobs)).trials, path)
            written.append(path.read_bytes())
        assert written[0] == written[1]


def test_default_jobs_is_serial(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    # identity_config sets no jobs
    assert identity_config().jobs == 1
    res = noise_stability_sweep(identity_config())
    assert same_trials(res, noise_stability_sweep(identity_config(jobs=1)))


def test_import_leaves_the_process_pool_unloaded():
    code = "import sys, partlysmooth.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_find_certified_design():
    beta0 = np.array([1.5, -1.2, 0.0, 0.0, 0.0, 0.0])
    x, cert, seed = find_certified_design(L1(), np.eye(6), 60, beta0, min_margin=0.2)
    assert cert.stable
    assert cert.verdict.margin >= 0.2
    assert x.shape == (60, 6)
    # impossible screening budget raises
    with pytest.raises(RuntimeError):
        find_certified_design(L1(), G3, 500, np.array([1.0, 1.0, 0.0]),
                              min_margin=0.1, max_tries=3)


# ---------------------------------------------------------------------------
# serialization


def test_records_csv_round_trip(tmp_path):
    res = noise_stability_sweep(identity_config(trials=3))
    path = tmp_path / "records.csv"
    t = res.trials
    write_records_csv(t, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(t)
    assert tuple(rows[0].keys()) == RECORD_COLUMNS
    columns = ("seed", "identified", "error_norm", "certificate_margin")
    for row, (seed, identified, error, margin) in zip(
        rows, zip(*(t.array(c).tolist() for c in columns)), strict=True
    ):
        assert int(row["seed"]) == seed
        assert row["identified"] in ("true", "false")
        assert (row["identified"] == "true") == identified
        # floats are written with enough digits to round-trip bitwise
        assert float(row["error_norm"]) == error
        assert float(row["certificate_margin"]) == margin
    # a trial that did not converge has an empty identification_iter
    assert rows[0]["identification_iter"] != ""
    blank = noise_stability_sweep(identity_config(trials=1, solve=SolveOptions(max_iter=1)))
    write_records_csv(blank.trials, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["identification_iter"] == ""
    assert rows[0]["converged"] == "false"


def reference_fmt(x) -> str:
    """A field as one isinstance chain: the reference for the writers' per-type table."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(x, ".17g")


def write_reference(path, names, columns):
    """csv.writer over columns of values, reference_fmt per field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([reference_fmt(x) for x in row] for row in zip(*columns, strict=True))


def test_writers_have_the_bytes_of_csv_writer(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1.5e-7, 1 / 3]
    k = len(floats)
    # a table of two points, the first of four trials, and the summary rows
    # of a sweep, holding these values and the extreme integers
    per_trial = dict(
        seed=[-(2 ** 63), 2 ** 63 - 1, *range(k - 2)],
        identified=[i % 2 == 0 for i in range(k)],
        error_norm=floats,
        eps_norm=floats[::-1],
        identification_iter=list(range(k)),
        converged=[i % 3 != 1 for i in range(k)],
    )
    shared = [(2 ** 70, -0.0, 5e-324), (0, math.inf, math.nan)]
    points = [
        TrialColumns(n, sigma, mu, **{c: np.array(v[rows]) for c, v in per_trial.items()})
        for (n, sigma, mu), rows in zip(shared, (slice(0, 4), slice(4, k)))
    ]
    write_records_csv(TrialTable(points, True, -math.inf), tmp_path / "records.csv")
    columns = dict(
        per_trial,
        n=[2 ** 70] * 4 + [0] * (k - 4),
        sigma=[-0.0] * 4 + [math.inf] * (k - 4),
        mu=[5e-324] * 4 + [math.nan] * (k - 4),
        boundary_flag=[True] * k,
        certificate_margin=[-math.inf] * k,
        identification_iter=[i if ok else None for i, ok in enumerate(per_trial["converged"])],
    )
    write_reference(tmp_path / "want.csv", RECORD_COLUMNS, [columns[c] for c in RECORD_COLUMNS])
    assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    summary = [SummaryRow(x, 2 ** 70, -(2 ** 63), 0, x, -x, 1e308, 5e-324) for x in floats]
    write_plot_csv(SimpleNamespace(summary=summary), tmp_path / "plot.csv")
    write_reference(tmp_path / "want.csv", SUMMARY_COLUMNS,
                    [[getattr(row, c) for row in summary] for c in SUMMARY_COLUMNS])
    assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    values = [*floats, 2 ** 70, -(2 ** 63), 0, True, False]
    assert [exps._FORMATS[type(v)](v) for v in values] == [reference_fmt(v) for v in values]


IDENTITY_FILE = {
    "regularizer": {"kind": "l1"},
    "design": {"kind": "explicit", "matrix": (np.sqrt(6.0) * np.eye(6)).tolist()},
    "signal": {"kind": "explicit", "beta0": [1.5, 0.0, 0.0, -2.0, 0.0, 0.0]},
    "experiment": {"kind": "noise_stability", "sweep": {"noise_levels": [0.0, 1e-3]},
                   "mu_rule": {"kind": "fixed", "value": 0.05}, "trials": 2},
}

# experiment files run through cli.main: a one-step sweep in which no
# trial converges; one whose first point's trials converge in one step
# and the second's do not (as in
# test_trials_that_stop_short_count_against_finite_fraction); a
# consistency sweep; a sharpness sweep on an instance certified outside
CLI_SWEEPS = {
    "noise-short-step": dict(IDENTITY_FILE, solver={"max_iter": 1}),
    "noise-half-converged": dict(
        IDENTITY_FILE, solver={"max_iter": 1},
        design={"kind": "explicit",
                "matrix": (np.sqrt(6.0) * np.diag(np.sqrt([0.5, 0.5, 1, 1, 1, 1]))).tolist()},
        signal={"kind": "explicit", "beta0": [0.0] * 6},
        experiment=dict(IDENTITY_FILE["experiment"], sweep={"noise_levels": [1e-2, 0.3]}),
    ),
    "consistency": {
        "regularizer": {"kind": "l1"},
        "design": {"kind": "gaussian_rows", "identity_dim": 10},
        "signal": {"kind": "sparse", "p": 10, "support_size": 3},
        "experiment": {"kind": "consistency", "sweep": {"sample_sizes": [5, 40, 160]},
                       "mu_rule": {"kind": "power"}, "trials": 4, "noise_sigma": 1.0,
                       "base_seed": 23},
    },
    "sharpness": {
        "regularizer": {"kind": "l1"},
        "design": {"kind": "explicit",
                   "matrix": (np.sqrt(3.0) * np.linalg.cholesky(G3).T).tolist()},
        "signal": {"kind": "explicit", "beta0": [1.0, 1.0, 0.0]},
        "experiment": {"kind": "sharpness", "sweep": {"mu_values": [0.01, 0.1]},
                       "noise_sigma": 1e-2, "trials": 3},
    },
}


def run_cli_sweep(tmp_path, name, *args):
    """cli.main on CLI_SWEEPS[name]; returns (exit code, output directory)."""
    from partlysmooth import cli

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CLI_SWEEPS[name]))
    out = tmp_path / f"{name}-out{''.join(args)}"
    code = cli.main(["experiment", "--config", str(path), "--out", str(out), "--quiet", *args])
    return code, out


@pytest.mark.parametrize("name", ["noise-short-step", "noise-half-converged", "consistency"])
def test_cli_records_csv_has_the_bytes_of_csv_writer_over_records(tmp_path, monkeypatch, name):
    # the CLI writes the columns formatted a column at a time; csv.writer
    # over the table's arrays, a row per trial, is the reference
    from partlysmooth import cli

    results = []
    kind = CLI_SWEEPS[name]["experiment"]["kind"]
    runner = cli._RUNNERS[kind]
    monkeypatch.setitem(cli._RUNNERS, kind,
                        lambda config: results.append(runner(config)) or results[-1])
    code, out = run_cli_sweep(tmp_path, name)
    assert code == 0
    [res] = results
    columns = {c: res.trials.array(c).tolist() for c in RECORD_COLUMNS}
    converged = columns["converged"]
    columns["identification_iter"] = [
        i if ok else None for i, ok in zip(columns["identification_iter"], converged)
    ]
    write_reference(tmp_path / "want.csv", RECORD_COLUMNS, list(columns.values()))
    assert (out / "records.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    if name == "noise-short-step":
        assert not any(converged)
    if name == "noise-half-converged":
        assert converged == [True] * 2 + [False] * 2


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_started_by_spawn_or_forkserver_writes_the_serial_bytes(tmp_path, method):
    # Python 3.14 starts pools by forkserver on Linux, and spawn is the
    # default on macOS and Windows: workers that import the package afresh
    # must still write the records.csv of a serial run
    code, serial = run_cli_sweep(tmp_path, "consistency")
    assert code == 0
    script = tmp_path / "pool.py"
    script.write_text(
        "import multiprocessing, sys\n"
        "from partlysmooth import cli\n"
        "if __name__ == '__main__':\n"
        f"    multiprocessing.set_start_method({method!r})\n"
        "    sys.exit(cli.main(sys.argv[1:]))\n"
    )
    out = tmp_path / method
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run(
        [sys.executable, str(script), "experiment", "--config", str(tmp_path / "consistency.json"),
         "--out", str(out), "--quiet", "--jobs", "2"],
        env=env, check=True, timeout=120,
    )
    assert (out / "records.csv").read_bytes() == (serial / "records.csv").read_bytes()


def test_records_have_the_values_and_types_of_their_solves(monkeypatch):
    # half the trials stop short: records.csv leaves their identification_iter empty
    cfg = identity_config(
        design=DesignSpec.explicit(np.sqrt(6.0) * np.diag(np.sqrt([0.5, 0.5, 1, 1, 1, 1]))),
        signal=SignalSpec.explicit(np.zeros(6)),
        sweep_values=(1e-2, 0.3), trials=3, solve=SolveOptions(max_iter=1),
    )
    solves = []

    def recording(mu, u, gamma, reg, opts):
        batch = forward_backward_batch(mu, u, gamma, reg, opts)
        solves.extend(batch)
        return batch

    monkeypatch.setattr(exps, "forward_backward_batch", recording)
    res = noise_stability_sweep(cfg)
    t = res.trials
    assert len(t) == len(solves) == 6
    # a shared value is the Python scalar of its column's one type
    assert [(type(p.n), type(p.sigma), type(p.mu)) for p in t.points] == [(int, float, float)] * 2
    assert (type(t.boundary_flag), type(t.certificate_margin)) == (bool, float)
    kinds = dict(seed="i", n="i", sigma="f", mu="f", identified="b", boundary_flag="b",
                 error_norm="f", eps_norm="f", identification_iter="i", converged="b",
                 certificate_margin="f")
    assert {c: t.array(c).dtype.kind for c in RECORD_COLUMNS} == kinds
    columns = {c: t.array(c).tolist() for c in RECORD_COLUMNS}
    written = t.fields("identification_iter")
    for k, solve in enumerate(solves):
        trial = {c: column[k] for c, column in columns.items()}
        assert trial["seed"] == cfg.base_seed + 1 + k and trial["n"] == 6
        assert (trial["sigma"], trial["mu"]) == (cfg.sweep_values[k // 3], 0.05)
        assert trial["converged"] is solve.converged is (k < 3)
        if k < 3:
            assert trial["identification_iter"] == solve.identification_iter
            assert written[k] == str(solve.identification_iter)
        else:
            assert solve.identification_iter is None and written[k] == ""
        assert trial["identified"] is (solve.converged and not solve.beta.any())
        assert trial["error_norm"] == float(np.linalg.norm(solve.beta))
        _, _, eps = oracles.explicit_trial(cfg.design, np.zeros(6), trial["sigma"], trial["seed"])
        assert trial["eps_norm"] == float(np.linalg.norm(eps))
        assert trial["boundary_flag"] is False
        assert trial["certificate_margin"] == res.certificate.verdict.margin


def test_summary_json(tmp_path):
    res = noise_stability_sweep(identity_config(trials=3))
    path = tmp_path / "summary.json"
    write_summary_json(res, path)
    payload = json.loads(path.read_text())
    assert payload["kind"] == "noise_stability"
    assert len(payload["rows"]) == 2
    assert set(payload["rows"][0]) == set(SUMMARY_COLUMNS)
    cert = payload["certificate"]
    assert cert["usable"] is True and cert["status"] == "interior"
    assert cert["margin"] == pytest.approx(1.0)
    assert cert["subspace_dim"] == 2


def test_summary_json_extras(tmp_path):
    cfg = ExperimentConfig(
        regularizer=L1(),
        design=DesignSpec.explicit(np.sqrt(3.0) * np.linalg.cholesky(G3).T),
        signal=SignalSpec.explicit(np.array([1.0, 1.0, 0.0])),
        sweep_values=(1e-2,),
        trials=2,
        noise_sigma=1e-4,
        jobs=1,
    )
    res = sharpness_experiment(cfg)
    path = tmp_path / "s.json"
    write_summary_json(res, path)
    payload = json.loads(path.read_text())
    assert payload["noiseless_identified"] == {"0.01": False}
    assert "profile" not in payload

    prof = noise_stability_sweep(identity_config(trials=2))
    write_summary_json(prof, path)
    payload = json.loads(path.read_text())
    assert payload["profile"]["finite_fraction"] == 1.0
    assert len(payload["profile"]["identification_iters"]) == 4


def test_plot_csv(tmp_path):
    res = noise_stability_sweep(identity_config(trials=3))
    path = tmp_path / "plot.csv"
    write_plot_csv(res, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert tuple(rows[0].keys()) == SUMMARY_COLUMNS
    assert float(rows[1]["identification_rate"]) == 1.0
