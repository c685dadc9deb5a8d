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
from partlysmooth.experiments import RECORD_COLUMNS, SUMMARY_COLUMNS

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
        ("proportional", "scale", np.True_),
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

    def test_negative_noise_sigma(self):
        # refused when the config is built, whichever harness it is for
        with pytest.raises(ValueError, match=r"^noise_sigma must be >= 0, got -1.0$"):
            identity_config(noise_sigma=-1.0)


class TestNoiseStability:
    def test_identity_design_recovers(self):
        res = noise_stability_sweep(identity_config())
        assert res.kind == "noise_stability"
        assert len(res.records) == 10
        assert res.certificate.usable
        assert res.certificate.verdict.margin == pytest.approx(1.0, abs=1e-12)
        for rec in res.records:
            assert rec.converged and rec.identified
            assert rec.certificate_margin == pytest.approx(1.0, abs=1e-12)
        noiseless = [r for r in res.records if r.sigma == 0.0]
        # with identity covariance the solution is soft thresholding: the
        # noiseless error is exactly mu per active coordinate
        for rec in noiseless:
            assert rec.error_norm == pytest.approx(0.05 * np.sqrt(2), abs=1e-8)
            assert rec.eps_norm == 0.0

    def test_reproducible(self):
        a = noise_stability_sweep(identity_config())
        b = noise_stability_sweep(identity_config())
        assert a.records == b.records
        c = noise_stability_sweep(identity_config(base_seed=99))
        assert a.records != c.records

    def test_seed_layout(self):
        res = noise_stability_sweep(identity_config(base_seed=40))
        seeds = [r.seed for r in res.records]
        assert seeds == list(range(41, 51))

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
        # explicit scale overrides the screening
        ok = replace(cfg, mu_rule=MuRule("proportional", scale=1.0))
        res = noise_stability_sweep(ok)
        assert [r.identified for r in res.records] == [False] * 5

    def test_non_converged_trials_are_excluded(self):
        cfg = identity_config(solve=SolveOptions(max_iter=1, step=0.1))
        res = noise_stability_sweep(cfg)
        for rec in res.records:
            assert not rec.converged and not rec.identified
            assert rec.identification_iter is None
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
        recs = [r for r in res.records if r.sigma > 0]
        expect = np.mean([r.error_norm / r.eps_norm for r in recs])
        assert noisy.mean_error_ratio == pytest.approx(expect)
        assert noisy.max_error_ratio == pytest.approx(
            max(r.error_norm / r.eps_norm for r in recs)
        )
        assert noisy.mean_identification_iter == pytest.approx(
            np.mean([r.identification_iter for r in recs])
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
        assert all(r.boundary_flag for r in res.records)
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
        assert len(res.records) == 50
        # population certificate on the identity is perfectly interior
        assert res.certificate.verdict.status == "interior"
        rates = [row.identification_rate for row in res.summary]
        assert rates[1] >= rates[0]
        assert rates[1] >= 0.9
        ns = sorted({r.n for r in res.records})
        assert ns == [50, 200]
        # mu follows the power rule at each n
        for rec in res.records:
            assert rec.mu == pytest.approx(rec.n ** -0.25)

    def test_fresh_design_per_trial(self):
        res = consistency_sweep(self.base(trials=2, sweep_values=(40, 80)))
        errs = [r.eps_norm for r in res.records]
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
            sweep_values=(1e-2, 1e-1, 1.0), trials=4, solve=SolveOptions(max_iter=9)
        )
        res = noise_stability_sweep(cfg)
        converged = [r for r in res.records if r.converged]
        assert 0 < len(converged) < len(res.records)
        assert 0 < sum(r.identified for r in converged) < len(converged)
        iters = [r.identification_iter for r in converged]
        assert res.profile.identification_iters == iters and max(iters) < 9
        # the trials that stop short count against both fractions
        assert res.profile.finite_fraction == len(converged) / len(res.records)
        assert res.profile.post_match_fraction == (
            sum(r.identified for r in converged) / len(res.records)
        )

    def test_profile_on_certified_instance(self):
        cfg = identity_config(sweep_values=(1e-3, 1e-4), trials=6)
        res = noise_stability_sweep(cfg)
        assert res.kind == "noise_stability"
        assert res.profile.finite_fraction == 1.0
        assert res.profile.post_match_fraction == 1.0
        iters = res.profile.identification_iters
        assert len(iters) == 12
        recorded = [r.identification_iter for r in res.records]
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
        assert [r.converged for r in res.records] == [True] * 10 + [False] * 20
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
    assert len(res.records) == 4
    for record, shared in zip(res.records, results[-len(res.records):]):
        inst = oracles.generate_instance(
            cfg.design, cfg.signal, record.sigma, record.seed, cfg.regularizer
        )
        theta = oracles.canonical_parameters(inst, record.mu * inst.n)
        replay = forward_backward(theta, cfg.regularizer, cfg.solve)
        assert np.array_equal(replay.beta, shared.beta)
        assert replay.iterations == shared.iterations
        assert replay.identification_iter == shared.identification_iter


IDENTIFIED_CASES = [
    (L1(), np.array([1.5, 0.0, 0.0, -2.0, 0.0, 0.0])),
    (GroupL1L2([[0, 1, 2], [3, 4], [5, 6, 7]]), np.array([1.0, -1.0, 0.5, 0, 0, 0, 0, 0])),
    (Nuclear((3, 3)), np.outer([1.0, 2.0, 0.0], [1.0, 0.0, -1.0]).ravel(order="F")),
    (AnalysisL1(oracles.tv_operator(8)), np.repeat([2.0, -1.0], 4)),
]


@pytest.mark.parametrize("reg, beta0", IDENTIFIED_CASES, ids=[r.kind for r, _ in IDENTIFIED_CASES])
def test_identified_from_keys_matches_the_descriptor_rule(monkeypatch, reg, beta0):
    # a record's identified compares final model masks with beta0's; it must
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
        records = noise_stability_sweep(cfg).records
        for record, res in zip(records, batches.pop(), strict=True):
            assert record.identified == (res.converged and res.model == target)
            seen.add((res.converged, record.identified))
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
    # the sweeps never read an objective, so none of them computes Gamma^+
    calls = svd_calls
    for sweep, overrides in FIXED_DESIGN_SWEEPS:
        calls.update(spectral_norms=0, pseudoinverse=0)
        sweep(random_design_config(**overrides))
        assert calls == {"spectral_norms": 1, "pseudoinverse": 0}, sweep.__name__
    # fresh designs: every trial has its own Gamma, and the batch computes
    # all their norms in one stacked call
    calls.update(spectral_norms=0, pseudoinverse=0)
    res = consistency_sweep(TestConsistency().base(trials=3, sweep_values=(40, 80)))
    assert calls == {"spectral_norms": 1, "pseudoinverse": 0}
    assert len(res.records) == 6


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
    want = consistency_sweep(cfg).records
    point = 3 * 6 * 6 * 8  # bytes of one sample size's Gamma stack
    for budget, sizes in ((9 * point, [9]), (2 * point, [6, 3]), (point - 1, [3, 3, 3])):
        monkeypatch.setattr(exps, "GAMMA_STACK_BYTES", budget)
        batches.clear()
        assert consistency_sweep(cfg).records == want
        assert batches == sizes, budget


def test_gamma_budget_at_p10_and_p200():
    def grouping(p, trials, points, quad=None):
        shared = SimpleNamespace(beta0=np.zeros(p), quad=quad)
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
    assert consistency_sweep(replace(cfg, jobs=2)).records == consistency_sweep(cfg).records


def test_parallel_jobs_match_serial():
    cfg = identity_config(trials=4)
    serial = noise_stability_sweep(cfg)
    parallel = noise_stability_sweep(replace(cfg, jobs=2))
    assert serial.records == parallel.records


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
            write_records_csv(sweep(replace(cfg, jobs=jobs)).records, path)
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
    assert res.records == noise_stability_sweep(identity_config(jobs=1)).records


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
    write_records_csv(res.records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res.records)
    assert tuple(rows[0].keys()) == RECORD_COLUMNS
    for row, rec in zip(rows, res.records):
        assert int(row["seed"]) == rec.seed
        assert row["identified"] in ("true", "false")
        assert (row["identified"] == "true") == rec.identified
        # floats are written with enough digits to round-trip bitwise
        assert float(row["error_norm"]) == rec.error_norm
        assert float(row["certificate_margin"]) == rec.certificate_margin
    # None serializes as the empty string
    assert rows[0]["identification_iter"] != ""
    blank = noise_stability_sweep(identity_config(trials=1, solve=SolveOptions(max_iter=1, step=0.1)))
    write_records_csv(blank.records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["identification_iter"] == ""
    assert rows[0]["converged"] == "false"


def reference_fmt(x) -> str:
    """_fmt as one isinstance chain: the reference for its per-type table."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def test_writers_have_the_bytes_of_csv_writer(tmp_path):
    values = [None, math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1.5e-7, 2 ** 70,
              -(2 ** 63), 0, True, False, np.float64(0.1), np.float64(-math.inf),
              np.int64(-7), np.int32(3), np.bool_(True), np.bool_(False), 1 / 3]
    # every value in every column, so each column sees each type
    rows = [SimpleNamespace(**{c: values[(i + j) % len(values)]
                               for j, c in enumerate(RECORD_COLUMNS)})
            for i in range(len(values))]
    path = tmp_path / "records.csv"
    write_records_csv(rows, path)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in rows:
            writer.writerow([reference_fmt(getattr(r, c)) for c in RECORD_COLUMNS])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert [exps._fmt(v) for v in values] == [reference_fmt(v) for v in values]


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
