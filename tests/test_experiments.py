"""Monte-Carlo harnesses: reproducibility, summaries, serialization."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import partlysmooth.experiments as exps
from partlysmooth import (
    DesignSpec,
    ExperimentConfig,
    L1,
    ModelDescriptor,
    MuRule,
    SignalSpec,
    SolveOptions,
    canonical_parameters,
    consistency_sweep,
    forward_backward,
    forward_backward_batch,
    generate_instance,
    find_certified_design,
    identification_profile,
    noise_stability_sweep,
    sharpness_experiment,
    write_plot_csv,
    write_records_csv,
    write_summary_json,
)
from partlysmooth.experiments import RECORD_COLUMNS, SUMMARY_COLUMNS

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
        jobs=1,
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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MuRule("adaptive")


class TestConfigValidation:
    def test_trials(self):
        with pytest.raises(ValueError):
            identity_config(trials=0)

    def test_empty_sweep(self):
        with pytest.raises(ValueError):
            identity_config(sweep_values=())


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
            signal=SignalSpec.sparse(6, 2),
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
    def test_profile_on_certified_instance(self):
        cfg = identity_config(sweep_values=(1e-3, 1e-4), trials=6)
        res = identification_profile(cfg)
        assert res.kind == "identification_profile"
        assert res.profile.finite_fraction == 1.0
        assert res.profile.post_match_fraction == 1.0
        iters = res.profile.identification_iters
        assert len(iters) == 12
        recorded = [r.identification_iter for r in res.records]
        assert sorted(iters) == sorted(recorded)


def test_inconsistent_model_trace_is_an_error(monkeypatch):
    real = exps.forward_backward_batch

    def corrupted(thetas, reg, opts):
        results = real(thetas, reg, opts)
        results[-1].model_trace[-1] = ModelDescriptor("l1", (99,))
        return results

    monkeypatch.setattr(exps, "forward_backward_batch", corrupted)
    with pytest.raises(RuntimeError):
        identification_profile(identity_config(trials=2))


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
    (identification_profile, {}),
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

    def recording(thetas, reg, opts):
        results.extend(forward_backward_batch(thetas, reg, opts))
        return results[len(results) - len(thetas):]

    monkeypatch.setattr(exps, "forward_backward_batch", recording)
    res = sweep(cfg)
    opts = replace(cfg.solve, trace_models=True) if sweep is identification_profile else cfg.solve
    # the trials are the last solves (sharpness first runs noiseless checks)
    trials = list(zip(res.records, results[-len(res.records):]))
    for record, shared in trials[:1] + trials[-1:]:
        inst = generate_instance(cfg.design, cfg.signal, record.sigma, record.seed, cfg.regularizer)
        theta = canonical_parameters(inst, record.mu * inst.n)
        replay = forward_backward(theta, cfg.regularizer, opts)
        assert np.array_equal(replay.beta, shared.beta)
        assert replay.iterations == shared.iterations
        assert replay.identification_iter == shared.identification_iter


def test_runners_that_read_mu_rule_need_one():
    for sweep, cfg in ((noise_stability_sweep, identity_config(mu_rule=None)),
                       (identification_profile, identity_config(mu_rule=None)),
                       (consistency_sweep, TestConsistency().base(mu_rule=None))):
        with pytest.raises(ValueError, match="mu.rule"):
            sweep(cfg)


def test_gamma_prepared_once_per_fixed_design(svd_calls):
    # the sweeps never read an objective, so none of them computes Gamma^+
    calls = svd_calls
    for sweep, overrides in FIXED_DESIGN_SWEEPS:
        calls.update(spectral_norm=0, pseudoinverse=0)
        sweep(random_design_config(**overrides))
        assert calls == {"spectral_norm": 1, "pseudoinverse": 0}, sweep.__name__
    # fresh designs: every trial prepares its own Gamma
    calls.update(spectral_norm=0, pseudoinverse=0)
    res = consistency_sweep(TestConsistency().base(trials=3, sweep_values=(40, 80)))
    assert calls == {"spectral_norm": 6, "pseudoinverse": 0} and len(res.records) == 6


def test_one_batch_per_fixed_design_sweep(monkeypatch):
    batches = []

    def counted(thetas, reg, opts):
        batches.append(len(thetas))
        return forward_backward_batch(thetas, reg, opts)

    monkeypatch.setattr(exps, "forward_backward_batch", counted)
    # 2 sweep points x 2 trials each: one batch of all four trials
    for sweep, overrides in FIXED_DESIGN_SWEEPS:
        batches.clear()
        sweep(random_design_config(**overrides))
        # sharpness first solves its noiseless check per mu as one batch
        want = [2, 4] if sweep is sharpness_experiment else [4]
        assert batches == want, sweep.__name__
    # fresh designs: one batch per sample size
    batches.clear()
    consistency_sweep(TestConsistency().base(trials=3, sweep_values=(40, 80)))
    assert batches == [3, 3]


def test_parallel_jobs_match_serial():
    cfg = identity_config(trials=4)
    serial = noise_stability_sweep(cfg)
    parallel = noise_stability_sweep(replace(cfg, jobs=2))
    assert serial.records == parallel.records


def test_default_jobs_is_serial(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    res = noise_stability_sweep(identity_config(jobs=None))
    assert res.records == noise_stability_sweep(identity_config()).records


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

    prof = identification_profile(identity_config(trials=2))
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
