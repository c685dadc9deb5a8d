"""Config parsing and the command line front end."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from partlysmooth import MuRule, cli
from partlysmooth import config as cfgmod
from partlysmooth.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_INJECTIVITY,
    EXIT_OK,
    EXIT_OUTSIDE,
    main,
)
from partlysmooth.config import ConfigError

import oracles

G3 = [[1.0, 0.0, 0.6], [0.0, 1.0, 0.6], [0.6, 0.6, 1.0]]
G3_BOUNDARY = [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 1.0]]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# config module


class TestConfigParsing:
    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            cfgmod.load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            cfgmod.load_config(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            cfgmod.load_config(arr)

    def test_matrix_inline_xor_csv(self, tmp_path):
        np.savetxt(tmp_path / "m.csv", np.eye(2), delimiter=",")
        got = cfgmod.matrix_from_config({"m_csv": "m.csv"}, "m", str(tmp_path), "test")
        np.testing.assert_array_equal(got, np.eye(2))
        got = cfgmod.matrix_from_config({"m": [[1.0, 2.0]]}, "m", ".", "test")
        np.testing.assert_array_equal(got, [[1.0, 2.0]])
        for cfg in ({}, {"m": [[1.0]], "m_csv": "m.csv"}):
            with pytest.raises(ConfigError):
                cfgmod.matrix_from_config(cfg, "m", str(tmp_path), "test")
        with pytest.raises(ConfigError):
            cfgmod.matrix_from_config({"m_csv": "missing.csv"}, "m", str(tmp_path), "t")

    def test_matrix_and_vector_refusals(self):
        with pytest.raises(ConfigError, match="^test: m is not a numeric array: "):
            cfgmod.matrix_from_config({"m": [["a", "b"]]}, "m", ".", "test")
        with pytest.raises(ConfigError, match="^test: v must be a vector$"):
            cfgmod._vector_from_config({"v": np.eye(2).tolist()}, "v", ".", "test")

    def test_design_from_config(self):
        spec = cfgmod.design_from_config({"kind": "explicit", "matrix": [[1.0, 0.0]]})
        assert spec.kind == "explicit" and spec.matrix.shape == (1, 2)
        spec = cfgmod.design_from_config(
            {"kind": "gaussian_rows", "identity_dim": 4, "n": 30}
        )
        assert spec.kind == "gaussian_rows" and spec.n == 30
        np.testing.assert_array_equal(spec.covariance, np.eye(4))
        spec = cfgmod.design_from_config(
            {"kind": "gaussian_rows", "covariance": G3, "n": 10}
        )
        np.testing.assert_array_equal(spec.covariance, G3)
        with pytest.raises(ConfigError):
            cfgmod.design_from_config({"kind": "toeplitz"})
        with pytest.raises(ConfigError):
            cfgmod.design_from_config({"kind": "gaussian_rows", "identity_dim": 4})

    def test_signal_from_config(self):
        spec = cfgmod.signal_from_config({"kind": "sparse", "p": 8, "support_size": 2})
        assert (spec.p, spec.support_size) == (8, 2)
        assert spec.amplitude_range == (1.0, 2.0)
        spec = cfgmod.signal_from_config(
            {"kind": "low_rank", "rank": 2, "amplitude_range": [0.5, 3.0]}
        )
        assert spec.rank == 2 and spec.amplitude_range == (0.5, 3.0)
        with pytest.raises(ConfigError):
            cfgmod.signal_from_config({"kind": "chirp"})
        with pytest.raises(ConfigError):
            cfgmod.signal_from_config({"kind": "sparse", "p": 8})

    def test_regularizer_integers_read_as_numbers(self):
        # a whole float is the integer it names, as for design.n
        reg = cfgmod.regularizer_from_config({"kind": "nuclear", "matrix_shape": [2.0, 2.0]})
        assert reg.shape == (2, 2) and all(type(s) is int for s in reg.shape)
        reg = cfgmod.regularizer_from_config({"kind": "group_l1l2", "groups": [[0, 1.0], [2e0]]})
        assert [g.tolist() for g in reg.groups] == [[0, 1], [2]]
        with pytest.raises(ConfigError, match="regularizer.groups must be an integer"):
            cfgmod.regularizer_from_config({"kind": "group_l1l2", "groups": [[0], [True]]})

    def test_operator_shape_reads_integers(self):
        # the declared shape of a 2 x 1 operator, read as the other integer keys
        cfg = {"kind": "analysis_l1", "operator": [[1.0], [2.0]]}
        for shape in ([2, "1"], [2.0, 1.0]):
            reg = cfgmod.regularizer_from_config(dict(cfg, operator_shape=shape))
            assert (reg.p, reg.q) == (2, 1)
        with pytest.raises(ConfigError, match="regularizer.operator_shape must be an integer"):
            cfgmod.regularizer_from_config(dict(cfg, operator_shape=[2, True]))
        with pytest.raises(ConfigError, match="operator shape"):
            cfgmod.regularizer_from_config(dict(cfg, operator_shape=[1, 2]))

    def test_solver_options(self):
        opts = cfgmod.solve_options_from_config({"max_iter": 50, "step": 0.5})
        assert opts.max_iter == 50 and opts.step == 0.5
        assert opts.fp_tol == 1e-10
        with pytest.raises(ConfigError):
            cfgmod.solve_options_from_config({"momentum": 0.9})
        with pytest.raises(ConfigError):
            cfgmod.solve_options_from_config({"max_iter": 0})

    def test_tolerances(self):
        tol = cfgmod.tolerances_from_config({"ri_tol": 1e-4})
        assert tol["ri_tol"] == 1e-4 and tol["zero_tol"] == 1e-8
        with pytest.raises(ConfigError):
            cfgmod.tolerances_from_config({"rtol": 1e-4})

    def test_mu_rule(self):
        rule = cfgmod.mu_rule_from_config({"kind": "power", "exponent": 0.3})
        assert rule.exponent == 0.3
        with pytest.raises(ConfigError):
            cfgmod.mu_rule_from_config({"kind": "fixed"})


def experiment_payload(**exp_overrides):
    exp = {
        "kind": "noise_stability",
        "sweep": {"noise_levels": [0.0, 1e-3]},
        "mu_rule": {"kind": "fixed", "value": 0.05},
        "trials": 3,
        "base_seed": 7,
        "jobs": 1,
    }
    exp.update(exp_overrides)
    return {
        "regularizer": {"kind": "l1"},
        "design": {"kind": "explicit",
                   "matrix": (np.sqrt(6.0) * np.eye(6)).tolist()},
        "signal": {"kind": "explicit", "beta0": [1.5, 0, 0, -2.0, 0, 0]},
        "experiment": exp,
    }


def sharpness_payload(**exp_overrides):
    """A sharpness file: mu is the sweep, so it has noise_sigma and no mu_rule."""
    payload = without_key(experiment_payload(
        kind="sharpness", sweep={"mu_values": [0.1]}, noise_sigma=1e-3), "experiment.mu_rule")
    payload["experiment"].update(exp_overrides)
    return payload


class TestExperimentConfig:
    def test_round_trip(self):
        payload = experiment_payload()
        payload["tolerances"] = {"zero_tol": 1e-9}
        kind, config = cfgmod.experiment_from_config(payload)
        assert kind == "noise_stability"
        assert config.trials == 3 and config.base_seed == 7
        assert config.sweep_values == (0.0, 1e-3)
        assert config.solve.zero_tol == 1e-9
        assert config.mu_rule == MuRule("fixed", value=0.05)
        # a noise sweep takes sigma from its sweep, so its file has none
        assert config.noise_sigma is None

    def test_noise_sigma_is_a_float(self):
        _, config = cfgmod.experiment_from_config(sharpness_payload(noise_sigma="0.1"))
        assert config.noise_sigma == 0.1

    def test_mu_rule_only_where_read(self):
        # sharpness sweeps mu itself, so its file has no mu_rule (one is an
        # error: see test_error_exits_1_without_traceback)
        kind, config = cfgmod.experiment_from_config(sharpness_payload())
        assert kind == "sharpness" and config.mu_rule is None
        # every other kind requires one
        for kind, sweep in (("noise_stability", {"noise_levels": [0.1]}),
                            ("consistency", {"sample_sizes": [50]})):
            payload = without_key(experiment_payload(kind=kind, sweep=sweep), "experiment.mu_rule")
            with pytest.raises(ConfigError, match="mu_rule"):
                cfgmod.experiment_from_config(payload)

    def test_validation(self):
        for mutate in (
            lambda p: p.pop("experiment"),
            lambda p: p.pop("regularizer"),
            lambda p: p["experiment"].pop("trials"),
            lambda p: p["experiment"].update(kind="annealing"),
            lambda p: p["experiment"].update(sweep={}),
            lambda p: p["experiment"].update(sweep={"noise_levels": []}),
            lambda p: p["experiment"].update(sweep={"mu_values": [0.1]}),
            lambda p: p["experiment"].update(
                sweep={"noise_levels": [0.1], "mu_values": [0.1]}
            ),
        ):
            payload = experiment_payload()
            mutate(payload)
            with pytest.raises(ConfigError):
                cfgmod.experiment_from_config(payload)


# ---------------------------------------------------------------------------
# certify command


class TestCertify:
    def test_interior(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "gamma": np.eye(3).tolist(),
            "beta0": [1.0, -2.0, 0.0],
        })
        code = run(["certify", "--config", cfg, "--out", tmp_path / "out"])
        assert code == EXIT_OK
        assert "interior" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["stable"] is True
        assert payload["status"] == "interior"
        assert payload["margin"] == pytest.approx(1.0)
        assert payload["eta"] == pytest.approx([1.0, -1.0, 0.0])
        assert payload["descriptor"] == {"kind": "l1", "data": [0, 1]}
        assert payload["subspace_dim"] == 2

    def test_outside(self, tmp_path):
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "gamma": G3,
            "beta0": [1.0, 1.0, 0.0],
        })
        code = run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"])
        assert code == EXIT_OUTSIDE
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["status"] == "outside"
        assert payload["margin"] == pytest.approx(-0.2)

    def test_boundary(self, tmp_path):
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "gamma": G3_BOUNDARY,
            "beta0": [1.0, 1.0, 0.0],
        })
        code = run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"])
        assert code == EXIT_INCONCLUSIVE
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["status"] == "boundary"
        assert payload["inconclusive"] is True

    def test_injectivity_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "gamma": [[1.0, 1.0], [1.0, 1.0]],
            "beta0": [1.0, -1.0],
        })
        code = run(["certify", "--config", cfg, "--out", tmp_path / "out"])
        assert code == EXIT_INJECTIVITY
        assert "injectivity" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["usable"] is False and payload["eta"] is None
        assert "status" not in payload

    def test_gamma_from_csv(self, tmp_path):
        np.savetxt(tmp_path / "gamma.csv", np.array(G3), delimiter=",")
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "gamma_csv": "gamma.csv",
            "beta0": [1.0, 1.0, 0.0],
        })
        assert run(["certify", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) \
            == EXIT_OUTSIDE

    def test_gamma_from_explicit_design(self, tmp_path):
        x = np.sqrt(3.0) * np.linalg.cholesky(np.array(G3)).T
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "design": {"kind": "explicit", "matrix": x.tolist()},
            "beta0": [1.0, 1.0, 0.0],
        })
        code = run(["certify", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
        assert code == EXIT_OUTSIDE
        payload = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert payload["margin"] == pytest.approx(-0.2)

    def test_gamma_from_gaussian_design_uses_population(self, tmp_path):
        # the covariance enters directly, no rows are ever drawn
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "design": {"kind": "gaussian_rows", "identity_dim": 3, "n": 5},
            "beta0": [1.0, -2.0, 0.0],
        })
        code = run(["certify", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert payload["margin"] == pytest.approx(1.0)

    def test_analysis_operator_from_csv(self, tmp_path):
        np.savetxt(tmp_path / "d.csv", oracles.tv_operator(6), delimiter=",")
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "analysis_l1", "operator_csv": "d.csv"},
            "gamma": np.eye(6).tolist(),
            "beta0": [1.0, 1.0, 1.0, 3.0, 3.0, 3.0],
        })
        code = run(["certify", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "o" / "certificate.json").read_text())
        # the one jump sits between coordinates 2 and 3: the other four
        # differences are the cosupport
        assert payload["descriptor"] == {"kind": "analysis_l1", "data": [0, 1, 3, 4]}

    def test_beta0_from_signal(self, tmp_path):
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "gamma": np.eye(6).tolist(),
            "signal": {"kind": "sparse", "p": 6, "support_size": 2},
            "seed": 3,
        })
        code = run(["certify", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert len(payload["descriptor"]["data"]) == 2


# ---------------------------------------------------------------------------
# solve command


def solve_payload():
    return {
        "regularizer": {"kind": "l1"},
        "x": [[1.0, 0.0], [0.0, 1.0]],
        "y": [1.0, 0.0],
        "beta0": [1.0, 0.0],
        "lambda": 0.2,
    }


def tall_solve_payload():
    # a 4 x 3 design, whose beta0 has 3 entries
    return {**solve_payload(), "x": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                     [1.0, 1.0, 1.0]],
            "y": [1.0, 0.0, 0.0, 1.0], "beta0": [1.0, 0.0, 0.0]}


def generated_solve_payload():
    return {
        "regularizer": {"kind": "l1"},
        "design": {"kind": "explicit",
                   "matrix": (np.sqrt(6.0) * np.eye(6)).tolist()},
        "signal": {"kind": "explicit", "beta0": [1.5, 0, 0, -2.0, 0, 0]},
        "noise_sigma": 0.0,
        "lambda": 0.3,
    }


class TestSolve:
    def test_identity_lasso(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solve_payload())
        code = run(["solve", "--config", cfg, "--out", tmp_path / "out"])
        assert code == EXIT_OK
        assert "converged" in capsys.readouterr().out
        sol = json.loads((tmp_path / "out" / "solution.json").read_text())
        # n=2 rows scale the penalty: mu = lambda/n, gamma = I/2, u = y/2,
        # so the minimizer is soft(1.0, 0.2) on the first coordinate
        assert sol["mu"] == pytest.approx(0.1)
        assert sol["beta"] == pytest.approx([0.8, 0.0], abs=1e-8)
        assert sol["converged"] is True
        # objective is normalized: J(beta) + (quadratic + 0.5 u' pinv(gamma) u)/mu
        assert sol["objective"] == pytest.approx(0.9, abs=1e-8)
        assert sol["descriptor"] == {"kind": "l1", "data": [0]}
        assert sol["dual_certificate"]["status"] == "interior"
        assert sol["dual_certificate"]["margin"] == pytest.approx(1.0, abs=1e-7)
        assert sol["unique"] is True
        assert sol["error_norm"] == pytest.approx(0.2, abs=1e-8)
        assert isinstance(sol["identification_iter"], int)

    def test_beta0_of_a_tall_design(self, tmp_path):
        cfg = write_config(tmp_path, tall_solve_payload())
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == EXIT_OK
        sol = json.loads((tmp_path / "o" / "solution.json").read_text())
        assert len(sol["beta"]) == 3
        error = np.linalg.norm(np.subtract(sol["beta"], [1.0, 0.0, 0.0]))
        assert sol["error_norm"] == pytest.approx(error)

    def test_without_beta0_no_error_norm(self, tmp_path):
        payload = solve_payload()
        del payload["beta0"]
        cfg = write_config(tmp_path, payload)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == EXIT_OK
        sol = json.loads((tmp_path / "o" / "solution.json").read_text())
        assert "error_norm" not in sol

    def test_generated_instance(self, tmp_path):
        cfg = write_config(tmp_path, generated_solve_payload())
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == EXIT_OK
        sol = json.loads((tmp_path / "o" / "solution.json").read_text())
        # noiseless identity design: each active entry shrinks by exactly mu
        assert sol["error_norm"] == pytest.approx(0.05 * np.sqrt(2), abs=1e-8)
        assert sol["descriptor"]["data"] == [0, 3]

    def test_non_converged_still_ok(self, tmp_path, capsys):
        payload = solve_payload()
        payload["solver"] = {"max_iter": 1, "step": 0.1}
        cfg = write_config(tmp_path, payload)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_OK
        assert "max_iter" in capsys.readouterr().out
        sol = json.loads((tmp_path / "o" / "solution.json").read_text())
        assert sol["converged"] is False
        assert sol["identification_iter"] is None

    def test_missing_lambda(self, tmp_path, capsys):
        payload = solve_payload()
        del payload["lambda"]
        cfg = write_config(tmp_path, payload)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "regularizer": {"kind": "l1"},
            "lambda": 0.2,
            "design": {"kind": "explicit", "matrix": [[1.0]]},
        })
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "signal" in err and "noise_sigma" in err

    def test_mismatched_y(self, tmp_path, capsys):
        payload = solve_payload()
        payload["y"] = [1.0, 0.0, 0.0]
        cfg = write_config(tmp_path, payload)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_ERROR
        assert "rows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment command


def consistency_payload():
    """A serial l1 consistency file: a fresh design, and so a Gamma stack, per trial."""
    return {
        "regularizer": {"kind": "l1"},
        "design": {"kind": "gaussian_rows", "identity_dim": 10, "n": 100},
        "signal": {"kind": "sparse", "p": 10, "support_size": 3},
        "experiment": {"kind": "consistency", "sweep": {"sample_sizes": [100, 400]},
                       "mu_rule": {"kind": "power"}, "trials": 5, "noise_sigma": 1.0,
                       "base_seed": 23, "jobs": 1},
    }


@pytest.mark.parametrize("payload", [experiment_payload, consistency_payload])
def test_experiment_leaves_numpy_ma_and_scipy_unloaded(tmp_path, payload):
    # an l1 sweep needs neither: numpy.ma costs ~16 ms to import (np.unique
    # loads it), and scipy more
    code = (
        "import sys; from partlysmooth import cli; "
        "args = ['experiment', '--config', sys.argv[1], '--out', sys.argv[2], '--quiet']; "
        "code = cli.main(args); "
        "sys.exit(code or sorted({'numpy.ma', 'scipy'} & set(sys.modules)) or None)"
    )
    cfg = write_config(tmp_path, payload())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "records.csv").exists()


class TestExperiment:
    def test_runs_and_writes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment_payload())
        out = tmp_path / "out"
        assert run(["experiment", "--config", cfg, "--out", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "identification rate" in stdout
        for name in ("records.csv", "summary.json", "plot.csv"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "noise_stability"
        assert [row["identification_rate"] for row in summary["rows"]] == [1.0, 1.0]

    def test_noise_sweep_summary_carries_profile(self, tmp_path):
        cfg = write_config(tmp_path, experiment_payload())
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == EXIT_OK
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        profile = summary["profile"]
        assert profile["finite_fraction"] == profile["post_match_fraction"] == 1.0
        # one iteration per trial: 2 noise levels x 3 trials
        assert len(profile["identification_iters"]) == 6

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, experiment_payload())
        run(["experiment", "--config", cfg, "--out", tmp_path / "a", "--quiet"])
        run(["experiment", "--config", cfg, "--out", tmp_path / "b", "--quiet"])
        # serial runs solve the whole sweep as one batch, a pool one per point
        run(["experiment", "--config", cfg, "--out", tmp_path / "c", "--quiet", "--jobs", "2"])
        a = (tmp_path / "a" / "records.csv").read_bytes()
        assert a == (tmp_path / "b" / "records.csv").read_bytes()
        assert a == (tmp_path / "c" / "records.csv").read_bytes()

    def test_overrides(self, tmp_path):
        cfg = write_config(tmp_path, experiment_payload())
        run(["experiment", "--config", cfg, "--out", tmp_path / "o", "--quiet",
             "--trials", "2", "--seed", "100", "--jobs", "1"])
        rows = (tmp_path / "o" / "records.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2  # header + trials * sweep points
        assert rows[1].split(",")[0] == "101"

    def test_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment_payload())
        run(["experiment", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
        assert capsys.readouterr().out == ""

    def test_one_zero_tol_for_solver_and_models(self, tmp_path):
        # the solver tracks models with the same threshold the final
        # descriptor is read with, so the trace check after identification holds
        payload = experiment_payload(
            sweep={"noise_levels": [0.5]}, mu_rule={"kind": "fixed", "value": 0.03}, trials=10,
            base_seed=3,
        )
        payload["design"] = {"kind": "gaussian_rows", "identity_dim": 10, "n": 50}
        payload["signal"] = {"kind": "sparse", "p": 10, "support_size": 3}
        payload["tolerances"] = {"zero_tol": 0.05}
        cfg = write_config(tmp_path, payload)
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == EXIT_OK

    def test_sharpness_without_mu_rule(self, tmp_path):
        payload = sharpness_payload(sweep={"mu_values": [0.1, 0.3]})
        # an outside-certified design, so the sweep raises no warning
        payload["design"]["matrix"] = (np.sqrt(3.0) * np.linalg.cholesky(G3).T).tolist()
        payload["signal"]["beta0"] = [1.0, 1.0, 0.0]
        cfg = write_config(tmp_path, payload)
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == EXIT_OK
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["noiseless_identified"] == {
            "0.10000000000000001": False, "0.29999999999999999": False,
        }

    def test_consistency_design_needs_no_n(self, tmp_path):
        # each sample size draws its own design, so design.n is never read:
        # a file may omit it, and a given one changes no byte
        written = []
        for n in (None, 100, 7):
            payload = consistency_payload()
            del payload["design"]["n"]
            if n is not None:
                payload["design"]["n"] = n
            cfg = write_config(tmp_path, payload, f"n{n}.json")
            out = tmp_path / f"n{n}"
            assert run(["experiment", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
            written.append((out / "records.csv").read_bytes())
        assert written[0] == written[1] == written[2]

    def test_dispatches_through_runners(self, tmp_path, monkeypatch):
        # cli._RUNNERS is the one dispatch table, so wrapping an entry
        # wraps every run of its kind
        calls = []
        runner = cli._RUNNERS["noise_stability"]
        monkeypatch.setitem(cli._RUNNERS, "noise_stability",
                            lambda config: calls.append(config) or runner(config))
        cfg = write_config(tmp_path, experiment_payload())
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == EXIT_OK
        assert len(calls) == 1

    def test_bad_kind_exits_1(self, tmp_path, capsys):
        payload = experiment_payload(kind="annealing")
        cfg = write_config(tmp_path, payload)
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_ERROR
        assert "annealing" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run(["certify", "--config", tmp_path / "nope.json"]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert run(["solve", "--config", path]) == EXIT_ERROR
    assert "JSON" in capsys.readouterr().err


def _solver_fails(*args, **kwargs):
    raise RuntimeError("inner solver did not converge")


def with_key(payload, path, value):
    """payload with the key at the dotted path set to value."""
    *outer, key = path.split(".")
    inner = payload
    for name in outer:
        inner = inner.setdefault(name, {})
    inner[key] = value
    return payload


def without_key(payload, path):
    """payload without the key at the dotted path."""
    *outer, key = path.split(".")
    inner = payload
    for name in outer:
        inner = inner[name]
    del inner[key]
    return payload


def certify_payload():
    return {"regularizer": {"kind": "l1"}, "gamma": np.eye(2).tolist(), "beta0": [1.0, 0.0]}


NAN = float("nan")


@pytest.mark.parametrize("command, payload, argv, names", [
    pytest.param("experiment", experiment_payload(jobs=None), [], "jobs", id="jobs-null"),
    pytest.param("experiment", experiment_payload(trials=None), [], "trials", id="trials-null"),
    pytest.param("experiment", experiment_payload(base_seed=None), [], "base_seed",
                 id="base_seed-null"),
    pytest.param("experiment", sharpness_payload(noise_sigma="loud"), [], "noise_sigma",
                 id="noise_sigma-text"),
    pytest.param("experiment", experiment_payload(jobs=0), [], "jobs", id="jobs-0"),
    pytest.param("experiment", experiment_payload(jobs=-1), [], "jobs", id="jobs-negative"),
    pytest.param("experiment", experiment_payload(), ["--jobs", "0"], "jobs", id="jobs-flag-0"),
    pytest.param("solve", solve_payload(), [], "inner solver", id="solver-runtime-error"),
    pytest.param("solve", with_key(solve_payload(), "solver.max_iter", None), [],
                 "solver.max_iter", id="solve-max_iter-null"),
    pytest.param("solve", with_key(solve_payload(), "tolerances.ri_tol", None), [],
                 "tolerances.ri_tol", id="solve-ri_tol-null"),
    pytest.param("certify", with_key(certify_payload(), "tolerances.ri_tol", None), [],
                 "tolerances.ri_tol", id="certify-ri_tol-null"),
    pytest.param("solve", with_key(solve_payload(), "lambda", None), [], "lambda",
                 id="lambda-null"),
    # the solver needs mu = lambda / n > 0: refused in the file, naming lambda
    pytest.param("solve", with_key(solve_payload(), "lambda", 0), [], "lambda",
                 id="lambda-zero"),
    # beta0 is compared with the solution, so it has one entry per column of x
    pytest.param("solve", with_key(tall_solve_payload(), "beta0", [0.5]), [], "beta0",
                 id="solve-beta0-too-short"),
    pytest.param("solve", with_key(tall_solve_payload(), "beta0", [0.5, 1.0]), [], "beta0",
                 id="solve-beta0-too-long"),
    pytest.param("solve", with_key(solve_payload(), "x", [1.0, 0.0]), [], "x must be a matrix",
                 id="solve-x-vector"),
    pytest.param("solve", with_key(generated_solve_payload(), "noise_sigma", None), [],
                 "noise_sigma", id="solve-noise_sigma-null"),
    pytest.param("solve", with_key(generated_solve_payload(), "seed", "three"), [], "seed",
                 id="seed-text"),
    pytest.param("solve", with_key(solve_payload(), "tolerances.zero_tol", -1), [],
                 "tolerances.zero_tol", id="zero_tol-negative"),
    pytest.param("solve", with_key(solve_payload(), "solver.fp_tol", NAN), [],
                 "solver.fp_tol", id="fp_tol-nan"),
    pytest.param("solve", with_key(solve_payload(), "tolerances.ri_tol", NAN), [],
                 "tolerances.ri_tol", id="ri_tol-nan"),
    pytest.param("solve", with_key(solve_payload(), "solver.zero_tol", 1e-8), [], "zero_tol",
                 id="solver-zero_tol-removed"),
    pytest.param("solve", with_key(solve_payload(), "solver.trace_models", True), [],
                 "trace_models", id="solver-trace_models-removed"),
    pytest.param("experiment", with_key(experiment_payload(), "tolerances.injectivity_tol", 1e-8),
                 [], "injectivity_tol", id="experiment-injectivity_tol"),
    pytest.param("certify", with_key(certify_payload(), "lamda", 3), [], "lamda",
                 id="certify-unknown-key"),
    pytest.param("certify", with_key(certify_payload(), "solver", {"max_iter": None, "bogus": 1}),
                 [], "solver", id="certify-solver-section"),
    pytest.param("solve", with_key(solve_payload(), "lamda", 3), [], "lamda",
                 id="solve-unknown-key"),
    pytest.param("solve", with_key(solve_payload(), "experiment", {"kind": "consistency"}), [],
                 "experiment", id="solve-experiment-section"),
    pytest.param("experiment", with_key(experiment_payload(), "lambda", 0.2), [], "lambda",
                 id="experiment-unknown-key"),
    pytest.param("experiment", experiment_payload(seed=5), [], "seed",
                 id="experiment-seed"),
    # a top-level seed is read only where the file draws something
    pytest.param("certify", with_key(certify_payload(), "seed", 5), [], "seed",
                 id="certify-seed-without-signal"),
    pytest.param("solve", with_key(solve_payload(), "seed", 5), [], "seed",
                 id="solve-seed-with-x-y"),
    pytest.param("certify", certify_payload(), ["--seed", "9"], "seed",
                 id="certify-seed-flag-without-signal"),
    pytest.param("solve", solve_payload(), ["--seed", "9"], "seed",
                 id="solve-seed-flag-with-x-y"),
    pytest.param("experiment", experiment_payload(
        kind="consistency", sweep={"sample_sizes": [100.7, 400]}, noise_sigma=0.5,
        mu_rule={"kind": "power"},
    ), [], "experiment.sweep.sample_sizes", id="sample_sizes-fraction"),
    pytest.param("experiment", experiment_payload(job=4), [], "job", id="experiment-job"),
    pytest.param("experiment", with_key(experiment_payload(), "experiment.mu_rule.exp", 0.3),
                 [], "exp", id="mu_rule-unknown-key"),
    pytest.param("experiment", with_key(experiment_payload(), "design.n", 6), [], "n",
                 id="explicit-design-unknown-key"),
    pytest.param("experiment", with_key(experiment_payload(), "signal.p", 6), [], "p",
                 id="explicit-signal-unknown-key"),
    pytest.param("certify", with_key(certify_payload(), "regularizer.groups", [[0], [1]]), [],
                 "groups", id="regularizer-unknown-key"),
    pytest.param("certify", {"regularizer": {"kind": "l1"}, "beta0": [1.0, 0.0],
                             "design": {"kind": "gaussian_rows", "n": 5, "identity_dim": 2,
                                        "covariance": np.eye(2).tolist()}},
                 [], "identity_dim", id="identity_dim-and-covariance"),
    pytest.param("certify", {"regularizer": {"kind": "l1"}, "gamma": np.eye(2).tolist(),
                             "signal": {"kind": "sparse", "p": 2, "support_size": 1, "rank": 1}},
                 [], "rank", id="random-signal-unknown-key"),
    # a fractional or boolean index or size is refused, not truncated
    pytest.param("certify", with_key(certify_payload(), "regularizer",
                                     {"kind": "group_l1l2", "groups": [[0, 1.7]]}),
                 [], "groups", id="groups-fraction"),
    pytest.param("certify", with_key(certify_payload(), "regularizer",
                                     {"kind": "nuclear", "matrix_shape": [2.5, 2.5]}),
                 [], "matrix_shape", id="matrix_shape-fraction"),
    pytest.param("certify", with_key(certify_payload(), "regularizer",
                                     {"kind": "nuclear", "matrix_shape": [True, True]}),
                 [], "matrix_shape", id="matrix_shape-bool"),
    # two alternative sources of one input: neither is silently dropped
    pytest.param("certify", with_key(certify_payload(), "signal", {"kind": "sparse", "bogus": 1}),
                 [], ("'beta0'", "'signal'"), id="certify-beta0-and-signal"),
    pytest.param("certify", with_key(certify_payload(), "design",
                                     {"kind": "gaussian_rows", "identity_dim": 5, "n": 10}),
                 [], ("'gamma'", "'design'"), id="certify-gamma-and-design"),
    pytest.param("solve", {**solve_payload(), **{k: generated_solve_payload()[k]
                                                 for k in ("design", "noise_sigma")}},
                 [], ("'x'", "'design'"), id="solve-x-and-design"),
    pytest.param("solve", with_key(generated_solve_payload(), "beta0", [1.0] * 6), [],
                 ("'beta0'", "'signal'"), id="solve-beta0-and-signal"),
    pytest.param("experiment", experiment_payload(kind="sharpness", sweep={"mu_values": [0.1]}),
                 [], "mu_rule", id="sharpness-mu_rule"),
    pytest.param("experiment", without_key(experiment_payload(), "experiment.mu_rule"), [],
                 "mu_rule", id="noise_stability-no-mu_rule"),
    # a noise sweep takes sigma from its sweep; every noise sweep writes the profile
    pytest.param("experiment", experiment_payload(noise_sigma=0.1), [], "noise_sigma",
                 id="noise_stability-noise_sigma"),
    pytest.param("experiment", experiment_payload(kind="identification_profile"), [],
                 "identification_profile", id="identification_profile-kind"),
    # a mu rule field that its kind does not read, and a scale <= 0
    pytest.param("experiment", with_key(experiment_payload(), "experiment.mu_rule.scale", 3),
                 [], "scale", id="fixed-mu_rule-scale"),
    pytest.param("experiment", experiment_payload(mu_rule={"kind": "proportional", "scale": -0.6}),
                 [], "scale", id="proportional-mu_rule-negative-scale"),
    # a sweep value out of range is refused in the file, naming its key
    pytest.param("experiment", experiment_payload(sweep={"noise_levels": [-0.1]}), [],
                 "experiment.sweep.noise_levels", id="noise_levels-negative"),
    pytest.param("experiment", experiment_payload(
        sweep={"noise_levels": [-0.1]}, mu_rule={"kind": "proportional", "scale": 2.0}), [],
                 "experiment.sweep.noise_levels", id="noise_levels-negative-proportional"),
    pytest.param("experiment", experiment_payload(
        sweep={"noise_levels": [1e-3, 0.0]}, mu_rule={"kind": "proportional", "scale": 2.0}), [],
                 "experiment.sweep.noise_levels", id="noise_levels-zero-proportional"),
    pytest.param("experiment", sharpness_payload(sweep={"mu_values": [-0.5]}), [],
                 "experiment.sweep.mu_values", id="mu_values-negative"),
    pytest.param("experiment", sharpness_payload(sweep={"mu_values": [0.1, 0.0]}), [],
                 "experiment.sweep.mu_values", id="mu_values-zero"),
    pytest.param("experiment", with_key(experiment_payload(
        kind="consistency", sweep={"sample_sizes": [0, 400]}, noise_sigma=0.5,
        mu_rule={"kind": "power"},
    ), "design", {"kind": "gaussian_rows", "identity_dim": 6, "n": 10}), [],
                 "experiment.sweep.sample_sizes", id="sample_sizes-zero"),
    # seeds are non-negative integers, and the error names the key
    pytest.param("experiment", experiment_payload(base_seed=-2), [], "experiment.base_seed",
                 id="base_seed-negative"),
    pytest.param("experiment", experiment_payload(), ["--seed", "-2"], "base_seed",
                 id="experiment-seed-flag-negative"),
    pytest.param("certify", {"regularizer": {"kind": "l1"}, "gamma": np.eye(2).tolist(),
                             "signal": {"kind": "sparse", "p": 2, "support_size": 1}, "seed": -1},
                 [], "seed", id="certify-seed-negative"),
    # the penalty fixes p: data of another dimension is refused, naming both keys
    pytest.param("solve", with_key(solve_payload(), "regularizer",
                                   {"kind": "group_l1l2", "groups": [[0, 1], [2]]}),
                 [], ("regularizer.groups", "x"), id="solve-groups-wider-than-x"),
    pytest.param("certify", with_key(certify_payload(), "regularizer",
                                     {"kind": "nuclear", "matrix_shape": [2, 2]}),
                 [], ("regularizer.matrix_shape", "gamma"), id="certify-matrix_shape-not-gamma"),
    pytest.param("experiment", with_key(experiment_payload(), "regularizer",
                                        {"kind": "analysis_l1", "operator": np.eye(3).tolist()}),
                 [], ("regularizer.operator", "design"), id="experiment-operator-not-design"),
])
def test_error_exits_1_without_traceback(
    tmp_path, capsys, monkeypatch, command, payload, argv, names
):
    # only solve calls cli.forward_backward
    monkeypatch.setattr(cli, "forward_backward", _solver_fails)
    cfg = write_config(tmp_path, payload)
    assert run([command, "--config", cfg, "--out", tmp_path / "o", *argv]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    for name in names if isinstance(names, tuple) else (names,):
        assert name in err.splitlines()[0]
