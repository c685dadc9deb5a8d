"""Command line front end.

Three subcommands, all driven by a single JSON config file:

* certify     stability certificate for (Gamma, beta0) under a regularizer
* solve       one forward-backward solve plus a posteriori optimality checks
* experiment  Monte-Carlo sweeps (noise stability with its identification
              profile, consistency, sharpness) with CSV/JSON outputs

Exit codes for certify encode the verdict so scripts can branch on it:
0 stable, 2 certified outside, 3 boundary or otherwise inconclusive,
4 restricted injectivity failed, 1 error.  solve and experiment exit 0 on
success and 1 on errors; a solve that hits max_iter still exits 0 with
converged=false in the payload.  An error (bad configuration, failed IO, or
a computation that raised) prints one "error: ..." line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from .certificate import certify_uniqueness, check_model_stability
from .experiments import (
    consistency_sweep,
    noise_stability_sweep,
    sharpness_experiment,
    write_plot_csv,
    write_records_csv,
    write_summary_json,
)
from .solver import forward_backward

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OUTSIDE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INJECTIVITY = 4


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_certify(args) -> int:
    cfg, base_dir = cfgmod.load_config(args.config)
    reg, gamma, beta0, tol = cfgmod.certify_from_config(cfg, base_dir, args.seed)
    cert = check_model_stability(gamma, beta0, reg, **tol)
    payload = {
        "stable": cert.stable,
        "inconclusive": cert.inconclusive,
        "usable": cert.usable,
        "subspace_dim": cert.subspace_dim,
        "smallest_singular": cert.injectivity.smallest_singular,
        "descriptor": {"kind": cert.geometry.descriptor.kind,
                       "data": cert.geometry.descriptor.data},
        "eta": cert.eta.tolist() if cert.eta is not None else None,
    }
    if cert.verdict is not None:
        payload.update(
            status=cert.verdict.status,
            margin=cert.verdict.margin,
            tangent_residual=cert.verdict.tangent_residual,
        )

    os.makedirs(args.out, exist_ok=True)
    _write_json(payload, os.path.join(args.out, "certificate.json"))

    if not cert.usable:
        if not args.quiet:
            print(f"unusable: restricted injectivity failed "
                  f"(smallest singular {cert.injectivity.smallest_singular:.3e})")
        return EXIT_INJECTIVITY
    if not args.quiet:
        print(f"{cert.verdict.status}: margin {cert.verdict.margin:.6g}, "
              f"tangent residual {cert.verdict.tangent_residual:.3e}, "
              f"model dim {cert.subspace_dim}")
    if cert.stable:
        return EXIT_OK
    if cert.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OUTSIDE


def cmd_solve(args) -> int:
    cfg, base_dir = cfgmod.load_config(args.config)
    reg, theta, opts, tol, beta0 = cfgmod.solve_from_config(cfg, base_dir, args.seed)
    result = forward_backward(theta, reg, opts)
    uniq = certify_uniqueness(theta, result.beta, reg, **tol)
    desc = result.model

    payload = {
        "beta": result.beta.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "fp_residual": result.fp_residual,
        "objective": result.objective,
        "step": result.step,
        "identification_iter": result.identification_iter,
        "mu": theta.mu,
        "descriptor": {"kind": desc.kind, "data": desc.data},
        "dual_certificate": {
            "status": uniq.verdict.status,
            "margin": uniq.verdict.margin,
            "tangent_residual": uniq.verdict.tangent_residual,
        },
        "unique": uniq.stable,
    }
    if beta0 is not None:
        payload["error_norm"] = float(np.linalg.norm(result.beta - beta0))

    os.makedirs(args.out, exist_ok=True)
    _write_json(payload, os.path.join(args.out, "solution.json"))

    if not args.quiet:
        state = "converged" if result.converged else "hit max_iter"
        print(f"{state} after {result.iterations} iterations, "
              f"objective {result.objective:.6g}, model {desc}, "
              f"unique={uniq.stable}")
    return EXIT_OK


_RUNNERS = {
    "noise_stability": noise_stability_sweep,
    "consistency": consistency_sweep,
    "sharpness": sharpness_experiment,
}


def cmd_experiment(args) -> int:
    kind, config = cfgmod.experiment_from_config(*cfgmod.load_config(args.config))
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)

    result = _RUNNERS[kind](config)

    os.makedirs(args.out, exist_ok=True)
    write_records_csv(result.records, os.path.join(args.out, "records.csv"))
    write_summary_json(result, os.path.join(args.out, "summary.json"))
    write_plot_csv(result, os.path.join(args.out, "plot.csv"))

    if not args.quiet:
        for row in result.summary:
            print(f"{kind} @ {row.sweep_value:g}: "
                  f"identification rate {row.identification_rate:.3f} "
                  f"({row.converged_count}/{row.trials} converged)")
        print(f"wrote records.csv, summary.json, plot.csv to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partlysmooth",
        description="Model-stability certificates and solvers for partly smooth regularizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config file")
    common.add_argument("--out", default="out", help="output directory (default: ./out)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--quiet", action="store_true", help="suppress progress prints")

    p = sub.add_parser("certify", parents=[common],
                       help="stability certificate for (gamma, beta0)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("solve", parents=[common],
                       help="single forward-backward solve")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", parents=[common],
                       help="Monte-Carlo sweep driven by the config's experiment section")
    p.add_argument("--trials", type=int, default=None, help="override trials per sweep point")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: serial)")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ConfigError is a ValueError; RuntimeError covers a solver or
    # certificate computation that failed on valid input
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
