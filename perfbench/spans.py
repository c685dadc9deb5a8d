"""Span recording for the traced run, and the per-layer metrics built on it.

The recorder wraps module-level names of the package (functions, and the
methods of the regularizer classes) from outside: no file of the package is
changed.  A span is [name, start, end, parent, trial, note]:

* name is "<layer>.<function>" with the layer named after the module that
  owns the code (cli, config, experiments, problems, solver, certificate,
  regularizers, linalg);
* parent is the index of the enclosing span, -1 for a root;
* trial is the number of generate_instance calls made so far in the process
  minus one, so the spans of one Monte-Carlo trial share an id;
* note holds counts read off the call (solver iterations, Gram flops).

Spans are kept in memory and written out when the child process ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

REG_KINDS = ("l1",)  # the penalties the workloads use
REG_METHODS = ("prox", "descriptor", "value", "model")
FB = "solver.forward_backward"
CERT = "certificate.check_model_stability"
SWEEP = "experiments.sweep"
WRITERS = ("write_records_csv", "write_summary_json", "write_plot_csv")


class Recorder:
    def __init__(self):
        self.spans = []
        self.missing = []  # targets not found, so not traced
        self._stack = []
        self._trial = -1

    def wrap(self, fn, name, note=None, starts_trial=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_trial:
                self._trial += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trial, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, **kw):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(fn, name, **kw))

    def install(self, cli):
        """Wrap the layer boundaries reachable from `partlysmooth experiment`."""
        from partlysmooth import config, experiments, regularizers, solver

        self.patch(config, "experiment_from_config", "config.experiment_from_config")
        for kind, runner in list(getattr(cli, "_RUNNERS", {}).items()):
            cli._RUNNERS[kind] = self.wrap(runner, SWEEP)
        self.patch(experiments, "check_model_stability", CERT)
        self.patch(experiments, "generate_instance", "problems.generate_instance",
                   starts_trial=True)
        self.patch(experiments, "canonical_parameters", "problems.canonical_parameters",
                   note=lambda args, r: {"mflop": 2.0 * args[0].n * r.dim ** 2 / 1e6})
        self.patch(experiments, "correlation_noise", "problems.correlation_noise")
        self.patch(experiments, "forward_backward", FB,
                   note=lambda args, r: {"iters": r.iterations, "converged": int(r.converged),
                                         f"iters.{args[1].kind}": r.iterations})
        self.patch(solver, "spectral_norm", "linalg.spectral_norm")
        self.patch(solver, "pseudoinverse", "linalg.pseudoinverse")
        for method in REG_METHODS:
            self.patch(regularizers.L1, method, f"regularizers.{method}.l1")
        self.patch(regularizers.Regularizer, "ri_membership", "regularizers.ri_membership")
        for writer in WRITERS:
            self.patch(cli, writer, f"cli.{writer}")
        cli.main = self.wrap(cli.main, "cli.main")


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def aggregate(spans, stats=None):
    """Sum calls, time, self time and notes per (name, parent name)."""
    stats = stats if stats is not None else defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        parent = spans[s[3]][0] if s[3] >= 0 else ""
        st = stats[(s[0], parent)]
        st["calls"] += 1
        st["time"] += s[2] - s[1]
        st["self"] += own
        for key, value in (s[5] or {}).items():
            st[key] += value
    return stats


def _sum(stats, field, name, parent=None):
    return sum(st[field] for (n, p), st in stats.items()
               if n == name and (parent is None or p == parent))


def _per(num, den, scale=1.0):
    # 0 marks a layer this workload never calls
    return scale * num / den if den else 0.0


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "config.parse_ms": ("ms", "lower"),
    "certificate.stability_ms": ("ms", "lower"),
    "regularizers.model_ms": ("ms", "lower"),
    "regularizers.ri_membership_ms": ("ms", "lower"),
    "problems.instance_us": ("us", "lower"),
    "problems.canonical_us": ("us", "lower"),
    "problems.gram_mflop_per_trial": ("Mflop", "lower"),
    "solver.fb_ms": ("ms", "lower"),
    "solver.iters_per_solve": ("count", "lower"),
    "solver.self_us_per_iter": ("us", "lower"),
    "solver.converged_frac": ("ratio", "higher"),
    "linalg.spectral_norm_ms": ("ms", "lower"),
    "linalg.pinv_ms": ("ms", "lower"),
    "linalg.svd_calls_per_solve": ("count", "lower"),
    **{f"regularizers.{m}_us.{k}": ("us", "lower")
       for m in ("prox", "descriptor", "value") for k in REG_KINDS},
    **{f"regularizers.calls_per_iter.{k}": ("count", "lower") for k in REG_KINDS},
    "experiments.self_ms_per_trial": ("ms", "lower"),
    "experiments.identified_frac": ("ratio", "higher"),
    "experiments.parallel_efficiency": ("ratio", "higher"),
    "cli.write_ms": ("ms", "lower"),
    "trace.slowdown": ("ratio", "lower"),
}


def layer_metrics(stats):
    """Per-layer metrics derivable from the aggregated spans of one repeat.

    cli.import_s, experiments.identified_frac, experiments.parallel_efficiency
    and trace.slowdown come from outside the spans and are filled in by the
    caller.
    """
    solves = _sum(stats, "calls", FB)
    iters = _sum(stats, "iters", FB)
    trials = _sum(stats, "calls", "problems.generate_instance")
    cli_runs = _sum(stats, "calls", "cli.main")
    models = [f"regularizers.model.{k}" for k in REG_KINDS]
    m = {
        "config.parse_ms": _per(_sum(stats, "time", "config.experiment_from_config"),
                                _sum(stats, "calls", "config.experiment_from_config"), 1e3),
        "certificate.stability_ms": _per(_sum(stats, "time", CERT),
                                         _sum(stats, "calls", CERT), 1e3),
        "regularizers.model_ms": _per(sum(_sum(stats, "time", n, CERT) for n in models),
                                      sum(_sum(stats, "calls", n, CERT) for n in models), 1e3),
        "regularizers.ri_membership_ms": _per(
            _sum(stats, "time", "regularizers.ri_membership", CERT),
            _sum(stats, "calls", "regularizers.ri_membership", CERT), 1e3),
        "problems.instance_us": _per(_sum(stats, "time", "problems.generate_instance"),
                                     trials, 1e6),
        "problems.canonical_us": _per(_sum(stats, "time", "problems.canonical_parameters"),
                                      _sum(stats, "calls", "problems.canonical_parameters"), 1e6),
        "problems.gram_mflop_per_trial": _per(
            _sum(stats, "mflop", "problems.canonical_parameters"),
            _sum(stats, "calls", "problems.canonical_parameters")),
        "solver.fb_ms": _per(_sum(stats, "time", FB), solves, 1e3),
        "solver.iters_per_solve": _per(iters, solves),
        "solver.self_us_per_iter": _per(_sum(stats, "self", FB), iters, 1e6),
        "solver.converged_frac": _per(_sum(stats, "converged", FB), solves),
        "linalg.spectral_norm_ms": _per(_sum(stats, "time", "linalg.spectral_norm", FB),
                                        _sum(stats, "calls", "linalg.spectral_norm", FB), 1e3),
        "linalg.pinv_ms": _per(_sum(stats, "time", "linalg.pseudoinverse", FB),
                               _sum(stats, "calls", "linalg.pseudoinverse", FB), 1e3),
        "linalg.svd_calls_per_solve": _per(
            _sum(stats, "calls", "linalg.spectral_norm", FB)
            + _sum(stats, "calls", "linalg.pseudoinverse", FB), solves),
        "experiments.self_ms_per_trial": _per(_sum(stats, "self", SWEEP), trials, 1e3),
        "cli.write_ms": _per(sum(_sum(stats, "time", f"cli.{w}") for w in WRITERS),
                             cli_runs, 1e3),
    }
    for kind in REG_KINDS:
        for method in ("prox", "descriptor", "value"):
            name = f"regularizers.{method}.{kind}"
            m[f"regularizers.{method}_us.{kind}"] = _per(
                _sum(stats, "time", name), _sum(stats, "calls", name), 1e6)
        in_solver = sum(_sum(stats, "calls", f"regularizers.{method}.{kind}", FB)
                        for method in ("prox", "descriptor", "value"))
        m[f"regularizers.calls_per_iter.{kind}"] = _per(in_solver,
                                                        _sum(stats, f"iters.{kind}", FB))
    return m


def self_time_shares(stats):
    """Share of all traced self time spent in each span name, largest first."""
    by_name = defaultdict(float)
    for (name, _), st in stats.items():
        by_name[name] += st["self"]
    total = sum(by_name.values())
    return sorted(((v / total, n) for n, v in by_name.items()), reverse=True) if total else []
