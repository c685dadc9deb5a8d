"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench"""

import hashlib
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tree_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def test_generator_is_a_function_of_the_seed(tmp_path):
    for wl in workloads.WORKLOADS:
        digests = {}
        for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
            out = tmp_path / f"{wl}-{tag}"
            runs = workloads.generate(wl, seed, str(out))
            assert runs and all(os.path.isfile(r.config) for r in runs)
            digests[tag] = _tree_digest(out)
        assert digests["a"] == digests["b"], wl
        assert digests["a"] != digests["c"], wl


def test_self_time_on_a_hand_built_tree():
    # name, start, end, parent, trial, note
    tree = [
        ["root", 0.0, 10.0, -1, -1, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],  # overlaps a: root's children cover 1..6 once
        ["d", 9.0, 12.0, 0, 1, None],  # runs past its parent: only 9..10 counts
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 3.0, 3.0]


def test_recorder_nests_spans_and_groups_trials():
    rec = spans.Recorder()

    def inner(x):
        return x + 1

    inner_t = rec.wrap(inner, "layer.inner")

    def outer(x):
        return inner_t(inner_t(x))

    outer_t = rec.wrap(outer, "layer.outer", starts_trial=True,
                       note=lambda args, r: {"value": r})
    assert outer_t(1) == 3 and outer_t(5) == 7
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    trials = [s[4] for s in rec.spans]
    assert names == ["layer.outer", "layer.inner", "layer.inner"] * 2
    assert parents == [-1, 0, 0, -1, 3, 3]
    assert trials == [0, 0, 0, 1, 1, 1]
    assert rec.spans[3][5] == {"value": 7}
    stats = spans.aggregate(rec.spans)
    assert stats[("layer.inner", "layer.outer")]["calls"] == 4
    assert stats[("layer.outer", "")]["value"] == 10


def test_trialwise_sweep_takes_each_trial_at_its_fastest_repeat():
    r = workloads.Run("w", "w.json", 3, "smallest_noise")
    outcomes = [
        {"run": r, "reason": None, "trials": 3, "sweep_s": 7.5, "trial_s": [1.0, 4.0, 2.0]},
        {"run": r, "reason": None, "trials": 3, "sweep_s": 6.2, "trial_s": [3.0, 1.0, 2.0]},
        {"run": r, "reason": "timed out", "trials": 3, "sweep_s": 0.1, "trial_s": [0.0] * 3},
    ]
    # minima 1 + 1 + 2, plus the smallest remainder 6.2 - 6 = 0.2
    assert abs(run.trialwise_sweep_s(outcomes) - 4.2) < 1e-12
    assert abs(run.trialwise_trials_per_s([r], outcomes) - 3 / 4.2) < 1e-12
    # without per-trial times the fastest whole sweep counts
    for o in outcomes:
        o["trial_s"] = None
    assert run.trialwise_sweep_s(outcomes) == 6.2


def test_metric_names_match_the_declared_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == spans.PER_LAYER
    derived = set(spans.layer_metrics({})) | {
        "cli.import_s", "experiments.identified_frac",
        "experiments.parallel_efficiency", "trace.slowdown",
    }
    assert derived == set(layers)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for name in list(e2e) + list(layers) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
