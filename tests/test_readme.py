"""The README's examples run and say what they print."""

import ast
import json
import re
from pathlib import Path

import pytest

from partlysmooth.cli import EXIT_OK, EXIT_OUTSIDE, main
from partlysmooth.experiments import EXPERIMENTS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def run_block(word):
    """Run the one python block containing word; check the values it states.

    Each `print(expr)  # value: ...` line states the value of expr.  Returns
    how many lines state one.
    """
    [block] = [b for b in blocks("python") if word in b]
    namespace = {}
    exec(block, namespace)
    stated = re.findall(r"^print\((.+?)\)\s+#\s*([^:\n]+)", block, flags=re.M)
    for expr, comment in stated:
        want = ast.literal_eval(comment.strip())
        got = eval(expr, namespace)
        assert got == (pytest.approx(want) if isinstance(want, float) else want), expr
    return len(stated)


def test_quick_tour():
    # the first python block follows "## Library quick tour"
    assert run_block("check_model_stability") == 3


def test_replaying_one_trial():
    assert run_block("draw_trials") == 2


def test_consistency_at_large_n():
    assert run_block("consistency_sweep") == 2


def test_json_examples(tmp_path):
    # certify, solve, experiment, in the order the README gives them
    examples = [json.loads(b) for b in blocks("json")]
    commands = ["experiment" if "experiment" in cfg else "solve" if "lambda" in cfg
                else "certify" for cfg in examples]
    assert commands == ["certify", "solve", "experiment"]
    codes = []
    for i, (command, cfg) in enumerate(zip(commands, examples)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        extra = ["--trials", "5"] if command == "experiment" else []
        codes.append(main([command, "--config", str(path), "--out", str(tmp_path / f"o{i}"),
                           "--quiet", *extra]))
    # the certify example is the outside-certified design of the quick tour
    assert codes == [EXIT_OUTSIDE, EXIT_OK, EXIT_OK]


def table(header):
    """The rows of the README table under the header line, as lists of cells."""
    lines = README.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip("|").split("|")])


def test_experiment_tables_name_what_each_kind_sweeps_and_reads():
    def names(cell):
        return re.findall(r"`([^`]+)`", cell)

    sweeps = {names(kind)[0]: names(key) for kind, key, _ in
              table("| experiment kind | sweep key | question it answers |")}
    assert sweeps == {kind: [key] for kind, (key, _) in EXPERIMENTS.items()}
    reads = {names(kind)[0]: names(fields) for kind, fields, _ in
             table("| experiment kind | reads | why |")}
    assert reads == {kind: list(fields) for kind, (_, fields) in EXPERIMENTS.items()}
