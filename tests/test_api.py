"""The public API, the package's top-level names, its methods and its imports: none unused."""

import ast
from collections import Counter
from pathlib import Path

import partlysmooth

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "partlysmooth" / "__init__.py"
PACKAGE = sorted(INIT.parent.glob("*.py"))
# the non-test code that may use a package name
CALLERS = [
    path for path in PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
    if not path.name.startswith("test_")
]


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def defined(tree):
    """The top-level function, class and constant nodes of a module, by name."""
    nodes = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    nodes[target.id] = node
    return nodes


def uses(node) -> Counter:
    """How often each name is used within node.

    Loaded names, attributes and string constants (the names given to
    getattr or to a patch) count; the names an import binds do not.
    """
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def test_all_is_sorted_and_lists_what_init_imports():
    imported = {
        alias.asname or alias.name
        for node in parse(INIT).body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert partlysmooth.__all__ == sorted(partlysmooth.__all__)
    assert partlysmooth.__all__ == sorted(name for name in imported if not name.startswith("_"))


def test_every_top_level_name_has_a_caller():
    trees = {path: parse(path) for path in CALLERS}
    total = sum((uses(tree) for tree in trees.values()), Counter())
    # a name listed in __all__ is not thereby used
    total.subtract(uses(defined(trees[INIT])["__all__"]))
    unused = [
        f"{path.name}: {name}"
        for path in PACKAGE
        for name, node in defined(trees[path]).items()
        if not name.startswith("__") and total[name] - uses(node)[name] <= 0
    ]
    assert not unused, f"top-level names that no package or perfbench code uses: {unused}"


def attributes(node) -> Counter:
    """How often each name is read as an attribute within node."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def methods(cls):
    """(name, node) of each method of a class body: a def, or a name assigned
    a property(...) or cached_property(...) call.  A dataclass field(...) or
    a default instance is not a method."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call):
            func = node.value.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in ("property", "cached_property"):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def test_every_method_has_a_caller():
    # a method, property or constructor of a package class (dunders aside)
    # is reached as an attribute somewhere outside its own body
    trees = {path: parse(path) for path in CALLERS}
    total = sum((attributes(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.name}: {cls.name}.{name}"
        for path in PACKAGE
        for cls in trees[path].body if isinstance(cls, ast.ClassDef)
        for name, node in methods(cls)
        if not (name.startswith("__") and name.endswith("__"))
        and total[name] - attributes(node)[name] <= 0
    ]
    assert not unused, f"methods that no package or perfbench code reaches: {unused}"


def test_no_module_imports_a_name_it_never_loads():
    # __init__ imports its names to re-export them; a __future__ import
    # switches compiler behavior and binds nothing that is read
    unused = []
    for path in CALLERS:
        if path == INIT:
            continue
        tree = parse(path)
        loaded = {
            sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unused += [
            f"{path.name}: {alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in loaded
        ]
    assert not unused, f"imported names that the importing module never uses: {unused}"



# the package's modules by layer, lowest first: a module may import only
# modules of an earlier layer, so no import cycle can form, deferred or not
LAYERS = [["linalg"], ["regularizers"], ["certificate", "solver"], ["problems"],
          ["experiments"], ["config"], ["cli"]]


def package_imports(tree) -> set:
    """The package modules a module imports, at module level or inside a function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from the package; in from . import config,
            # an imported name is a module itself
            base = f"partlysmooth.{node.module or ''}".rstrip(".") if node.level else node.module
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(parts[1] for parts in (name.split(".") for name in names)
                     if parts[0] == "partlysmooth" and len(parts) > 1)
    return found


def test_modules_import_only_earlier_layers():
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    modules = [path for path in PACKAGE if path != INIT]
    assert sorted(rank) == sorted(path.stem for path in modules)
    upward = [
        f"{path.stem} imports {name}"
        for path in modules
        for name in sorted(package_imports(parse(path)) & set(rank))
        if rank[name] >= rank[path.stem]
    ]
    assert not upward, f"imports of a module in the same or a later layer: {upward}"


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_penalty_reads_its_magnitudes_and_nothing_else():
    # J, the model keys and the solver's step all come from magnitudes, so a
    # penalty defines magnitudes and step_batch, its one proximal map, and
    # value and model_keys live once, in the base class: no penalty brings a
    # second J, model path or proximal map
    from partlysmooth.regularizers import Regularizer

    penalties = [c for c in subclasses(Regularizer) if c.__module__.startswith("partlysmooth.")]
    assert {c.__name__ for c in penalties} >= {"L1", "GroupL1L2", "Nuclear", "AnalysisL1"}
    wrong = [f"{c.__name__} lacks {name}" for c in penalties
             for name in ("magnitudes", "step_batch") if name not in vars(c)]
    wrong += [f"{c.__name__} defines {name}" for c in penalties
              for name in ("prox", "value", "model_keys") if name in vars(c)]
    assert not wrong, wrong


def test_the_cli_runs_every_kind_of_experiment():
    from partlysmooth.cli import _RUNNERS
    from partlysmooth.experiments import EXPERIMENTS

    assert list(_RUNNERS) == list(EXPERIMENTS)
