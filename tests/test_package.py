import ast
import importlib
from pathlib import Path

import sfwmsim

SRC = Path(sfwmsim.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_imports_are_used_and_exports_resolve_once():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []

    exported = sfwmsim.__all__
    duplicates = sorted({name for name in exported if exported.count(name) > 1})
    assert duplicates == []
    missing = [name for name in exported if not hasattr(sfwmsim, name)]
    assert missing == []


def _assert_shares_no_code_with_the_package(name):
    reference = Path(__file__).parent / name
    tree = ast.parse(reference.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {alias.name for node in imports if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    assert modules and all(node.level == 0 for node in imports
                           if isinstance(node, ast.ImportFrom))
    # conftest imports the package, so a reference may not import it either
    assert {name.split(".")[0] for name in modules}.isdisjoint({"sfwmsim", "conftest"})
    assert _unused_imports(reference) == []


def test_the_gaussian_reference_shares_no_code_with_the_package():
    _assert_shares_no_code_with_the_package("gaussian_reference.py")


def test_the_oracles_share_no_code_with_the_package():
    _assert_shares_no_code_with_the_package("oracles.py")


def test_the_package_holds_no_test_only_code():
    # functions, classes and methods that no other package code names, bar the
    # README's closed forms and the window-truncation figure a planned error
    # estimate is to report
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py") if path.name != "__init__.py"]  # it only re-exports
    named = {getattr(node, "id", getattr(node, "attr", None))
             for tree in trees for node in ast.walk(tree)}
    defined = [(node.name, node.name) for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [(f"{cls.name}.{node.name}", node.name)
                for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
                for node in cls.body if isinstance(node, ast.FunctionDef)
                and not (node.name.startswith("__") and node.name.endswith("__"))]
    unnamed = sorted(qualified for qualified, name in defined if name not in named)
    assert unnamed == ["DiagonalJTA.edge_tail_ratio", "gaussian_eta", "gaussian_nu",
                       "gaussian_purity"]


def test_no_new_method_name_is_shared_between_package_classes():
    # the guard above matches bare names, so a dead method passes it while
    # code reads a same-named attribute of another class; both grids define
    # and read trapezoid_weights, and no other name may join it
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    owners = {}
    for tree in trees:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, ast.FunctionDef)
                            and not (node.name.startswith("__") and node.name.endswith("__"))):
                        owners.setdefault(node.name, set()).add(cls.name)
    assert {name for name, classes in owners.items() if len(classes) > 1} == {
        "trapezoid_weights"}


def test_no_module_raises_or_swallows_warnings():
    # caveats travel as PairMetrics.notes; a warning filter in one layer could
    # drop the warnings of every layer below it
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", ""))
                if name in ("warn", "catch_warnings"):
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls == []


# the benchmark's span targets that name no attribute of the package, and so
# read zero calls on every workload; a rename must not add to them
_UNRESOLVED_SPAN_TARGETS = {
    "sfwmsim.cli.validate_config", "sfwmsim.cli.jta_linear", "sfwmsim.cli.jta_simple",
    "sfwmsim.cli.jta_sinc", "sfwmsim.cli.jta_general", "sfwmsim.metrics.filtered_jta",
    "sfwmsim.cli.pair_probability", "sfwmsim.metrics.pair_probability",
    "sfwmsim.metrics.heralding_efficiency", "sfwmsim.metrics.fourfold_sum",
}


def test_the_benchmark_span_targets_resolve_but_for_the_known_stale_ones():
    # parsed, not imported: perfbench is a directory of scripts, not a package
    spans = Path(__file__).parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    (wrapped,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    unresolved = {f"{module}.{attr}" for _, module, attr in wrapped
                  if not hasattr(importlib.import_module(module), attr)}
    assert unresolved == _UNRESOLVED_SPAN_TARGETS
