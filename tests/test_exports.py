"""The exported names of every ``polymg`` module: they exist, no more are added unnoticed,
and no other top-level name lives on for its tests alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polymg

REPO = Path(__file__).resolve().parent.parent
SRC, BENCH = REPO / "src" / "polymg", REPO / "bench"
MODULES = ["polymg"] + [f"polymg.{info.name}" for info in pkgutil.iter_modules(polymg.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a deleted function must take its __all__ entry with it
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_only_what_a_user_calls():
    # a new export is a deliberate edit of this list
    assert polymg.__all__ == [
        "GridSpec", "assemble_poisson_q1", "build_hierarchy", "SmootherConfig", "v_cycle",
        "measure_contraction", "two_level_C", "PolynomialSpec",
        "optimal_polynomial", "gamma_mu", "bound_simple", "bound_cheb", "bound_cheb_sharp",
        "bound_cheb_two_level", "bound_opt_conjecture", "__version__",
    ]


def test_modules_export_a_pinned_number_of_names():
    # the package's names, cli's three, optimal_roots, the bounds and the result types;
    # helpers such as Level, lanczos_max or apply_smoother stay importable, not exported
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    assert sum(len(module.__all__) for module in modules) == 35


def _referenced_names(tree):
    """Every name that ``tree``'s code refers to, as a name, an attribute or an import.

    String constants count only inside an ``__all__`` list; docstrings and comments do not.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant))
    return names


def test_no_src_name_is_reached_only_from_tests():
    # a top-level def or class of src/polymg that no src code, no __all__ and no bench
    # script refers to is kept alive by its tests alone
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        used |= _referenced_names(tree)
    for path in sorted(BENCH.glob("*.py")):
        used |= _referenced_names(ast.parse(path.read_text()))
    unused = [f"{module[:-3]}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used]
    assert unused == []
