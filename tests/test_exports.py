"""The exported names of every ``polymg`` module: they exist, no more are added unnoticed,
and no top-level name lives on for its tests alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polymg
from polymg import bounds

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


def test_bounds_exports_only_the_printed_curves_and_their_parts():
    # the derivations' side results are test oracles, in tests/paper_results.py
    assert bounds.__all__ == [
        "omega_condition_holds", "SimpleBound", "bound_simple", "bound_cheb",
        "bound_cheb_two_level", "sharp_f_factor", "bound_cheb_sharp", "bound_opt_conjecture",
        "opt_gamma_inv_estimate", "beta_constant",
    ]


def test_modules_export_a_pinned_number_of_names():
    # the package's names, cli's three, optimal_roots, the bounds and the result types;
    # helpers such as Level, lanczos_max or apply_smoother stay importable, not exported
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    assert sum(len(module.__all__) for module in modules) == 27


def _referenced_names(tree):
    """Every name that ``tree``'s code reads, as a name, an attribute or an import.

    Strings, docstrings and comments do not count, nor do names it only assigns.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _unreached(modules, roots=(), scripts=()):
    """The top-level defs, classes and assignments of ``modules`` (name -> source) that
    nothing reaches from the names ``roots`` or the code of ``scripts``, directly or
    through other reached names.

    A module's ``__all__`` and its top-level imports do not count as uses: only code that
    reads a name does.  Names are matched across modules, so a name defined in two
    modules is reached in both when either is.
    """
    defs, reached = {}, set(roots)
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name) and t.id != "__all__"]
            else:  # other module-level code runs on import: what it reads is reached
                reached |= _referenced_names(node)
                continue
            for name in bound:
                defs.setdefault(name, []).append((module, node))
    for source in scripts:
        reached |= _referenced_names(ast.parse(source))
    todo = set(reached)
    while todo:
        for _, node in defs.get(todo.pop(), ()):
            new = _referenced_names(node) - reached
            reached |= new
            todo |= new
    return sorted(f"{module}.{name}" for name, nodes in defs.items() if name not in reached
                  for module, _ in nodes)


def test_unreached_flags_what_no_root_reaches():
    cycle = "def f():\n    return g()\n\n\ndef g():\n    return f()\n"
    assert _unreached({"m": cycle}, roots={"main"}) == ["m.f", "m.g"]
    listed = '__all__ = ["f"]\n\n\ndef f():\n    pass\n'
    assert _unreached({"m": listed}) == ["m.f"]
    bench_only = "from m import helper\n\n\ndef helper():\n    return _part()\n\n\n" \
                 "def _part():\n    pass\n"
    assert _unreached({"m": bench_only}, scripts=["import m\nm.helper()\n"]) == []
    assert _unreached({"m": bench_only}) == ["m._part", "m.helper"]


def test_no_src_name_is_reached_only_from_tests():
    # a top-level def, class or assignment of src/polymg that neither polymg.__all__,
    # cli.main, python -m polymg nor a bench script reaches is kept alive by its tests alone
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.name != "__main__.py"}
    scripts = [(SRC / "__main__.py").read_text()]
    scripts += [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert _unreached(modules, roots=set(polymg.__all__) | {"main"}, scripts=scripts) == []
