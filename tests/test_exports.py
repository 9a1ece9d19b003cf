"""The exported names of every ``polymg`` module: they exist, no more are added unnoticed,
and no top-level name or internal parameter default lives on for its tests alone: an
entry point (the CLI, ``python -m polymg``, the bench or README's Python example) reaches
every src name, an exported one included."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polymg
from conftest import readme_python_blocks
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
        "optimal_polynomial", "bound_simple", "bound_cheb", "bound_cheb_sharp",
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
    assert sum(len(module.__all__) for module in modules) == 26


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


def test_unreached_flags_an_export_no_entry_point_calls():
    # a package's __all__ and its import of f are no use of f; a README-style script is
    package = 'from .m import f\n\n__all__ = ["f"]\n'
    modules = {"__init__": package, "m": '__all__ = ["f"]\n\n\ndef f():\n    pass\n'}
    assert _unreached(modules, roots={"main"}) == ["m.f"]
    readme = "from pkg import f\n\nprint(f())\n"
    assert _unreached(modules, roots={"main"}, scripts=[readme]) == []


def _src_and_scripts():
    """src/polymg's modules (name -> source) and the code of the entry-point scripts:
    ``python -m polymg``, the bench and README's Python example."""
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.name != "__main__.py"}
    scripts = [(SRC / "__main__.py").read_text()]
    scripts += [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    return modules, scripts + readme_python_blocks()


def test_no_src_name_is_reached_only_from_tests():
    # a top-level def, class or assignment of src/polymg, exported or not, that neither
    # cli.main, python -m polymg, a bench script nor README's example reaches is kept
    # alive by its tests alone
    modules, scripts = _src_and_scripts()
    assert _unreached(modules, roots={"main"}, scripts=scripts) == []


def _defaulted_params(tree, prefix="", owner=None):
    """``(callee, label, index, name)`` for every defaulted parameter of the defs in ``tree``.

    ``callee`` is the name a call uses, the class name for an ``__init__``; ``owner`` is
    the class whose body is ``tree``.  ``index`` is the parameter's position in a call,
    where a method's ``self`` or ``cls`` takes none, or ``None`` if it is keyword-only.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defaulted_params(node, f"{prefix}{node.name}.", node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            init = owner is not None and node.name == "__init__"
            callee, label = (owner, prefix[:-1]) if init else (node.name, prefix + node.name)
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            args = node.args
            positional = (args.posonlyargs + args.args)[int(bound):]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield callee, f"{label}({arg.arg})", i, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield callee, f"{label}({arg.arg})", None, arg.arg
            yield from _defaulted_params(node, f"{prefix}{node.name}.")
        else:
            yield from _defaulted_params(node, prefix, owner)


def _constant_defaults(modules, scripts=()):
    """The parameter defaults in ``modules`` (name -> source) that the calls in
    ``modules`` and ``scripts`` do not both use and override.

    A default no call uses is dead, and one no call overrides is a constant.  Calls match
    defs by name, a class name standing for its ``__init__``.  Left out are the defs whose
    name is in a module's ``__all__``, which a user may call either way, the defs no call
    matches, which the reachability test covers, and calls that unpack ``*`` or ``**``.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    exported = {elt.value for tree in trees.values() for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    params = [(module, *param) for module, tree in trees.items()
              for param in _defaulted_params(tree) if param[0] not in exported]
    calls = {}
    for tree in [*trees.values(), *map(ast.parse, scripts)]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or any(
                    isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                continue  # which parameters an unpacked argument fills is unknown
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    flagged = []
    for module, callee, label, index, name in params:
        if callee not in calls:
            continue
        passed = {(index is not None and index < len(call.args))
                  or any(k.arg == name for k in call.keywords) for call in calls[callee]}
        if passed != {True, False}:
            flagged.append(f"{module}.{label}")
    return sorted(flagged)


def test_constant_defaults_flags_dead_and_never_overridden_defaults():
    dead = "def f(x, tol=1e-3):\n    pass\n\n\ndef g():\n    return f(1, tol=2)\n"
    assert _constant_defaults({"m": dead}) == ["m.f(tol)"]
    fixed = "def f(x, tol=1e-3):\n    pass\n"
    assert _constant_defaults({"m": fixed}, scripts=["f(1)\n", "m.f(2)\n"]) == ["m.f(tol)"]
    assert _constant_defaults({"m": fixed}, scripts=["f(1)\n", "f(2, 1e-4)\n"]) == []
    assert _constant_defaults({"m": fixed}) == []  # never called: left to reachability
    assert _constant_defaults({"m": "__all__ = ['f']\n\n\n" + fixed}, scripts=["f(1)\n"]) == []
    owned = ("class C:\n    def __init__(self, n, buf=None):\n        pass\n\n"
             "    def run(self, k=2, *, out=None):\n        pass\n")
    varied = "c = C(1)\nC(1, [])\nc.run()\nc.run(3, out=[])\n"
    assert _constant_defaults({"m": owned}, scripts=[varied]) == []
    assert _constant_defaults({"m": owned}, scripts=["c = C(1)\nc.run(k=3)\nc.run()\n"]) == [
        "m.C(buf)", "m.C.run(out)"]


def test_no_internal_default_is_a_constant_or_dead():
    # a default of an unexported src def must be both used and overridden by the calls in
    # src, python -m polymg and the bench; else only tests need it, or no call varies it
    assert _constant_defaults(*_src_and_scripts()) == []
