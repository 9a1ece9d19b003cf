"""The exported names of every ``polymg`` module: they exist, and no more are added unnoticed."""

import importlib
import pkgutil

import pytest

import polymg

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
