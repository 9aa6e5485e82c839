"""The package root: a lazy surface that resolves each public name from
its home module on first access."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import conecert

# the public surface, as the eager package root exported it
PUBLIC = {
    "closure": ["BasisSelectionError", "ConeSpan", "PositivityBasis", "choose_basis",
                "compute_C", "d_membership", "twist_rank_check", "verify_derivations"],
    "equilibria": ["EquilibriumPoint", "PositivityChain", "find_equilibria",
                   "is_equilibrium"],
    "models": ["BUILTINS", "ModelError", "ModelSpec", "bhw", "burgers", "get_builtin",
               "langevin", "load_model", "nonexample3d", "save_model"],
    "montecarlo": ["PositivityEvidence", "SimConfig", "clopper_pearson_lower",
                   "density_heatmap", "simulate"],
    "polyfield": ["NO_DEGREE", "Polynomial", "PolyVectorField", "ad_power", "lie_bracket",
                  "relative_degree"],
    "reach": ["CertifyOptions", "ControlPath", "FlowDivergenceError", "FlowResult",
              "GramianError", "ReachabilityCertificate", "SynthesisError", "certify",
              "gramian", "gramian_threshold", "integrate_flow", "k_rank", "synthesize_leg"],
}
SUBMODULES = ["brackets", "cli", *PUBLIC]


def test_all_is_the_public_surface():
    assert sorted(conecert.__all__) == sorted(
        ["__version__", *(name for names in PUBLIC.values() for name in names)])


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_name_is_its_home_modules_object(module, name):
    home = importlib.import_module(f"conecert.{module}")
    assert getattr(conecert, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from conecert import *", namespace)
    assert set(conecert.__all__) <= set(namespace)
    assert namespace["certify"] is conecert.reach.certify


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        conecert.no_such_name  # noqa: B018
    assert not hasattr(conecert, "scipy")


def test_dir_lists_the_surface():
    listed = dir(conecert)
    assert set(conecert.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_resolves_as_attribute(module):
    assert getattr(conecert, module) is importlib.import_module(f"conecert.{module}")


def test_import_loads_no_submodule():
    src = str(Path(conecert.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import conecert; "
            "print(sorted(m for m in sys.modules if m.startswith(('conecert.', 'scipy'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
