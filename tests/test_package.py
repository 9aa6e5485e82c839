"""The package root: a lazy surface that resolves each public name from
its home module on first access, and the modules' imports."""

import ast
import importlib
import re
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
              "ReachabilityCertificate", "SynthesisError", "certify", "gramian",
              "gramian_threshold", "integrate_flow", "k_rank", "synthesize_leg"],
}
SUBMODULES = ["brackets", "cli", *PUBLIC]
PACKAGE_DIR = Path(conecert.__file__).resolve().parent


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


def test_montecarlo_loads_no_scipy():
    src = str(Path(conecert.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import conecert.montecarlo; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def test_reach_loads_no_scipy():
    src = str(Path(conecert.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import conecert.reach; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def test_montecarlo_loads_nothing_beyond_its_imports():
    # the noise thread is plain `threading`, which numpy has loaded already
    src = str(Path(conecert.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import numpy, conecert.models, conecert.polyfield\n"
            "before = set(sys.modules)\n"
            "import conecert.montecarlo\n"
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "['conecert.montecarlo']"


def test_via_equilibrium_certify_loads_no_scipy():
    # the equilibrium search draws its Latin hypercube starts and solves
    # each start with numpy
    src = str(Path(conecert.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from conecert import CertifyOptions, certify, choose_basis, compute_C, get_builtin\n"
            "m = get_builtin('bhw')\n"
            "cert = certify(m, choose_basis(compute_C(m)), [0.0, 0.0], [2.0, 1.0], 1.0,\n"
            "               CertifyOptions(seed=0, n_steps=200, pieces=4, via_equilibrium=True))\n"
            "print(cert.verdict, cert.dwell is not None)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.split("\n")[:2] == ["positive True", "[]"]


def package_imports(package: str, source: str, deferred: bool = False) -> list[str]:
    """The modules of `package` a module imports when it is itself
    imported; imports inside a function body are deferred, and listed
    only when `deferred` is set.  An `if TYPE_CHECKING:` body never runs,
    so its imports are left out."""
    found, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if not deferred and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                              ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and (
                node.test.id == "TYPE_CHECKING"):
            todo.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(name for name in found if name.split(".")[0] == package)


def scipy_imports(source: str, deferred: bool = False) -> list[str]:
    return package_imports("scipy", source, deferred)


SCIPY_IMPORTS = ("import scipy.linalg, json\n"
                 "if True:\n    from scipy.stats import beta\n"
                 "def f():\n    from scipy.optimize import least_squares\n"
                 "from .models import ModelSpec\n")


def test_scipy_import_check_skips_deferred_imports():
    assert scipy_imports(SCIPY_IMPORTS) == ["scipy.linalg", "scipy.stats"]


def test_scipy_import_check_sees_deferred_imports_when_asked():
    assert scipy_imports(SCIPY_IMPORTS, deferred=True) == [
        "scipy.linalg", "scipy.optimize", "scipy.stats"]


def test_no_module_imports_scipy_on_load():
    found = {path.stem: scipy_imports(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}
    assert {stem: names for stem, names in found.items() if names} == {}


def test_no_module_imports_scipy_even_when_it_runs():
    found = {path.stem: scipy_imports(path.read_text(), deferred=True)
             for path in PACKAGE_DIR.glob("*.py")}
    assert {stem: names for stem, names in found.items() if names} == {}


NUMPY_IMPORTS = ("from __future__ import annotations\n"
                 "from typing import TYPE_CHECKING\n"
                 "import numpy.linalg\n"
                 "if TYPE_CHECKING:\n    import numpy as np\nelse:\n    import numpy.fft\n"
                 "def f() -> np.ndarray:\n    import numpy as np\n    return np.zeros(1)\n")


def test_import_check_takes_a_package_and_skips_type_checking_blocks():
    assert package_imports("numpy", NUMPY_IMPORTS) == ["numpy.fft", "numpy.linalg"]
    assert package_imports("numpy", NUMPY_IMPORTS, deferred=True) == [
        "numpy", "numpy.fft", "numpy.linalg"]
    assert package_imports("scipy", NUMPY_IMPORTS, deferred=True) == []


# the exact layer runs on Fractions; numpy is imported where floats are made
EXACT_LAYER = ["__init__", "brackets", "cli", "closure", "models", "polyfield"]


@pytest.mark.parametrize("stem", EXACT_LAYER)
def test_exact_layer_imports_no_numpy_on_load(stem):
    assert package_imports("numpy", (PACKAGE_DIR / f"{stem}.py").read_text()) == []


def test_kernel_is_where_the_compiled_fields_import_numpy():
    assert package_imports("numpy", (PACKAGE_DIR / "kernel.py").read_text()) == ["numpy"]


def test_exact_layer_loads_no_numpy():
    src = str(Path(conecert.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import conecert.polyfield, conecert.models, conecert.brackets, conecert.closure, "
            "conecert.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def test_src_has_one_least_squares_routine():
    # leg synthesis and the equilibrium search share one solver
    from conecert import equilibria, reach

    solvers = sorted(f"{path.stem}.{node.name}" for path in PACKAGE_DIR.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.FunctionDef)
                     and re.search("least_squares|gauss_newton|trust_region|lsq", node.name))
    assert solvers == ["equilibria._trust_region_step", "equilibria.trust_region_least_squares"]
    assert reach.trust_region_least_squares is equilibria.trust_region_least_squares


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references.  `from __future__`
    imports and import statements marked `# noqa: F401` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_unused_import_check_sees_an_unused_name():
    assert unused_imports("import json\nfrom dataclasses import dataclass, field\n"
                          "@dataclass\nclass A:\n    x: int\n") == [
        "line 1: json", "line 2: field"]
    assert unused_imports("from __future__ import annotations\n"
                          "import json  # noqa: F401\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_nothing_unused(path):
    assert unused_imports(path.read_text()) == []


TRACING = PACKAGE_DIR.parents[1] / "perfbench" / "tracing.py"


def traced_names() -> set[tuple[str, str]]:
    """The (module, name) pairs `perfbench/tracing.py` patches, read from
    its LAYERS literal without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            layers = ast.literal_eval(node.value)
            return {pair for _, targets, _ in layers for pair in targets}
    raise AssertionError("no LAYERS in perfbench/tracing.py")


def names_nothing_uses(sources: dict[str, str], exempt=frozenset()) -> list[str]:
    """For modules given as {module name: source}: each imported name its
    own module never loads, and each module-level private def or constant
    that no module loads, as "module: name".  `from __future__` imports and
    the (module, name) pairs in `exempt` are left out."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {module: {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
              for module, tree in trees.items()}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    loaded_anywhere = set().union(attributes, *loaded.values())
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loaded[module] and (module, name) not in exempt:
                        found.append(f"{module}: {name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if (name.startswith("_") and not name.startswith("__")
                        and name not in loaded_anywhere and (module, name) not in exempt):
                    found.append(f"{module}: {name}")
    return found


def test_unused_name_check_sees_what_nothing_uses():
    sources = {
        "pkg.a": "from __future__ import annotations\nimport json, os\n"
                 "from .b import _helper, g\n_LIMIT = 3\n_SEEN: set = set()\n"
                 "def _orphan():\n    return os.sep\n"
                 "def f():\n    return _helper(_SEEN)\n",
        "pkg.b": "def _helper(x):\n    return x\ndef g():\n    pass\n",
    }
    assert names_nothing_uses(sources) == [
        "pkg.a: json", "pkg.a: g", "pkg.a: _LIMIT", "pkg.a: _orphan"]
    assert names_nothing_uses(sources, {("pkg.a", "json"), ("pkg.a", "_LIMIT")}) == [
        "pkg.a: g", "pkg.a: _orphan"]
    # a partials memo left behind once its last caller is gone
    memo = ("import functools\n@functools.lru_cache(maxsize=65536)\n"
            "def _diff_cached(p, i):\n    return p.diff(i)\n")
    assert names_nothing_uses({"pkg.polyfield": memo}) == ["pkg.polyfield: _diff_cached"]


def test_src_keeps_nothing_that_nothing_uses():
    # the names the benchmark tracer patches are the only exceptions
    sources = {("conecert" if path.stem == "__init__" else f"conecert.{path.stem}"):
               path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert names_nothing_uses(sources, traced_names()) == []
