"""Positivity certificates for SDEs with polynomial drift and additive
constant noise.

The library decides where the transition density of such a diffusion is
provably positive: it computes the bracket-generated cone of the model
symbolically, tests membership of displacement vectors in the associated
one-sided region, synthesizes a control steering the deterministic flow
between the endpoints, certifies nondegeneracy of the flow's Gramian,
and corroborates verdicts with stopped Monte Carlo simulation.

The package root imports none of its modules.  Each public name, and
each submodule, is imported from its home module on first access
(PEP 562), so a process loads only what it uses: `conecert --help`
loads neither scipy nor the numerics.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "closure": (
        "BasisSelectionError",
        "ConeSpan",
        "PositivityBasis",
        "choose_basis",
        "compute_C",
        "d_membership",
        "twist_rank_check",
        "verify_derivations",
    ),
    "equilibria": (
        "EquilibriumPoint",
        "PositivityChain",
        "find_equilibria",
        "is_equilibrium",
    ),
    "models": (
        "BUILTINS",
        "ModelError",
        "ModelSpec",
        "bhw",
        "burgers",
        "get_builtin",
        "langevin",
        "load_model",
        "nonexample3d",
        "save_model",
    ),
    "montecarlo": (
        "PositivityEvidence",
        "SimConfig",
        "clopper_pearson_lower",
        "density_heatmap",
        "simulate",
    ),
    "polyfield": (
        "NO_DEGREE",
        "Polynomial",
        "PolyVectorField",
        "ad_power",
        "lie_bracket",
        "relative_degree",
    ),
    "reach": (
        "CertifyOptions",
        "ControlPath",
        "FlowDivergenceError",
        "FlowResult",
        "ReachabilityCertificate",
        "SynthesisError",
        "certify",
        "gramian",
        "gramian_threshold",
        "integrate_flow",
        "k_rank",
        "synthesize_leg",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "brackets", "cli"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
