"""Positivity certificates for SDEs with polynomial drift and additive
constant noise.

The library decides where the transition density of such a diffusion is
provably positive: it computes the bracket-generated cone of the model
symbolically, tests membership of displacement vectors in the associated
one-sided region, synthesizes a control steering the deterministic flow
between the endpoints, certifies nondegeneracy of the flow's Gramian,
and corroborates verdicts with stopped Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .closure import (
    BasisSelectionError,
    ConeSpan,
    PositivityBasis,
    choose_basis,
    compute_C,
    d_membership,
    twist_rank_check,
    verify_derivations,
)
from .equilibria import (
    EquilibriumPoint,
    PositivityChain,
    find_equilibria,
    is_equilibrium,
)
from .models import (
    BUILTINS,
    ModelError,
    ModelSpec,
    bhw,
    burgers,
    get_builtin,
    langevin,
    load_model,
    nonexample3d,
    save_model,
)
from .montecarlo import (
    PositivityEvidence,
    SimConfig,
    clopper_pearson_lower,
    density_heatmap,
    simulate,
)
from .polyfield import (
    NO_DEGREE,
    Polynomial,
    PolyVectorField,
    ad_power,
    lie_bracket,
    relative_degree,
)
from .reach import (
    CertifyOptions,
    ControlPath,
    FlowDivergenceError,
    FlowResult,
    GramianError,
    ReachabilityCertificate,
    SynthesisError,
    certify,
    gramian,
    gramian_threshold,
    integrate_flow,
    k_rank,
    synthesize_leg,
)

__all__ = [
    "__version__",
    "BasisSelectionError",
    "ConeSpan",
    "PositivityBasis",
    "choose_basis",
    "compute_C",
    "d_membership",
    "twist_rank_check",
    "verify_derivations",
    "EquilibriumPoint",
    "PositivityChain",
    "find_equilibria",
    "is_equilibrium",
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
    "PositivityEvidence",
    "SimConfig",
    "clopper_pearson_lower",
    "density_heatmap",
    "simulate",
    "NO_DEGREE",
    "Polynomial",
    "PolyVectorField",
    "ad_power",
    "lie_bracket",
    "relative_degree",
    "CertifyOptions",
    "ControlPath",
    "FlowDivergenceError",
    "FlowResult",
    "GramianError",
    "ReachabilityCertificate",
    "SynthesisError",
    "certify",
    "gramian",
    "gramian_threshold",
    "integrate_flow",
    "k_rank",
    "synthesize_leg",
]
