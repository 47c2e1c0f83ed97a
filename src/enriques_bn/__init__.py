"""Exact invariants of line bundles on unnodal Enriques surfaces.

Everything works in the rank-10 even unimodular lattice U + E8(-1) with
exact arithmetic only.  Every search is a Fincke-Pohst enumeration run on
integer-scaled LDL factors, so no float decides anything and every bound is
exact.  The main entry points:

- :func:`canonical_form`, :func:`embed_configuration` -- the lattice.
- :func:`enumerate_short`, :class:`FiberSystem` -- the search kernel: one
  fiber class, whose one-constraint case is :class:`ComplementLift`.
- :func:`classify_positivity`, :func:`cohomology` -- positivity and h^i.
- :func:`phi`, :func:`mu`, :func:`gonality`, :func:`clifford_generic`,
  :func:`decompose_isotropic` -- polarization invariants.
- :func:`predict_w1d`, :func:`enumerate_destab`, :func:`param_count`,
  :func:`stable_case_audit`, :func:`plane_cover_family_report` --
  Brill-Noether arithmetic.

``import enriques_bn`` compiles no layer: the first public name read
imports every layer at once and binds all the names below (PEP 562).  A
library caller pays for every layer once, where it first reads a name,
and never inside a later call; the CLI imports its layers directly and
pays only for the ones a command runs.
"""

import importlib

__version__ = "0.1.0"

#: the public names of each layer, in the order the layers are imported
_LAYER_NAMES = {
    "brill_noether": (
        "BNPrediction", "DestabCandidate", "ParamCountAudit",
        "PlaneCoverFamilyReport", "StableCaseAudit", "check_mn_bound",
        "cliff_chain_bound", "enumerate_destab", "param_count",
        "plane_cover_family_report", "predict_w1d", "rho", "stable_case_audit",
    ),
    "errors": (
        "CertificateError", "ClassParseError", "EnriquesBNError",
        "FormMismatchError", "GenusTooSmallError", "NotAmpleEnoughError",
        "NotAmpleError", "NotPositiveDefiniteError", "NotRealizableError",
        "PositiveSquareRequiredError", "RangeError", "SearchExhaustedError",
        "ZeroClassError",
    ),
    "invariants": (
        "EXCEPTIONAL_SQUARE_PHI_PAIRS", "GonalityReport",
        "IsotropicDecomposition", "MuResult", "PhiResult", "clifford_generic",
        "decompose_isotropic", "gonality", "mu", "phi",
    ),
    "lattice": (
        "ConfigurationPresentation", "DivisorClass", "IntersectionForm",
        "NumClass", "basis_vector", "canonical_form",
        "canonical_torsion_class", "config_i", "config_ii", "config_iii",
        "content", "custom_configuration", "divisor_class",
        "embed_configuration", "is_primitive", "num_class",
    ),
    "positivity": (
        "CohomologyProfile", "PositivityStatus", "classify_positivity",
        "cohomology", "reference_ample",
    ),
    "shortvec": (
        "ComplementLift", "FiberSystem", "PosDefForm", "ShortVectorResult",
        "enumerate_short",
    ),
}

__all__ = [name for names in _LAYER_NAMES.values() for name in names]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for layer, names in _LAYER_NAMES.items():
        module = importlib.import_module(f"{__name__}.{layer}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__():
    return list(__all__)
