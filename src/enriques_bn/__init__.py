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
"""

from .brill_noether import (
    BNPrediction,
    DestabCandidate,
    ParamCountAudit,
    PlaneCoverFamilyReport,
    StableCaseAudit,
    check_mn_bound,
    cliff_chain_bound,
    enumerate_destab,
    param_count,
    plane_cover_family_report,
    predict_w1d,
    rho,
    stable_case_audit,
)
from .errors import (
    CertificateError,
    ClassParseError,
    EnriquesBNError,
    FormMismatchError,
    GenusTooSmallError,
    NotAmpleEnoughError,
    NotAmpleError,
    NotPositiveDefiniteError,
    NotRealizableError,
    PositiveSquareRequiredError,
    RangeError,
    SearchExhaustedError,
    ZeroClassError,
)
from .invariants import (
    EXCEPTIONAL_SQUARE_PHI_PAIRS,
    GonalityReport,
    IsotropicDecomposition,
    MuResult,
    PhiResult,
    clifford_generic,
    decompose_isotropic,
    gonality,
    mu,
    phi,
)
from .lattice import (
    ConfigurationPresentation,
    DivisorClass,
    IntersectionForm,
    NumClass,
    basis_vector,
    canonical_form,
    canonical_torsion_class,
    config_i,
    config_ii,
    config_iii,
    content,
    custom_configuration,
    divisor_class,
    embed_configuration,
    is_primitive,
    num_class,
)
from .positivity import (
    CohomologyProfile,
    PositivityStatus,
    classify_positivity,
    cohomology,
    reference_ample,
)
from .shortvec import (
    ComplementLift,
    FiberSystem,
    PosDefForm,
    ShortVectorResult,
    enumerate_short,
)

__version__ = "0.1.0"
