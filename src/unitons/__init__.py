"""Harmonic two-spheres in unitary groups and complex Grassmannians.

The package implements the loop-group pipeline for harmonic maps of the
two-sphere: exact Weierstrass-type construction of extended solutions from
free rational data, root-system bookkeeping for uniton-number bounds,
Bruhat-cell detection by Smith normal form, numerical Iwasawa factorization
in the Grassmannian model (one QR of the shifted loop's generator columns
for a loop built from a spec), and a verification suite.
"""

from .errors import (
    ExactKindUnsupported,
    InvalidType,
    NoConvergence,
    NonMonomialDeterminant,
    NonRationalAntiderivative,
    NotCanonical,
    NotInBigCellForm,
    NotInvertibleLoop,
    NotNilpotent,
    NotS1Invariant,
    OddSlotData,
    PoleAtZ,
    SchemaError,
    SingularAtMinusOne,
    SingularOnCircle,
    SizeMismatch,
    StepBelowResolution,
    UnitonsError,
    UnrecognizedSubsystem,
    ZeroLambda,
)
from .scalars import (
    GaussianRational,
    Poly,
    RatFun,
    differentiate,
    integrate_rational,
)
from .loops import LoopMat
from .roots import (
    RootSystem,
    SurveyRecord,
    build_root_system,
    canonical_reduce,
    exponents_from_marks,
    group_max_uniton,
    height_of,
    marks_from_exponents,
    max_uniton_for_space,
    symmetric_space_survey,
)
from .weierstrass import (
    ExtendedSolutionSpec,
    assemble_loop,
    build_from_free_functions,
    even_grassmannian_build,
    free_slot_layout,
    left_log_derivative,
    two_projector_frame,
    veronese_solution,
)
from .factorization import (
    BruhatCell,
    IwasawaFactors,
    WeierstrassData,
    big_cell_check,
    bruhat_cell,
    cstar_flow,
    energy,
    flow_limit,
    harmonic_map_at,
    unitarize,
    uniton_factorize,
)
from .verify import (
    CheckEntry,
    UnitonNumbers,
    VerificationReport,
    check_extended,
    check_superhorizontal,
    check_T_invariant,
    harmonicity_residual,
    map_sampler,
    non_harmonic_control,
    uniton_number_report,
)

__version__ = "0.1.0"
