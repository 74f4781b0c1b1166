"""Image-set statistics of finite-domain functions, exact collision-count
bounds, and planarity-style condition testing over small finite fields."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    InfeasibleError,
    ParityError,
    TriangularDecomposition,
    bound_report,
    bounds_s2,
    construct_lower_tight,
    construct_upper_tight,
    lower_bound,
    triangular_B,
    triangular_number,
    upper_bound_exact,
    upper_bound_refined_s2,
    wan_degree_bound,
)
from .conditions import (
    ClassificationSummary,
    ConditionProfile,
    classify_all,
    condition_profile,
    difference_table,
    n2_poly,
    poly_version_bounds,
    test_c1,
    test_c2,
    test_c3,
    test_c4,
    up_invariant,
    verify_average_lemma,
    wsc_lower,
)
from .energy import (
    GroupAxiomError,
    GroupSpec,
    SubsetPair,
    energy,
    energy_bounds,
    multiplication_table,
    n2_from_energy,
    product_set,
)
from .functable import (
    FunctionTable,
    MultiplicitySpectrum,
    collision_count,
    falling_factorial,
    image_count,
    spectrum,
)
from .gf import (
    FieldConstructionError,
    FieldElement,
    FieldPoly,
    FieldSpec,
    field_build,
    interpolate,
    is_primitive,
    poly_eval,
    poly_table,
    primitive_elements,
)
