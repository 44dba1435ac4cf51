"""Exact linearization of multi-graded charts into vector-bundle charts.

The package turns a chart of a non-negatively multi-graded manifold into
the chart of a multi-fold vector bundle carrying a family of odd
commuting derivations, checks the defining properties of that family
exactly, inverts the composite differentials, and rebuilds degree-2
charts from double-vector-bundle data.
"""

from .weights import (
    BasisSymbol,
    DualizationResult,
    Multiplicities,
    ValidationReport,
    Weight,
    WeightError,
    WeightSystem,
    ZERO,
    additional_symbol,
    basic_symbol,
    delta_prime_fiber,
    dualize,
    is_closed_subsystem,
    is_multiplicity_free,
    lift_symbols,
    linearized_system,
    max_multiplicities,
    projection_G,
    system_from_rows,
    validate,
    weight,
)
from .algebra import (
    AlgebraError,
    Chart,
    Coordinate,
    CoordinateId,
    Monomial,
    Polynomial,
    TruncationOverflow,
    chart_dump,
    component_basis,
    monomial_poly,
    multiply,
    normalize,
)
from .tangent import Derivation, de_rham
from .linearize import (
    ChartMorphism,
    CompositeOperator,
    LinearizedChart,
    TableEntry,
    compose_DLambda,
    coordinate_table,
    descending,
    identity_morphism,
    lift_morphism,
    linearize_chart,
)
from .analysis import (
    AnalysisError,
    CocycleResult,
    CocycleWitness,
    ComponentMatrix,
    DecompositionResult,
    KernelHypothesisError,
    KernelPreservationResult,
    PropertyReport,
    ReconstructionResult,
    check_all_properties,
    check_cocycle,
    check_decomposition,
    check_kernel_preservation,
    component_map,
    counterexample_off_kernel,
    is_nondegenerate,
    kernel_intersection,
    reconstruct_degree2,
    solve_inverse,
)

__version__ = "0.1.0"
