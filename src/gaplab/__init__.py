"""gaplab: gap-vertex-labellings of graphs.

A vertex labelling with positive integers induces a colouring: each vertex
with two or more neighbours takes the largest difference among its
neighbours' labels, and each degree-one vertex takes its neighbour's label.
This package verifies such labellings, transforms them while preserving
validity, decides labelability by exhaustive mark assignment, constructs
labellings for complete graphs and powers of paths and cycles, and bounds
how many edge removals make a complete graph labelable.
"""

from .decide import DecisionResult, decide, naive_decide, vertex_gap_number
from .errors import (
    DomainError,
    GapLabError,
    InvalidLabellingError,
    MissingEdgeError,
    ParseError,
    SearchBudgetExceeded,
    UnsupportedInputError,
)
from .families import (
    COMPLETE,
    CYCLE_POWER,
    PATH_POWER,
    ConflictEvidence,
    FamilySpec,
    build_family,
    construct_complete_labelling,
    construct_cycle_power_labelling,
    construct_path_power_labelling,
    family_labelling,
    labelable_complete,
    labelable_cycle_power,
    labelable_path_power,
    refute_witness,
)
from .graph import (
    Graph,
    complete_graph,
    cycle_power,
    graph_from_edges,
    is_connected,
    parse_graph,
    path_power,
    remove_edges,
    serialize_graph,
)
from .labelling import (
    Colouring,
    ConflictReport,
    Labelling,
    induced_colouring,
    is_gap_labelling,
    parse_labelling,
    serialize_labelling,
    validate_labelling,
)
from .strength import (
    BoundCheck,
    Decomposition,
    RemovalPlan,
    RemovalStep,
    UpperBoundConstruction,
    check_bounds,
    construct_upper,
    decompose,
    emit_tables,
    exact_strength,
    general_lb,
    removal_schedule,
    removed_edge_ledger,
    restricted_lb,
)
from .symmetry import (
    automorphism_orbits,
    degree_refinement,
    orbit_representatives,
)
from .transforms import (
    decision_marks,
    distinctify,
    erdos_turan_ruler,
    golomb_relabel,
    is_golomb_ruler,
    is_prime,
    next_prime,
    power_two_relabel,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
