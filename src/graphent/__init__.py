"""Direct evaluation of pure graph state entanglement via graph problems."""

from . import dense, graphs, lattices, measures, pauli, separable
from .graphs import (
    DEFAULT_ORBIT_CAP,
    MAX_VERTICES,
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    OrbitSummary,
    cut_rank,
    is_bipartite,
    lc_orbit,
    lc_orbit_members,
    local_complement,
    max_independent_set,
    max_matching,
    min_vertex_cover,
    parse_graph,
)
from .measures import (
    BellExtraction,
    BellSearchError,
    BoundsReport,
    Decomposition,
    EntanglementReport,
    SeparableStateDescription,
    bell_extraction,
    bounds,
    classify,
    closest_product_state,
    closest_separable_state,
    css_stabilizer_form,
    evaluate,
    minimal_decomposition,
    predicts_equal,
    sign_function,
    transport_css,
)
from .pauli import (
    PauliOperator,
    StabilizerGroup,
    apply_generator,
    apply_pauli,
    entangles_check,
    generators_from_graph,
    lc_clifford_transport,
    multiply,
    restricted_subgroup,
    stabilized_product_basis,
)
from .lattices import LatticeSpec, gap_exact, gap_formula, gap_scan, generate_lattice
from .separable import noise_css, peps_css

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
