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
    parse_graph,
)
from .measures import (
    BoundsReport,
    Decomposition,
    EntanglementReport,
    SeparableStateDescription,
    bounds,
    classify,
    closest_product_state,
    closest_separable_state,
    css_stabilizer_form,
    evaluate,
    minimal_decomposition,
    sign_function,
    transport_css,
)
from .pauli import (
    PauliOperator,
    StabilizerGroup,
    apply_generator,
    apply_pauli,
    generators_from_graph,
    lc_clifford_transport,
    multiply,
    restricted_subgroup,
    stabilized_product_basis,
)
from .lattices import LatticeSpec, gap_formula, gap_scan, generate_lattice
from .separable import noise_css, peps_css

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
