"""Direct evaluation of pure graph state entanglement via graph problems.

The dense oracle (dense, separable and its noise_css and peps_css) needs
numpy, which the rest of the package does not; those names are imported
on first use (PEP 562), so importing graphent does not load numpy.
"""

from importlib import import_module as _import_module

from . import graphs, lattices, measures, pauli
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
    apply_generator,
    apply_pauli,
    generators_from_graph,
    lc_clifford_transport,
    multiply,
    restricted_subgroup,
    stabilized_product_basis,
)
from .lattices import LatticeSpec, gap_formula, gap_scan, generate_lattice

__version__ = "0.1.0"

# name -> the module that provides it, imported on first use
_LAZY = {"dense": "dense", "separable": "separable", "noise_css": "separable", "peps_css": "separable"}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
