"""Dominating sets, k-dominating reconfiguration graphs, and exact counting.

The library has four layers:

* graphs: immutable simple graphs, named families, and the join, corona,
  cartesian, and ladder constructions.
* domination: enumeration and exact counting of dominating sets, with two
  independent enumeration routes that must agree.
* reconfig: the k-dominating graph D_k(G) whose nodes are dominating sets
  of cardinality at most k, adjacent when one vertex is added or deleted.
* counting: recurrences, generating functions, closed forms, and
  product-order formulas, computed algebraically for cross-validation.

verify runs every formula against the enumeration oracle and reports
pass/erratum/fail records; cli wires everything into a command line.
"""

from .counting import (
    CountTable,
    CubicClosedForm,
    RationalGF,
    closed_d,
    closed_form_order,
    corona_order,
    cubic_closed_form,
    cycle_triangle,
    expand_gf,
    join_order,
    ladder_order,
    order_sequence,
    path_triangle,
)
from .domination import (
    ENUMERATION_CAP,
    DomFamily,
    count_by_cardinality,
    count_maximal_minimal_sets,
    count_minimum_sets,
    domination_number,
    enumerate_dominating,
    is_dominating,
    is_minimal_dominating,
    total_count,
    upper_domination_number,
)
from .errors import (
    DegenerateFamilyError,
    DomGraphError,
    EmptyGraphError,
    FormulaViolationError,
    InvalidSeriesError,
    InvalidSizeError,
    InvalidSubsetError,
    PrecisionError,
    TooLargeError,
)
from .graphs import (
    Graph,
    VertexSubset,
    cartesian,
    corona,
    from_json,
    graph_from_edges,
    is_connected,
    join,
    ladder,
    make_family,
    to_dot,
    to_json,
)
from .reconfig import (
    ReconfigGraph,
    bipartition,
    build,
    connected_components,
    degree_extremes,
    distance,
    euler_status,
    is_hamiltonian,
    is_regular,
)
from .verify import CheckRecord, verify_suite

__version__ = "0.1.0"

__all__ = [
    "CheckRecord",
    "CountTable",
    "CubicClosedForm",
    "DegenerateFamilyError",
    "DomFamily",
    "DomGraphError",
    "ENUMERATION_CAP",
    "EmptyGraphError",
    "FormulaViolationError",
    "Graph",
    "InvalidSeriesError",
    "InvalidSizeError",
    "InvalidSubsetError",
    "PrecisionError",
    "RationalGF",
    "ReconfigGraph",
    "TooLargeError",
    "VertexSubset",
    "bipartition",
    "build",
    "cartesian",
    "closed_d",
    "closed_form_order",
    "connected_components",
    "corona",
    "corona_order",
    "count_by_cardinality",
    "count_maximal_minimal_sets",
    "count_minimum_sets",
    "cubic_closed_form",
    "cycle_triangle",
    "degree_extremes",
    "distance",
    "domination_number",
    "enumerate_dominating",
    "euler_status",
    "expand_gf",
    "from_json",
    "graph_from_edges",
    "is_connected",
    "is_dominating",
    "is_hamiltonian",
    "is_minimal_dominating",
    "is_regular",
    "join",
    "join_order",
    "ladder",
    "ladder_order",
    "make_family",
    "order_sequence",
    "path_triangle",
    "to_dot",
    "to_json",
    "total_count",
    "upper_domination_number",
    "verify_suite",
]
