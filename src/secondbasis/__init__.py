"""Exact combinatorics of nested arc families and their second bases.

The library enumerates the families X_D of arc collections on an odd ground
set [1, N], maps them bijectively onto the even-cardinality subsets E_N,
builds the partial order that bijection generates, and emits the
unitriangular change-of-basis matrices whose columns form the second basis.
Everything is exact (F2 bitsets and integers) and every structural theorem
the construction relies on is re-verified exhaustively at desk scale.
"""

from .arcs import (
    Arc,
    Matching,
    classify_pair,
    lift_matching,
)
from .basis import (
    BasisMatrix,
    Order,
    Symbol,
    boundary_correction,
    build_order,
    change_matrix,
    epsilon,
    epsilon_images,
    epsilon_inverse,
    epsilon_pairs,
    piece_cardinality,
    primitive_image,
    reduce_symbol,
    second_basis_vectors,
    sector_label,
    series_size,
    symbol_of,
    unique_bijection_check,
)
from .errors import (
    DecompositionError,
    DimensionMismatchError,
    DomainError,
    FalsificationError,
    ResourceGuardError,
)
from .f2 import EvenSet, span_masks
from .family import (
    PieceLabel,
    coverings_ok,
    distinguished_element,
    enumerate_family,
    filter_family,
    ground_size,
    is_member,
    labeled_primitives,
    nested_pairing,
    parity_ok,
    piece_of,
    pieces,
    primitives,
)
from .tables import TableEntry, parse_entry, render_entry, render_table, table_json
from .variants import (
    in_primed_zero_piece,
    in_primed_zero_piece_set,
    involution,
    matching_involution,
    orbit_representatives,
    sector_matrix,
    sector_order_check,
    triangle_identity_ok,
    triangular_epsilon,
)
from .verify import RunReport, run_checks

__version__ = "0.1.0"
