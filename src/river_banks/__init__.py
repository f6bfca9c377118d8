"""Exact-arithmetic cohomology tables of vector bundles on projective space.

The nonzero entries of a table form a river across the display; the
regularity and coregularity indices locate its banks.  This package computes
tables of homogeneous bundles and pushforwards exactly, extracts the index
profiles, checks the tensor-product bounds and their sharpness, decomposes
zero-regular tables into chains of homogeneous tables, and verifies the
wedge-pair kernel obstruction, all without floating point.
"""

from river_banks.bott import BottCohomology, bott_cohomology, chi_polynomial
from river_banks.boij_soderberg import (
    Decomposition,
    NotDecomposableWithinScope,
    NotZeroRegularError,
    decompose,
    recompose,
)
from river_banks.bounds import (
    BoundReport,
    NoWitnessError,
    UnobstructedReport,
    check_sharpness,
    check_tensor_bounds,
    lr_witness,
    tensor_homogeneous,
    unobstructed_criterion,
)
from river_banks.exterior import TwoForm, kernel_dim, wedge_matrix
from river_banks.expr import ExprError, table_from_expr
from river_banks.kunneth import KunnethTable, product_line_cohomology, pushforward_table
from river_banks.partitions import GenPartition, leq, lr_expand, schur_dim
from river_banks.ratpoly import RatPoly
from river_banks.tables import (
    NEG_INFINITY,
    POS_INFINITY,
    BottSumTable,
    CohomologyTable,
    LiteralTable,
    RegularityProfile,
    SumTable,
    UndecidableError,
    WindowExceededError,
    ascii_normalize,
    beilinson_terms,
    homogeneous_table,
    is_natural,
    is_supernatural,
    literal_from_json,
    parse_ascii,
    regularity_profile,
    render_ascii,
    structure_sheaf_table,
    table_to_json,
)

__version__ = "0.1.0"
