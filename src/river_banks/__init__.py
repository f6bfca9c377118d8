"""Exact-arithmetic cohomology tables of vector bundles on projective space.

The nonzero entries of a table form a river across the display; the
regularity and coregularity indices locate its banks.  This package computes
tables of homogeneous bundles and pushforwards exactly, extracts the index
profiles, checks the tensor-product bounds and their sharpness, decomposes
zero-regular tables into chains of homogeneous tables, and verifies the
wedge-pair kernel obstruction, all without floating point.

The public names below are re-exported lazily (PEP 562): ``import
river_banks`` loads no submodule, and ``river_banks.X`` imports the module
that defines X on first use and reads X from it.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "bott": "BottCohomology bott_cohomology",
    "boij_soderberg": "Decomposition NotDecomposableWithinScope NotZeroRegularError decompose",
    "bounds": "BoundReport UnobstructedReport check_sharpness "
              "check_tensor_bounds lr_witness tensor_homogeneous unobstructed_criterion",
    "exterior": "TwoForm kernel_dim",
    "expr": "ExprError table_from_expr",
    "kunneth": "KunnethTable",
    "partitions": "GenPartition leq lr_expand schur_dim",
    "ratpoly": "RatPoly",
    "tables": "NEG_INFINITY POS_INFINITY BottSumTable CohomologyTable LiteralTable "
              "RegularityProfile SumTable UndecidableError WindowExceededError ascii_normalize "
              "beilinson_terms homogeneous_table is_natural is_supernatural literal_from_json "
              "parse_ascii regularity_profile render_ascii structure_sheaf_table table_to_json",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # not cached here, so a binding replaced in the defining module shows through
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
