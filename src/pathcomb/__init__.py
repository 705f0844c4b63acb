"""Combing bijection for path families, with the Aztec diamond tiling
correspondence, exact Delannoy determinants, enumeration oracles, and a
rendering CLI.

``import pathcomb`` loads no submodule but ``delannoy``.  Every other name
in ``__all__`` is read from its submodule on each access (PEP 562), which
loads that submodule on first use; nothing is cached here, so a name always
reads as its submodule's current binding.  ``delannoy`` is bound eagerly
to the function, which shadows the submodule of the same name.
"""

from importlib import import_module

from .delannoy import delannoy

# each exported name, listed under the submodule that defines it
_SOURCES = {
    "combing": ("CombTrace", "InsufficientVerticalSteps", "ResidualVerticalSteps",
                "clify_step", "comb", "comb_column", "disj_step", "uncomb", "uncomb_column"),
    "delannoy": ("delannoy", "delannoy_matrix", "det_exact", "verify_reduction"),
    "enumeration": ("CapExceeded", "all_bit_triangles", "column_counts",
                    "diagonal_step_count", "enumerate_disjoint", "enumerate_schroder",
                    "intercolumn_counts", "joint_distribution", "row_counts",
                    "verify_bijection"),
    "families": ("BitTriangle", "ExplicitPath", "InvalidFamily", "MalformedPath",
                 "NotDisjoint", "ParseError", "PathFamily", "PreconditionViolation",
                 "Violation", "entry_levels", "explicit_paths", "family_from_bits",
                 "family_from_paths", "is_cliff_shaped", "is_disjoint", "validate_family"),
    "rng": ("SplitMix64", "random_triangle"),
    "tilings": ("Convention", "DominoTiling", "EdgePathFamily", "EdgeSets", "NotATiling",
                "Region", "aztec_region", "convention_paths", "dual_family",
                "family_to_tiling", "paths_to_tiling", "region_edges", "tiling_to_family",
                "tiling_to_paths"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}
# submodules, reachable as attributes before anything imports them
_SUBMODULES = ("cli", "combing", "enumeration", "families", "fields", "rng", "svg", "tilings")

__all__ = list(_SOURCE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _SOURCE_OF:
        return getattr(import_module(f"{__name__}.{_SOURCE_OF[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
