"""Exact-arithmetic toolkit for rank-one log del Pezzo surface computations:
resolution dual graphs and their discrepancies, blowup-lattice divisor
calculus, cubic-pencil analysis over exact fields, and feasibility screens,
with a golden verification suite behind the `ldp` command.

Importing `ldp` loads `cli` and the dual-graph layers it imports (`graphs`,
`discrepancy`, `feasibility`); every other submodule loads on first access."""

import importlib

from . import cli

__all__ = ["cli", "discrepancy", "feasibility", "fields", "graphs", "linalg", "pencil",
           "picard", "poly", "verify"]


def __getattr__(name):
    # called by the import system for a name the package does not hold yet
    # (PEP 562); importing a submodule binds it here, so this runs once for each
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
