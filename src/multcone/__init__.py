"""Deformed quantum multiplication for flag varieties and the inequality
system of the multiplicative eigenvalue polytope."""

from .root_system import (CartanPoint, RootSystem, Weight, build_root_system,
                          kappa, kappa_inv, killing_form)
from .weyl import (ParabolicContext, WeylElement, chi, enumerate_weyl,
                   minimal_reps, s_matrix)
from .quantum_ring import QuantumTable, build_structure_table, gw_invariant
from .deformed_ring import (DeformedElement, a_exponent, deformed_coeff_tuple,
                            deformed_product, is_levi_movable, render_table)
from .eigencone import (Certificate, DistinctnessReport, Inequality,
                        IrredundancyReport, MembershipVerdict,
                        baseline_inequalities, distinctness_check,
                        generate_inequalities, generated_system,
                        irredundancy_check, membership)

# The numeric oracle is the only user of numpy; its names are loaded on
# first access (PEP 562), so importing multcone does not import numpy.
_ORACLE_NAMES = ("GroupRep", "OracleVerdict", "group_rep",
                 "numeric_membership", "rep_for_root_system",
                 "su2_reference_membership")

__all__ = [
    "CartanPoint", "RootSystem", "Weight", "build_root_system",
    "kappa", "kappa_inv", "killing_form",
    "ParabolicContext", "WeylElement", "chi", "enumerate_weyl",
    "minimal_reps", "s_matrix",
    "QuantumTable", "build_structure_table", "gw_invariant",
    "DeformedElement", "a_exponent", "deformed_coeff_tuple",
    "deformed_product", "is_levi_movable", "render_table",
    "Certificate", "DistinctnessReport", "Inequality",
    "IrredundancyReport", "MembershipVerdict",
    "baseline_inequalities", "distinctness_check", "generate_inequalities",
    "generated_system", "irredundancy_check", "membership",
    *_ORACLE_NAMES,
]


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import unitary_oracle
        return getattr(unitary_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
