"""Exact SO(3) quantum-invariant calculator for surgered cyclic covers,
with cyclotomic residue tests and linking-form algebra.

All arithmetic is pure Python over exact integers.  Ring products go
through one coefficient kernel, cyclotomic.mul_reduce; the (1 - zeta_p)-adic
valuation makes none, dividing x's components over Z[zeta_p] by 1 - zeta_p
with prefix sums, and nothing on the way to an answer divides in the ring.

Importing the package loads only the ring and the errors; every other layer
loads on first access to one of its names or to the submodule (PEP 562).
"""

import importlib

from .cyclotomic import (
    CycInt,
    CycNum,
    cm_bound,
    mod_p,
    ring_modulus,
    root,
    valuation,
)

__version__ = "0.1.0"

# every other public name, keyed to the module it is read from on first access
_LAZY = {
    "skein": ("SkeinElem", "delta", "eta", "eta_squared", "hopf_bracket", "kappa",
              "omega", "omega_bracket", "plane_eval", "point_eval", "quantum_int", "twist"),
    "invariants": ("AbelianGroup", "HopfSatellite", "base_homology", "bracket_satellite",
                   "cover_invariant", "cover_invariant_valuation",
                   "homology_from_matrix", "linking_matrix"),
    "congruence": ("CongruenceVerdict", "check_kappa_congruence", "kappa_order",
                   "kappa_residues", "orbit_congruence_check"),
    "linkform": ("Character", "CurveClass", "Homology1", "TorsionElement",
                 "WallForm", "complement_simple", "dual_element", "is_simple",
                 "pair", "scc2_curves", "scc_curves"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = (*_LAZY, "intlinalg")

__all__ = [
    "CycInt", "CycNum", "cm_bound", "mod_p", "ring_modulus", "root",
    "valuation", *_HOME,
]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
