"""Exact SO(3) quantum-invariant calculator for surgered cyclic covers,
with cyclotomic residue tests and linking-form algebra.

All arithmetic is pure Python over exact integers.  Ring products go
through one coefficient kernel, cyclotomic.mul_reduce; exact division,
inversion up to a power of p and the (1 - zeta_p)-adic valuation reduce to
ring products through the Galois norm and the (1 - zeta_p) cofactor.
"""

from .cyclotomic import (
    CycInt,
    CycNum,
    ResidueClass,
    divide_exact,
    invert_p_power,
    mod_p,
    ring_modulus,
    root,
    valuation,
)
from .skein import (
    SkeinElem,
    chebyshev_e,
    delta,
    eta,
    eta_squared,
    hopf_bracket,
    kappa,
    omega,
    plane_eval,
    quantum_int,
    twist,
)
from .invariants import (
    AbelianGroup,
    HopfSatellite,
    bracket_satellite,
    cover_invariant,
    cover_invariant_valuation,
    homology_from_matrix,
    linking_matrix,
)
from .congruence import (
    CongruenceVerdict,
    check_kappa_congruence,
    cm_bound,
    kappa_order,
    kappa_residues,
    orbit_congruence_check,
)
from .linkform import (
    Character,
    CurveClass,
    Homology1,
    TorsionElement,
    WallForm,
    complement_simple,
    dual_element,
    is_simple,
    pair,
    scc2_curves,
    scc_curves,
)

__version__ = "0.1.0"

__all__ = [
    "CycInt", "CycNum", "ResidueClass", "divide_exact", "invert_p_power",
    "mod_p", "ring_modulus", "root", "valuation",
    "SkeinElem", "chebyshev_e", "delta", "eta", "eta_squared", "hopf_bracket",
    "kappa", "omega", "plane_eval", "quantum_int", "twist",
    "AbelianGroup", "HopfSatellite", "bracket_satellite", "cover_invariant",
    "cover_invariant_valuation", "homology_from_matrix", "linking_matrix",
    "CongruenceVerdict", "check_kappa_congruence", "cm_bound", "kappa_order",
    "kappa_residues", "orbit_congruence_check",
    "Character", "CurveClass", "Homology1", "TorsionElement", "WallForm",
    "complement_simple", "dual_element", "is_simple", "pair", "scc2_curves",
    "scc_curves",
]
