"""Exact twisted homology of hyperplane arrangement complements.

The package computes, in exact arithmetic over Q, prime fields, cyclotomic
fields, and Laurent polynomial rings:

* intersection-lattice combinatorics of rational arrangements (flats, girth,
  dense edges, Betti numbers, nonresonance of integer characters);
* homology of free chain complexes over PIDs, with Smith normal forms and a
  divisor-chain decision procedure for chain-complex isomorphism;
* the unit-twisted complex of Z^n, twisted homology of arrangement
  complements in the combinatorially valid range, complete computations in
  generic position, and presentations of character-abelianized higher
  homotopy groups;
* Fox derivatives, Alexander-type presentation complexes, and Milnor-fiber
  first Betti spectra with the relative-minimality divisibility obstruction;
* chain complexes of iterated semidirect products of free groups
  (fiber-type towers) specialized through integer characters.
"""

from .arrangement import (
    Arrangement,
    BettiData,
    Character,
    Flat,
    GirthTooSmall,
    InvalidCharacter,
    LatticeTooLarge,
    NotEssential,
    NotGenericPosition,
)
from .chain import (
    DegreeOutOfRange,
    FreeChainComplex,
    Homology,
    SpanTooLarge,
    decide_isomorphic,
)
from .fox import (
    FreeWord,
    GroupPresentation,
    GroupRingElement,
    NotMeridianMarked,
    RelatorNotKilled,
    alexander_complex,
    fox_derivative,
    specialize,
)
from .koszul import (
    Disagreement,
    UnitAssignment,
    build_koszul,
    complete_homology_generic_position,
    generic_range_homology,
    pi_p_presentation_boolean,
)
from .linalg import Matrix, SmithForm, kernel_basis, rank, smith_normal_form
from .milnor import MilnorSpectrum, obstruction_report, spectrum_from_presentation
from .rings import (
    CyclotomicElement,
    CyclotomicField,
    IntegerRing,
    LaurentPoly,
    LaurentRing,
    MixedRings,
    PrimeField,
    PrimeFieldElement,
    QQ,
    RationalField,
    Refusal,
    RingTooLarge,
    UnsupportedRing,
    ZZ,
    cyclotomic_poly,
    ring_from_string,
)
from .tower import (
    DegreeUnavailable,
    TowerCharacter,
    TowerInvalid,
    TowerSpec,
    build_tower_complex,
    check_tower,
    jacobian_rep,
    pi_p_presentation_fibertype,
    rank_formula_general,
    rank_formula_nonresonant,
)

__version__ = "0.1.0"
