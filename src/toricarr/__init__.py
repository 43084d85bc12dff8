"""Exact computations with toric arrangements in the complex torus.

The package builds intersection posets of connected components, detects
unimodular and deletion-restriction-type arrangements, computes Poincare
polynomials of complements by two independent methods, and numerically
recovers the degree-2 relations among the logarithmic 1-form generators of
the cohomology of the complement.
"""

from .lattice import IntMatrix, hnf, snf, left_kernel, saturation, is_primitive
from .arrangement import (
    Hypersurface,
    ToricArrangement,
    ParseError,
    parse,
    serialize,
    braid,
    weyl,
    restrict,
)
from .poset import Component, IntersectionPoset, intersect_system, build_poset, is_unimodular
from .hyperplane import (
    CentralArrangement,
    SubspaceLattice,
    local_arrangement,
    intersection_lattice,
    whitney_poincare,
    nbc_dimensions,
    top_local_multiplicity,
    delete,
    restriction,
)
from .cohomology import (
    Polynomial,
    DrReport,
    DrHypothesisError,
    dcp_poincare,
    dr_condition_check,
    find_dr_ordering,
    dr_poincare,
    betti,
)
from .forms import (
    FormGenerator,
    RelationBasis,
    generators,
    wedge_monomials,
    sample_point,
    eval_generator,
    degree2_relations,
    verify_relation,
)

__version__ = "0.1.0"
