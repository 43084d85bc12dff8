"""Exact computations with toric arrangements in the complex torus.

The package builds intersection posets of connected components, detects
unimodular and deletion-restriction-type arrangements, computes Poincare
polynomials of complements by two independent methods, and numerically
recovers the degree-2 relations among the logarithmic 1-form generators of
the cohomology of the complement.

Everything is exact except that numeric step, :mod:`toricarr.forms`, the
only module that uses numpy.  It is loaded lazily: ``import toricarr`` does
not import numpy, and the first attribute access on ``toricarr.forms`` (or on
one of its names re-exported here) loads both.  :mod:`toricarr.hyperplane`,
the local hyperplane cross-check that no command uses, is lazy the same way.
The value classes are slotted subclasses of :class:`~toricarr.lattice.Frozen`,
so no command imports the standard library's class generator either.
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
from .cohomology import (
    Polynomial,
    DrReport,
    DrHypothesisError,
    dcp_poincare,
    dr_condition_check,
    find_dr_ordering,
    dr_poincare,
)


def _lazy_module(name):
    """Register module ``name`` in ``sys.modules``; it runs on first attribute access."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hyperplane = _lazy_module(__name__ + ".hyperplane")
forms = _lazy_module(__name__ + ".forms")

# The names re-exported from the lazy modules, each with its module.
_LAZY_NAMES = dict.fromkeys((
    "CentralArrangement", "SubspaceLattice", "local_arrangement", "intersection_lattice",
    "whitney_poincare", "nbc_dimensions", "top_local_multiplicity", "delete", "restriction",
), hyperplane) | dict.fromkeys((
    "FormGenerator", "RelationBasis", "generators", "wedge_monomials", "sample_point",
    "eval_generator", "degree2_relations", "verify_relation",
), forms)


def __getattr__(name):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ``from toricarr import *`` keeps the names of the lazy modules (and so loads them).
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY_NAMES)

__version__ = "0.1.0"
