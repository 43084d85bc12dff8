"""Value semantics of the package's immutable classes: equality, hash, repr,
immutability, pickling and copying; and the mutable ``RelationBasis``."""

import copy
import pickle
import weakref
from fractions import Fraction

import numpy as np
import pytest

from toricarr.arrangement import Hypersurface, ToricArrangement, parse, weyl
from toricarr.cohomology import DrReport, find_dr_ordering
from toricarr.forms import FormGenerator, RelationBasis, degree2_relations, generators
from toricarr.hyperplane import CentralArrangement, SubspaceLattice, intersection_lattice
from toricarr.lattice import HNFResult, IntMatrix, SNFResult, hnf, snf
from toricarr.polynomial import Polynomial
from toricarr.poset import Component, IntersectionPoset, build_poset

HALF = ToricArrangement(1, [Hypersurface((1,), Fraction(1, 2))])
M = IntMatrix.from_rows([[1, 2], [3, 4]])


def _instances():
    """One instance of each value class, built twice (so equal, not identical)."""
    b2 = weyl("B", 2)
    return {
        IntMatrix: IntMatrix.from_rows([[1, 2], [3, 4]]),
        HNFResult: hnf(IntMatrix.from_rows([[2, 4]])),
        SNFResult: snf(IntMatrix.from_rows([[2, 3], [4, 5]])),
        Hypersurface: b2.hypersurfaces[3],
        ToricArrangement: b2,
        Polynomial: Polynomial((1, 2, 1)),
        Component: build_poset(b2).components[-1],
        IntersectionPoset: build_poset(b2),
        DrReport: find_dr_ordering(b2),
        CentralArrangement: CentralArrangement(2, IntMatrix.from_rows([[1, 0], [1, 1]])),
        SubspaceLattice:
            intersection_lattice(CentralArrangement(2, IntMatrix.from_rows([[1, 0], [0, 1]]))),
        FormGenerator: generators(b2)[2],
    }


VALUES = list(_instances().items())
IDS = [cls.__name__ for cls, _ in VALUES]


def test_every_value_class_is_covered():
    assert sorted(IDS) == sorted([
        "IntMatrix", "HNFResult", "SNFResult", "Hypersurface", "ToricArrangement",
        "Polynomial", "Component", "IntersectionPoset", "DrReport",
        "CentralArrangement", "SubspaceLattice", "FormGenerator"])


@pytest.mark.parametrize("cls, value", VALUES, ids=IDS)
def test_equal_values_compare_and_hash_alike(cls, value):
    again = _instances()[cls]
    assert type(value) is cls and again is not value
    assert again == value and not again != value
    assert hash(again) == hash(value)
    assert len({value, again}) == 1
    assert value != object() and value.__eq__(object()) is NotImplemented


def test_unequal_values_and_other_classes():
    assert IntMatrix.from_rows([[1, 2]]) != IntMatrix.from_rows([[1, 3]])
    assert Polynomial((1, 2)) != Polynomial((1, 3))
    assert Hypersurface((1, 0), Fraction(0)) != Hypersurface((1, 0), Fraction(1, 2))
    # same fields, different class: equality holds only within one class
    h = hnf(M)
    assert HNFResult(h.H, h.U) == h
    assert SNFResult(h.H, h.U, h.U) != HNFResult(h.H, h.U)


@pytest.mark.parametrize("cls, value", VALUES, ids=IDS)
def test_fields_are_read_only(cls, value):
    name = value.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls, value", VALUES, ids=IDS)
def test_pickle_and_copies_round_trip(cls, value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert [getattr(twin, f) for f in cls._fields] == [getattr(value, f) for f in cls._fields]


@pytest.mark.parametrize("cls, value", VALUES, ids=IDS)
def test_constructor_takes_the_fields_by_position_or_name(cls, value):
    fields = {f: getattr(value, f) for f in cls._fields}
    for twin in (cls(*fields.values()), cls(**fields)):
        assert type(twin) is cls and twin == value
        assert [getattr(twin, f) for f in cls._fields] == list(fields.values())
    for args, named in [((), {f: fields[f] for f in cls._fields[1:]}),  # missing
                        ((*fields.values(), None), {}),                     # extra
                        ((), {**fields, "no_such_field": 1})]:              # unknown
        with pytest.raises(TypeError):
            cls(*args, **named)


def test_records_take_trailing_fields_by_name():
    h = hnf(M)
    assert HNFResult(h.H, U=h.U) == h
    with pytest.raises(TypeError):
        HNFResult(h.H, H=h.H)  # given twice, U missing
    with pytest.raises(TypeError):
        HNFResult(h.H, h.U, U=h.U)
    with pytest.raises(TypeError):
        SNFResult(D=h.H, V=h.U)


# Pinned: these are the texts the classes printed as frozen dataclasses.
REPRS = [
    (weyl("B", 2).hypersurfaces[0], "Hypersurface(chi=(1, 0), b=Fraction(0, 1))"),
    (find_dr_ordering(weyl("B", 2)),
     "DrReport(ordering=(0, 1, 2, 3), step_counts=(1, 1, 2), verdict=True)"),
    (M, "IntMatrix(rows=2, cols=2, entries=((1, 2), (3, 4)))"),
    (hnf(IntMatrix.from_rows([[2, 4]])),
     "HNFResult(H=IntMatrix(rows=1, cols=2, entries=((2, 4),)), "
     "U=IntMatrix(rows=1, cols=1, entries=((1,),)))"),
    (snf(IntMatrix.from_rows([[2]])),
     "SNFResult(D=IntMatrix(rows=1, cols=1, entries=((2,),)), "
     "U=IntMatrix(rows=1, cols=1, entries=((1,),)), "
     "V=IntMatrix(rows=1, cols=1, entries=((1,),)))"),
    (HALF, "ToricArrangement(dim=1, hypersurfaces=(Hypersurface(chi=(1,), b=Fraction(1, 2)),))"),
    (Polynomial((1, 2, 1)), "Polynomial(coefficients=(1, 2, 1))"),
    (build_poset(HALF).components[1],
     "Component(sat_basis=IntMatrix(rows=1, cols=1, entries=((1,),)), "
     "values=(Fraction(1, 2),), witness=(Fraction(1, 2),))"),
    (build_poset(HALF),
     "IntersectionPoset(dim=1, components=(Component(sat_basis=IntMatrix(rows=0, cols=1, "
     "entries=()), values=(), witness=(Fraction(0, 1),)), Component(sat_basis=IntMatrix("
     "rows=1, cols=1, entries=((1,),)), values=(Fraction(1, 2),), witness=(Fraction(1, 2),)"
     ")), covers=((1, 0),), mobius=(1, -1), unimodular=True)"),
    (CentralArrangement(2, IntMatrix.from_rows([[1, 0], [0, 1]])),
     "CentralArrangement(dim=2, normals=IntMatrix(rows=2, cols=2, entries=((1, 0), (0, 1))))"),
    (intersection_lattice(CentralArrangement(1, IntMatrix.from_rows([[1]]))),
     "SubspaceLattice(dim=1, elements=(IntMatrix(rows=0, cols=1, entries=()), IntMatrix("
     "rows=1, cols=1, entries=((1,),))), strict_below=frozenset({(0, 1)}), mobius=(1, -1))"),
    (generators(weyl("B", 2))[0], "FormGenerator(kind='coord', index=0, chi=None, b=None)"),
    (generators(weyl("B", 2))[2],
     "FormGenerator(kind='char', index=0, chi=(1, 0), b=Fraction(0, 1))"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v, _ in REPRS])
def test_repr_is_the_field_listing(value, text):
    assert repr(value) == text


def test_hash_is_that_of_the_field_tuple():
    # set and dict orders of these values stay what they were
    assert hash(M) == hash((2, 2, ((1, 2), (3, 4))))
    assert hash(Polynomial((1, 2))) == hash(((1, 2),))
    comp = build_poset(HALF).components[1]
    assert hash(comp) == hash((comp.sat_basis, comp.values))


def test_component_ignores_its_witness():
    comp = build_poset(parse("torus 2\nhyp 1 0 @ 0/1\n")).components[1]
    other = Component(comp.sat_basis, comp.values, (Fraction(0), Fraction(1, 3)))
    assert other.witness != comp.witness
    assert other == comp and hash(other) == hash(comp)
    assert Component(comp.sat_basis, (Fraction(1, 2),), comp.witness) != comp
    for twin in (pickle.loads(pickle.dumps(other)), copy.copy(other), copy.deepcopy(other)):
        assert twin.witness == (Fraction(0), Fraction(1, 3))


def test_constructors_keep_their_checks_and_normal_forms():
    with pytest.raises(ValueError, match="row count"):
        IntMatrix(2, 1, ((1,),))
    assert Hypersurface(chi=(-1, 2), b=Fraction(1, 3)).chi == (1, -2)
    assert Polynomial((1, 0, 0)).coefficients == (1,)
    assert ToricArrangement(1, [Hypersurface((1,), Fraction(0))]).hypersurfaces[0].b == 0
    assert FormGenerator("coord", 1) == FormGenerator(kind="coord", index=1, chi=None, b=None)
    with pytest.raises(ValueError, match="ambient dimension"):
        CentralArrangement(3, M)


def test_arrangement_takes_a_weak_reference():
    arr = weyl("B", 2)
    ref = weakref.ref(arr)
    assert ref() is arr
    del arr
    assert ref() is None


def test_relation_basis_is_mutable_and_pickles():
    basis = degree2_relations(parse("torus 1\nhyp 1 @ 0/1\n"), seed=0)
    twin = pickle.loads(pickle.dumps(basis))
    assert type(twin) is RelationBasis
    assert np.array_equal(twin.matrix, basis.matrix) and twin.samples == basis.samples
    assert twin.tol == basis.tol and twin.nullity == basis.nullity
    twin.samples = 7
    assert twin.samples == 7 and basis.samples != 7
