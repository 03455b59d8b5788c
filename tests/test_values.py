"""Value semantics of the immutable classes: equality by class and
compared field, hashing, exact ``repr``, immutability and ``replace``."""

import pytest

from prism.cube import CubeDiagram, CubeNode, Diagonal, Laxness, Projection, SpliceStep
from prism.dispersion import DispersionCandidate, HeightAssignment, StrataReport, is_dispersion
from prism.errors import replace
from prism.liegroups import (
    O2,
    SO3,
    Circle,
    Cyc,
    Dih,
    DualLattice,
    FiniteClass,
    FiniteGroup,
    FiniteIdx,
    FullKey,
    IntegerAction,
    SO2Key,
    ToralSemidirect,
    Torus,
    WeylData,
)
from prism.priestley import (
    ANTICHAIN,
    AccumulationFamily,
    ClopenDownClass,
    FinitePriestley,
    FiniteTopSpace,
    FlaggedPriestley,
    SymbolicSet,
)

FAMILY_REPR = (
    "AccumulationFamily(id='f', limit='L', member_order='antichain', "
    "member_lt=frozenset({'L'}), member_gt=frozenset(), samples=('a',), "
    "member_height_hint=2)"
)


def family(**changes):
    fields = dict(id="f", limit="L", member_lt={"L"}, samples=["a"], member_height_hint=2)
    return AccumulationFamily(**{**fields, **changes})


def space():
    return FlaggedPriestley({"L"}, [], (family(),))


def cube_diagram(label):
    return CubeDiagram(0, {(0,): CubeNode(0, 0, (label,))}, {})


# per class: a value, an equal one built apart (positionally where the
# first is built by keyword, or the other way), one that differs in a field
# or in its class, the exact repr, and a field to assign
CASES = [
    (Cyc(3), Cyc(n=3), Cyc(4), "Cyc(n=3)", "n"),
    (Dih(2), Dih(n=2), Cyc(2), "Dih(n=2)", "n"),
    (SO2Key(), SO2Key(), FullKey(), "SO2Key()", None),
    (DualLattice(2, ((2, 0), (0, 1))), DualLattice(rank=2, rows=[[0, 1], [2, 0]]),
     DualLattice(2), "DualLattice(rank=2, rows=((2, 0), (0, 1)))", "rows"),
    (FiniteIdx(1), FiniteIdx(index=1), FiniteIdx(2), "FiniteIdx(index=1)", "index"),
    (IntegerAction(1, (((-1,),),)), IntegerAction(dim=1, generators=[[[-1]]]),
     IntegerAction(1), "IntegerAction(dim=1, generators=(((-1,),),))", "generators"),
    (WeylData("1", 2, "C2"), WeylData(identity_component="1", component_order=2,
                                      component_name="C2"),
     WeylData("1", 2, "S3"),
     "WeylData(identity_component='1', component_order=2, component_name='C2')",
     "component_order"),
    (FiniteClass("e", 1), FiniteClass(id="e", weyl_order=1, weyl_name=""),
     FiniteClass("e", 1, "1"), "FiniteClass(id='e', weyl_order=1, weyl_name='')", "id"),
    (FiniteGroup((FiniteClass("e", 2, "C2"),)), FiniteGroup(classes=[FiniteClass("e", 2, "C2")]),
     FiniteGroup((FiniteClass("e", 1),)),
     "FiniteGroup(classes=(FiniteClass(id='e', weyl_order=2, weyl_name='C2'),))",
     "classes"),
    (Circle(), Circle(), O2(), "Circle()", None),
    (SO3(), SO3(), O2(), "SO3()", None),
    (Torus(2), Torus(rank=2), Torus(3), "Torus(rank=2)", "rank"),
    (ToralSemidirect(1, (((-1,),),), ((0, 0),)),
     ToralSemidirect(rank=1, generators=[[[-1]]], relations=[[0, 0]]),
     ToralSemidirect(1, (((-1,),),)),
     "ToralSemidirect(rank=1, generators=(((-1,),),), relations=((0, 0),))", "relations"),
    (FiniteTopSpace({1}, [set(), {1}]), FiniteTopSpace(points=[1], opens=[{1}, ()]),
     FiniteTopSpace({2}, [set(), {2}]),
     "FiniteTopSpace(points=frozenset({1}), opens=frozenset({frozenset(), frozenset({1})}))",
     "opens"),
    (family(), AccumulationFamily("f", "L", ANTICHAIN, frozenset({"L"}), (), ("a",), 2),
     family(samples=()), FAMILY_REPR, "member_lt"),
    (space(), FlaggedPriestley(concrete=["L"], order={("L", "L")}, families=[family()]),
     FlaggedPriestley({"L"}, []),
     "FlaggedPriestley(concrete=frozenset({'L'}), order=frozenset({('L', 'L')}), "
     "families=(%s,))" % FAMILY_REPR, "covers"),
    (FinitePriestley({1, 2}, [(1, 2)]), FinitePriestley([2, 1], {(1, 2), (1, 1)}),
     FlaggedPriestley({1, 2}, [(1, 2)]),
     "FinitePriestley(concrete=frozenset({1, 2}), order=frozenset({(1, 1), (1, 2), (2, 2)}), "
     "families=())", "concrete"),
    (SymbolicSet({"a"}, {"g": "empty", "f": "all"}),
     SymbolicSet(concrete=["a"], portions=[("f", "all")]),
     SymbolicSet({"a"}), "SymbolicSet(concrete=frozenset({'a'}), portions=(('f', 'all'),))",
     "portions"),
    (ClopenDownClass((("f", "all"),), frozenset({"a"}), frozenset()),
     ClopenDownClass(family_tags=(("f", "all"),), required=frozenset({"a"}), optional=frozenset()),
     ClopenDownClass((), frozenset({"a"}), frozenset()),
     "ClopenDownClass(family_tags=(('f', 'all'),), required=frozenset({'a'}), "
     "optional=frozenset())",
     "required"),
    (DispersionCandidate({"a": 1}), DispersionCandidate(values={"a": 1}),
     DispersionCandidate({"a": 2}), "DispersionCandidate(values=mappingproxy({'a': 1}))", "values"),
    (StrataReport(SymbolicSet(()), SymbolicSet({"a"}), SymbolicSet(())),
     StrataReport(at_level=SymbolicSet(()), below=SymbolicSet({"a"}), at_or_above=SymbolicSet(())),
     StrataReport(SymbolicSet(()), SymbolicSet(()), SymbolicSet(())),
     "StrataReport(at_level=SymbolicSet(concrete=frozenset(), portions=()), "
     "below=SymbolicSet(concrete=frozenset({'a'}), portions=()), "
     "at_or_above=SymbolicSet(concrete=frozenset(), portions=()))", "below"),
    (Projection(1), Projection(j=1), Laxness(1), "Projection(j=1)", "j"),
    (Diagonal(), Diagonal(), Projection(0), "Diagonal()", "x"),
    (Laxness(0), Laxness(zeta=0), Laxness(1), "Laxness(zeta=0)", "zeta"),
    (SpliceStep(0, (1,), "t_0"), SpliceStep(stratum=0, residual=(1,), label="t_0"),
     SpliceStep(0, (1,), "t_1"), "SpliceStep(stratum=0, residual=(1,), label='t_0')", "label"),
    (CubeNode(0, 1, ("x",)), CubeNode(cube_dim=0, stratum=1, factor_labels=("x",)),
     CubeNode(0, 1, ()), "CubeNode(cube_dim=0, stratum=1, factor_labels=('x',))", "stratum"),
    (cube_diagram("x"), CubeDiagram(n=0, nodes={(0,): CubeNode(0, 0, ("x",))}, edges={}),
     cube_diagram("y"),
     "CubeDiagram(n=0, nodes={(0,): CubeNode(cube_dim=0, stratum=0, factor_labels=('x',))}, "
     "edges={})", "nodes"),
]


@pytest.mark.parametrize(
    "value, same, other, text, field", CASES, ids=[type(c[0]).__name__ for c in CASES]
)
def test_equality_hash_repr_and_immutability(value, same, other, text, field):
    assert value == same and not value != same and value is not same
    assert value != other and other != value and not value == other
    assert repr(value) == repr(same) == text
    if not isinstance(value, (DispersionCandidate, CubeDiagram)):  # dict fields
        assert hash(value) == hash(same)
    if field is not None:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field, None))
        if field in vars(value):
            with pytest.raises(AttributeError):
                delattr(value, field)
    assert value == same


def test_classes_never_compare_equal():
    assert Cyc(2) != Dih(2) and Circle() != O2() and SO2Key() != FullKey()
    assert Cyc(2).__eq__(Dih(2)) is NotImplemented and Circle().__eq__(O2()) is NotImplemented
    assert Projection(0) != Laxness(0) and Cyc(1) != 1
    # a finite poset and the flagged space of the same fields
    assert FinitePriestley({1}, []) != FlaggedPriestley({1}, [])


def test_hash_reads_the_compared_fields():
    assert hash(DualLattice(2, ((1, 0),))) == hash((2, ((1, 0),)))
    # order is left out of equality and hashing; the covers stand for it
    s = space()
    assert hash(s) == hash((s.concrete, s.families, s.covers))
    with pytest.raises(TypeError):
        hash(HeightAssignment({"a": 0}, {}))


def test_height_assignment_equality_and_repr():
    a = HeightAssignment({"a": 0}, {"f": 1})
    assert a == HeightAssignment(heights={"a": 0}, family_heights={"f": 1})
    assert a != HeightAssignment({"a": 0}, {"f": 2}) and a != DispersionCandidate({"a": 0})
    assert repr(a) == "HeightAssignment(heights={'a': 0}, family_heights={'f': 1})"
    with pytest.raises(AttributeError):
        a.heights = {}


def test_caches_stay_out_of_equality_hash_and_repr():
    fresh, used = space(), space()
    used.order, used.down_closure("L"), used._triggers, used._cover_index
    assert "_down_up" in vars(used) and "_down_up" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    s = SymbolicSet({"a"}, {"f": "all"})
    assert s._tags == {"f": "all"} and "_tags" not in repr(s)
    assert s == SymbolicSet({"a"}, (("f", "all"),))
    # a checked candidate keeps its verdict, and still equals an unchecked one
    checked, fresh = DispersionCandidate({"L": 3, "f": 2}), DispersionCandidate({"L": 3, "f": 2})
    assert is_dispersion(space(), checked) == (True, None) and "_verdict" in vars(checked)
    assert checked == fresh and repr(checked) == repr(fresh)


def test_constructor_signatures():
    assert DualLattice(2) == DualLattice(2, ())
    assert FiniteGroup([FiniteClass("e", 1)]) == FiniteGroup((FiniteClass("e", 1),))
    assert family(samples=()) == AccumulationFamily(
        id="f", limit="L", member_order=ANTICHAIN, member_lt={"L"}, member_gt=frozenset(),
        member_height_hint=2,
    )
    for build in (lambda: Cyc(), lambda: Cyc(1, 2), lambda: Cyc(m=1), lambda: Cyc(1, n=1),
                  lambda: Torus(), lambda: FiniteIdx(0, index=0), lambda: Diagonal(1),
                  lambda: FlaggedPriestley({1}), lambda: SymbolicSet()):
        with pytest.raises(TypeError):
            build()
    # the spaces use the base's constructor: its own error, naming the
    # fields, and no cached property taken for the default of ``order``
    for build in (lambda: FlaggedPriestley({1}), lambda: FinitePriestley({1}),
                  lambda: FlaggedPriestley(concrete={1}, families=())):
        with pytest.raises(TypeError, match=r"takes \('concrete', 'order', 'families'\)"):
            build()
    assert FlaggedPriestley(concrete={1}, order=[]).families == ()
    with pytest.raises(ValueError, match="cyclic order must be positive"):
        Cyc(0)
    with pytest.raises(ValueError, match="lattice row of wrong width"):
        DualLattice(2, ((1, 0, 0),))
    with pytest.raises(ValueError, match="node count"):
        CubeDiagram(1, {}, {})


def test_replace_rebuilds_through_the_constructor():
    f = family()
    g = replace(f, member_lt=["L"], samples=["b", "c"])
    assert g.member_lt == frozenset({"L"}) and g.samples == ("b", "c") and f.samples == ("a",)
    assert replace(f) == f and replace(f) is not f
    with pytest.raises(ValueError, match="unknown member order 'zigzag'"):
        replace(f, member_order="zigzag")
    with pytest.raises(ValueError, match="disjoint"):
        replace(f, member_gt={"L"})
    with pytest.raises(ValueError, match="cyclic order must be positive"):
        replace(Cyc(3), n=0)
    with pytest.raises(ValueError, match="torus rank"):
        replace(Torus(2), rank=4)
    with pytest.raises(TypeError):
        replace(Cyc(3), m=1)
    assert replace(DualLattice(2), rows=[[0, 2], [1, 1]]) == DualLattice(2, ((1, 1), (0, 2)))
    s = space()
    t = replace(s, families=())
    assert type(t) is FlaggedPriestley and t.families == () and t.concrete == s.concrete
    with pytest.raises(ValueError, match="unknown limit"):
        replace(s, concrete={"M"}, order=[])
    p = FinitePriestley({1, 2}, [(1, 2)])
    assert replace(p, order=[(2, 1)]) == FinitePriestley({1, 2}, [(2, 1)])
    with pytest.raises(ValueError, match="no accumulation families"):
        replace(p, families=(AccumulationFamily("f", 1),))
    n = CubeNode(0, 1, ("x",))
    assert replace(n, stratum=2) == CubeNode(0, 2, ("x",))
