"""Catalog groups: keys, cotoral order, heights, Weyl data, snapshots."""

import json
import random
from math import inf

import pytest

from prism import (
    NSU3T,
    A4Key,
    A5Key,
    Circle,
    Cyc,
    Dih,
    DimTooLarge,
    DualLattice,
    FiniteClass,
    FiniteGroup,
    FiniteIdx,
    FullKey,
    IntegerAction,
    KeyMismatch,
    KleinKey,
    NotInvariant,
    O2,
    O2Key,
    S4Key,
    SO2Key,
    SO3,
    ToralSemidirect,
    Torus,
    UnsupportedGroup,
    WeylData,
    burnside_rank,
    cotoral_le,
    count_simple_summands,
    finite_group_from_json,
    finite_weyl_criterion,
    flagged_snapshot,
    group_from_spec,
    group_rank,
    has_finite_weyl,
    height_rep,
    is_noetherian,
    key_dimension,
    key_name,
    normalizer_directions,
    parse_key,
    phi_is_finite,
    snapshot_keys,
    snapshot_parts,
    spectrum_is_noetherian,
    thomason_heights,
    toral_semidirect_from_json,
    weyl_data,
)
from prism import intlinalg as la
from prism.oracles import CATALOG_SWEEP, check_cotoral_order, check_snf_torsion


def sym3():
    return FiniteGroup((
        FiniteClass("1", 6, "S3"),
        FiniteClass("C2", 1),
        FiniteClass("C3", 2, "C2"),
        FiniteClass("S3", 1),
    ))


# ---------------------------------------------------------------------------
# cotoral order


def test_cotoral_tables():
    assert cotoral_le(Circle(), Cyc(6), FullKey())
    assert cotoral_le(Circle(), Cyc(6), Cyc(6))
    assert not cotoral_le(Circle(), Cyc(2), Cyc(6))
    assert not cotoral_le(O2(), Dih(3), FullKey())
    assert cotoral_le(O2(), Cyc(5), SO2Key())
    assert not cotoral_le(O2(), Cyc(5), FullKey())
    assert cotoral_le(SO3(), Cyc(2), SO2Key())
    assert not cotoral_le(SO3(), KleinKey(), S4Key())
    g = sym3()
    assert cotoral_le(g, FiniteIdx(1), FiniteIdx(1))
    assert not cotoral_le(g, FiniteIdx(0), FiniteIdx(3))


def test_cotoral_lattices():
    t2 = Torus(2)
    line = DualLattice(2, ((1, 0),))
    doubled = DualLattice(2, ((2, 0),))
    assert not cotoral_le(t2, line, doubled)  # quotient has 2-torsion
    trivial = DualLattice(2, ((1, 0), (0, 1)))
    assert cotoral_le(t2, trivial, line)  # circle over the trivial group
    assert not cotoral_le(t2, trivial, doubled)  # disconnected target
    full = DualLattice(2, ())
    assert cotoral_le(t2, trivial, full)
    assert cotoral_le(t2, doubled, full)
    assert cotoral_le(t2, line, full)


def test_cotoral_is_partial_order_on_snapshots():
    for group, bound in [(O2(), 3), (SO3(), 3), (Torus(2), 2)]:
        keys = list(snapshot_keys(group, bound).values())
        for a in keys:
            assert cotoral_le(group, a, a)
            for b in keys:
                if cotoral_le(group, a, b) and cotoral_le(group, b, a):
                    assert a == b
                for c in keys:
                    if cotoral_le(group, a, b) and cotoral_le(group, b, c):
                        assert cotoral_le(group, a, c)


def test_proper_cotoral_increases_dimension():
    for group, bound in [(Circle(), 4), (O2(), 4), (SO3(), 4), (Torus(2), 2)]:
        keys = list(snapshot_keys(group, bound).values())
        for a in keys:
            for b in keys:
                if a != b and cotoral_le(group, a, b):
                    assert key_dimension(group, a) < key_dimension(group, b)


def test_snf_vs_coset_enumeration():
    assert check_snf_torsion(max_index=24) > 0


def test_torus_order_vs_all_pairs():
    assert check_cotoral_order() > 0


def test_key_mismatch():
    with pytest.raises(KeyMismatch):
        cotoral_le(Circle(), Dih(2), FullKey())
    with pytest.raises(KeyMismatch):
        cotoral_le(Torus(2), DualLattice(3, ((1, 0, 0),)), FullKey())
    with pytest.raises(KeyMismatch):
        weyl_data(NSU3T, Cyc(2))


# ---------------------------------------------------------------------------
# simple summand counting


def test_count_simple_summands_examples():
    assert count_simple_summands(IntegerAction(2, ())) == 2
    assert count_simple_summands(IntegerAction(1, (((-1,),),))) == 1
    assert count_simple_summands(IntegerAction(2, NSU3T.generators)) == 1


def test_count_simple_summands_more():
    swap = IntegerAction(2, (((0, 1), (1, 0)),))
    assert count_simple_summands(swap) == 2  # fixed line plus sign line
    rot4 = IntegerAction(2, (((0, -1), (1, 0)),))
    assert count_simple_summands(rot4) == 1  # simple two-dimensional piece
    with pytest.raises(DimTooLarge):
        count_simple_summands(IntegerAction(4, ()))


def test_count_invariant_under_conjugation():
    rng = random.Random(5)
    actions = [
        IntegerAction(2, (((0, 1), (1, 0)),)),
        IntegerAction(2, NSU3T.generators),
        IntegerAction(2, (((-1, 0), (0, 1)),)),
    ]
    unimodulars = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0))]
    for action in actions:
        base = count_simple_summands(action)
        for u in unimodulars:
            uinv = _inverse_unimodular(u)
            conj = tuple(
                la.mat_mul(la.mat_mul(u, g), uinv) for g in action.generators
            )
            assert count_simple_summands(IntegerAction(2, conj)) == base


def _inverse_unimodular(u):
    (a, b), (c, d) = u
    det = a * d - b * c
    assert det in (1, -1)
    return ((d * det, -b * det), (-c * det, a * det))


def test_count_additive_on_blocks():
    # diag(swap, -1) on Z^3: 2 + 1 summands
    g = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert count_simple_summands(IntegerAction(3, (g,))) == 3
    # diag(rotation of order 3, 1): simple 2d piece plus a fixed line
    r3 = ((0, -1, 0), (1, -1, 0), (0, 0, 1))
    assert count_simple_summands(IntegerAction(3, (r3,))) == 2
    # direct sums of one-generator actions: counts add across blocks
    blocks = {
        "id1": ((1,),), "neg": ((-1,),),
    }
    two_blocks = {
        "swap": ((0, 1), (1, 0)), "rot3": ((0, -1), (1, -1)), "id2": ((1, 0), (0, 1)),
    }
    for na, a in blocks.items():
        for nb, b in two_blocks.items():
            summed = (
                (a[0][0], 0, 0),
                (0,) + two_blocks[nb][0],
                (0,) + two_blocks[nb][1],
            )
            expected = count_simple_summands(IntegerAction(1, (a,))) + \
                count_simple_summands(IntegerAction(2, (b,)))
            assert count_simple_summands(IntegerAction(3, (summed,))) == expected, (na, nb)


# ---------------------------------------------------------------------------
# heights


def test_height_rep_examples():
    assert height_rep(SO3(), FullKey()) == 0
    assert height_rep(Torus(2), DualLattice(2, ())) == 2
    assert height_rep(O2(), SO2Key()) == 1
    assert height_rep(O2(), FullKey()) == 1
    assert height_rep(NSU3T, FullKey()) == 1
    assert group_rank(NSU3T) == 2


def test_height_rep_exceptional_and_finite():
    for key in (A4Key(), S4Key(), A5Key(), KleinKey(), Cyc(7), Dih(5)):
        assert height_rep(SO3(), key) == 0
    assert height_rep(sym3(), FiniteIdx(0)) == 0


def test_height_rep_matches_snapshot_heights():
    for group, bounds in CATALOG_SWEEP:
        for bound in bounds:
            space = flagged_snapshot(group, bound)
            heights = thomason_heights(space)
            for name, key in snapshot_keys(group, bound).items():
                assert heights.heights[name] == height_rep(group, key), (group, name)


# ---------------------------------------------------------------------------
# Weyl data


def test_weyl_data_examples():
    assert weyl_data(O2(), Cyc(5)) == WeylData("SO(2)", 2, "C2")
    assert weyl_data(SO3(), Cyc(1)) == WeylData("SO(3)", 1, "1")
    assert weyl_data(SO3(), KleinKey()) == WeylData("1", 6, "S3")
    assert weyl_data(SO3(), Dih(2)) == WeylData("1", 6, "S3")  # fused key
    assert weyl_data(Circle(), Cyc(3)) == WeylData("SO(2)", 1, "1")
    assert weyl_data(Torus(2), DualLattice(2, ((1, 0), (0, 1)))).identity_component == "T^2"
    assert weyl_data(Torus(2), DualLattice(2, ((2, 0),))).identity_component == "SO(2)"
    assert weyl_data(Torus(2), DualLattice(2, ())) == WeylData("1", 1, "1")
    assert weyl_data(sym3(), FiniteIdx(0)) == WeylData("1", 6, "S3")


def test_finite_weyl_iff_trivial_identity_component():
    for group, bounds in CATALOG_SWEEP:
        for name, key in snapshot_keys(group, max(bounds)).items():
            assert has_finite_weyl(group, key) == (
                weyl_data(group, key).identity_component == "1"
            )


def test_finite_weyl_criterion():
    swap = IntegerAction(2, (((0, 1), (1, 0)),))
    assert finite_weyl_criterion(swap, [(1, 1)])
    assert not finite_weyl_criterion(swap, [(1, -1)])
    assert finite_weyl_criterion(swap, [(1, 0), (0, 1)])  # full space
    with pytest.raises(NotInvariant):
        finite_weyl_criterion(swap, [(1, 0)])
    assert has_finite_weyl(O2(), Dih(4))
    assert not has_finite_weyl(O2(), Cyc(4))


def test_normalizer_directions():
    swap = IntegerAction(2, (((0, 1), (1, 0)),))
    assert len(normalizer_directions(swap, [(1, -1)])) == 2
    trivial = IntegerAction(2, ())
    assert len(normalizer_directions(trivial, [(1, 0)])) == 2  # fixed space is all
    fixed = normalizer_directions(swap, [(1, 1)])
    assert len(fixed) == 1  # idempotent on the fixed line


# ---------------------------------------------------------------------------
# finiteness predicates


def test_phi_burnside_noetherian():
    assert phi_is_finite(Circle()) and burnside_rank(Circle()) == 1
    assert spectrum_is_noetherian(Circle())
    assert not phi_is_finite(O2()) and burnside_rank(O2()) == inf
    assert not spectrum_is_noetherian(O2())
    assert not spectrum_is_noetherian(SO3())
    assert spectrum_is_noetherian(Torus(2)) and burnside_rank(Torus(2)) == 1
    assert burnside_rank(sym3()) == 4 and spectrum_is_noetherian(sym3())
    assert not phi_is_finite(NSU3T) and burnside_rank(NSU3T) == inf
    trivial_group = FiniteGroup((FiniteClass("1", 1),))
    assert burnside_rank(trivial_group) == 1 and spectrum_is_noetherian(trivial_group)


def test_burnside_rank_finite_iff_noetherian():
    groups = [Circle(), O2(), SO3(), Torus(1), Torus(2), Torus(3), sym3(), NSU3T]
    for g in groups:
        assert (burnside_rank(g) != inf) == spectrum_is_noetherian(g) == phi_is_finite(g)


def test_group_level_matches_snapshot_noetherian():
    for group, bounds in CATALOG_SWEEP:
        for bound in bounds:
            assert is_noetherian(flagged_snapshot(group, bound)) == \
                spectrum_is_noetherian(group)


# ---------------------------------------------------------------------------
# snapshots


def test_circle_snapshot():
    space = flagged_snapshot(Circle(), 3)
    assert space.concrete == {"C(1)", "C(2)", "C(3)", "G"}
    assert len(space.families) == 1
    assert space.families[0].samples == ("C(4)", "C(5)", "C(6)")


def test_so3_snapshot_exceptional_points():
    space = flagged_snapshot(SO3(), 4)
    for name in ("G", "A4", "S4", "A5", "V4"):
        assert name in space.concrete
        assert not any(space.le(q, name) for q in space.concrete if q != name)
        assert not any(space.le(name, q) for q in space.concrete if q != name)
    assert "D(6)" in space.concrete and "D(8)" in space.concrete
    assert "D(2)" not in space.concrete and "D(4)" not in space.concrete


def test_finite_snapshot_is_antichain():
    space = flagged_snapshot(sym3(), 5)
    assert space.concrete == {"1", "C2", "C3", "S3"}
    assert not space.families
    assert all(a == b for (a, b) in space.order)


def test_torus_snapshot_lattices_are_canonical():
    for name, key in snapshot_keys(Torus(2), 3).items():
        assert la.hermite_normal_form(key.rows) == key.rows
        assert key_name(Torus(2), key) == name
        assert parse_key(Torus(2), name) == key


def test_semidirect_snapshot_unsupported():
    with pytest.raises(UnsupportedGroup):
        flagged_snapshot(NSU3T, 3)


def test_snapshot_parts():
    parts = snapshot_parts(O2(), 3)
    assert [label for label, _ in parts] == ["cyclic", "dihedral"]
    cyc = dict(parts)["cyclic"]
    assert cyc.concrete == {"C(1)", "C(2)", "C(3)", "SO2"}
    parts3 = snapshot_parts(SO3(), 3)
    assert len(parts3) == 7
    # the pieces partition the snapshot
    whole = flagged_snapshot(SO3(), 3)
    union = set()
    for _, piece in parts3:
        assert not (union & piece.concrete)
        union |= piece.concrete
    assert union == whole.concrete


# ---------------------------------------------------------------------------
# names, parsing, loaders


def test_key_names():
    assert key_name(Circle(), Cyc(6)) == "C(6)"
    assert key_name(O2(), Dih(3)) == "D(6)"
    assert key_name(SO3(), KleinKey()) == "V4"
    assert key_name(Torus(2), DualLattice(2, ((2, 1), (0, 3)))) == "L[2 1; 0 3]"
    assert key_name(Torus(2), DualLattice(2, ())) == "G"
    assert key_name(sym3(), FiniteIdx(2)) == "C3"


def test_so3_fusion():
    assert parse_key(SO3(), "D(2)") == Cyc(2)
    assert parse_key(SO3(), "D(4)") == KleinKey()
    assert parse_key(SO3(), "D(6)") == Dih(3)
    assert key_name(SO3(), Dih(1)) == "C(2)"


def test_loaders():
    g = finite_group_from_json(json.dumps(
        {"classes": [{"id": "1", "weylOrder": 6, "weylName": "S3"},
                     {"id": "S3", "weylOrder": 1}]}
    ))
    assert len(g.classes) == 2
    sd = toral_semidirect_from_json(json.dumps(
        {"rank": 2,
         "generators": [[[-1, 1], [0, 1]], [[1, 0], [1, -1]]],
         "relations": [[0, 0], [1, 1], [0, 1, 0, 1, 0, 1]]}
    ))
    assert height_rep(sd, FullKey()) == 1
    with pytest.raises(ValueError):
        toral_semidirect_from_json(json.dumps(
            {"rank": 1, "generators": [[[2]]], "relations": []}
        ))
    with pytest.raises(ValueError):
        finite_group_from_json(json.dumps({"classes": [], "extra": 1}))


def test_group_from_spec():
    assert group_from_spec("circle") == Circle()
    assert group_from_spec("torus:3") == Torus(3)
    assert group_from_spec("nsu3t") == NSU3T
    with pytest.raises(KeyMismatch):
        group_from_spec("su2")
