"""Acceptance suite: one test per criterion, each printing a verdict line.

All checks are exact (integer/combinatorial); there are no tolerances.
The catalog sweep runs the circle, O(2), SO(3), and tori of rank one and
two at bounds 2-4; the rank-three torus is swept at bound 2.  Bound 3
adds no new behaviour and takes about two seconds to build (1450 keys,
about 0.48 M lattice tests), and three for the full cube pipeline, so it
belongs to the benchmark ladder rather than this suite.
"""

from math import inf

from prism import (
    Circle,
    Cyc,
    DispersionCandidate,
    FiniteClass,
    FiniteGroup,
    FullKey,
    KleinKey,
    NSU3T,
    O2,
    SO3,
    Torus,
    build_decomposition,
    burnside_rank,
    cb_heights,
    component_decompositions,
    dimension_candidate,
    flagged_snapshot,
    group_rank,
    guiding_examples,
    height_of_space,
    height_rep,
    is_dispersible,
    is_dispersion,
    is_generically_noetherian,
    is_noetherian,
    isomax_dim,
    isomax_table,
    rank_candidate,
    snapshot_keys,
    spectrum_is_noetherian,
    thomason_heights,
    weakly_visible,
    weyl_data,
)
from prism.oracles import (
    CATALOG_SWEEP,
    check_derivative_vs_heights,
    check_down_sets,
    check_isomax,
    check_snf_torsion,
    snapshot_spaces,
)

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def sym3():
    return FiniteGroup((
        FiniteClass("1", 6, "S3"),
        FiniteClass("C2", 1),
        FiniteClass("C3", 2, "C2"),
        FiniteClass("S3", 1),
    ))


def passline(n, message):
    print("PASS criterion %d: %s" % (n, message))


def test_criterion_01_guiding_examples():
    verdicts = [
        (is_dispersible(s), height_of_space(s)) for s in guiding_examples()
    ]
    assert verdicts == [(True, 1), (True, 1), (False, inf), (False, inf)]
    passline(1, "four guiding sequence models report (T,1),(T,1),(F,-),(F,-)")


def test_criterion_02_circle():
    for bound in (2, 3, 4):
        space = flagged_snapshot(Circle(), bound)
        h = thomason_heights(space)
        for name in space.concrete:
            assert h.heights[name] == (1 if name == "G" else 0)
        assert h.family_heights == {"cyclic": 0}
    diagram = build_decomposition(Circle(), 3)
    assert diagram.n == 1 and set(diagram.nodes) == {(0,), (1,), (0, 1)}
    passline(2, "circle heights C(n)->0, G->1; decomposition is a 3-node cospan")


def test_criterion_03_o2():
    for bound in (2, 3, 4):
        space = flagged_snapshot(O2(), bound)
        h = thomason_heights(space)
        for name in space.concrete:
            expected = 1 if name in ("SO2", "G") else 0
            assert h.heights[name] == expected, name
    comps = component_decompositions(O2(), 3)
    assert [label for label, _ in comps] == ["cyclic", "dihedral"]
    cyclic, dihedral = dict(comps)["cyclic"], dict(comps)["dihedral"]
    assert cyclic.n == 1 and dihedral.n == 1
    assert cyclic.nodes[(1,)].factor_labels == ("SO2 ~ D(Q[C2])",)
    stratum0 = cyclic.nodes[(0,)].factor_labels
    assert "... (family cyclic)" in stratum0
    assert {l.split(" ~ ")[0] for l in stratum0 if "~" in l} == {"C(1)", "C(2)", "C(3)"}
    assert dihedral.nodes[(1,)].factor_labels == ("G ~ D(Q)",)
    assert "... (family dihedral)" in dihedral.nodes[(0,)].factor_labels
    passline(3, "O(2) heights split 0/1 as stated; two disjoint cospans")


def test_criterion_04_so3():
    space = flagged_snapshot(SO3(), 4)
    h = thomason_heights(space)
    for name in ("G", "A5", "S4", "A4", "V4"):
        assert h.heights[name] == 0, name
    assert h.heights["SO2"] == 1 and h.heights["O2"] == 1
    assert weyl_data(SO3(), KleinKey()).component_order == 6
    passline(4, "SO(3) exceptional set at height 0, SO2/O2 at height 1, "
                "Klein Weyl component of order 6")


def test_criterion_05_torus2():
    for bound in (2, 3):
        space = flagged_snapshot(Torus(2), bound)
        h = thomason_heights(space)
        for name, key in snapshot_keys(Torus(2), bound).items():
            assert h.heights[name] == key.corank(), name
    diagram = build_decomposition(Torus(2), 2)
    assert diagram.n == 2 and len(diagram.nodes) == 7
    for phi, node in diagram.nodes.items():
        assert node.cube_dim == isomax_dim(phi, 2)
    passline(5, "T^2 heights equal dimension; 7-node punctured cube with "
                "isomax dimensions")


def test_criterion_06_nsu3t():
    assert height_rep(NSU3T, FullKey()) == 1
    assert group_rank(NSU3T) == 2
    passline(6, "normalizer of the maximal torus in SU(3): height 1 at rank 2")


def test_criterion_07_noetherian_classification():
    expected = [
        (Circle(), True), (sym3(), True), (Torus(2), True),
        (O2(), False), (SO3(), False),
    ]
    for group, verdict in expected:
        assert spectrum_is_noetherian(group) == verdict, group
    for group in [g for g, _ in expected] + [Torus(1), Torus(3), NSU3T]:
        assert (burnside_rank(group) != inf) == spectrum_is_noetherian(group)
    for group, bounds in CATALOG_SWEEP:
        for bound in bounds:
            assert is_noetherian(flagged_snapshot(group, bound)) == \
                spectrum_is_noetherian(group)
    passline(7, "Noetherian classification and Burnside-rank equivalence")


def test_criterion_08_generically_noetherian_and_visibility():
    checked = 0
    for space in snapshot_spaces():
        assert is_generically_noetherian(space)
        if is_dispersible(space):
            for p in sorted(space.concrete):
                assert weakly_visible(space, p) is not None, p
                checked += 1
    passline(8, "all snapshots generically Noetherian; %d points weakly "
                "visible" % checked)


def test_criterion_09_amenability():
    for space in snapshot_spaces():
        th = thomason_heights(space)
        cb = cb_heights(space)
        assert cb.heights == th.heights
        assert cb.family_heights == th.family_heights
    passline(9, "Cantor-Bendixson equals Thomason heights on the catalog sweep")


def test_criterion_10_oracles():
    a = check_isomax(max_n=6)
    b = check_snf_torsion(max_index=24)
    c = check_derivative_vs_heights(kmax=3)
    d = check_down_sets()
    passline(10, "oracle equivalences: isomax %d, lattice pairs %d, "
                 "derivative steps %d, down-set lattices %d; zero mismatches"
             % (a, b, c, d))


def test_criterion_11_dispersion_universality():
    for group, bounds in CATALOG_SWEEP:
        for bound in bounds:
            space = flagged_snapshot(group, bound)
            heights = thomason_heights(space)
            for cand in (dimension_candidate(group, space),
                         rank_candidate(group, space)):
                ok, witness = is_dispersion(space, cand)
                assert ok, (group, bound, witness)
                for name in space.concrete:
                    assert cand[name] >= heights.heights[name]
                for f in space.families:
                    assert cand[f.id] >= heights.family_heights[f.id]
    passline(11, "dimension and rank are dispersions dominating the Thomason "
                 "height on every snapshot")


def test_criterion_12_isomax_golden():
    golden = (GOLDEN / "isomax2.txt").read_bytes()
    assert isomax_table(2).encode() == golden
    rows = golden.decode().splitlines()
    assert rows == [
        "0 l=0 members={0}",
        "1 l=1 members={1,01}",
        "2 l=2 members={2,02,12,012}",
        "01 l=0 members={01}",
        "02 l=1 members={02,012}",
        "12 l=1 members={12,012}",
        "012 l=0 members={012}",
    ]
    passline(12, "n=2 isomax table is byte-exact against the golden file")
