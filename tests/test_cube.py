"""Punctured-cube combinatorics and decomposition diagrams."""

import json
from itertools import combinations
from pathlib import Path

import pytest

from prism import (
    Circle,
    CubeDiagram,
    Diagonal,
    FiniteClass,
    FiniteGroup,
    Laxness,
    NotDispersible,
    O2,
    Projection,
    SO3,
    Torus,
    build_decomposition,
    classify_edge,
    component_decompositions,
    cube_to_dot,
    cube_to_json,
    cube_to_text,
    decomposition_of,
    factor_label,
    flagged_snapshot,
    isomax_dim,
    isomax_members,
    isomax_table,
    punctured_cube,
    recollement_schedule,
    thomason_heights,
)
from prism.cube import subset_name
from prism.errors import replace
from prism.oracles import check_isomax

GOLDEN = Path(__file__).parent / "golden"


def sym3():
    return FiniteGroup((
        FiniteClass("1", 6, "S3"),
        FiniteClass("C2", 1),
        FiniteClass("C3", 2, "C2"),
        FiniteClass("S3", 1),
    ))


# ---------------------------------------------------------------------------
# isomax


def test_isomax_examples():
    assert isomax_dim((2,), 2) == 2
    assert isomax_dim((0, 1, 2), 2) == 0
    assert isomax_dim((0, 2), 2) == 1
    for phi in ((), (3,)):  # empty, and outside [0,2]
        with pytest.raises(ValueError):
            isomax_dim(phi, 2)


def test_isomax_against_enumeration():
    assert check_isomax() > 0


def test_isomax_members_n2_table():
    assert isomax_members((0,), 2) == [(0,)]
    assert isomax_members((1,), 2) == [(1,), (0, 1)]
    assert isomax_members((2,), 2) == [(2,), (0, 2), (1, 2), (0, 1, 2)]
    assert isomax_members((0, 2), 2) == [(0, 2), (0, 1, 2)]


def test_isomax_table_golden():
    golden = (GOLDEN / "isomax2.txt").read_bytes()
    assert isomax_table(2).encode() == golden


# ---------------------------------------------------------------------------
# edges


def test_classify_edge_examples():
    assert classify_edge((0, 2), 1, 2) == Projection(1)
    assert classify_edge((0,), 1, 2) == Diagonal()
    assert classify_edge((0,), 2, 2) == Laxness(1)
    assert classify_edge((0,), 3, 3) == Laxness(2)
    with pytest.raises(ValueError):
        classify_edge((0, 1), 1, 2)


def test_edge_dimension_bookkeeping():
    for n in range(5):
        subsets = [
            phi for k in range(1, n + 2) for phi in combinations(range(n + 1), k)
        ]
        for phi in subsets:
            for j in range(n + 1):
                if j in phi:
                    continue
                target = tuple(sorted(phi + (j,)))
                delta = isomax_dim(target, n) - isomax_dim(phi, n)
                kind = classify_edge(phi, j, n)
                if isinstance(kind, Projection):
                    assert delta == -1
                elif isinstance(kind, Diagonal):
                    assert delta == 0
                else:
                    assert delta == kind.zeta and kind.zeta >= 1


# ---------------------------------------------------------------------------
# cube poset and schedules


def test_punctured_cube_counts():
    assert len(punctured_cube(0).points) == 1
    assert len(punctured_cube(1).points) == 3
    assert len(punctured_cube(2).points) == 7
    assert len(punctured_cube(3).points) == 15
    cube = punctured_cube(2)
    assert cube.le("0", "02") and not cube.le("02", "0")
    # a subset with an element past 9 is named with commas
    assert subset_name((0, 2)) == "02" and subset_name((0, 10)) == "0,10"
    with pytest.raises(ValueError):
        punctured_cube(-1)


def test_recollement_schedule():
    assert recollement_schedule(0) == []
    s1 = recollement_schedule(1)
    assert len(s1) == 1
    assert s1[0].stratum == 0 and s1[0].residual == (1,) and s1[0].label == "t_0"
    s2 = recollement_schedule(2)
    assert [s.label for s in s2] == ["Gamma_{P_1} . t_0", "t_1"]
    assert [s.residual for s in s2] == [(1, 2), (2,)]
    with pytest.raises(ValueError):
        recollement_schedule(-1)


# ---------------------------------------------------------------------------
# decompositions


def test_circle_is_three_node_cospan():
    d = build_decomposition(Circle(), 3)
    assert d.n == 1
    assert set(d.nodes) == {(0,), (1,), (0, 1)}
    assert d.edges[((0,), 1)] == Diagonal()
    assert d.edges[((1,), 0)] == Projection(0)
    labels0 = d.nodes[(0,)].factor_labels
    assert "... (family cyclic)" in labels0
    assert "C(1) ~ Lambda_I D(H^*(BSO(2)))" in labels0
    assert d.nodes[(1,)].factor_labels == ("G ~ D(Q)",)


def test_finite_group_single_node():
    d = build_decomposition(sym3(), 2)
    assert d.n == 0 and len(d.nodes) == 1 and not d.edges
    assert d.nodes[(0,)].factor_labels == (
        "1 ~ D(Q[S3])", "C2 ~ D(Q)", "C3 ~ D(Q[C2])", "S3 ~ D(Q)",
    )


def test_torus_seven_node_cube():
    d = build_decomposition(Torus(2), 2)
    assert d.n == 2 and len(d.nodes) == 7
    dims = {phi: node.cube_dim for phi, node in d.nodes.items()}
    assert dims == {
        (0,): 0, (1,): 1, (2,): 2, (0, 1): 0, (0, 2): 1, (1, 2): 1, (0, 1, 2): 0,
    }
    assert d.edges[((0,), 2)] == Laxness(1)
    assert d.nodes[(2,)].factor_labels == ("G ~ D(Q)",)


def test_node_count_invariant():
    for group, bound in [(Circle(), 2), (O2(), 2), (Torus(2), 2), (sym3(), 1)]:
        d = build_decomposition(group, bound)
        assert len(d.nodes) == 2 ** (d.n + 1) - 1
    d = build_decomposition(Circle(), 2)
    with pytest.raises(ValueError, match="node count"):
        CubeDiagram(2, d.nodes, d.edges)
    nodes = {**d.nodes, (1,): replace(d.nodes[(1,)], cube_dim=0)}
    with pytest.raises(ValueError, match="wrong cube dimension"):
        CubeDiagram(d.n, nodes, d.edges)


def test_factor_labels_partition_the_points():
    for group, bound in [(Circle(), 3), (O2(), 3), (SO3(), 3), (Torus(2), 2)]:
        space = flagged_snapshot(group, bound)
        d = build_decomposition(group, bound)
        per_stratum = {}
        for phi, node in d.nodes.items():
            per_stratum[node.stratum] = node.factor_labels
        total = [label for labels in per_stratum.values() for label in labels]
        assert len(total) == len(space.concrete) + len(space.families)
        heights = thomason_heights(space)
        # per-stratum: exactly the points at that height, once each, plus
        # one marker per family at that height (labels are name-prefixed,
        # hence pairwise distinct)
        for level, labels in per_stratum.items():
            expected = sorted(
                [factor_label(group, n) for n in space.concrete
                 if heights.heights[n] == level]
                + ["... (family %s)" % f.id for f in space.families
                   if heights.family_heights[f.id] == level]
            )
            assert sorted(labels) == expected


def test_component_decompositions_o2():
    comps = component_decompositions(O2(), 3)
    assert [label for label, _ in comps] == ["cyclic", "dihedral"]
    for _, diagram in comps:
        assert diagram.n == 1 and len(diagram.nodes) == 3
    cyclic = dict(comps)["cyclic"]
    assert cyclic.nodes[(1,)].factor_labels == ("SO2 ~ D(Q[C2])",)
    dihedral = dict(comps)["dihedral"]
    assert dihedral.nodes[(1,)].factor_labels == ("G ~ D(Q)",)


def test_component_decompositions_so3():
    comps = component_decompositions(SO3(), 3)
    assert len(comps) == 7
    assert sum(1 for _, d in comps if d.n == 0) == 5
    assert sum(1 for _, d in comps if d.n == 1) == 2


def test_not_dispersible():
    from prism import FlaggedPriestley, AccumulationFamily, decomposition_of
    from prism.dispersion import thomason_heights as th
    bad = FlaggedPriestley(
        frozenset({"inf"}), [],
        (AccumulationFamily(id="f", limit="inf", member_gt=frozenset({"inf"})),),
    )
    with pytest.raises(NotDispersible):
        decomposition_of(Circle(), bad, th(bad))


# ---------------------------------------------------------------------------
# exports


def test_json_export():
    d = build_decomposition(Circle(), 2)
    data = json.loads(cube_to_json(d))
    assert data["schema"] == "cube/v1" and data["n"] == 1
    assert len(data["nodes"]) == 3
    kinds = {(e["from"], e["j"]): e["kind"] for e in data["edges"]}
    assert kinds[("0", 1)] == "diagonal" and kinds[("1", 0)] == "projection"
    lax = [e for e in json.loads(cube_to_json(build_decomposition(Torus(2), 2)))["edges"]
           if e["kind"] == "laxness"]
    assert lax and all(e["zeta"] == 1 for e in lax)


def test_dot_export():
    dot = cube_to_dot(build_decomposition(Circle(), 2))
    assert dot.startswith("digraph")
    assert '"phi=0" -> "phi=01" [kind=diagonal];' in dot
    assert "shape=box" in dot


def test_exports_are_deterministic():
    a = cube_to_json(build_decomposition(Torus(2), 2))
    b = cube_to_json(build_decomposition(Torus(2), 2))
    assert a == b


@pytest.mark.parametrize("fmt", ["text", "dot", "json"])
def test_exports_golden(fmt):
    """The bytes of ``prism cube torus:2 --bound 2 --format <fmt>``: T^2 at
    bound 2 has projection, diagonal and laxness edges."""
    d = build_decomposition(Torus(2), 2)
    export = {"text": cube_to_text, "dot": cube_to_dot, "json": lambda d: cube_to_json(d) + "\n"}
    golden = (GOLDEN / ("cube_torus2_bound2.%s" % fmt)).read_bytes()
    assert export[fmt](d).encode() == golden
