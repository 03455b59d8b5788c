"""Punctured-cube combinatorics and decomposition diagrams."""

import json
import re
from itertools import combinations
from pathlib import Path

import pytest

from prism import (
    Circle,
    CubeDiagram,
    Diagonal,
    DispersionCandidate,
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
    strata,
    thomason_heights,
)
from prism.cube import _nonempty_subsets, subset_name
from prism.errors import replace
from prism.oracles import CATALOG_SWEEP, check_isomax

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
    # a subset with an element past 9 is named in braces
    assert subset_name((0, 2)) == "02" and subset_name((0, 10)) == "{0,10}"
    assert subset_name((1, 2)) == "12" and subset_name((12,)) == "{12}"
    with pytest.raises(ValueError):
        punctured_cube(-1)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_subset_names_past_nine_are_distinct(n):
    names = [subset_name(phi) for phi in _nonempty_subsets(n)]
    assert len(set(names)) == len(names) == 2 ** (n + 1) - 1
    assert len(punctured_cube(n).concrete) == 2 ** (n + 1) - 1


def test_isomax_members_read_back_past_nine():
    def read(name):
        return tuple(map(int, name[1:-1].split(","))) if name.startswith("{") else tuple(map(int, name))

    rows = isomax_table(10).splitlines()
    assert len(rows) == 2 ** 11 - 1
    for row, phi in zip(rows, _nonempty_subsets(10)):
        name, _, members = row.split(" ")
        assert read(name) == phi
        inner = members[len("members={"):-1]
        assert [read(m) for m in re.findall(r"\{[^}]*\}|[^,{}]+", inner)] == isomax_members(phi, 10)


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


def test_nodes_name_the_strata():
    """Each node at stratum k labels exactly the points of P_k, the slice
    ``strata`` gives for the heights, and marks exactly the families valued k."""
    for group, bounds in CATALOG_SWEEP:
        for bound in bounds:
            space = flagged_snapshot(group, bound)
            heights = thomason_heights(space)
            candidate = DispersionCandidate({**heights.heights, **heights.family_heights})
            d = decomposition_of(group, space, heights)
            for node in d.nodes.values():
                k = node.stratum
                marks = {label[len("... (family "):-1] for label in node.factor_labels
                         if label.startswith("... (family ")}
                points = {label.split(" ~ ")[0] for label in node.factor_labels
                          if not label.startswith("... (family ")}
                assert points == strata(space, candidate, k).at_level.concrete
                assert marks == {f.id for f in space.families if candidate.values[f.id] == k}
                assert len(points) + len(marks) == len(node.factor_labels)


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


def json_oracle(diagram):
    """cube/v1 through json.dumps, with the fields as the schema lists them."""
    names = {phi: subset_name(phi) for phi in diagram.nodes}
    return json.dumps(
        {
            "schema": "cube/v1",
            "n": diagram.n,
            "nodes": [
                {"subset": names[phi], "dim": diagram.nodes[phi].cube_dim,
                 "stratum": diagram.nodes[phi].stratum,
                 "factors": list(diagram.nodes[phi].factor_labels)}
                for phi in sorted(diagram.nodes)
            ],
            "edges": [
                {"from": names[phi], "j": j, "kind": type(edge).__name__.lower(),
                 "zeta": getattr(edge, "zeta", None)}
                for (phi, j), edge in sorted(diagram.edges.items())
            ],
        },
        indent=2,
        sort_keys=True,
    )


def test_json_export_against_json_dumps(tmp_path):
    diagrams = [build_decomposition(group, bound)
                for group, bounds in CATALOG_SWEEP for bound in bounds]
    # n = 0, and labels that need escaping: a quote, a backslash, a
    # non-ASCII letter and a tab
    odd = FiniteGroup((
        FiniteClass("1", 6, 'W"\\é'),
        FiniteClass('a"b', 1),
        FiniteClass("c\\d", 2),
        FiniteClass("été", 3, "é"),
        FiniteClass("tab\there", 1),
    ))
    diagrams.append(build_decomposition(odd, 1))
    assert diagrams[-1].n == 0
    # a stratum with no factors
    circle = build_decomposition(Circle(), 2)
    nodes = {phi: replace(node, factor_labels=()) if node.stratum == 1 else node
             for phi, node in circle.nodes.items()}
    diagrams.append(CubeDiagram(circle.n, nodes, circle.edges))
    for d in diagrams:
        assert cube_to_json(d) == json_oracle(d)
    assert '"factors": []' in cube_to_json(diagrams[-1])
    assert "\\u00e9t\\u00e9" in cube_to_json(diagrams[-2])


def test_each_subset_is_named_once_per_diagram(monkeypatch):
    """A diagram and its three exports name each of its subsets once."""
    import prism.cube as cube

    space = flagged_snapshot(Torus(3), 2)
    heights = thomason_heights(space)
    names = []
    monkeypatch.setattr(cube, "subset_name", lambda phi: names.append(phi) or subset_name(phi))
    d = decomposition_of(Torus(3), space, heights)
    for export in (cube_to_json, cube_to_dot, cube_to_text):
        export(d)
    assert len(d.nodes) == 15 and sorted(names) == sorted(d.nodes)


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
