"""Punctured-cube combinatorics for reassembling a space from its strata.

A height-n filtration turns into a diagram indexed by the nonempty
subsets of {0, ..., n}.  The node at a subset carries a functor category
whose shape is a cube of dimension

    l = max(subset) - |subset| + 1,

the number of free slots between the subset and its maximum (there are
exactly 2^l supersets with the same maximum).  Adding an element j to a
subset with maximum m is one of three moves:

* j < m      -- a projection, dropping one cube direction;
* j = m + 1  -- a diagonal, applying the next transition functor at
                every vertex;
* j > m + 1  -- a laxness edge of weight zeta = j - m - 1, recording the
                comparison data for the skipped compositions.

Laxness edges are labelled by the pair (max(subset), j); the literature
also uses a shifted second index for the same edge, so the label here is
fixed by this convention and documented rather than guessed.

Node factor labels name the local factor at each point of the stratum:

    <point> ~ D(Q)                      trivial Weyl group
    <point> ~ D(Q[<W>])                 finite Weyl group W
    <point> ~ Lambda_I D(H^*(B<We>))    connected Weyl group We
    <point> ~ Lambda_I D(H^*(B<We>)[<Wd>])  in general

and every accumulation family in a stratum contributes one marker label
"... (family <id>)" standing for its infinitely many members.
"""

from dataclasses import dataclass
from itertools import combinations
import json

from .errors import NotDispersible
from .priestley import FinitePriestley
from .dispersion import thomason_heights
from .liegroups import flagged_snapshot, parse_key, weyl_data


def subset_name(phi):
    if all(e <= 9 for e in phi):
        return "".join(str(e) for e in phi)
    return ",".join(str(e) for e in phi)


def _check_subset(phi, n):
    phi = tuple(sorted(set(phi)))
    if not phi:
        raise ValueError("subsets must be nonempty")
    if phi[0] < 0 or phi[-1] > n:
        raise ValueError("subset %r does not fit in [0,%d]" % (phi, n))
    return phi


# ---------------------------------------------------------------------------
# local combinatorics


def isomax_dim(phi, n):
    """Dimension of the cube of supersets sharing the maximum of phi."""
    phi = _check_subset(phi, n)
    return phi[-1] - len(phi) + 1


def isomax_members(phi, n):
    """The supersets of phi inside [0,n] with the same maximum."""
    phi = _check_subset(phi, n)
    free = [j for j in range(phi[-1]) if j not in phi]
    out = []
    for k in range(len(free) + 1):
        for extra in combinations(free, k):
            out.append(tuple(sorted(phi + extra)))
    return sorted(out, key=lambda m: (len(m), m))


@dataclass(frozen=True)
class Projection:
    j: int


@dataclass(frozen=True)
class Diagonal:
    pass


@dataclass(frozen=True)
class Laxness:
    zeta: int


def classify_edge(phi, j, n):
    """Kind of the edge from phi to phi + {j}."""
    phi = _check_subset(phi, n)
    if j in phi or j < 0 or j > n:
        raise ValueError("edge label %r is not a new element of [0,%d]" % (j, n))
    m = phi[-1]
    if j < m:
        return Projection(j)
    if j == m + 1:
        return Diagonal()
    return Laxness(j - m - 1)


def punctured_cube(n):
    """The poset of nonempty subsets of {0..n}, ordered by inclusion."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    elements = list(range(n + 1))
    subsets = []
    for k in range(1, n + 2):
        subsets.extend(combinations(elements, k))
    points = frozenset(subset_name(s) for s in subsets)
    order = frozenset(
        (subset_name(a), subset_name(b))
        for a in subsets
        for b in subsets
        if set(a) <= set(b)
    )
    return FinitePriestley(points, order)


# ---------------------------------------------------------------------------
# recollement schedules


@dataclass(frozen=True)
class SpliceStep:
    stratum: int
    residual: tuple
    label: str


def recollement_schedule(n):
    """The pasting order for reassembling a height-n space stratum by
    stratum: step k splices stratum k onto the residual {k+1..n}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    steps = []
    for k in range(n):
        if k == n - 1:
            label = "t_%d" % k
        else:
            label = "Gamma_{P_%d} . t_%d" % (k + 1, k)
        steps.append(SpliceStep(k, tuple(range(k + 1, n + 1)), label))
    return steps


# ---------------------------------------------------------------------------
# full decomposition diagrams


@dataclass(frozen=True)
class CubeNode:
    cube_dim: int
    stratum: int
    factor_labels: tuple


@dataclass(frozen=True)
class CubeDiagram:
    n: int
    nodes: dict
    edges: dict

    def __post_init__(self):
        if len(self.nodes) != 2 ** (self.n + 1) - 1:
            raise ValueError("node count must be 2^(n+1) - 1")
        for phi, node in self.nodes.items():
            if node.cube_dim != isomax_dim(phi, self.n):
                raise ValueError("node %r has wrong cube dimension" % (phi,))


def factor_label(group, point_name):
    w = weyl_data(group, parse_key(group, point_name))
    if w.identity_component == "1":
        model = "D(Q)" if w.component_order == 1 else "D(Q[%s])" % w.component_name
    else:
        base = "H^*(B%s)" % w.identity_component
        if w.component_order == 1:
            model = "Lambda_I D(%s)" % base
        else:
            model = "Lambda_I D(%s[%s])" % (base, w.component_name)
    return "%s ~ %s" % (point_name, model)


def build_decomposition(group, bound):
    """The punctured-cube diagram of a dispersible snapshot.

    Raises NotDispersible when the snapshot has infinite heights.  Node
    factor labels list the stratum of the node's maximum; every family in
    a stratum appears as a single marker label for its members.
    """
    snapshot = flagged_snapshot(group, bound)
    heights = thomason_heights(snapshot)
    if not heights.all_finite():
        raise NotDispersible("snapshot of %r has points of infinite height" % (group,))
    return decomposition_of(group, snapshot, heights)


def decomposition_of(group, snapshot, heights):
    """Cube diagram for an explicit snapshot with known finite heights."""
    if not heights.all_finite():
        raise NotDispersible("the space has points of infinite height")
    n = int(heights.max_height())
    strata_labels = {}
    for name in sorted(snapshot.concrete):
        strata_labels.setdefault(heights.heights[name], []).append(
            factor_label(group, name)
        )
    for f in snapshot.families:
        strata_labels.setdefault(heights.family_heights[f.id], []).append(
            "... (family %s)" % f.id
        )
    nodes = {}
    edges = {}
    elements = list(range(n + 1))
    subsets = []
    for k in range(1, n + 2):
        subsets.extend(combinations(elements, k))
    for phi in subsets:
        stratum = max(phi)
        nodes[phi] = CubeNode(
            cube_dim=isomax_dim(phi, n),
            stratum=stratum,
            factor_labels=tuple(sorted(strata_labels.get(stratum, []))),
        )
        for j in elements:
            if j not in phi:
                edges[(phi, j)] = classify_edge(phi, j, n)
    return CubeDiagram(n, nodes, edges)


def component_decompositions(group, bound):
    """One cube per catalog piece of the snapshot (e.g. the two cospans
    of the rank-one dihedral case)."""
    from .liegroups import snapshot_parts

    out = []
    for label, piece in snapshot_parts(group, bound):
        heights = thomason_heights(piece)
        if not heights.all_finite():
            raise NotDispersible("piece %r is not dispersible" % (label,))
        out.append((label, decomposition_of(group, piece, heights)))
    return out


# ---------------------------------------------------------------------------
# exports


def _edge_kind_fields(kind):
    if isinstance(kind, Projection):
        return "projection", kind.j, None
    if isinstance(kind, Diagonal):
        return "diagonal", None, None
    return "laxness", None, kind.zeta


def cube_to_json(diagram):
    """Schema cube/v1, mirroring the diagram fields."""
    nodes = []
    for phi in sorted(diagram.nodes):
        node = diagram.nodes[phi]
        nodes.append(
            {
                "subset": subset_name(phi),
                "dim": node.cube_dim,
                "stratum": node.stratum,
                "factors": list(node.factor_labels),
            }
        )
    edges = []
    for (phi, j) in sorted(diagram.edges):
        kind, proj, zeta = _edge_kind_fields(diagram.edges[(phi, j)])
        edges.append(
            {"from": subset_name(phi), "j": j, "kind": kind, "zeta": zeta}
        )
    return json.dumps(
        {"schema": "cube/v1", "n": diagram.n, "nodes": nodes, "edges": edges},
        indent=2,
        sort_keys=True,
    )


def cube_to_dot(diagram):
    lines = ["digraph cube {", "  node [shape=box];"]
    for phi in sorted(diagram.nodes):
        node = diagram.nodes[phi]
        label = "\\n".join(
            ["phi=%s" % subset_name(phi), "dim=%d" % node.cube_dim,
             "stratum=%d" % node.stratum]
            + list(node.factor_labels)
        )
        lines.append('  "phi=%s" [label="%s"];' % (subset_name(phi), label))
    for (phi, j) in sorted(diagram.edges):
        kind, _, zeta = _edge_kind_fields(diagram.edges[(phi, j)])
        target = tuple(sorted(phi + (j,)))
        attrs = 'kind=%s' % kind
        if zeta is not None:
            attrs += ", zeta=%d" % zeta
        lines.append(
            '  "phi=%s" -> "phi=%s" [%s];'
            % (subset_name(phi), subset_name(target), attrs)
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cube_to_text(diagram):
    lines = ["punctured cube of height %d (%d nodes)" % (diagram.n, len(diagram.nodes))]
    for phi in sorted(diagram.nodes):
        node = diagram.nodes[phi]
        lines.append(
            "phi=%s dim=%d stratum=%d" % (subset_name(phi), node.cube_dim, node.stratum)
        )
        for fl in node.factor_labels:
            lines.append("  %s" % fl)
    for (phi, j) in sorted(diagram.edges):
        kind, proj, zeta = _edge_kind_fields(diagram.edges[(phi, j)])
        extra = ""
        if kind == "projection":
            extra = " j=%d" % proj
        if zeta is not None:
            extra = " zeta=%d" % zeta
        lines.append(
            "edge phi=%s +%d: %s%s"
            % (subset_name(phi), j, kind, extra)
        )
    return "\n".join(lines) + "\n"


def isomax_table(n):
    """The isomax dimensions and member sets for every subset, as text."""
    if n < 0:
        raise ValueError("isomax needs n >= 0, got %d" % n)
    lines = []
    elements = list(range(n + 1))
    subsets = []
    for k in range(1, n + 2):
        subsets.extend(combinations(elements, k))
    for phi in sorted(subsets, key=lambda s: (len(s), s)):
        members = isomax_members(phi, n)
        lines.append(
            "%s l=%d members={%s}"
            % (subset_name(phi), isomax_dim(phi, n),
               ",".join(subset_name(m) for m in members))
        )
    return "\n".join(lines) + "\n"
