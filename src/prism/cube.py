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

from itertools import combinations
import json

from .errors import NotDispersible, Value

# priestley, dispersion and liegroups are imported inside the functions that
# use them, so the cube combinatorics (isomax) load none of them; never inside
# a per-point loop, where each import statement costs a microsecond or two


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
    """The supersets of phi inside [0,n] with the same maximum, by size and
    then lexicographically, the order in which they are generated."""
    phi = _check_subset(phi, n)
    free = [j for j in range(phi[-1]) if j not in phi]
    out = []
    for k in range(len(free) + 1):
        for extra in combinations(free, k):
            out.append(tuple(sorted(phi + extra)))
    return out


class Projection(Value):
    j: int


class Diagonal(Value):
    pass


class Laxness(Value):
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


def _nonempty_subsets(n):
    """The nonempty subsets of {0..n} as sorted tuples, by size and then
    lexicographically."""
    return [s for k in range(1, n + 2) for s in combinations(range(n + 1), k)]


def punctured_cube(n):
    """The poset of nonempty subsets of {0..n}, ordered by inclusion,
    given by its covers: each subset lies below its one-element
    extensions."""
    from .priestley import FinitePriestley

    if n < 0:
        raise ValueError("n must be nonnegative")
    subsets = _nonempty_subsets(n)
    covers = frozenset(
        (subset_name(a), subset_name(tuple(sorted(a + (j,)))))
        for a in subsets
        for j in range(n + 1)
        if j not in a
    )
    return FinitePriestley(frozenset(map(subset_name, subsets)), covers)


# ---------------------------------------------------------------------------
# recollement schedules


class SpliceStep(Value):
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


class CubeNode(Value):
    cube_dim: int
    stratum: int
    factor_labels: tuple


class CubeDiagram(Value):
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
    from .liegroups import parse_key

    return _label(point_name, group._weyl(parse_key(group, point_name)))


def _label(point_name, w):
    """The factor label of a point whose Weyl data is ``w``."""
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
    from .dispersion import thomason_heights
    from .liegroups import flagged_snapshot

    snapshot = flagged_snapshot(group, bound)
    return decomposition_of(group, snapshot, thomason_heights(snapshot))


def decomposition_of(group, snapshot, heights):
    """Cube diagram for an explicit snapshot with known finite heights."""
    from .liegroups import parse_key

    if not heights.all_finite():
        raise NotDispersible("the space has points of infinite height")
    n = int(heights.max_height())
    strata_labels = {}
    for name in snapshot.concrete:
        strata_labels.setdefault(heights.heights[name], []).append(
            _label(name, group._weyl(parse_key(group, name)))
        )
    for f in snapshot.families:
        strata_labels.setdefault(heights.family_heights[f.id], []).append(
            "... (family %s)" % f.id
        )
    strata_labels = {h: tuple(sorted(labels)) for h, labels in strata_labels.items()}
    nodes = {}
    edges = {}
    for phi in _nonempty_subsets(n):
        stratum = max(phi)
        nodes[phi] = CubeNode(
            cube_dim=isomax_dim(phi, n),
            stratum=stratum,
            factor_labels=strata_labels.get(stratum, ()),
        )
        for j in range(n + 1):
            if j not in phi:
                edges[(phi, j)] = classify_edge(phi, j, n)
    return CubeDiagram(n, nodes, edges)


def component_decompositions(group, bound):
    """One cube per catalog piece of the snapshot (e.g. the two cospans
    of the rank-one dihedral case)."""
    from .dispersion import thomason_heights
    from .liegroups import snapshot_parts

    return [
        (label, decomposition_of(group, piece, thomason_heights(piece)))
        for label, piece in snapshot_parts(group, bound)
    ]


# ---------------------------------------------------------------------------
# exports


def _walk(diagram):
    """Sorted nodes as (name, node), edges as (name, j, target name, kind,
    zeta) with kind the edge class's name lower-cased; each subset named once."""
    names = {phi: subset_name(phi) for phi in diagram.nodes}
    nodes = [(names[phi], diagram.nodes[phi]) for phi in sorted(names)]
    edges = [
        (names[phi], j, names[tuple(sorted(phi + (j,)))],
         type(edge).__name__.lower(), getattr(edge, "zeta", None))
        for (phi, j), edge in sorted(diagram.edges.items())
    ]
    return nodes, edges


def cube_to_json(diagram):
    """Schema cube/v1, mirroring the diagram fields."""
    nodes, edges = _walk(diagram)
    return json.dumps(
        {
            "schema": "cube/v1",
            "n": diagram.n,
            "nodes": [
                {"subset": name, "dim": node.cube_dim, "stratum": node.stratum,
                 "factors": list(node.factor_labels)}
                for name, node in nodes
            ],
            "edges": [
                {"from": name, "j": j, "kind": kind, "zeta": zeta}
                for name, j, _, kind, zeta in edges
            ],
        },
        indent=2,
        sort_keys=True,
    )


def cube_to_dot(diagram):
    nodes, edges = _walk(diagram)
    lines = ["digraph cube {", "  node [shape=box];"]
    for name, node in nodes:
        label = "\\n".join(
            ["phi=" + name, "dim=%d" % node.cube_dim, "stratum=%d" % node.stratum,
             *node.factor_labels]
        )
        lines.append('  "phi=%s" [label="%s"];' % (name, label))
    for name, _, target, kind, zeta in edges:
        attrs = "kind=" + kind if zeta is None else "kind=%s, zeta=%d" % (kind, zeta)
        lines.append('  "phi=%s" -> "phi=%s" [%s];' % (name, target, attrs))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cube_to_text(diagram):
    nodes, edges = _walk(diagram)
    lines = ["punctured cube of height %d (%d nodes)" % (diagram.n, len(nodes))]
    for name, node in nodes:
        lines.append("phi=%s dim=%d stratum=%d" % (name, node.cube_dim, node.stratum))
        lines.extend("  " + fl for fl in node.factor_labels)
    for name, j, _, kind, zeta in edges:
        extra = " j=%d" % j if kind == "projection" else "" if zeta is None else " zeta=%d" % zeta
        lines.append("edge phi=%s +%d: %s%s" % (name, j, kind, extra))
    return "\n".join(lines) + "\n"


# the table lists every subset of {0..n} with its members: n = 12 already
# takes seconds and tens of MB, and each +2 costs about twelve times more
ISOMAX_MAX_N = 12


def isomax_table(n):
    """The isomax dimensions and member sets for every subset, as text."""
    if not 0 <= n <= ISOMAX_MAX_N:
        raise ValueError("isomax needs 0 <= n <= %d, got %d" % (ISOMAX_MAX_N, n))
    lines = []
    for phi in _nonempty_subsets(n):
        members = isomax_members(phi, n)
        lines.append(
            "%s l=%d members={%s}"
            % (subset_name(phi), isomax_dim(phi, n),
               ",".join(subset_name(m) for m in members))
        )
    return "\n".join(lines) + "\n"
