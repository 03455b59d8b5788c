"""Correctness checks the benchmark runs outside its timed section.

The reference computations here are the benchmark's own: a longest-path
height over points and families, a reachability check for infinite
heights, a corank read off torus key names, and the isomax table from its
formula.  Each check returns a list of failure messages; an empty list means
the operation's answer is right.
"""

from collections import deque
from itertools import combinations
from math import inf

import prism
import prism.oracles


# ---------------------------------------------------------------------------
# reference heights


def _graph(points, strict_pairs, families):
    """Nodes are points and family ids; an edge u -> v says v sits above u.

    ``families`` holds ``(id, limit, descending, lower, upper, hint)``.
    """
    succ = {p: [] for p in points}
    base = {p: 0 for p in points}
    for fid, limit, descending, lower, upper, hint in families:
        succ[fid] = [limit, *upper]
        base[fid] = inf if descending else (hint or 0)
        for g in lower:
            succ[g].append(fid)
    for a, b in strict_pairs:
        succ[a].append(b)
    return succ, base


def longest_path(succ, base):
    """Least h with h(v) >= base(v) and h(v) >= h(u) + 1 on every edge."""
    indeg = {v: 0 for v in succ}
    for v in succ:
        for w in succ[v]:
            indeg[w] += 1
    h = dict(base)
    queue = deque(v for v in succ if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in succ[v]:
            h[w] = max(h[w], h[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != len(succ):
        raise ValueError("generated presentation has a cycle")
    return h


def _families_of(space):
    return [
        (f.id, f.limit, f.member_order == prism.DESCENDING, f.member_gt, f.member_lt,
         f.member_height_hint)
        for f in space.families
    ]


def _presentation(space):
    strict = [(a, b) for a, b in space.order if a != b]
    return _graph(space.concrete, strict, _families_of(space))


def reference_heights(space):
    """Heights of points and families as longest chains in the presentation."""
    return longest_path(*_presentation(space))


def _reach(succ, starts):
    """Everything reachable from ``starts`` in the presentation graph."""
    reached = set()
    stack = list(starts)
    while stack:
        v = stack.pop()
        if v not in reached:
            reached.add(v)
            stack.extend(succ[v])
    return reached


def descending_reach(space):
    """Everything a descending-chain family lies below: the points and
    families that must have infinite height."""
    return _reach(_presentation(space)[0],
                  [f.id for f in space.families if f.member_order == prism.DESCENDING])


def points_above(space):
    """For each point, the points above it: reachable through the order, the
    families it is a lower bound of, and their limits and upper bounds."""
    succ = _presentation(space)[0]
    return {p: frozenset(_reach(succ, [p]) & space.concrete) for p in space.concrete}


def consistent_hints(poset, fams, rng):
    """Turn the generator's hint placeholders into hints no lower than the
    structural floor, so no height computation rejects them as
    inconsistent.  A family whose floor is infinite loses its hint."""
    def floors():
        tuples = [(f["id"], f["limit"], f["member_order"] == prism.DESCENDING,
                   f["member_gt"], f["member_lt"], f["hint"]) for f in fams]
        h = longest_path(*_graph(poset.names, poset.covers, tuples))
        return {f["id"]: max([h[g] + 1 for g in f["member_gt"]], default=0) for f in fams}

    floor = floors()
    for f in fams:
        if f["hint"] is not None and floor[f["id"]] != inf:
            f["hint"] = floor[f["id"]] + rng.randint(0, 2)
    while True:
        floor = floors()
        bad = [f for f in fams if f["hint"] is not None and f["hint"] < floor[f["id"]]]
        if not bad:
            return
        for f in bad:
            f["hint"] = None if floor[f["id"]] == inf else floor[f["id"]] + rng.randint(0, 2)


def flat_heights(assignment):
    out = dict(assignment.heights)
    out.update(assignment.family_heights)
    return out


# ---------------------------------------------------------------------------
# catalog-cold


def torus_corank(rank, name):
    """Corank of a torus key read from its name: G has no annihilator rows,
    ``L[r1; r2]`` lists them."""
    if name == "G":
        return rank
    body = name[2:-1].strip()
    return rank - (len(body.split(";")) if body else 0)


_ONE = {"circle": {"G"}, "o2": {"SO2", "G"}, "so3": {"SO2", "O2"}}


def expected_catalog_heights(spec, space):
    """The height tables of the acceptance criteria; tori get their corank."""
    if spec.startswith("torus:"):
        rank = int(spec.split(":")[1])
        out = {p: torus_corank(rank, p) for p in space.concrete}
        for f in space.families:
            out[f.id] = torus_corank(rank, f.id[len("conv:"):]) - 1
        return out
    out = {p: (1 if p in _ONE[spec] else 0) for p in space.concrete}
    out.update({f.id: 0 for f in space.families})
    return out


def check_catalog(spec, bound, record):
    space, heights, cb, disp, nodes, json_n = record
    errors = []
    flat = flat_heights(heights)
    if flat != expected_catalog_heights(spec, space):
        errors.append("height table differs from the catalog's")
    if flat_heights(cb) != flat:
        errors.append("CB heights differ from Thomason heights")
    g = prism.group_from_spec(spec)
    cand = prism.dimension_candidate(g, space).values
    if disp != (True, None):
        errors.append("dimension is not a dispersion: %r" % (disp,))
    if any(cand[k] < v for k, v in flat.items()):
        errors.append("dimension does not dominate the heights")
    n = int(heights.max_height())
    if nodes != 2 ** (n + 1) - 1 or json_n != n:
        errors.append("cube has %d nodes at height %d" % (nodes, n))
    try:
        prism.oracles.check_derivative_vs_heights([space], kmax=3)
    except prism.oracles.OracleMismatch as err:
        errors.append("derivative oracle: %s" % err)
    return errors


# ---------------------------------------------------------------------------
# synthetic-heights


def check_synthetic(space, kind, step, record, reference, heights):
    """``reference`` holds the space's reference heights and the set the
    descending families reach; ``heights`` is the space's heights answer,
    which the later operations on the space are checked against."""
    expected, infinite = reference
    if kind == "heights":
        errors = []
        if record != expected:
            errors.append("heights differ from the longest-chain reference")
        if {k for k, v in record.items() if v == inf} != infinite:
            errors.append("infinite heights differ from descending-family reach")
        return errors
    if kind == "cb":
        return [] if record == reference_heights(prism.trivialize(space)) else [
            "CB heights differ from the reference on the trivialized space"]
    if kind == "derivative":
        # k derivative steps keep exactly the material of height >= k
        keep = {k for k, v in heights.items() if v >= step}
        return [] if record == keep else ["derivative step %d keeps the wrong set" % step]
    if kind == "dispersion":
        return [] if record == (True, None) else ["heights are not a dispersion: %r" % (record,)]
    if kind == "strata":
        level, at = record
        want = {p for p in space.concrete if heights[p] == level}
        return [] if at == want else ["strata at level %d has the wrong slice" % level]
    return ["unknown operation kind %r" % kind]


# ---------------------------------------------------------------------------
# point-queries


def _symbolic_key(sym):
    return (sym.concrete, sym.portions)


def check_point(space, kind, point, record, inverse, catalog, above):
    """``above`` maps each point of the space to the points above it, as
    ``points_above`` computes them."""
    if kind == "weakly_visible":
        if catalog and record is None:
            return ["%s is not weakly visible in a dispersible snapshot" % point]
        return []
    if kind == "up_closure":
        down = prism.down_closure_symbolic(inverse, point)
        return [] if record == _symbolic_key(down) else [
            "up-closure of %s differs from the down-closure in the inverse" % point]
    if kind == "gen_closure":
        return [] if record == above[point] else [
            "generalization closure of %s does not hold exactly the points above it" % point]
    if kind == "gen_noetherian":
        # Every flagged snapshot of a spectrum is generically Noetherian
        # (criterion 8 of tests/test_acceptance.py).  The synthetic spaces
        # are Noetherian by construction: each family's limit lies above its
        # members, and so is every subspace.
        return [] if record is True else ["space is not generically Noetherian"]
    if kind == "clopen":
        errors = []
        for cls in record:
            try:
                cls.realize(space)
            except ValueError:
                errors.append("clopen class %s does not realize" % cls.describe())
        if len(record) > 1 << len(space.families):
            errors.append("more clopen classes than member profiles")
        return errors
    return []


def summarize_point(kind, result):
    """The part of a point-queries answer the checks read; a generalization
    closure keeps only its points."""
    if kind in ("up_closure", "down_closure"):
        return _symbolic_key(result)
    if kind == "weakly_visible":
        return None if result is None else _symbolic_key(result)
    if kind == "gen_closure":
        return result.concrete
    return result


# ---------------------------------------------------------------------------
# cli-cold


README_CIRCLE = b"C(1) 0\nC(2) 0\nC(3) 0\nG 1\ncyclic 0\n"


def isomax_table(n):
    """The isomax rows from the formula l = max(phi) - |phi| + 1."""
    def name(s):
        return "".join(map(str, s)) if max(s) <= 9 else ",".join(map(str, s))

    subsets = [s for k in range(1, n + 2) for s in combinations(range(n + 1), k)]
    rows = []
    for phi in sorted(subsets, key=lambda s: (len(s), s)):
        free = [j for j in range(phi[-1]) if j not in phi]
        members = sorted((tuple(sorted(phi + extra)) for k in range(len(free) + 1)
                          for extra in combinations(free, k)), key=lambda m: (len(m), m))
        rows.append("%s l=%d members={%s}" % (name(phi), phi[-1] - len(phi) + 1,
                                              ",".join(name(m) for m in members)))
    return ("\n".join(rows) + "\n").encode()


def check_cli(argv, stdout, file_heights):
    cmd = argv[0]
    if argv == ["heights", "circle", "--bound", "3"]:
        return [] if stdout == README_CIRCLE else ["heights circle differs from the README"]
    if argv[:2] == ["heights", "circle"]:
        want = {"C(1)": 0, "C(2)": 0, "C(3)": 0, "G": 1, "cyclic": 0}
        return [] if _json(stdout) == want else ["heights circle JSON is wrong"]
    if cmd == "noetherian":
        return [] if stdout == b"false\n" else ["noetherian so3 is not false"]
    if cmd == "isomax":
        return [] if stdout == isomax_table(int(argv[1])) else ["isomax rows are wrong"]
    if cmd == "check-dispersion":
        return [] if stdout == b"true\n" else ["reference heights rejected as a dispersion"]
    if cmd == "heights":
        if argv[1].endswith(".json"):
            return [] if _json(stdout) == file_heights else ["heights of the space file are wrong"]
        return [] if stdout.endswith(b"\n") and b" " in stdout else ["heights output is empty"]
    if cmd == "cube":
        nodes = stdout.count(b"[label=")
        return [] if stdout.startswith(b"digraph cube {") and nodes == 7 else [
            "cube diagram of torus:2 does not have 7 nodes"]
    if cmd == "closed-sets":
        lines = stdout.decode().splitlines()
        count = int(lines[0].split()[0]) if lines else -1
        return [] if count == len(lines) - 1 else ["closed-sets count disagrees with its rows"]
    if cmd == "show":
        return [] if stdout.startswith(b"points:\n") else ["show output is malformed"]
    return ["unknown command %r" % cmd]


def _json(data):
    import json

    try:
        return json.loads(data)
    except ValueError:
        return None
