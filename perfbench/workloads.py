"""Inputs and operation lists for the four benchmark workloads.

Every function that returns inputs takes a ``random.Random`` seeded from the
run's ``--seed``; the catalog rungs and the CLI command list are fixed, and
the seed orders them.  An operation is a ``(label, kind, arg, fn)`` tuple:
``label`` names its input, ``arg`` is what the checks need to know about the
call (a point, a derivative step), and ``fn`` takes the pass state (a dict
the operations of one pass share) and returns the result the checks in
``checks.py`` read after the timed section.

Library calls go through ``prism.<name>`` at call time, never through names
bound at import, so that the traced run sees every call through its
wrappers.
"""

import json
import os
import random

import prism

# circle, O(2), SO(3) and T^1 at bounds 4/16/64; T^2 at 2/3/4/6; T^3 at 2.
# T^3 at bound 3 runs for more than ten minutes before the torus order build
# is fixed, so it stays out of the ladder until then.
CATALOG_RUNGS = (
    [(spec, b) for spec in ("circle", "o2", "so3", "torus:1") for b in (4, 16, 64)]
    + [("torus:2", b) for b in (2, 3, 4, 6)]
    + [("torus:3", 2)]
)

# spaces point-queries builds in set-up: group snapshots, plus seeded
# synthetic spaces.  clopen_down_sets enumerates 2^families profiles, so it
# runs only on spaces with at most CLOPEN_MAX_FAMILIES families.
POINT_QUERY_GROUPS = (("torus:2", 2), ("torus:2", 4), ("torus:2", 6), ("o2", 64), ("so3", 64))
CLOPEN_MAX_FAMILIES = 13

# synthetic-heights runs strata on at most this many levels per space: a
# 300-point chain has 300 levels and strata on each would take 16 s a pass.
STRATA_LEVELS = 8
DERIVATIVE_STEPS = 3


# ---------------------------------------------------------------------------
# synthetic flagged spaces


class Poset:
    """A generated finite poset: point names in a topological order and its
    cover relations, before it becomes a prism space."""

    def __init__(self, names, covers):
        self.names = names
        self.covers = covers
        succ = {p: [] for p in names}
        for a, b in covers:
            succ[a].append(b)
        self.above = {}
        for p in reversed(names):
            up = {p}
            for q in succ[p]:
                up |= self.above[q]
            self.above[p] = up


def chain(n, prefix):
    names = ["%s%d" % (prefix, i) for i in range(n)]
    return Poset(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def grid(rows, cols, prefix):
    names = ["%s%d_%d" % (prefix, i, j) for i in range(rows) for j in range(cols)]
    covers = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                covers.append(("%s%d_%d" % (prefix, i, j), "%s%d_%d" % (prefix, i + 1, j)))
            if j + 1 < cols:
                covers.append(("%s%d_%d" % (prefix, i, j), "%s%d_%d" % (prefix, i, j + 1)))
    return Poset(names, covers)


def layered_dag(rng, n, layers, prefix):
    """Random DAG: ``n`` points in ``layers`` layers, each point above one to
    three points of the layer below."""
    sizes = [n // layers + (1 if i < n % layers else 0) for i in range(layers)]
    rows, names, covers = [], [], []
    for li, size in enumerate(sizes):
        row = ["%s%d_%d" % (prefix, li, k) for k in range(size)]
        if rows:
            for p in row:
                for q in rng.sample(rows[-1], min(len(rows[-1]), rng.randint(1, 3))):
                    covers.append((q, p))
        rows.append(row)
        names.extend(row)
    return Poset(names, covers)


def add_families(rng, poset, antichains, descending):
    """Accumulation families on ``poset`` with seeded bounds and hints.

    An antichain family's members sit above an optional lower bound; its
    limit and upper bounds are drawn from points strictly above that bound,
    so the presentation has no cycle.  Hints are placeholders here;
    ``consistent_hints`` raises them to the structural floor.  Descending
    families have their limit at the middle of the topological order: where
    it sits decides how much of the space has infinite height, and with it
    how long the height fixed point runs, so the seed does not move it.
    """
    names = poset.names
    fams = []
    for i in range(antichains):
        lower = set()
        candidates = names
        if rng.random() < 0.6:
            g = rng.choice(names[: len(names) * 2 // 3])
            above = [p for p in names if p in poset.above[g] and p != g]
            if above:
                lower, candidates = {g}, above
        hint = 0 if rng.random() < 0.5 else None
        fams.append(dict(id="fam%d" % i, limit=rng.choice(candidates),
                         member_order=prism.ANTICHAIN, member_gt=lower,
                         member_lt=set(rng.sample(candidates, min(len(candidates), rng.randint(0, 2)))),
                         hint=hint))
    for i in range(descending):
        fams.append(dict(id="desc%d" % i, limit=names[len(names) // 2], member_order=prism.DESCENDING,
                         member_gt=set(), member_lt=set(), hint=None))
    return fams


def build_space(rng, poset, fams):
    from checks import consistent_hints

    consistent_hints(poset, fams, rng)
    return prism.FlaggedPriestley(
        frozenset(poset.names),
        frozenset(poset.covers),
        tuple(
            prism.AccumulationFamily(
                id=f["id"], limit=f["limit"], member_order=f["member_order"],
                member_lt=frozenset(f["member_lt"]), member_gt=frozenset(f["member_gt"]),
                member_height_hint=f["hint"],
            )
            for f in fams
        ),
    )


def synthetic_spaces(rng):
    """The synthetic-heights spaces: chains, grids and layered DAGs.

    Shapes and sizes are fixed, so that two seeds give passes of the same
    cost; the seed draws the families, their bounds and hints, and the DAG
    edges.  Three spaces carry a descending-chain family, so part of every
    pass has infinite heights.
    """
    plan = [
        ("chain300", chain(300, "a"), 5, 0),
        ("chain200-desc", chain(200, "b"), 3, 1),
        ("chain100-free", chain(100, "c"), 0, 0),
        ("grid-free", grid(12, 15, "g"), 0, 0),
        ("grid-desc", grid(15, 12, "h"), 4, 1),
        ("dag-free", layered_dag(rng, 200, 14, "d"), 0, 0),
        ("dag", layered_dag(rng, 200, 14, "e"), 6, 0),
        ("dag-desc", layered_dag(rng, 200, 14, "f"), 4, 1),
    ]
    return [(label, build_space(rng, poset, add_families(rng, poset, anti, desc)))
            for label, poset, anti, desc in plan]


def point_query_synthetic(rng):
    """The two seeded synthetic spaces point-queries pre-builds.

    Every family's limit lies above its members, so the spaces are
    generically Noetherian and ``is_generically_noetherian`` checks every
    point; otherwise it stops at the first failing one, and where that sits
    would set its cost.
    """
    out = []
    for label, poset in (("chain150", chain(150, "q")), ("grid12", grid(12, 12, "r"))):
        fams = add_families(rng, poset, 8, 1)
        for f in fams:
            f["member_lt"] = set(f["member_lt"]) | {f["limit"]}
        out.append((label, build_space(rng, poset, fams)))
    return out


# ---------------------------------------------------------------------------
# set-up per workload


def setup(workload, seed, workdir):
    """Build a workload's inputs; returns what ``operations`` takes.

    This is the part of set-up that follows ``import prism``: input
    generation and, for point-queries, pre-building the spaces.
    """
    rng = random.Random(seed)
    if workload == "catalog-cold":
        rungs = list(CATALOG_RUNGS)
        rng.shuffle(rungs)
        return {"rungs": rungs}
    if workload == "synthetic-heights":
        return {"spaces": synthetic_spaces(rng), "order": rng}
    if workload == "point-queries":
        spaces = [("%s@%d" % (spec, b), prism.flagged_snapshot(prism.group_from_spec(spec), b), True)
                  for spec, b in POINT_QUERY_GROUPS]
        spaces += [(label, s, False) for label, s in point_query_synthetic(rng)]
        return {"spaces": spaces, "order": rng}
    if workload == "cli-cold":
        commands, space, heights = cli_commands(rng, workdir)
        return {"commands": commands, "space": space, "file_heights": heights}
    raise ValueError("unknown workload %r" % (workload,))


def operations(workload, inputs):
    """The operation list of one pass, in the order the seed gave it."""
    return {
        "catalog-cold": catalog_operations,
        "synthetic-heights": synthetic_operations,
        "point-queries": point_operations,
        "cli-cold": cli_operations,
    }[workload](inputs)


# ---------------------------------------------------------------------------
# operation lists


def catalog_operations(inputs):
    """One operation per rung: the full pipeline from snapshot to the three
    cube exports.  The caller clears the library's caches before each."""
    ops = []
    for spec, bound in inputs["rungs"]:
        def run(state, spec=spec, bound=bound):
            g = prism.group_from_spec(spec)
            space = prism.flagged_snapshot(g, bound)
            heights = prism.thomason_heights(space)
            cb = prism.cb_heights(space)
            disp = prism.is_dispersion(space, prism.dimension_candidate(g, space))
            diagram = prism.decomposition_of(g, space, heights)
            exports = (prism.cube_to_json(diagram), prism.cube_to_dot(diagram),
                       prism.cube_to_text(diagram))
            return space, heights, cb, disp, diagram, exports
        ops.append(("%s@%d" % (spec, bound), "pipeline", (spec, bound), run))
    return ops


def synthetic_operations(inputs):
    """Per space: heights, CB heights and derivative steps; on spaces without
    a descending family (finite heights) also the dispersion check on the
    heights and strata on sampled levels.  The seed orders the spaces; each
    space's steps keep their order."""
    rng = inputs["order"]
    spaces = list(inputs["spaces"])
    rng.shuffle(spaces)
    ops = []
    for label, space in spaces:
        st_key = label

        def heights(st, s=space, k=st_key):
            st[k] = {"heights": prism.thomason_heights(s), 0: s}
            return st[k]["heights"]

        ops.append((label, "heights", None, heights))
        ops.append((label, "cb", None, lambda st, s=space: prism.cb_heights(s)))
        for step in range(1, DERIVATIVE_STEPS + 1):
            def derive(st, k=st_key, step=step):
                st[k][step] = prism.thomason_derivative(st[k][step - 1])
                return st[k][step]
            ops.append((label, "derivative", step, derive))
        if any(f.member_order == prism.DESCENDING for f in space.families):
            continue

        def dispersion(st, s=space, k=st_key):
            st[k]["candidate"] = heights_candidate(st[k]["heights"])
            return prism.is_dispersion(s, st[k]["candidate"])

        ops.append((label, "dispersion", None, dispersion))
        for i in range(STRATA_LEVELS):
            def strata(st, s=space, k=st_key, pick=rng.random(), i=i):
                # level 0 and the top level are always among the sampled ones
                top = int(st[k]["heights"].max_height())
                level = 0 if i == 0 else top if i == 1 else int(pick * (top + 1))
                return level, prism.strata(s, st[k]["candidate"], level)
            ops.append((label, "strata", i, strata))
    return ops


def heights_candidate(heights):
    values = dict(heights.heights)
    values.update(heights.family_heights)
    return prism.DispersionCandidate(values)


def point_operations(inputs):
    """Per point: weak visibility, both symbolic closures and the
    generalization closure; per space: generic Noetherianness and, on
    spaces with few families, the clopen down-set classes.  The seed
    shuffles the whole list."""
    ops = []
    for label, space, _ in inputs["spaces"]:
        for p in sorted(space.concrete):
            ops.append((label, "weakly_visible", p, lambda st, s=space, p=p: prism.weakly_visible(s, p)))
            ops.append((label, "up_closure", p, lambda st, s=space, p=p: prism.up_closure_symbolic(s, p)))
            ops.append((label, "down_closure", p, lambda st, s=space, p=p: prism.down_closure_symbolic(s, p)))
            ops.append((label, "gen_closure", p, lambda st, s=space, p=p: prism.gen_closure(s, p)))
        ops.append((label, "gen_noetherian", None, lambda st, s=space: prism.is_generically_noetherian(s)))
        if len(space.families) <= CLOPEN_MAX_FAMILIES:
            ops.append((label, "clopen", None, lambda st, s=space: prism.clopen_down_sets(s)))
    inputs["order"].shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# CLI commands


def cli_commands(rng, workdir):
    """The cli-cold command list.  Two of its inputs are files written here:
    a seeded flagged space and the benchmark's own height assignment of it,
    given to check-dispersion as the candidate.  The seed orders the list."""
    from checks import reference_heights

    poset = layered_dag(rng, 60, 8, "n")
    space = build_space(rng, poset, add_families(rng, poset, 4, 0))
    space_path = os.path.join(workdir, "space.json")
    cand_path = os.path.join(workdir, "candidate.json")
    with open(space_path, "w", encoding="utf-8") as fh:
        fh.write(prism.flagged_to_json(space))
    heights = reference_heights(space)
    with open(cand_path, "w", encoding="utf-8") as fh:
        json.dump({k: int(v) for k, v in heights.items()}, fh, sort_keys=True)
    commands = [
        ["heights", "circle", "--bound", "3"],
        ["heights", "circle", "--bound", "3", "--format", "json"],
        ["heights", "o2"],
        ["noetherian", "so3"],
        ["isomax", "4"],
        ["show", "so3"],
        ["closed-sets", "o2"],
        ["cube", "torus:2", "--bound", "3", "--format", "dot"],
        ["check-dispersion", space_path, cand_path],
        ["heights", space_path, "--format", "json"],
    ]
    rng.shuffle(commands)
    return commands, space, heights


def cli_operations(inputs):
    """One ``python -m prism.cli`` subprocess per command; the runner
    supplies the process launcher through the pass state."""
    return [(argv[0], "cli", argv, lambda st, argv=argv: st["launch"](argv))
            for argv in inputs["commands"]]


def input_sizes(spaces):
    """Points, closed order pairs and families summed over the spaces."""
    return {
        "spaces": len(spaces),
        "points": sum(len(s.concrete) for s in spaces),
        "order_pairs": sum(len(s.order) for s in spaces),
        "families": sum(len(s.families) for s in spaces),
    }
