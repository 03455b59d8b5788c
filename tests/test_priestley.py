"""Finite and flagged Priestley spaces: operations and their invariants."""

import random
from itertools import combinations

import pytest

from prism import (
    ALL,
    ANTICHAIN,
    COFINITE,
    DESCENDING,
    EMPTY,
    FINITE,
    AccumulationFamily,
    ClopenDownClass,
    FinitePriestley,
    FiniteTopSpace,
    FlaggedPriestley,
    NotT0,
    SO3,
    Circle,
    O2,
    SymbolicSet,
    clopen_down_sets,
    convergent_sequence_space,
    down_closure_symbolic,
    down_sets,
    flagged_from_json,
    flagged_to_json,
    instantiate,
    inverse,
    is_noetherian,
    priestley_of_spectral,
    punctured_cube,
    restrict,
    specialization_order,
    spectral_of_priestley,
    thomason_derivative,
    thomason_heights,
    thomason_points,
    up_closure_symbolic,
)
from prism.errors import replace
from prism.liegroups import Torus, flagged_snapshot, group_from_spec
from prism.oracles import catalog_spaces, check_derivative_vs_heights
from prism.priestley import realize_in_truncation


def sierpinski():
    return FiniteTopSpace(frozenset("ab"), [frozenset(), frozenset("a"), frozenset("ab")])


def vee():
    """Two closed points under one generic point."""
    return FinitePriestley(frozenset(["g", "c1", "c2"]), [("c1", "g"), ("c2", "g")])


def circle_model(bound=3):
    names = ["C(%d)" % n for n in range(1, bound + 1)]
    fam = AccumulationFamily(
        id="cyclic", limit="G", member_lt=frozenset({"G"}),
        samples=("C(%d)" % (bound + 1),),
    )
    return FlaggedPriestley(
        frozenset(names) | {"G"}, [(n, "G") for n in names], (fam,)
    )


def dihedral_model(bound=2):
    names = ["D(%d)" % (2 * n) for n in range(1, bound + 1)]
    fam = AccumulationFamily(id="dihedral", limit="O2", samples=("D(6)",))
    return FlaggedPriestley(frozenset(names) | {"O2"}, [], (fam,))


# ---------------------------------------------------------------------------
# specialization order


def test_specialization_sierpinski():
    order = specialization_order(sierpinski())
    assert ("b", "a") in order and ("a", "b") not in order


def test_specialization_discrete():
    disc = FiniteTopSpace(
        frozenset("ab"),
        [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")],
    )
    assert specialization_order(disc) == frozenset({("a", "a"), ("b", "b")})


def test_specialization_two_closed_under_generic():
    pts = frozenset(["g", "c1", "c2"])
    opens = [frozenset()] + [frozenset(s) | {"g"} for s in [set(), {"c1"}, {"c2"}, {"c1", "c2"}]]
    order = specialization_order(FiniteTopSpace(pts, opens))
    assert ("c1", "g") in order and ("c2", "g") in order
    assert ("c1", "c2") not in order and ("c2", "c1") not in order


def test_not_t0():
    with pytest.raises(NotT0):
        specialization_order(FiniteTopSpace(frozenset("ab"), [frozenset(), frozenset("ab")]))


# ---------------------------------------------------------------------------
# the finite correspondence


def test_priestley_of_spectral_examples():
    p = priestley_of_spectral(sierpinski())
    assert p.le("b", "a")
    disc = FiniteTopSpace(
        frozenset("abc"),
        [frozenset(s) for s in ["", "a", "b", "c", "ab", "ac", "bc", "abc"]],
    )
    assert priestley_of_spectral(disc).minimal_points() == frozenset("abc")


def test_spectral_of_priestley_examples():
    chain = FinitePriestley(frozenset("ab"), [("b", "a")])
    assert spectral_of_priestley(chain).opens == frozenset(
        [frozenset(), frozenset("a"), frozenset("ab")]
    )
    anti = FinitePriestley(frozenset("ab"), [])
    assert len(spectral_of_priestley(anti).opens) == 4
    assert spectral_of_priestley(vee()).opens == frozenset(
        frozenset(s) for s in [set(), {"g"}, {"g", "c1"}, {"g", "c2"}, {"g", "c1", "c2"}]
    )


def test_round_trip():
    for p in [vee(), FinitePriestley(frozenset("abcd"), [("a", "b"), ("b", "c")])]:
        assert priestley_of_spectral(spectral_of_priestley(p)) == p


def all_topologies(points):
    """Every family of subsets closed under union/intersection with 0 and 1."""
    pts = sorted(points)
    subsets = [frozenset(c) for k in range(len(pts) + 1) for c in combinations(pts, k)]
    full = frozenset(pts)
    out = []
    for mask in range(1 << len(subsets)):
        fam = {s for i, s in enumerate(subsets) if mask >> i & 1}
        if frozenset() not in fam or full not in fam:
            continue
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            out.append(frozenset(fam))
    return out


def test_round_trip_all_small_spectral_spaces():
    # every finite T0 topology is spectral; the up-set topology of its
    # specialization order recovers it exactly
    for opens in all_topologies("abc"):
        space = FiniteTopSpace(frozenset("abc"), opens)
        try:
            p = priestley_of_spectral(space)
        except NotT0:
            continue
        assert spectral_of_priestley(p).opens == space.opens


# ---------------------------------------------------------------------------
# inverse


def test_inverse_examples():
    chain = FinitePriestley(frozenset("ab"), [("b", "a")])
    assert inverse(chain).le("a", "b")
    anti = FinitePriestley(frozenset("ab"), [])
    assert inverse(anti) == anti
    lim_above = convergent_sequence_space("limit-above")
    inv = inverse(lim_above)
    # the inverse puts the limit underneath everything, with no isolated
    # minimal points: the shape of the fourth guiding order
    fam = inv.family("tail")
    assert fam.member_gt == frozenset({"inf"}) and not fam.member_lt
    with pytest.raises(KeyError):
        inv.family("nope")
    assert ("inf", "0") in inv.order
    assert thomason_points(inv).concrete == frozenset()
    assert not thomason_points(inv).portions


def test_inverse_is_involution():
    for space in [vee(), circle_model(), dihedral_model()]:
        assert inverse(inverse(space)) == space


# ---------------------------------------------------------------------------
# down-sets


def exhaustive_down_sets(p):
    pts = sorted(p.points)
    out = set()
    for mask in range(1 << len(pts)):
        s = frozenset(q for i, q in enumerate(pts) if mask >> i & 1)
        if p.is_down_set(s):
            out.add(s)
    return out


def test_down_sets_examples():
    chain = FinitePriestley(frozenset("ab"), [("b", "a")])
    assert len(down_sets(chain)) == 3
    anti = FinitePriestley(frozenset("ab"), [])
    assert len(down_sets(anti)) == 4
    # frozen from the exhaustive subset filter: the V poset has exactly
    # five down-sets (empty, each closed point, both, everything)
    assert len(down_sets(vee())) == 5
    assert set(down_sets(vee())) == exhaustive_down_sets(vee())


def test_down_sets_closed_under_union_and_intersection():
    from prism.oracles import sample_posets

    posets = [vee(), FinitePriestley(frozenset("abcde"), [("a", "b"), ("c", "b"), ("d", "e")])]
    posets += sample_posets()
    for p in posets:
        family = set(down_sets(p))
        for a in family:
            for b in family:
                assert a | b in family
                assert a & b in family


# ---------------------------------------------------------------------------
# clopen down-set classes


def test_clopen_classes_circle():
    classes = clopen_down_sets(circle_model())
    assert len(classes) == 2
    finite_side = next(c for c in classes if c.tag("cyclic") == FINITE)
    assert finite_side.required == frozenset() and "G" not in finite_side.optional
    assert finite_side.tag("no-such-family") == EMPTY
    whole = next(c for c in classes if c.tag("cyclic") == ALL)
    assert whole.required == circle_model().concrete


def test_clopen_classes_dihedral():
    classes = clopen_down_sets(dihedral_model())
    tags = sorted(c.tag("dihedral") for c in classes)
    assert tags == [COFINITE, FINITE]
    cof = next(c for c in classes if c.tag("dihedral") == COFINITE)
    assert cof.required == frozenset({"O2"})
    assert cof.optional == frozenset({"D(2)", "D(4)"})


def test_clopen_classes_no_families():
    space = FlaggedPriestley(frozenset("abc"), [("a", "b")], ())
    classes = clopen_down_sets(space)
    assert len(classes) == 1
    assert classes[0].required == frozenset()
    assert classes[0].optional == space.concrete


def test_clopen_class_realizations_are_clopen_down_sets():
    for space in [circle_model(), dihedral_model()]:
        for cls in clopen_down_sets(space):
            s = cls.realize(space)
            assert s.is_clopen(space)
            assert s.is_down_set(space)
            # symbolic complement is closed, i.e. the set is open
            assert s.complement(space).is_closed(space)
            # instantiated at finite depth it is a down-set of the truncation
            truncated = instantiate(space, 3)
            concrete = realize_in_truncation(space, s, 3)
            assert truncated.is_down_set(concrete)
    # every member of the circle family without their limit: not closed
    with pytest.raises(ValueError, match="not a clopen down-set"):
        ClopenDownClass((("cyclic", ALL),), frozenset(), frozenset()).realize(circle_model())


def per_point_clopen_down_sets(space):
    """The former clopen_down_sets, closing the forced points one at a time
    in every profile: the reference for the per-family closures."""
    fams = space.families
    out = []
    for profile in range(1 << len(fams)):
        infinite = {f.id for i, f in enumerate(fams) if profile >> i & 1}
        required = set()
        excluded = set()
        for f in fams:
            if f.id in infinite:
                required |= {f.limit} | f.member_gt
            else:
                excluded |= {f.limit} | f.member_lt
        for p in list(required):
            required |= space.down_closure(p)
        for p in list(excluded):
            excluded |= space.up_closure(p)
        if required & excluded:
            continue
        tags = {}
        for f in fams:
            if f.id in infinite:
                tags[f.id] = ALL if f.member_lt & required else COFINITE
            elif f.member_order == ANTICHAIN and not (f.member_gt & excluded):
                tags[f.id] = FINITE
            else:
                tags[f.id] = EMPTY
        optional = frozenset(space.concrete) - required - excluded
        out.append(ClopenDownClass(tuple(sorted(tags.items())), frozenset(required), optional))
    return tuple(out)


def random_clash_space(rng, max_families, min_families=0):
    """A seeded flagged space on points p0, p1, ... whose order pairs rise
    in index, or None when its families close a cycle.  Limits and bounds
    are drawn independently, so many member profiles clash."""
    n = rng.randint(2, 9)
    pts = ["p%d" % i for i in range(n)]
    order = [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    fams = []
    for k in range(rng.randint(min_families, max_families)):
        cut = rng.randint(0, n)
        fams.append(AccumulationFamily(
            id="f%d" % k,
            limit=rng.choice(pts),
            member_order=DESCENDING if rng.random() < 0.3 else ANTICHAIN,
            member_gt=frozenset(p for p in pts[:cut] if rng.random() < 0.4),
            member_lt=frozenset(p for p in pts[cut:] if rng.random() < 0.4),
        ))
    try:
        return FlaggedPriestley(frozenset(pts), order, tuple(fams))
    except ValueError:
        return None


def test_clopen_classes_match_per_point_closure():
    rng = random.Random(8080)
    spaces = [circle_model(), dihedral_model()]
    while len(spaces) < 300:
        # spaces 200-259 have up to ten families, 1024 member profiles; the
        # last 40 have 9 to 12, so families 8 and up take their tags from a
        # second cached block
        if len(spaces) < 260:
            space = random_clash_space(rng, 5 if len(spaces) < 200 else 10)
        else:
            space = random_clash_space(rng, 12, min_families=9)
        if space is not None:
            spaces.append(space)
    kept = profiles = 0
    for space in spaces:
        classes = clopen_down_sets(space)
        assert classes == per_point_clopen_down_sets(space)
        kept += len(classes)
        profiles += 1 << len(space.families)
    assert len(spaces) < kept < profiles // 10


@pytest.mark.parametrize("group,bound", [
    ("torus:2", 2), ("circle", 6), ("o2", 6), ("so3", 6), ("torus:1", 6),
])
def test_clopen_classes_of_catalog_snapshots_match_per_point_closure(group, bound):
    space = flagged_snapshot(group_from_spec(group), bound)
    assert clopen_down_sets(space) == per_point_clopen_down_sets(space)


def test_clopen_classes_of_torus2_realize_and_share_optional_sets():
    space = flagged_snapshot(Torus(2), 2)
    classes = clopen_down_sets(space)
    assert len(classes) == 4097
    first = {}
    for cls in classes:
        cls.realize(space)
        assert first.setdefault(cls.optional, cls.optional) is cls.optional
    assert len(first) == 24


def former_is_down_set(poset, subset):
    """The former down-set test: every principal down-set in the set."""
    return all(poset.down_closure(p) <= subset for p in subset)


def former_is_up_set(poset, subset):
    return all(poset.up_closure(p) <= subset for p in subset)


def former_symbolic_is_down_set(sym, space):
    """The former ``SymbolicSet.is_down_set``, scanning principal down-sets."""
    if not former_is_down_set(space, sym.concrete):
        return False
    for f in space.families:
        tag = sym.portion(f.id)
        if tag != EMPTY and not f.member_gt <= sym.concrete:
            return False
        if f.member_lt & sym.concrete and tag != ALL:
            return False
        if f.member_order == DESCENDING and tag == FINITE:
            return False
    return True


def former_symbolic_is_up_set(sym, space):
    if not former_is_up_set(space, sym.concrete):
        return False
    for f in space.families:
        tag = sym.portion(f.id)
        if tag != EMPTY and not f.member_lt <= sym.concrete:
            return False
        if f.member_gt & sym.concrete and tag != ALL:
            return False
        if f.member_order == DESCENDING and tag == COFINITE:
            return False
    return True


def former_is_open(sym, space):
    """The former ``SymbolicSet.is_open``, per family: one with at most
    finitely many members inside, so infinitely many outside, keeps its
    limit out."""
    return not any(sym.portion(f.id) in (EMPTY, FINITE) and f.limit in sym.concrete
                   for f in space.families)


def random_symbolic_set(rng, space):
    """A seeded symbolic set: random, or a union of symbolic closures of
    random points with a few tags and points changed, so that down- and
    up-sets come up as often as sets that are neither."""
    tags = (EMPTY, FINITE, COFINITE, ALL)
    pts = sorted(space.concrete)
    kind = rng.randrange(3)
    if kind == 0:
        concrete = {p for p in pts if rng.random() < 0.5}
        portions = {f.id: rng.choice(tags) for f in space.families}
    else:
        closure = down_closure_symbolic if kind == 1 else up_closure_symbolic
        concrete, portions = set(), {}
        for p in rng.sample(pts, rng.randint(1, len(pts))):
            part = closure(space, p)
            concrete |= part.concrete
            portions.update(part.portions)
        if rng.random() < 0.5:
            concrete ^= {rng.choice(pts)}
        if space.families and rng.random() < 0.5:
            portions[rng.choice(space.family_ids())] = rng.choice(tags)
    return SymbolicSet(frozenset(concrete), portions)


def test_predicates_match_former_definitions():
    rng = random.Random(1018)
    seen = set()
    spaces = 0
    while spaces < 150:
        space = random_clash_space(rng, 6)
        if space is None:
            continue
        spaces += 1
        truncated = instantiate(space, 3)
        for _ in range(12):
            sym = random_symbolic_set(rng, space)
            assert sym.is_open(space) == former_is_open(sym, space)
            assert sym.is_clopen(space) == (sym.is_closed(space) and sym.is_open(space))
            down, up = sym.is_down_set(space), sym.is_up_set(space)
            assert down == former_symbolic_is_down_set(sym, space)
            assert up == former_symbolic_is_up_set(sym, space)
            assert space.is_down_set(sym.concrete) == former_is_down_set(space, sym.concrete)
            # three members per family tell every tag apart
            finite = realize_in_truncation(space, sym, 3)
            assert truncated.is_down_set(finite) == former_is_down_set(truncated, finite) == down
            assert former_is_up_set(truncated, finite) == up
            seen.add((down, up, sym.is_open(space)))
    assert len(seen) == 8


# ---------------------------------------------------------------------------
# thomason points and noetherianness


def test_thomason_points_guiding_models():
    lim_above = convergent_sequence_space("limit-above")
    tp = thomason_points(lim_above)
    assert tp.concrete == frozenset({"0", "1", "2", "3"})
    assert tp.portion("tail") == ALL  # all of the sequence, named or not
    chain = convergent_sequence_space("descending-chain")
    tp3 = thomason_points(chain)
    assert tp3.concrete == frozenset() and not tp3.portions
    below = convergent_sequence_space("limit-below")
    tp4 = thomason_points(below)
    assert tp4.concrete == frozenset() and not tp4.portions


def test_thomason_points_subset_of_minimal():
    for space in [circle_model(), dihedral_model(), convergent_sequence_space("unrelated")]:
        tp = thomason_points(space)
        assert tp.concrete <= space.minimal_concrete()


def test_is_noetherian():
    assert is_noetherian(circle_model())
    assert not is_noetherian(dihedral_model())
    assert is_noetherian(vee())
    assert is_noetherian(FinitePriestley(frozenset("abc"), []))


# ---------------------------------------------------------------------------
# symbolic sets


def test_symbolic_set_predicates():
    space = circle_model()
    whole = SymbolicSet(space.concrete, {"cyclic": ALL})
    assert whole.is_clopen(space) and whole.is_down_set(space) and whole.is_up_set(space)
    just_g = SymbolicSet(frozenset({"G"}), {"cyclic": EMPTY})
    assert not just_g.is_open(space)  # a neighbourhood of the limit needs a tail
    assert just_g.is_up_set(space)  # G is maximal
    assert not SymbolicSet(frozenset({"C(1)"})).is_up_set(space)
    # members without their upper bound realized cannot be up-closed
    assert not SymbolicSet(frozenset(), {"cyclic": FINITE}).is_up_set(space)
    tail_and_g = SymbolicSet(frozenset({"G"}), {"cyclic": COFINITE})
    assert tail_and_g.is_clopen(space)
    assert not tail_and_g.is_down_set(space)  # missing members below G
    assert tail_and_g.complement(space).portion("cyclic") == FINITE
    assert whole.describe() == "{C(1), C(2), C(3), G} / members: {cyclic: all}"
    assert just_g.describe() == "{G}"


# ---------------------------------------------------------------------------
# JSON


def test_json_round_trip():
    space = circle_model()
    assert flagged_from_json(flagged_to_json(space)) == space


def test_json_rejects_unknown_fields():
    with pytest.raises(ValueError):
        flagged_from_json('{"points": [], "order": [], "bogus": 1}')
    with pytest.raises(ValueError):
        flagged_from_json(
            '{"points": ["a"], "order": [], "families":'
            ' [{"id": "f", "limit": "a", "color": "red"}]}'
        )


def test_order_closure_against_brute_force():
    rng = random.Random(5150)
    for _ in range(200):
        n = rng.randint(1, 9)
        rank = dict(zip(rng.sample(range(n), n), range(n)))  # acyclic draws
        pairs = [(a, b) for a in range(n) for b in range(n) if rank[a] < rank[b] and rng.random() < 0.3]
        space = FinitePriestley(frozenset(range(n)), pairs)
        closed = {(p, p) for p in range(n)} | set(pairs)
        while True:
            grow = {(a, d) for (a, b) in closed for (c, d) in closed if b == c} - closed
            if not grow:
                break
            closed |= grow
        assert space.order == closed
        assert FinitePriestley(space.points, space.order) == space
        for p in range(n):
            assert space.down_closure(p) == {q for q in range(n) if (q, p) in closed}
            assert space.up_closure(p) == {q for q in range(n) if (p, q) in closed}
        assert space.minimal_points() == {
            p for p in range(n) if all((q, p) not in closed for q in range(n) if q != p)
        }


def test_order_and_heights_against_networkx():
    """The covers are networkx's transitive reduction of the order, the
    order its reflexive transitive closure of the covers, and on a finite
    poset the Thomason height of a point is the longest path ending there.
    Three derivative steps of each space are inputs too; the covers of each
    step are the reduction of its parent's order on the points kept."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(2028)
    spaces = [flagged_snapshot(g, b) for g, b in
              ((Circle(), 8), (O2(), 8), (SO3(), 8), (Torus(2), 4), (Torus(3), 2))]
    posets = [punctured_cube(3)]
    for _ in range(30):
        n = rng.randint(1, 12)
        rank = dict(zip(rng.sample(range(n), n), range(n)))  # acyclic draws
        pairs = [(a, b) for a in range(n) for b in range(n) if rank[a] < rank[b] and rng.random() < 0.3]
        posets.append(FinitePriestley(frozenset(range(n)), pairs))
        given = nx.DiGraph(pairs)
        given.add_nodes_from(range(n))
        assert posets[-1].covers == set(nx.transitive_reduction(given).edges)
    derived = []
    for parent in spaces + posets:
        for _ in range(3):
            child = thomason_derivative(parent)
            strict = nx.DiGraph(ab for ab in parent.order if ab[0] != ab[1])
            strict.add_nodes_from(parent.concrete)
            kept = strict.subgraph(child.concrete)
            assert child.covers == set(nx.transitive_reduction(kept).edges)
            derived.append(child)
            parent = child
    spaces += [s for s in derived if not isinstance(s, FinitePriestley)]
    posets += [s for s in derived if isinstance(s, FinitePriestley)]
    for space in spaces + posets:
        strict = nx.DiGraph(ab for ab in space.order if ab[0] != ab[1])
        strict.add_nodes_from(space.concrete)
        assert space.covers == set(nx.transitive_reduction(strict).edges)
        hasse = nx.DiGraph(space.covers)
        hasse.add_nodes_from(space.concrete)
        assert space.order == set(nx.transitive_closure(hasse, reflexive=True).edges)
    for poset in posets:
        graph = nx.DiGraph(poset.covers)
        graph.add_nodes_from(poset.points)
        longest = {p: nx.dag_longest_path_length(graph.subgraph(nx.ancestors(graph, p) | {p}))
                   for p in poset.points}
        assert thomason_heights(poset).heights == longest


def test_three_cycle_is_rejected_by_both_classes():
    # d lies below the cycle a < b < c < a and e above it
    order = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a"), ("c", "e")]
    message = r"^order is not antisymmetric on '([abc])', '(?!\1)[abc]'$"
    with pytest.raises(ValueError, match=message):
        FinitePriestley(frozenset("abcde"), order)
    with pytest.raises(ValueError, match=message):
        FlaggedPriestley(frozenset("abcde"), order, ())


def test_a_cycle_under_a_long_chain_is_named():
    # p00000 < p00001 < p00000, under a chain p00001 < p00002 < ... < p03001:
    # every chain point is left over by the topological pass
    points = ["p%05d" % i for i in range(3002)]
    order = [("p00000", "p00001"), ("p00001", "p00000")] + list(zip(points[1:], points[2:]))
    with pytest.raises(ValueError, match=r"^order is not antisymmetric on 'p00001', 'p00000'$"):
        FinitePriestley(frozenset(points), order)
    # unknown points are named as a tuple pair, also when given as lists
    for cls, extra in ((FinitePriestley, ()), (FlaggedPriestley, ((),))):
        with pytest.raises(ValueError, match=r"^order mentions unknown point in \('a', 'x'\)$"):
            cls(frozenset("ab"), [["z", "a"], ["a", "x"], ["a", "b"]], *extra)


def test_restrict_rejects_unknown_points():
    space = convergent_sequence_space("limit-above")  # points 0..3 and inf
    with pytest.raises(ValueError, match=r"^restrict to unknown point 'a'$"):
        restrict(space, {"inf", "b", "a"}, ["tail"])
    assert restrict(space, {"0", "inf"}, ["tail"]).le("0", "0")


def test_restrict_takes_family_ids_in_any_order():
    """Ids given reversed, repeated, unknown or as a one-pass iterator keep
    the families a scan of the space's families gives: in id order, once
    each, with their bounds cut to the points."""
    space = flagged_snapshot(Torus(2), 3)
    points, ids = sorted(space.concrete), list(space.family_ids())
    rng = random.Random(26)
    cut = 0
    for _ in range(40):
        pts = space.up_closure(rng.choice(points))
        if rng.random() < 0.5:
            pts = frozenset(rng.sample(points, 12))  # not an up-set: bounds are cut
        chosen = rng.sample(ids, rng.randrange(len(ids) + 1))
        given = chosen[::-1] + chosen[:3] + ["nope", "G"]  # "G" is a point, not a family
        expected = tuple(
            f if f.member_lt | f.member_gt <= pts
            else replace(f, member_lt=f.member_lt & pts, member_gt=f.member_gt & pts)
            for f in space.families
            if f.id in given and f.limit in pts
        )
        cut += sum(f not in space.families for f in expected)
        sub = restrict(space, pts, iter(given))
        assert sub.families == expected
        assert sub == restrict(space, pts, sorted(chosen))
        assert [sub.family(f.id) for f in expected] == list(expected)
        with pytest.raises(KeyError):
            sub.family("nope")
    assert cut


def separating_up_set(space, x):
    """The principal up-set of ``x`` with the members that a clopen up-set
    holding it holds: all of a family with a lower bound in it, or of a
    chain family whose limit is in it, and all but finitely many of any
    other family whose limit is in it."""
    up = space.up_closure(x)
    tags = {}
    for f in space.families:
        if not f.member_gt.isdisjoint(up) or (f.member_order == DESCENDING and f.limit in up):
            tags[f.id] = ALL
        elif f.limit in up:
            tags[f.id] = COFINITE
    return SymbolicSet(up, tags)


def unseparated_points(space):
    """The concrete points x whose separating up-set is no clopen up-set.
    For every other x, that set holds x and no y with x not below y: the
    Priestley separation axiom for the pairs (x, y)."""
    return [
        x for x in sorted(space.concrete)
        if not (u := separating_up_set(space, x)).is_clopen(space) or not u.is_up_set(space)
    ]


def pairs_to_separate(space):
    """The number of pairs (x, y) of concrete points with x not below y."""
    return sum(len(space.concrete - space.up_closure(x)) for x in space.concrete)


def random_closed_presentation(rng):
    """A random flagged space whose order is closed in the modelled space:
    each family's limit is drawn first, its upper bounds (member_lt) from
    the limit's up-set and its lower bounds (member_gt) from its down-set,
    so what lies above (below) every member lies above (below) the limit.
    Chain families are drawn too."""
    n = rng.randint(1, 9)
    pts = ["p%d" % i for i in range(n)]
    order = [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
    poset = FinitePriestley(frozenset(pts), order)
    fams = []
    for k in range(rng.randint(0, 4)):
        limit = rng.choice(pts)
        lt = frozenset(p for p in sorted(poset.up_closure(limit)) if rng.random() < 0.4)
        gt = frozenset(p for p in sorted(poset.down_closure(limit))
                       if p not in lt and rng.random() < 0.4)
        fams.append(AccumulationFamily(
            id="f%d" % k,
            limit=limit,
            member_order=DESCENDING if rng.random() < 0.2 else ANTICHAIN,
            member_lt=lt,
            member_gt=gt,
        ))
    return FlaggedPriestley(frozenset(pts), order, tuple(fams))


def test_priestley_separation_of_the_catalog():
    spaces = catalog_spaces()
    assert [unseparated_points(s) for s in spaces] == [[]] * len(spaces)
    assert sum(map(pairs_to_separate, spaces)) == 83965


def test_priestley_separation_of_closed_presentations():
    rng = random.Random(3232)
    pairs = chains = 0
    for _ in range(3000):
        space = random_closed_presentation(rng)
        assert unseparated_points(space) == [], flagged_to_json(space)
        pairs += pairs_to_separate(space)
        chains += any(f.member_order == DESCENDING for f in space.families)
    assert pairs > 50000 and chains > 500
    # a presentation whose order is not closed: the members lie below c,
    # but the limit L does not, and no clopen up-set holds L and not c
    space = FlaggedPriestley(frozenset("Lc"), [], (AccumulationFamily("f", "L", member_lt={"c"}),))
    assert unseparated_points(space) == ["L"]


def test_closed_presentations_keep_their_invariants():
    """Seeded closed presentations survive a JSON round trip, pass the
    derivative-against-heights oracle and realize every clopen class."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1))
    def check(seed):
        space = random_closed_presentation(random.Random(seed))
        assert flagged_from_json(flagged_to_json(space)) == space
        check_derivative_vs_heights([space], kmax=3)
        for cls in clopen_down_sets(space):
            cls.realize(space)

    check()


def test_validation_errors():
    with pytest.raises(ValueError):
        FlaggedPriestley(frozenset("a"), [("a", "b")], ())
    with pytest.raises(ValueError):
        # declared cycle: a family member would sit between l and g with l <= g
        FlaggedPriestley(
            frozenset("ab"),
            [("a", "b")],
            (AccumulationFamily(id="f", limit="a", member_lt=frozenset("a"),
                                member_gt=frozenset("b")),),
        )
    with pytest.raises(ValueError, match="^order is not antisymmetric on "):
        # a cycle through two families: a < f members < c < g members < b < a
        FlaggedPriestley(
            frozenset("abc"),
            [("b", "a")],
            (AccumulationFamily(id="f", limit="a", member_lt=frozenset("c"),
                                member_gt=frozenset("a")),
             AccumulationFamily(id="g", limit="c", member_lt=frozenset("b"),
                                member_gt=frozenset("c"))),
        )
    with pytest.raises(ValueError):
        FiniteTopSpace(frozenset("ab"), [frozenset(), frozenset("a"), frozenset("b")])
    with pytest.raises(ValueError, match="not a subset"):
        FiniteTopSpace(frozenset("ab"), [frozenset(), frozenset("abc"), frozenset("ab")])
    with pytest.raises(ValueError, match="not closed"):  # ab & bc is missing
        FiniteTopSpace(frozenset("abc"), [frozenset(), frozenset("ab"), frozenset("bc"),
                                          frozenset("abc")])
    with pytest.raises(ValueError, match="unknown portion tag"):
        SymbolicSet(frozenset("a"), {"f": "most"})
    with pytest.raises(ValueError, match="unknown relation"):
        convergent_sequence_space("sideways")
    # the lazy order hook answers for ``order`` alone
    with pytest.raises(AttributeError):
        circle_model().nope
