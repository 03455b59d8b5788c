"""The forced closures against their round-based reference loops.

The symbolic closures read the principal sets and the trigger index, and
the weak-visibility witness is grown by one worklist over that index.
The references below are the loops they replace: each round rescans every
family until nothing changes.  Both must give the same symbolic sets, tags
and witnesses.
"""

import random

import pytest

from prism import (
    ALL,
    COFINITE,
    AccumulationFamily,
    FinitePriestley,
    FlaggedPriestley,
    O2,
    SymbolicSet,
    Torus,
    cb_heights,
    clopen_down_sets,
    down_closure_symbolic,
    flagged_snapshot,
    gen_closure,
    inverse,
    is_generically_noetherian,
    is_noetherian,
    thomason_derivative,
    thomason_heights,
    thomason_points,
    up_closure_symbolic,
    weakly_visible,
)
from prism.oracles import catalog_spaces

from test_dispersion import random_flagged_space
from test_priestley import random_clash_space


def reference_symbolic_closure(space, p, down):
    """The former round-based symbolic closure."""
    closure = space.down_closure if down else space.up_closure
    concrete = set(closure(p))
    tags = {}
    changed = True
    while changed:
        changed = False
        for f in space.families:
            near, far = (f.member_lt, f.member_gt) if down else (f.member_gt, f.member_lt)
            if near & concrete and tags.get(f.id) != ALL:
                tags[f.id] = ALL
                changed = True
            if tags.get(f.id) == ALL and not far <= concrete:
                for q in far:
                    concrete |= closure(q)
                changed = True
    return SymbolicSet(frozenset(concrete), tags)


def reference_weakly_visible(space, point):
    """The former round-based weak-visibility witness, or None."""
    up = reference_symbolic_closure(space, point, down=False)
    concrete = set(space.down_closure(point))
    tags = {}
    changed = True
    while changed:
        changed = False
        for f in space.families:
            if f.member_lt & concrete and tags.get(f.id) != ALL:
                tags[f.id] = ALL
                changed = True
            if f.limit in concrete and f.id not in tags:
                tags[f.id] = COFINITE
                changed = True
            if tags.get(f.id) is not None:
                forced = f.member_gt | {f.limit}
                if not forced <= concrete:
                    for g in forced:
                        concrete |= space.down_closure(g)
                    changed = True
    witness = SymbolicSet(frozenset(concrete), tags)
    if not (witness.is_clopen(space) and witness.is_down_set(space)):
        return None
    if (witness.concrete & up.concrete) != {point}:
        return None
    for f in space.families:
        if witness.portion(f.id) != "empty" and up.portion(f.id) != "empty":
            return None
    return witness


def assert_closures_match(space, points):
    for p in points:
        assert down_closure_symbolic(space, p) == reference_symbolic_closure(space, p, True), p
        assert up_closure_symbolic(space, p) == reference_symbolic_closure(space, p, False), p


def assert_visibility_matches(space, points):
    """Witnesses equal the reference's and are clopen down-sets, as
    weakly_visible no longer checks; returns how many points are visible."""
    visible = 0
    for p in points:
        witness = weakly_visible(space, p)
        assert witness == reference_weakly_visible(space, p), p
        if witness is not None:
            assert witness.is_clopen(space) and witness.is_down_set(space), p
            visible += 1
    return visible


def seeded_random_spaces():
    rng = random.Random(1111)
    spaces = []
    while len(spaces) < 300:
        space = random_clash_space(rng, 6)
        if space is not None:
            spaces.append(space)
    rng = random.Random(2222)
    spaces += [random_flagged_space(rng) for _ in range(300)]
    return spaces


def test_random_spaces_match_reference_loops():
    points = visible = 0
    for space in seeded_random_spaces():
        pts = sorted(space.concrete)
        assert_closures_match(space, pts)
        visible += assert_visibility_matches(space, pts)
        points += len(pts)
    # both answers come up often
    assert 0.2 * points < visible < 0.9 * points


def test_catalog_snapshots_match_reference_loops():
    for space in catalog_spaces():
        pts = sorted(space.concrete)
        assert_closures_match(space, pts)
        assert_visibility_matches(space, pts)


def test_torus3_bound3_matches_reference_loops():
    space = flagged_snapshot(Torus(3), 3)
    pts = sorted(space.concrete)
    assert (len(pts), len(space.families)) == (1450, 1198)
    assert_closures_match(space, pts)
    sample = random.Random(33).sample(pts, 120)
    assert assert_visibility_matches(space, sample) == len(sample)


def test_closures_on_a_finite_poset():
    poset = FinitePriestley(frozenset("ab"), [("a", "b")])
    whole = SymbolicSet(frozenset("ab"))
    assert down_closure_symbolic(poset, "b") == whole
    assert down_closure_symbolic(poset, "a") == SymbolicSet(frozenset("a"))
    assert up_closure_symbolic(poset, "a") == whole
    assert up_closure_symbolic(poset, "b") == SymbolicSet(frozenset("b"))
    assert gen_closure(poset, "a") == FlaggedPriestley(frozenset("ab"), [("a", "b")])
    assert gen_closure(poset, "b") == FlaggedPriestley(frozenset("b"), [])
    assert is_generically_noetherian(poset)
    assert weakly_visible(poset, "a") == SymbolicSet(frozenset("a"))
    assert weakly_visible(poset, "b") == whole
    with pytest.raises(TypeError):
        clopen_down_sets(poset)
    with pytest.raises(ValueError):
        FinitePriestley(frozenset("ab"), [], (AccumulationFamily("f", "a"),))


def test_a_finite_poset_answers_as_its_flagged_space():
    """A finite poset is a flagged space without families: every function
    that takes both gives the two the same answer, and the finite poset
    keeps the types the API promises for it."""
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 8)
        pts = ["p%d" % i for i in range(n)]
        pairs = [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        poset = FinitePriestley(frozenset(pts), pairs)
        space = FlaggedPriestley(frozenset(pts), pairs)
        assert thomason_heights(poset) == thomason_heights(space)
        assert cb_heights(poset) == cb_heights(space)
        assert type(thomason_points(poset)) is frozenset
        assert SymbolicSet(thomason_points(poset)) == thomason_points(space)
        assert is_noetherian(poset) and is_noetherian(space)
        assert is_generically_noetherian(poset) == is_generically_noetherian(space)
        for op in (thomason_derivative, inverse):
            derived = op(poset)
            assert type(derived) is FinitePriestley
            assert FlaggedPriestley(derived.points, derived.order) == op(space)
        for p in pts:
            assert down_closure_symbolic(poset, p) == down_closure_symbolic(space, p)
            assert up_closure_symbolic(poset, p) == up_closure_symbolic(space, p)
            assert weakly_visible(poset, p) == weakly_visible(space, p)
            closure = gen_closure(poset, p)
            assert type(closure) is FlaggedPriestley and closure == gen_closure(space, p)


def test_point_queries_reject_unknown_points():
    space = flagged_snapshot(O2(), 3)
    for query in (down_closure_symbolic, up_closure_symbolic, weakly_visible, gen_closure):
        with pytest.raises(ValueError, match="unknown point 'bogus'"):
            query(space, "bogus")


def test_point_queries_build_no_symbolic_up_closure(monkeypatch):
    # weak visibility reads the up-set off the order index and builds only
    # its witness; a generalization closure hands the principal up-set to
    # restrict and builds no symbolic set
    calls = 0
    plain = SymbolicSet.__init__

    def counting(self, *args):
        nonlocal calls
        calls += 1
        plain(self, *args)

    monkeypatch.setattr(SymbolicSet, "__init__", counting)
    spaces = [flagged_snapshot(O2(), 8), flagged_snapshot(Torus(2), 4)]
    spaces += seeded_random_spaces()[::10]
    built = 0
    for space in spaces:
        for p in sorted(space.concrete):
            calls = 0
            witness = weakly_visible(space, p)
            assert calls == (witness is not None), p
            built += calls
            calls = 0
            gen_closure(space, p)
            assert calls == 0, p
    assert built > 100
