"""Derivatives, heights, dispersion checks, strata, and visibility."""

import random
from math import inf

import pytest

from prism import (
    ALL,
    ANTICHAIN,
    DESCENDING,
    EMPTY,
    AccumulationFamily,
    ChecksFailed,
    DispersionCandidate,
    FinitePriestley,
    FlaggedPriestley,
    InconsistentHint,
    KeyMismatch,
    cb_heights,
    convergent_sequence_space,
    dimension_candidate,
    down_closure_symbolic,
    flagged_to_json,
    gen_closure,
    guiding_examples,
    height_of_space,
    instantiate,
    inverse,
    is_dispersible,
    is_dispersion,
    is_generically_noetherian,
    is_noetherian,
    rank_candidate,
    restrict,
    strata,
    thomason_derivative,
    thomason_heights,
    up_closure_symbolic,
    weakly_visible,
)
from prism import Circle, FiniteClass, FiniteGroup, O2, SO3, Torus, flagged_snapshot
from prism.errors import replace
from prism.oracles import catalog_spaces, check_derivative_vs_heights, snapshot_spaces
from prism.priestley import realize_in_truncation


def circle_snapshot(bound=3):
    return flagged_snapshot(Circle(), bound)


# ---------------------------------------------------------------------------
# derivative


def test_derivative_examples():
    trivial_order = convergent_sequence_space("unrelated")
    d = thomason_derivative(trivial_order)
    assert d.concrete == frozenset({"inf"}) and not d.families
    anti = FinitePriestley(frozenset("abc"), [])
    assert thomason_derivative(anti).points == frozenset()
    chain = convergent_sequence_space("descending-chain")
    assert thomason_derivative(chain) == chain  # fixed point, no Thomason points


def test_derivative_drops_consumed_family_bounds():
    below = convergent_sequence_space("limit-below")
    assert thomason_derivative(below) == below


# ---------------------------------------------------------------------------
# heights


def test_heights_circle():
    h = thomason_heights(circle_snapshot())
    assert h.heights == {"C(1)": 0, "C(2)": 0, "C(3)": 0, "G": 1}
    assert h.family_heights == {"cyclic": 0}


def test_heights_o2():
    h = thomason_heights(flagged_snapshot(O2(), 3))
    assert h.heights["SO2"] == 1 and h.heights["G"] == 1
    assert all(
        h.heights[n] == 0 for n in h.heights if n.startswith(("C(", "D("))
    )


def test_heights_limit_below_all_infinite():
    h = thomason_heights(convergent_sequence_space("limit-below"))
    assert h.heights["inf"] == inf
    assert h.family_heights["tail"] == inf


def test_guiding_verdicts():
    expected = [(True, 1), (True, 1), (False, None), (False, None)]
    for space, (disp, height) in zip(guiding_examples(), expected):
        assert is_dispersible(space) == disp
        if disp:
            assert height_of_space(space) == height
        else:
            assert height_of_space(space) == inf


def test_inconsistent_hint():
    bad = FlaggedPriestley(
        frozenset({"a", "b"}),
        [],
        (AccumulationFamily(id="f", limit="b", member_gt=frozenset({"a"}),
                            member_height_hint=0),),
    )
    with pytest.raises(InconsistentHint, match="^family f declares member height 0 below the forced 1$"):
        thomason_heights(bad)
    chain_hint = FlaggedPriestley(
        frozenset({"x"}),
        [],
        (AccumulationFamily(id="f", limit="x", member_order="descendingChain",
                            member_height_hint=3),),
    )
    with pytest.raises(InconsistentHint):
        thomason_heights(chain_hint)


def test_inconsistent_hint_below_an_infinite_floor():
    """A family above a descending chain, or on a cycle through its own
    limit, is forced to infinity, and the message says so."""
    above_chain = FlaggedPriestley(
        frozenset({"L", "M"}),
        [],
        (AccumulationFamily(id="d", limit="L", member_order=DESCENDING),
         AccumulationFamily(id="f", limit="M", member_gt=frozenset({"L"}),
                            member_height_hint=1)),
    )
    on_cycle = FlaggedPriestley(
        frozenset({"L"}),
        [],
        (AccumulationFamily(id="f", limit="L", member_gt=frozenset({"L"}),
                            member_height_hint=2),),
    )
    for space, hint in ((above_chain, 1), (on_cycle, 2)):
        with pytest.raises(InconsistentHint) as err:
            thomason_heights(space)
        assert str(err.value) == "family f declares member height %d below the forced inf" % hint


def test_candidate_values_must_be_naturals():
    circ = circle_snapshot()
    with pytest.raises(ValueError):
        is_dispersion(circ, DispersionCandidate(
            {"C(1)": -1, "C(2)": 0, "C(3)": 0, "G": 1, "cyclic": 0}))
    chain = FlaggedPriestley(frozenset("ab"), [("a", "b")], ())
    with pytest.raises(ValueError, match="not a natural"):
        is_dispersion(chain, DispersionCandidate({"a": False, "b": True}))


def test_candidate_keys_must_name_points_or_families():
    circ = circle_snapshot()
    values = {"C(1)": 0, "C(2)": 0, "C(3)": 0, "G": 1, "cyclic": 0}
    assert is_dispersion(circ, DispersionCandidate(values)) == (True, None)
    # the least unknown key by repr is named, before any value is checked
    with pytest.raises(ValueError, match="names no point or family: 'bogus'"):
        is_dispersion(circ, DispersionCandidate({**values, "zz": -5, "bogus": 5}))


def test_hint_raises_member_height():
    space = FlaggedPriestley(
        frozenset({"G"}),
        [],
        (AccumulationFamily(id="f", limit="G", member_lt=frozenset({"G"}),
                            member_height_hint=2),),
    )
    h = thomason_heights(space)
    assert h.family_heights["f"] == 2 and h.heights["G"] == 3


# ---------------------------------------------------------------------------
# Cantor-Bendixson comparison


def test_cb_heights_examples():
    lim_above = convergent_sequence_space("limit-above")
    th = thomason_heights(lim_above)
    cb = cb_heights(lim_above)
    assert cb.heights == th.heights and cb.family_heights == th.family_heights
    poset = FinitePriestley(frozenset("abc"), [("a", "b")])
    assert cb_heights(poset).heights == {"a": 0, "b": 0, "c": 0}
    circ = circle_snapshot()
    assert cb_heights(circ).heights == thomason_heights(circ).heights


def test_cb_differs_when_order_blocks():
    below = convergent_sequence_space("limit-below")
    assert not is_dispersible(below)
    assert cb_heights(below).heights["inf"] == 1  # topology alone is fine


def test_amenability_on_catalog():
    for space in catalog_spaces():
        th = thomason_heights(space)
        if not th.all_finite():
            continue
        cb = cb_heights(space)
        assert cb.heights == th.heights
        assert cb.family_heights == th.family_heights


# ---------------------------------------------------------------------------
# dispersion candidates


def test_is_dispersion_witness():
    circ = circle_snapshot()
    const = DispersionCandidate({p: 0 for p in list(circ.concrete) + ["cyclic"]})
    ok, witness = is_dispersion(circ, const)
    assert not ok and witness == ("order", "C(1)", "G")
    seq = convergent_sequence_space("limit-above")  # points 0..3 and inf
    with pytest.raises(ValueError, match="missing '3'"):
        is_dispersion(seq, DispersionCandidate({"0": 0, "1": 0, "2": 0, "inf": 1, "tail": 0}))
    with pytest.raises(ValueError, match="missing family 'tail'"):
        is_dispersion(seq, DispersionCandidate(dict.fromkeys(seq.concrete, 0)))


def test_dimension_and_rank_candidates():
    t2 = flagged_snapshot(Torus(2), 3)
    ok, witness = is_dispersion(t2, dimension_candidate(Torus(2), t2))
    assert ok, witness
    ok, witness = is_dispersion(t2, rank_candidate(Torus(2), t2))
    assert ok, witness
    assert is_dispersible(t2) and height_of_space(t2) == 2
    circ = circle_snapshot()
    foreign = FlaggedPriestley(
        circ.concrete, circ.order, circ.families + (AccumulationFamily("zz", "G"),)
    )
    # a finite group's snapshot has no families, so any family is foreign
    finite = FiniteGroup((FiniteClass("G", 1),))
    with_family = FlaggedPriestley({"G"}, [], (AccumulationFamily("zz", "G"),))
    for group, space in ((Circle(), foreign), (finite, with_family)):
        with pytest.raises(KeyMismatch, match="^unknown family 'zz'$"):
            dimension_candidate(group, space)


def test_universality_of_thomason_heights():
    # any dispersion dominates the Thomason height pointwise
    cases = [
        (Circle(), 3), (O2(), 3), (SO3(), 3), (Torus(1), 3), (Torus(2), 3),
    ]
    for group, bound in cases:
        space = flagged_snapshot(group, bound)
        heights = thomason_heights(space)
        for cand in (dimension_candidate(group, space), rank_candidate(group, space)):
            ok, witness = is_dispersion(space, cand)
            assert ok, (group, witness)
            for name in space.concrete:
                assert cand[name] >= heights.heights[name]
            for f in space.families:
                assert cand[f.id] >= heights.family_heights[f.id]


def test_monotonicity_of_heights():
    for space in catalog_spaces():
        h = thomason_heights(space)
        for (p, q) in space.order:
            if p != q and h.heights[p] != inf and h.heights[q] != inf:
                assert h.heights[p] < h.heights[q]


def test_finite_poset_heights_are_longest_chains():
    rng = random.Random(20260810)
    for _ in range(30):
        n = rng.randint(1, 10)
        pts = [chr(ord("a") + i) for i in range(n)]
        rel = [
            (pts[i], pts[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        poset = FinitePriestley(frozenset(pts), rel)
        h = thomason_heights(poset)

        def longest_chain_below(p, memo={}):
            best = 0
            for q in poset.points:
                if q != p and poset.le(q, p):
                    best = max(best, longest_chain_below(q) + 1)
            return best

        for p in pts:
            assert h.heights[p] == longest_chain_below(p)
        longest_chain_below.__defaults__[0].clear()


def test_derivative_agrees_with_heights():
    assert check_derivative_vs_heights(kmax=3) > 0


# ---------------------------------------------------------------------------
# strata


def test_strata_circle():
    circ = circle_snapshot()
    h = thomason_heights(circ)
    cand = DispersionCandidate({**h.heights, **h.family_heights})
    rep = strata(circ, cand, 1)
    assert rep.at_level.concrete == {"G"}
    assert rep.below.concrete == {"C(1)", "C(2)", "C(3)"}
    assert rep.below.portion("cyclic") == "all"
    rep0 = strata(circ, cand, 0)
    assert rep0.at_or_above.concrete == circ.concrete


def test_strata_o2():
    space = flagged_snapshot(O2(), 3)
    h = thomason_heights(space)
    cand = DispersionCandidate({**h.heights, **h.family_heights})
    rep = strata(space, cand, 1)
    assert rep.at_level.concrete == {"SO2", "G"}


def test_strata_rejects_non_dispersion():
    circ = circle_snapshot()
    bad = DispersionCandidate({p: 0 for p in list(circ.concrete) + ["cyclic"]})
    with pytest.raises(ChecksFailed):
        strata(circ, bad, 0)


def heights_candidate(space):
    h = thomason_heights(space)
    return DispersionCandidate({**h.heights, **h.family_heights})


def test_strata_rejects_a_level_not_a_natural():
    circ = circle_snapshot()
    for level in ("1", 1.5, -1, True):
        with pytest.raises(ValueError, match="is not a natural"):
            strata(circ, heights_candidate(circ), level)


def assert_strata_by_definition(space, candidate):
    """Every level from 0 to one past the top: the slice and the lower part
    hold exactly the points and whole families of value ``level`` and of
    value below it, and the upper part is the complement of the lower."""
    values = candidate.values
    for level in range(max(values.values(), default=0) + 2):
        report = strata(space, candidate, level)
        for part, keep in ((report.at_level, lambda v: v == level),
                           (report.below, lambda v: v < level),
                           (report.at_or_above, lambda v: v >= level)):
            assert part.concrete == {p for p in space.concrete if keep(values[p])}, level
            for f in space.families:
                assert part.portion(f.id) == (ALL if keep(values[f.id]) else EMPTY), level
        assert report.at_or_above == report.below.complement(space)


def test_strata_against_their_definition():
    rng = random.Random(5151)
    checked = 0
    for _ in range(300):
        space = random_presentation(rng)
        if space is None:
            continue
        try:
            heights = thomason_heights(space)
        except InconsistentHint:
            continue
        if not heights.all_finite():
            continue
        base = {**heights.heights, **heights.family_heights}
        # the heights, and a spread-out copy whose levels skip values
        for values in (base, {k: 2 * v + rng.randint(0, 1) for k, v in base.items()}):
            candidate = DispersionCandidate(values)
            if is_dispersion(space, candidate)[0]:
                assert_strata_by_definition(space, candidate)
                checked += 1
    assert checked >= 100, checked
    for group, bound in ((Circle(), 8), (SO3(), 8), (Torus(2), 4)):
        space = flagged_snapshot(group, bound)
        candidate = heights_candidate(space)
        assert is_dispersion(space, candidate) == (True, None)
        assert_strata_by_definition(space, candidate)


def test_verdict_is_each_spaces_own():
    up = FinitePriestley({"a", "b"}, [("a", "b")])
    down = FinitePriestley({"a", "b"}, [("b", "a")])
    candidate = DispersionCandidate({"a": 0, "b": 1})
    assert is_dispersion(up, candidate) == (True, None)
    assert is_dispersion(down, candidate) == (False, ("order", "b", "a"))
    with pytest.raises(ChecksFailed) as err:
        strata(down, candidate, 0)
    assert str(err.value) == "candidate is not a dispersion: ('order', 'b', 'a')"
    assert is_dispersion(up, candidate) == (True, None)
    assert strata(up, candidate, 1).at_level.concrete == {"b"}


def test_candidate_keeps_its_own_values():
    space = FinitePriestley({"a", "b"}, [("a", "b")])
    values = {"a": 0, "b": 1}
    candidate = DispersionCandidate(values)
    assert is_dispersion(space, candidate) == (True, None)
    values["b"] = 0
    assert candidate.values == {"a": 0, "b": 1}
    assert is_dispersion(space, candidate) == (True, None)
    assert is_dispersion(space, DispersionCandidate(values)) == (False, ("order", "a", "b"))
    # the values are read-only, so the kept verdict cannot go stale
    with pytest.raises(TypeError):
        candidate.values["b"] = 0
    with pytest.raises(TypeError):
        del candidate.values["b"]
    assert candidate.values == {"a": 0, "b": 1}
    fresh = DispersionCandidate({"a": 0, "b": 1})
    assert is_dispersion(space, candidate) == is_dispersion(space, fresh) == (True, None)


def test_strata_check_the_axioms_once(monkeypatch):
    import prism.dispersion

    calls, check = [], prism.dispersion._check_axioms
    monkeypatch.setattr(prism.dispersion, "_check_axioms",
                        lambda space, candidate: calls.append(space) or check(space, candidate))
    circ = circle_snapshot()
    candidate = heights_candidate(circ)
    assert is_dispersion(circ, candidate) == (True, None)
    for level in range(5):
        strata(circ, candidate, level)
    assert len(calls) == 1
    # a candidate that is not total raises on every call: no verdict is kept
    partial = DispersionCandidate(dict(thomason_heights(circ).heights))
    for _ in range(2):
        with pytest.raises(ValueError, match="not total"):
            strata(circ, partial, 0)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# weak visibility


def test_weakly_visible_examples():
    circ = circle_snapshot()
    w = weakly_visible(circ, "G")
    assert w is not None and w.concrete == circ.concrete
    w = weakly_visible(circ, "C(2)")
    assert w is not None and w.concrete == {"C(2)"}
    chain = convergent_sequence_space("descending-chain")
    assert weakly_visible(chain, "inf") is None
    # members below Y converge to X above Y: a clopen down-set holding Y
    # holds all the members, so X, which lies in the up-closure of Y
    offside = FlaggedPriestley({"X", "Y"}, {("Y", "X")}, (
        AccumulationFamily("f", "X", member_lt={"Y"}),
    ))
    assert weakly_visible(offside, "Y") is None
    assert weakly_visible(offside, "X") is not None
    # a < (members of f1) < c < (members of f2) < b < a is a cycle
    with pytest.raises(ValueError, match="^order is not antisymmetric on "):
        FlaggedPriestley({"a", "b", "c"}, {("b", "a")}, (
            AccumulationFamily("f1", "a", member_gt={"a"}, member_lt={"c"}),
            AccumulationFamily("f2", "c", member_gt={"c"}, member_lt={"b"}),
        ))


def test_weakly_visible_pulls_in_offside_limits():
    # members below Y converge to an unrelated X; any clopen down-set
    # containing Y must contain all members, hence X as well
    space = FlaggedPriestley(
        frozenset({"X", "Y"}),
        [],
        (AccumulationFamily(id="f", limit="X", member_lt=frozenset({"Y"})),),
    )
    w = weakly_visible(space, "Y")
    assert w is not None
    assert w.concrete == {"X", "Y"}
    assert w.portion("f") == "all"


def test_weakly_visible_everywhere_on_dispersible():
    for space in catalog_spaces():
        if not is_dispersible(space):
            continue
        for p in sorted(space.concrete):
            witness = weakly_visible(space, p)
            assert witness is not None, (sorted(space.concrete), p)
            assert p in witness.concrete


# ---------------------------------------------------------------------------
# generalization closures


def test_gen_closure_examples():
    circ = circle_snapshot(6)
    g = gen_closure(circ, "C(6)")
    assert g.concrete == {"C(6)", "G"} and not g.families
    assert is_noetherian(g)
    o2 = flagged_snapshot(O2(), 3)
    assert gen_closure(o2, "D(6)").concrete == {"D(6)"}
    assert is_generically_noetherian(o2)


def test_generically_noetherian_catalog():
    # group snapshots only: the chain guiding examples are honest
    # counterexamples (their bottom point generalizes to everything)
    for space in snapshot_spaces():
        assert is_generically_noetherian(space)
    assert not is_generically_noetherian(convergent_sequence_space("descending-chain"))
    assert not is_generically_noetherian(convergent_sequence_space("limit-below"))


def test_gen_closure_keeps_a_family_above_a_point_above_the_point():
    # p < q < L with q a lower bound of f: f's members lie above p too
    f = AccumulationFamily("f", "L", member_lt=frozenset({"L"}), member_gt=frozenset({"q"}))
    space = FlaggedPriestley(frozenset({"p", "q", "L"}), [("p", "q"), ("q", "L")], (f,))
    closure = gen_closure(space, "p")
    assert closure.family_ids() == ("f",) and closure.family("f").member_gt == {"q"}


def test_is_noetherian_does_not_depend_on_the_presentation_of_the_order():
    # with x < L, the limit lies above the members whether or not L is listed
    fams = [AccumulationFamily("f", "L", member_lt=lt) for lt in ({"x"}, {"x", "L"})]
    spaces = [FlaggedPriestley(frozenset({"x", "L"}), [("x", "L")], (f,)) for f in fams]
    assert [is_noetherian(s) for s in spaces] == [True, True]


def test_inverse_of_dispersible_need_not_be():
    lim_above = convergent_sequence_space("limit-above")
    assert is_dispersible(lim_above)
    assert not is_dispersible(inverse(lim_above))


# ---------------------------------------------------------------------------
# the family-blocking surrogate for the second dispersion axiom


def symbolic_closed_sets(space):
    """Every symbolic subset that satisfies the closure rule."""
    from itertools import product
    from prism import SymbolicSet

    pts = sorted(space.concrete)
    fams = [f.id for f in space.families]
    out = []
    for mask in range(1 << len(pts)):
        concrete = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
        for tags in product(("empty", "finite", "cofinite", "all"), repeat=len(fams)):
            s = SymbolicSet(concrete, dict(zip(fams, tags)))
            if s.is_closed(space):
                out.append(s)
    return out


def axiom_two_on_closed_sets(space, candidate):
    """Literal second axiom: every non-isolated point of every closed set
    sees infinitely many smaller values inside the set.  Non-isolated
    points of a symbolic set are the limits of families contributing
    infinitely many members; the infinitely many witnesses must likewise
    be members of some infinite portion."""
    for s in symbolic_closed_sets(space):
        for f in space.families:
            if s.portion(f.id) not in ("cofinite", "all"):
                continue
            a = f.limit  # non-isolated in s
            witnessed = any(
                s.portion(g.id) in ("cofinite", "all")
                and candidate[g.id] < candidate[a]
                for g in space.families
            )
            if not witnessed:
                return False
    return True


def test_surrogate_axiom_matches_closed_set_check():
    # exhaustive equivalence on small instances: the family-blocking
    # check equals the literal quantification over closed subsets
    rng = random.Random(11)
    spaces = [
        circle_snapshot(2),
        flagged_snapshot(O2(), 2),
        convergent_sequence_space("limit-above"),
        convergent_sequence_space("unrelated"),
    ]
    for space in spaces:
        names = sorted(space.concrete) + [f.id for f in space.families]
        for trial in range(40):
            candidate = DispersionCandidate(
                {n: rng.randint(0, 2) for n in names}
            )
            ok, _ = is_dispersion(space, candidate)
            surrogate = all(
                candidate[f.id] < candidate[f.limit] for f in space.families
            )
            assert surrogate == axiom_two_on_closed_sets(space, candidate)
            if ok:
                assert surrogate


# ---------------------------------------------------------------------------
# randomized cross-checks against the finite truncation


def random_flagged_space(rng):
    """Points p0, p1, ... with every order pair rising in index; each
    family's upper bounds come after its lower bounds in that index, so
    no family closes a cycle."""
    n = rng.randint(2, 8)
    pts = ["p%d" % i for i in range(n)]
    order = [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    fams = []
    for k in range(rng.randint(0, 4)):
        cut = rng.randint(0, n)
        chain = rng.random() < 0.3
        fams.append(
            AccumulationFamily(
                id="f%d" % k,
                limit=rng.choice(pts),
                member_order=DESCENDING if chain else ANTICHAIN,
                member_gt=frozenset(p for p in pts[:cut] if rng.random() < 0.4),
                member_lt=frozenset(p for p in pts[cut:] if rng.random() < 0.4),
                member_height_hint=None if chain or rng.random() < 0.7 else rng.randint(0, 2),
            )
        )
    return FlaggedPriestley(frozenset(pts), order, tuple(fams))


def test_random_spaces_against_truncation():
    rng = random.Random(20261018)
    verdicts = set()
    witnesses = 0
    for _ in range(300):
        space = random_flagged_space(rng)
        for depth in (1, 3):
            finite = instantiate(space, depth)
            for p in space.concrete:
                up = up_closure_symbolic(space, p)
                down = down_closure_symbolic(space, p)
                assert realize_in_truncation(space, up, depth) == finite.up_closure(p)
                assert realize_in_truncation(space, down, depth) == finite.down_closure(p)
                # a witness is a down-set of the truncation meeting the
                # point's up-set there in the point alone
                witness = weakly_visible(space, p)
                if witness is not None:
                    realized = realize_in_truncation(space, witness, depth)
                    assert finite.is_down_set(realized), (p, witness)
                    assert realized & finite.up_closure(p) == {p}, (p, witness)
                    witnesses += 1
        # the per-point definition: every generalization closure is Noetherian
        reference = all(is_noetherian(gen_closure(space, p)) for p in space.concrete)
        assert is_generically_noetherian(space) == reference
        verdicts.add(reference)
        assert flagged_to_json(inverse(inverse(space))) == flagged_to_json(space)
    assert verdicts == {True, False}
    assert witnesses == 2532  # of 3092 points


def test_noetherian_verdicts_and_gen_closures_against_truncation():
    """Against the depth-2 truncation: a space is Noetherian exactly when
    every limit lies above its family's first member; the generalization
    closure of a point holds the concrete points above it, in the order
    the truncation induces on them, and the families whose first member
    lies above it and whose limit is kept; the space is generically
    Noetherian exactly when every such closure is Noetherian.  Draw 2529
    has a family whose members lie above the point while its limit does
    not, and the relations through them still count."""
    rng = random.Random(5)
    verdicts = set()
    for _ in range(2600):
        space = random_flagged_space(rng)
        finite = instantiate(space, 2)
        first = {f.id: finite.up_closure("%s#0" % f.id) for f in space.families}
        verdict = all(f.limit in first[f.id] for f in space.families)
        assert is_noetherian(space) == verdict
        verdicts.add(verdict)
        generic = True
        for p in space.concrete:
            above = finite.up_closure(p)
            closure = gen_closure(space, p)
            assert closure.concrete == above & space.concrete
            induced = {(a, b) for (a, b) in finite.order if {a, b} <= closure.concrete}
            assert closure.order == induced
            kept = [f.id for f in space.families if "%s#0" % f.id in above and f.limit in above]
            assert closure.family_ids() == tuple(kept)
            generic = generic and all(space.family(fid).limit in first[fid] for fid in kept)
        assert is_generically_noetherian(space) == generic
    assert verdicts == {True, False}


def fixed_point_heights(space):
    """Heights by saturating chaotic iteration, the reference for the
    longest-path pass: every value is raised until nothing changes, and a
    value that reaches the cap (more than any finite height can be) reads
    as infinite.  Returns (heights, family heights, inconsistent hint)."""
    cap = (
        len(space.concrete)
        + len(space.families)
        + sum(f.member_height_hint or 0 for f in space.families)
        + 1
    )
    h = dict.fromkeys(space.concrete, 0)
    fam = {f.id: 0 for f in space.families}
    changed = True
    while changed:
        changed = False
        for f in space.families:
            if f.member_order == DESCENDING:
                value = cap
            else:
                value = max([0, f.member_height_hint or 0] + [h[c] + 1 for c in f.member_gt])
            if min(value, cap) != fam[f.id]:
                fam[f.id] = min(value, cap)
                changed = True
        for p in space.concrete:
            value = max(
                [0]
                + [h[q] + 1 for q in space.concrete if q != p and (q, p) in space.order]
                + [fam[f.id] + 1 for f in space.families if p in f.member_lt | {f.limit}]
            )
            if min(value, cap) != h[p]:
                h[p] = min(value, cap)
                changed = True
    heights = {p: inf if v >= cap else v for p, v in h.items()}
    fam_heights = {fid: inf if v >= cap else v for fid, v in fam.items()}
    inconsistent = any(
        f.member_height_hint is not None
        and (
            f.member_order == DESCENDING
            or f.member_height_hint < max([0] + [heights[c] + 1 for c in f.member_gt])
        )
        for f in space.families
    )
    return heights, fam_heights, inconsistent


def random_presentation(rng):
    """A random flagged space whose families may close cycles (a limit at
    or below a lower bound of the members), or None when the build rejects
    the draw (an order cycle, one through family members included)."""
    n = rng.randint(1, 9)
    pts = ["p%d" % i for i in range(n)]
    order = [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
    fams = []
    for k in range(rng.randint(0, 4)):
        gt = frozenset(p for p in pts if rng.random() < 0.2)
        fams.append(
            AccumulationFamily(
                id="f%d" % k,
                limit=rng.choice(pts),
                member_order=DESCENDING if rng.random() < 0.2 else ANTICHAIN,
                member_gt=gt,
                member_lt=frozenset(p for p in pts if p not in gt and rng.random() < 0.2),
                member_height_hint=None if rng.random() < 0.6 else rng.randint(0, 3),
            )
        )
    try:
        return FlaggedPriestley(frozenset(pts), order, tuple(fams))
    except ValueError:
        return None


def test_random_heights_against_fixed_point():
    rng = random.Random(4040)
    seen = {"rejected": 0, "inconsistent": 0, "infinite": 0, "cycle": 0, "finite": 0}
    for _ in range(1500):
        space = random_presentation(rng)
        if space is None:
            seen["rejected"] += 1
            continue
        for p in space.concrete:
            assert space.down_closure(p) == {q for q in space.concrete if space.le(q, p)}
            assert space.up_closure(p) == {q for q in space.concrete if space.le(p, q)}
        heights, fam_heights, inconsistent = fixed_point_heights(space)
        if inconsistent:
            seen["inconsistent"] += 1
            with pytest.raises(InconsistentHint):
                thomason_heights(space)
            continue
        ha = thomason_heights(space)
        assert ha.heights == heights and ha.family_heights == fam_heights
        if ha.all_finite():
            seen["finite"] += 1
        elif all(f.member_order == ANTICHAIN for f in space.families):
            seen["cycle"] += 1  # infinite through a family cycle alone
        else:
            seen["infinite"] += 1
    assert min(seen.values()) >= 20, seen


def assert_equals_rebuild(sub, order):
    """A derived space equals the public constructor's build of its points,
    its families and the order ``order`` of its parent induces on its
    points, and both answer the principal closures alike.  Its cover
    index, handed down by a derivative or built on first read, is the
    one the build makes from its covers, and its minimal points are
    those no cover ends at and no family has in member_lt."""
    points = sub.points if isinstance(sub, FinitePriestley) else sub.concrete
    induced = [(a, b) for (a, b) in order if a in points and b in points]
    if isinstance(sub, FinitePriestley):
        built = FinitePriestley(points, induced)
    else:
        built = FlaggedPriestley(points, induced, sub.families)
    assert sub == built
    for p in points:
        assert sub.down_closure(p) == built.down_closure(p)
        assert sub.up_closure(p) == built.up_closure(p)
    (above, indegree), (built_above, built_indegree) = sub._cover_index, built._cover_index
    assert {a: sorted(v) for a, v in above.items()} == {a: sorted(v) for a, v in built_above.items()}
    assert indegree == built_indegree
    blocked = {b for (_, b) in sub.covers}.union(*(f.member_lt for f in sub.families))
    assert sub.minimal_concrete() == points - blocked


class Untouchable(list):
    """A cover list that fails when walked."""

    def __iter__(self):
        raise AssertionError("a cover of a kept point was walked")


def test_a_derivative_hands_its_cover_index_down():
    """A derivative walks only the covers leaving the points it removes,
    and stores its cover index in the result: the parent's, less the
    removed points, with the parent's own cover lists of the kept ones.
    So a chain of derivatives builds the index once."""
    rng = random.Random(2929)
    spaces = [flagged_snapshot(Torus(2), 4), circle_snapshot(8)]
    while len(spaces) < 60:
        n = rng.randint(2, 9)
        spaces.append(random_presentation(rng) or FinitePriestley(
            frozenset(range(n)),
            [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4],
        ))
    steps = 0
    for space in spaces:
        current = space
        for _ in range(3):
            above = current._cover_index[0]
            cut = current.concrete - thomason_derivative(current).concrete
            for a in above.keys() - cut:
                above[a] = Untouchable(above[a])
            child = thomason_derivative(current)
            assert "_cover_index" in vars(child)
            kept = vars(child)["_cover_index"][0]
            assert kept.keys() == above.keys() - cut
            assert all(kept[a] is above[a] for a in kept)
            steps += bool(cut and kept)
            for a in kept:
                above[a] = kept[a] = kept[a][:]
            assert_equals_rebuild(child, space.order)
            current = child
    assert steps >= 50


def test_derived_spaces_equal_their_rebuild():
    rng = random.Random(5151)
    dropped_limits = 0
    for _ in range(300):
        space = random_presentation(rng)
        if space is None:
            continue
        n = rng.randint(1, 9)
        pts = list(range(n))
        poset = FinitePriestley(
            frozenset(pts),
            [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3],
        )
        for current in (space, poset):
            order = current.order
            for _ in range(3):
                current = thomason_derivative(current)
                assert_equals_rebuild(current, order)
        for p in space.concrete:
            assert_equals_rebuild(gen_closure(space, p), space.order)
        seeds = [p for p in space.concrete if rng.random() < 0.4]
        down = frozenset().union(*(space.down_closure(p) for p in seeds))
        sub = restrict(space, down, space.family_ids())
        assert_equals_rebuild(sub, space.order)
        # families whose limit fell outside the down-set must be dropped
        dropped_limits += len(space.families) - len(sub.families)
    assert dropped_limits >= 50


def test_inverse_equals_the_constructor_build(monkeypatch):
    """``inverse`` assembles its result from the reversed covers, running no
    space constructor; it equals the public constructor's build of the
    reversed order with the family bounds swapped, with the same covers,
    class and principal closures."""
    rng = random.Random(7373)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 9)
        poset = FinitePriestley(
            frozenset(range(n)),
            [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3],
        )
        for space in (random_flagged_space(rng), random_presentation(rng), poset):
            if space is not None:
                built = type(space)(
                    space.concrete,
                    [(b, a) for (a, b) in space.order],
                    [replace(f, member_lt=f.member_gt, member_gt=f.member_lt)
                     for f in space.families],
                )
                cases.append((space, built))
    assert sum(isinstance(s, FinitePriestley) for s, _ in cases) == 200
    assert sum(bool(s.families) for s, _ in cases) >= 200

    def constructed(space):
        raise AssertionError("inverse ran a space constructor")

    for cls in (FlaggedPriestley, FinitePriestley):
        monkeypatch.setattr(cls, "__post_init__", constructed)
    for space, built in cases:
        flipped = inverse(space)
        assert type(flipped) is type(space)
        assert flipped == built and flipped.covers == built.covers
        assert flipped.order == built.order
        for p in space.concrete:
            assert flipped.down_closure(p) == space.up_closure(p)
            assert flipped.up_closure(p) == space.down_closure(p)
        assert inverse(flipped) == space


# ---------------------------------------------------------------------------
# covers against a brute-force transitive reduction


def naive_closure(points, pairs):
    closed = {(p, p) for p in points} | set(pairs)
    while True:
        grow = {(a, d) for (a, b) in closed for (c, d) in closed if b == c} - closed
        if not grow:
            return closed
        closed |= grow


def naive_covers(closed, points):
    """The transitive reduction of the closed order ``closed`` restricted
    to ``points``: strict pairs with no point of ``points`` between."""
    return {
        (a, b)
        for (a, b) in closed
        if a != b and a in points and b in points
        and not any((a, c) in closed and (c, b) in closed for c in points if c not in (a, b))
    }


def assert_covers(space, closed):
    points = space.points if isinstance(space, FinitePriestley) else space.concrete
    assert space.covers == naive_covers(closed, points)
    assert space.order == {(a, b) for (a, b) in closed if a in points and b in points}
    assert_equals_rebuild(space, closed)


def test_covers_against_brute_force_reduction():
    rng = random.Random(6262)
    non_convex = 0
    for _ in range(300):
        space = random_presentation(rng)
        if space is None:
            continue
        n = rng.randint(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        poset = FinitePriestley(frozenset(range(n)), pairs)
        closed_space = naive_closure(space.concrete, space.order)
        closed_poset = naive_closure(poset.points, pairs)
        assert_covers(poset, closed_poset)
        for current, closed in ((space, closed_space), (poset, closed_poset)):
            for _ in range(3):
                current = thomason_derivative(current)
                assert_covers(current, closed)
        for p in space.concrete:
            assert_covers(gen_closure(space, p), closed_space)
        seeds = [p for p in sorted(space.concrete) if rng.random() < 0.4]
        down = frozenset().union(*(space.down_closure(p) for p in seeds))
        assert_covers(restrict(space, down, space.family_ids()), closed_space)
        for _ in range(3):
            subset = frozenset(p for p in sorted(space.concrete) if rng.random() < 0.5)
            non_convex += any(
                (a, c) in closed_space and (c, b) in closed_space
                for a in subset for b in subset for c in space.concrete - subset
            )
            assert_covers(restrict(space, subset, space.family_ids()), closed_space)
    assert non_convex >= 40
    chain = FlaggedPriestley(frozenset("abc"), [("a", "b"), ("b", "c")], ())
    assert restrict(chain, {"a", "c"}, []).covers == {("a", "c")}


# ---------------------------------------------------------------------------
# dispersion witnesses against a full pair scan


def test_passing_candidates_dominate_the_heights():
    """A candidate passing the axioms is strictly monotone, so it dominates
    the heights of the presentation, member height hints included, and none
    passes where a height is infinite, as above a descending chain.  Where
    the hints are inconsistent (one on a chain, or under its members'
    floor) the heights are taken without them, and a passing candidate
    still sits at or above every hint.  The candidates include the heights
    with each chain read as an antichain, which satisfy every axiom but the
    chain's."""

    def hinted_heights(space):
        try:
            return thomason_heights(space)
        except InconsistentHint:
            return thomason_heights(replace(space, families=tuple(
                replace(f, member_height_hint=None) for f in space.families)))

    rng = random.Random(8484)
    seen = {"pass": 0, "chain": 0}
    for _ in range(600):
        space = random_presentation(rng)
        if space is None:
            continue
        flat = replace(space, families=tuple(
            replace(f, member_order=ANTICHAIN) for f in space.families))
        heights, flat_heights = hinted_heights(space), hinted_heights(flat)
        names = sorted(space.concrete) + list(space.family_ids())
        top = len(names) + 1
        candidates = [{k: rng.randint(0, 4) for k in names}]
        for ha in (heights, flat_heights):
            candidates.append({k: top if ha[k] == inf else ha[k] for k in names})
        seen["chain"] += flat_heights.all_finite() and not heights.all_finite()
        for values in candidates:
            if is_dispersion(space, DispersionCandidate(values))[0]:
                seen["pass"] += 1
                assert all(values[k] >= heights[k] for k in names), values
                assert all(values[f.id] >= (f.member_height_hint or 0) for f in space.families)
    assert seen["pass"] >= 300 and seen["chain"] >= 40, seen


def test_candidate_below_a_family_hint_fails():
    """The hint is the members' height, and a dispersion dominates it."""
    space = FlaggedPriestley({"L"}, [], (AccumulationFamily("f", "L", member_height_hint=3),))
    assert is_dispersion(space, DispersionCandidate({"L": 1, "f": 0})) == (
        False, ("family-hint", "f"))
    assert is_dispersion(space, DispersionCandidate({"L": 4, "f": 3})) == (True, None)


def reference_dispersion(space, closed, values):
    """is_dispersion by a scan of every strict pair of ``closed``; a
    descending-chain family has no strictly monotone natural values."""
    broken = [(p, q) for (p, q) in closed if p != q and not values[p] < values[q]]
    if broken:
        return False, ("order",) + min(broken)
    for f in space.families:
        for c in sorted(f.member_lt):
            if not values[f.id] < values[c]:
                return False, ("family-order", f.id, c)
        for c in sorted(f.member_gt):
            if not values[c] < values[f.id]:
                return False, ("family-order", c, f.id)
    for f in space.families:
        if not values[f.id] < values[f.limit]:
            return False, ("family-limit", f.id, f.limit)
    for f in space.families:
        if f.member_order == DESCENDING:
            return False, ("family-order", f.id, f.id)
    for f in space.families:
        if f.member_height_hint is not None and values[f.id] < f.member_height_hint:
            return False, ("family-hint", f.id)
    return True, None


def assert_slice_structure(space, report, level):
    """What strata no longer checks: the axioms make the lower part an open
    down-set, the upper part a closed up-set, and the slice isolated and
    minimal inside the upper part."""
    at, lo, hi = report.at_level, report.below, report.at_or_above
    assert lo.is_open(space) and lo.is_down_set(space), level
    assert hi.is_closed(space) and hi.is_up_set(space), level
    for p in at.concrete:
        assert space.down_closure(p) & hi.concrete == {p}
        for f in space.families:
            if hi.portion(f.id) != EMPTY:
                assert p not in f.member_lt and f.limit != p
    for f in space.families:
        if at.portion(f.id) != EMPTY:
            assert f.member_gt.isdisjoint(hi.concrete)


def test_dispersion_witness_against_full_scan():
    rng = random.Random(7373)
    seen = {"pass": 0, "order": 0, "family-order": 0, "family-limit": 0, "family-hint": 0}
    for _ in range(400):
        space = random_presentation(rng)
        if space is None:
            continue
        try:
            heights = thomason_heights(space)
        except InconsistentHint:
            continue
        closed = naive_closure(space.concrete, space.order)
        names = sorted(space.concrete) + list(space.family_ids())
        top = len(names) + sum(f.member_height_hint or 0 for f in space.families) + 1
        base = {**heights.heights, **heights.family_heights}
        base = {k: top if v == inf else v for k, v in base.items()}
        candidates = [base, {k: rng.randint(0, 3) for k in names}]
        for _ in range(3):
            nudged = dict(base)
            nudged[rng.choice(names)] = rng.randint(0, top)
            candidates.append(nudged)
        for f in space.families:
            if f.member_height_hint:  # a family one below its hint
                candidates.append({**base, f.id: f.member_height_hint - 1})
        for values in candidates:
            candidate = DispersionCandidate(values)
            expected = reference_dispersion(space, closed, values)
            assert is_dispersion(space, candidate) == expected
            seen["pass" if expected[0] else expected[1][0]] += 1
            for level in sorted(set(values.values()))[:3]:
                if expected[0]:
                    assert_slice_structure(space, strata(space, candidate, level), level)
                else:
                    message = "candidate is not a dispersion: %r" % (expected[1],)
                    with pytest.raises(ChecksFailed) as err:
                        strata(space, candidate, level)
                    assert str(err.value) == message
    assert min(seen.values()) >= 30, seen
