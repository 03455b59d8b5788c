"""Catalog groups: keys, cotoral order, heights, Weyl data, snapshots."""

import itertools
import json
import random
from math import inf
from pathlib import Path

import pytest

from prism import (
    NSU3T,
    A4Key,
    A5Key,
    Circle,
    Cyc,
    Dih,
    DimTooLarge,
    DualLattice,
    FiniteClass,
    FiniteGroup,
    FiniteIdx,
    FullKey,
    IntegerAction,
    KeyMismatch,
    KleinKey,
    NotInvariant,
    O2,
    O2Key,
    S4Key,
    SO2Key,
    SO3,
    ToralSemidirect,
    Torus,
    UnsupportedGroup,
    WeylData,
    burnside_rank,
    cotoral_le,
    count_simple_summands,
    dimension_candidate,
    finite_group_from_json,
    finite_weyl_criterion,
    flagged_snapshot,
    flagged_to_json,
    group_from_spec,
    group_rank,
    has_finite_weyl,
    height_rep,
    is_noetherian,
    key_dimension,
    key_name,
    key_rank,
    normalizer_directions,
    parse_key,
    phi_is_finite,
    rank_candidate,
    restrict,
    snapshot_keys,
    snapshot_parts,
    spectrum_is_noetherian,
    thomason_heights,
    toral_semidirect_from_json,
    weyl_data,
)
from prism import intlinalg as la, liegroups
from prism.cube import build_decomposition
from prism.errors import replace
from prism.liegroups import _box_points, _hnf_lattices
from prism.oracles import CATALOG_SWEEP, check_cotoral_order, check_snf_torsion


def sym3():
    return FiniteGroup((
        FiniteClass("1", 6, "S3"),
        FiniteClass("C2", 1),
        FiniteClass("C3", 2, "C2"),
        FiniteClass("S3", 1),
    ))


# ---------------------------------------------------------------------------
# cotoral order


def test_cotoral_tables():
    assert cotoral_le(Circle(), Cyc(6), FullKey())
    assert cotoral_le(Circle(), Cyc(6), Cyc(6))
    assert not cotoral_le(Circle(), Cyc(2), Cyc(6))
    assert not cotoral_le(O2(), Dih(3), FullKey())
    assert cotoral_le(O2(), Cyc(5), SO2Key())
    assert not cotoral_le(O2(), Cyc(5), FullKey())
    assert cotoral_le(SO3(), Cyc(2), SO2Key())
    assert not cotoral_le(SO3(), KleinKey(), S4Key())
    g = sym3()
    assert cotoral_le(g, FiniteIdx(1), FiniteIdx(1))
    assert not cotoral_le(g, FiniteIdx(0), FiniteIdx(3))


def test_cotoral_lattices():
    t2 = Torus(2)
    line = DualLattice(2, ((1, 0),))
    doubled = DualLattice(2, ((2, 0),))
    assert not cotoral_le(t2, line, doubled)  # quotient has 2-torsion
    trivial = DualLattice(2, ((1, 0), (0, 1)))
    assert cotoral_le(t2, trivial, line)  # circle over the trivial group
    assert not cotoral_le(t2, trivial, doubled)  # disconnected target
    full = DualLattice(2, ())
    assert cotoral_le(t2, trivial, full)
    assert cotoral_le(t2, doubled, full)
    assert cotoral_le(t2, line, full)


def test_cotoral_is_partial_order_on_snapshots():
    for group, bound in [(O2(), 3), (SO3(), 3), (Torus(2), 2)]:
        keys = list(snapshot_keys(group, bound).values())
        for a in keys:
            assert cotoral_le(group, a, a)
            for b in keys:
                if cotoral_le(group, a, b) and cotoral_le(group, b, a):
                    assert a == b
                for c in keys:
                    if cotoral_le(group, a, b) and cotoral_le(group, b, c):
                        assert cotoral_le(group, a, c)


def test_proper_cotoral_increases_dimension():
    for group, bound in [(Circle(), 4), (O2(), 4), (SO3(), 4), (Torus(2), 2)]:
        keys = list(snapshot_keys(group, bound).values())
        for a in keys:
            for b in keys:
                if a != b and cotoral_le(group, a, b):
                    assert key_dimension(group, a) < key_dimension(group, b)


def test_snf_vs_coset_enumeration():
    assert check_snf_torsion() > 0


def test_torus_order_vs_all_pairs():
    assert check_cotoral_order() == 87283


@pytest.mark.parametrize("group, bound, n_keys, n_pairs", [
    (Torus(2), 12, 1249, 9718),
    (Torus(3), 3, 1450, 18267),
    (Torus(2), 6, 211, 1153),
])
def test_torus_order_index_vs_cotoral_le(group, bound, n_keys, n_pairs):
    """The lattice-point index behind the torus order gives, for each key K
    of a small snapshot and for sampled keys of a large one, exactly the
    mixed-corank keys H with cotoral_le(K, H), in key order; the counts
    are those of the all-pairs build."""
    keys, order_pairs, _, _ = group._snapshot(bound)
    assert (len(keys), len(order_pairs)) == (n_keys, n_pairs)
    above = {name: [] for name in keys}
    for a, b in order_pairs:
        above[a].append(b)
    rng = random.Random(9000 + 10 * group.rank + bound)
    # every key of T^2 at bound 6, a rung of the catalog benchmark, takes 0.2 s
    for a in sorted(keys) if len(keys) < 500 else rng.sample(sorted(keys), 20):
        expected = [
            b for b in keys
            if keys[b].corank() > keys[a].corank() and cotoral_le(group, keys[a], keys[b])
        ]
        assert above[a] == expected, a


@pytest.mark.parametrize("rank, bound", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_torus_families_against_the_definition(rank, bound):
    """A family conv:H stands for subgroups K of H one dimension lower that
    the bound cannot tell from H.  Take u the first unit vector off the
    rational span of L_H and m a prime past the bound: L_K = L_H + Z m u
    meets the box [-b, b]^r where L_H does, K lies below H, below exactly
    the family's upper bounds and above no key, and its dimension is the
    family's height hint."""
    group, m = Torus(rank), 101
    keys = snapshot_keys(group, bound)
    box = list(itertools.product(range(-bound, bound + 1), repeat=rank))
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    for fam in flagged_snapshot(group, bound).families:
        h = keys[fam.limit]
        u = next(e for e in units if len(DualLattice(rank, h.rows + (e,)).rows) > len(h.rows))
        k = DualLattice(rank, h.rows + (tuple(m * x for x in u),))
        assert [v for v in box if la.solve_in_lattice(k.rows, v) is not None] == [
            v for v in box if la.solve_in_lattice(h.rows, v) is not None
        ], fam.id
        assert cotoral_le(group, k, h), fam.id
        for name, x in keys.items():
            assert cotoral_le(group, k, x) == (name in fam.member_lt), (fam.id, name)
            assert not cotoral_le(group, x, k), (fam.id, name)
        assert k.corank() == (fam.member_height_hint or 0), fam.id


@pytest.mark.parametrize("group", [Circle(), O2(), SO3()], ids=repr)
def test_one_dim_family_samples_against_the_order(group):
    """Each family's samples, the members just past the bound, lie below
    exactly the family's upper bounds and above no key."""
    for bound in (2, 3, 4, 16):
        keys = snapshot_keys(group, bound)
        for fam in flagged_snapshot(group, bound).families:
            assert len(fam.samples) == 3, fam.id
            for sample in fam.samples:
                s = parse_key(group, sample)
                assert sample not in keys
                for name, x in keys.items():
                    assert cotoral_le(group, s, x) == (name in fam.member_lt), (sample, name)
                    assert not cotoral_le(group, x, s), (sample, name)


@pytest.mark.parametrize("rank, bound", [(2, 4), (2, 6), (3, 2)])
def test_box_points_vs_scan(rank, bound):
    """For every key of at least two rows, the listed points are the origin
    and the lattice points of the box [-b, b]^r whose first nonzero entry
    is positive, each with its coordinates in the key's basis."""
    box = list(itertools.product(range(-bound, bound + 1), repeat=rank))
    for key in _hnf_lattices(rank, bound):
        if len(key.rows) < 2:
            continue
        points = _box_points(key.rows, bound)
        scan = {
            x for x in box
            if la.solve_in_lattice(key.rows, x) is not None
            and next((v for v in x if v), 1) > 0
        }
        assert points.keys() == scan, key.name
        for x, coords in points.items():
            assert x == tuple(sum(c * row[j] for c, row in zip(coords, key.rows))
                              for j in range(rank)), key.name


def test_key_mismatch():
    with pytest.raises(KeyMismatch):
        cotoral_le(Circle(), Dih(2), FullKey())
    with pytest.raises(KeyMismatch):
        cotoral_le(Torus(2), DualLattice(3, ((1, 0, 0),)), FullKey())
    with pytest.raises(KeyMismatch):
        weyl_data(NSU3T, Cyc(2))


# ---------------------------------------------------------------------------
# simple summand counting


def test_count_simple_summands_examples():
    assert count_simple_summands(IntegerAction(2, ())) == 2
    assert count_simple_summands(IntegerAction(1, (((-1,),),))) == 1
    assert count_simple_summands(IntegerAction(2, NSU3T.generators)) == 1


def test_count_simple_summands_more():
    swap = IntegerAction(2, (((0, 1), (1, 0)),))
    assert count_simple_summands(swap) == 2  # fixed line plus sign line
    rot4 = IntegerAction(2, (((0, -1), (1, 0)),))
    assert count_simple_summands(rot4) == 1  # simple two-dimensional piece
    with pytest.raises(DimTooLarge):
        count_simple_summands(IntegerAction(4, ()))


def test_count_invariant_under_conjugation():
    rng = random.Random(5)
    actions = [
        IntegerAction(2, (((0, 1), (1, 0)),)),
        IntegerAction(2, NSU3T.generators),
        IntegerAction(2, (((-1, 0), (0, 1)),)),
    ]
    unimodulars = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0))]
    for action in actions:
        base = count_simple_summands(action)
        for u in unimodulars:
            uinv = _inverse_unimodular(u)
            conj = tuple(
                la.mat_mul(la.mat_mul(u, g), uinv) for g in action.generators
            )
            assert count_simple_summands(IntegerAction(2, conj)) == base


def _inverse_unimodular(u):
    (a, b), (c, d) = u
    det = a * d - b * c
    assert det in (1, -1)
    return ((d * det, -b * det), (-c * det, a * det))


def test_count_additive_on_blocks():
    # diag(swap, -1) on Z^3: 2 + 1 summands
    g = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert count_simple_summands(IntegerAction(3, (g,))) == 3
    # diag(rotation of order 3, 1): simple 2d piece plus a fixed line
    r3 = ((0, -1, 0), (1, -1, 0), (0, 0, 1))
    assert count_simple_summands(IntegerAction(3, (r3,))) == 2
    # direct sums of one-generator actions: counts add across blocks
    blocks = {
        "id1": ((1,),), "neg": ((-1,),),
    }
    two_blocks = {
        "swap": ((0, 1), (1, 0)), "rot3": ((0, -1), (1, -1)), "id2": ((1, 0), (0, 1)),
    }
    for na, a in blocks.items():
        for nb, b in two_blocks.items():
            summed = (
                (a[0][0], 0, 0),
                (0,) + two_blocks[nb][0],
                (0,) + two_blocks[nb][1],
            )
            expected = count_simple_summands(IntegerAction(1, (a,))) + \
                count_simple_summands(IntegerAction(2, (b,)))
            assert count_simple_summands(IntegerAction(3, (summed,))) == expected, (na, nb)


# ---------------------------------------------------------------------------
# the height count and the Weyl tests against span and intersection


def reference_in_span(vectors, v):
    """Whether ``v`` reduces to zero against the echelon basis of ``vectors``."""
    basis, pivots = la.rref(vectors)
    v = list(la.fvec(v))
    for row, p in zip(basis, pivots):
        f = v[p]
        v = [x - f * y for x, y in zip(v, row)]
    return not any(v)


def reference_intersection(a_vectors, b_vectors, dim):
    """Basis of the intersection: the combinations of an echelon basis of A
    whose residual against an echelon basis of B vanishes."""
    a_basis = la.rref(a_vectors)[0]
    b_basis, b_pivots = la.rref(b_vectors)
    residuals = []
    for a in a_basis:
        v = list(a)
        for row, p in zip(b_basis, b_pivots):
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
        residuals.append(v)
    combos = la.kernel([tuple(col) for col in zip(*residuals)], len(a_basis)) if a_basis else []
    meet = [tuple(sum(c * a[k] for c, a in zip(alpha, a_basis)) for k in range(dim))
            for alpha in combos]
    return la.rref(meet)[0]


def reference_count(action):
    """The simple-summand count with the span of the joint eigenvectors
    computed, not assumed to be the number of them."""
    if not action.generators:
        return action.dim
    eigenvectors = []
    for signs in itertools.product((1, -1), repeat=len(action.generators)):
        eigenvectors += reference_eigenspace(action, signs)
    return len(eigenvectors) + (la.span_dim(eigenvectors) < action.dim)


def reference_eigenspace(action, signs):
    n = action.dim
    rows = [tuple(g[i][j] - (e if i == j else 0) for j in range(n))
            for g, e in zip(action.generators, signs) for i in range(n)]
    return la.kernel(rows, n)


def reference_weyl(action, subspace):
    """(finite Weyl?, normalizer directions), or NotInvariant."""
    for g in action.generators:
        for v in subspace:
            image = tuple(sum(a * x for a, x in zip(row, v)) for row in g)
            if not reference_in_span(subspace, image):
                return NotInvariant
    fixed = reference_eigenspace(action, (1,) * len(action.generators))
    finite = len(reference_intersection(subspace, fixed, action.dim)) == len(fixed)
    return finite, tuple(la.rref(list(subspace) + fixed)[0])


def unit_actions(rng, tuples):
    """Actions by {-1, 0, 1} matrices of finite order: every such single
    generator of size 1 and 2, a seeded sample of size 3, and ``tuples``
    seeded tuples of two and three of them."""
    found = {n: [] for n in (1, 2, 3)}
    for n in (1, 2, 3):
        for entries in itertools.product((-1, 0, 1), repeat=n * n):
            if n == 3 and rng.random() > 0.05:
                continue
            g = tuple(entries[i * n:(i + 1) * n] for i in range(n))
            if la.det(g) in (1, -1) and la.matrix_order(g) is not None:
                found[n].append(g)
    actions = [IntegerAction(n, (g,)) for n in found for g in found[n]]
    for _ in range(tuples):
        n = rng.choice((2, 3))
        actions.append(IntegerAction(n, tuple(rng.sample(found[n], rng.choice((2, 3))))))
    return actions


def test_count_and_weyl_against_span_and_intersection():
    rng = random.Random(1313)
    seen = {"finite": 0, "infinite": 0, "not invariant": 0}
    for action in unit_actions(rng, 60):
        assert count_simple_summands(action) == reference_count(action), action
        n = action.dim
        pieces = [reference_eigenspace(action, signs)
                  for signs in itertools.product((1, -1), repeat=len(action.generators))]
        lines = [[tuple(int(i == j) for j in range(n))] for i in range(n)]
        for subspace in [[]] + pieces + lines + [pieces[0] + pieces[-1]]:
            want = reference_weyl(action, subspace)
            if want is NotInvariant:
                seen["not invariant"] += 1
                with pytest.raises(NotInvariant):
                    finite_weyl_criterion(action, subspace)
                with pytest.raises(NotInvariant):
                    normalizer_directions(action, subspace)
                continue
            seen["finite" if want[0] else "infinite"] += 1
            assert finite_weyl_criterion(action, subspace) == want[0], (action, subspace)
            assert normalizer_directions(action, subspace) == want[1], (action, subspace)
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# heights


def test_height_rep_examples():
    assert height_rep(SO3(), FullKey()) == 0
    assert height_rep(Torus(2), DualLattice(2, ())) == 2
    assert height_rep(O2(), SO2Key()) == 1
    assert height_rep(O2(), FullKey()) == 1
    assert height_rep(NSU3T, FullKey()) == 1
    assert group_rank(NSU3T) == 2


def test_height_rep_exceptional_and_finite():
    for key in (A4Key(), S4Key(), A5Key(), KleinKey(), Cyc(7), Dih(5)):
        assert height_rep(SO3(), key) == 0
    assert height_rep(sym3(), FiniteIdx(0)) == 0


def test_height_rep_matches_snapshot_heights():
    for group, bounds in CATALOG_SWEEP:
        for bound in bounds:
            space = flagged_snapshot(group, bound)
            heights = thomason_heights(space)
            for name, key in snapshot_keys(group, bound).items():
                assert heights.heights[name] == height_rep(group, key), (group, name)


# ---------------------------------------------------------------------------
# Weyl data


def test_weyl_data_examples():
    assert weyl_data(O2(), Cyc(5)) == WeylData("SO(2)", 2, "C2")
    assert weyl_data(SO3(), Cyc(1)) == WeylData("SO(3)", 1, "1")
    assert weyl_data(SO3(), KleinKey()) == WeylData("1", 6, "S3")
    assert weyl_data(SO3(), Dih(2)) == WeylData("1", 6, "S3")  # fused key
    assert weyl_data(Circle(), Cyc(3)) == WeylData("SO(2)", 1, "1")
    assert weyl_data(Torus(2), DualLattice(2, ((1, 0), (0, 1)))).identity_component == "T^2"
    assert weyl_data(Torus(2), DualLattice(2, ((2, 0),))).identity_component == "SO(2)"
    assert weyl_data(Torus(2), DualLattice(2, ())) == WeylData("1", 1, "1")
    assert weyl_data(sym3(), FiniteIdx(0)) == WeylData("1", 6, "S3")


def test_finite_weyl_iff_trivial_identity_component():
    for group, bounds in CATALOG_SWEEP:
        for name, key in snapshot_keys(group, max(bounds)).items():
            assert has_finite_weyl(group, key) == (
                weyl_data(group, key).identity_component == "1"
            )


def test_finite_weyl_criterion():
    swap = IntegerAction(2, (((0, 1), (1, 0)),))
    assert finite_weyl_criterion(swap, [(1, 1)])
    assert not finite_weyl_criterion(swap, [(1, -1)])
    assert finite_weyl_criterion(swap, [(1, 0), (0, 1)])  # full space
    with pytest.raises(NotInvariant):
        finite_weyl_criterion(swap, [(1, 0)])
    for wrong in ([(1,)], [(1, 1, 5)]):
        with pytest.raises(ValueError, match="length 2"):
            finite_weyl_criterion(swap, wrong)
        with pytest.raises(ValueError, match="length 2"):
            normalizer_directions(swap, wrong)
    assert has_finite_weyl(O2(), Dih(4))
    assert not has_finite_weyl(O2(), Cyc(4))


def test_normalizer_directions():
    swap = IntegerAction(2, (((0, 1), (1, 0)),))
    assert len(normalizer_directions(swap, [(1, -1)])) == 2
    trivial = IntegerAction(2, ())
    assert len(normalizer_directions(trivial, [(1, 0)])) == 2  # fixed space is all
    fixed = normalizer_directions(swap, [(1, 1)])
    assert len(fixed) == 1  # idempotent on the fixed line


# ---------------------------------------------------------------------------
# finiteness predicates


def test_phi_burnside_noetherian():
    assert phi_is_finite(Circle()) and burnside_rank(Circle()) == 1
    assert spectrum_is_noetherian(Circle())
    assert not phi_is_finite(O2()) and burnside_rank(O2()) == inf
    assert not spectrum_is_noetherian(O2())
    assert not spectrum_is_noetherian(SO3())
    assert spectrum_is_noetherian(Torus(2)) and burnside_rank(Torus(2)) == 1
    assert burnside_rank(sym3()) == 4 and spectrum_is_noetherian(sym3())
    assert not phi_is_finite(NSU3T) and burnside_rank(NSU3T) == inf
    trivial_group = FiniteGroup((FiniteClass("1", 1),))
    assert burnside_rank(trivial_group) == 1 and spectrum_is_noetherian(trivial_group)


def test_burnside_rank_finite_iff_noetherian():
    groups = [Circle(), O2(), SO3(), Torus(1), Torus(2), Torus(3), sym3(), NSU3T]
    for g in groups:
        assert (burnside_rank(g) != inf) == spectrum_is_noetherian(g) == phi_is_finite(g)


def test_group_level_matches_snapshot_noetherian():
    for group, bounds in CATALOG_SWEEP:
        for bound in bounds:
            assert is_noetherian(flagged_snapshot(group, bound)) == \
                spectrum_is_noetherian(group)


# ---------------------------------------------------------------------------
# snapshots


def test_circle_snapshot():
    space = flagged_snapshot(Circle(), 3)
    assert space.concrete == {"C(1)", "C(2)", "C(3)", "G"}
    assert len(space.families) == 1
    assert space.families[0].samples == ("C(4)", "C(5)", "C(6)")


def test_so3_snapshot_exceptional_points():
    space = flagged_snapshot(SO3(), 4)
    for name in ("G", "A4", "S4", "A5", "V4"):
        assert name in space.concrete
        assert not any(space.le(q, name) for q in space.concrete if q != name)
        assert not any(space.le(name, q) for q in space.concrete if q != name)
    assert "D(6)" in space.concrete and "D(8)" in space.concrete
    assert "D(2)" not in space.concrete and "D(4)" not in space.concrete


ONEDIM_GOLDEN = Path(__file__).parent / "golden" / "onedim_snapshots.jsonl"


def onedim_snapshots():
    """The circle, O(2) and SO(3) at bounds 1, 2, 3 and 5, one JSON line
    per group, bound and field: the snapshot as ``flagged_to_json`` writes
    it (samples included), the key and pair order of ``group._snapshot``,
    and each part of ``snapshot_parts`` with its label."""
    lines = []
    for spec in ("circle", "o2", "so3"):
        group = group_from_spec(spec)
        for bound in (1, 2, 3, 5):
            fields = {
                "snapshot": json.loads(flagged_to_json(flagged_snapshot(group, bound))),
                "keys": list(snapshot_keys(group, bound)),
                "pairs": group._snapshot(bound)[1],
                "parts": [[label, json.loads(flagged_to_json(part))]
                          for label, part in snapshot_parts(group, bound)],
            }
            lines += [json.dumps([spec, bound, name, value]) for name, value in fields.items()]
    return "\n".join(lines) + "\n"


def test_onedim_snapshots_golden():
    assert onedim_snapshots() == ONEDIM_GOLDEN.read_text(encoding="utf-8")


def test_snapshot_key_cap_is_exact(monkeypatch):
    """A snapshot of as many keys as the cap is built, one of more keys is
    refused before its keys are listed."""
    monkeypatch.setattr(liegroups, "SNAPSHOT_MAX_KEYS", 1249)
    assert len(_hnf_lattices(2, 12)) == len(_hnf_lattices(1, 1248)) == 1249
    assert len(Circle()._snapshot(1248)[0]) == 1249
    for build in (lambda: _hnf_lattices(2, 13), lambda: _hnf_lattices(1, 1249),
                  lambda: Circle()._snapshot(1249), lambda: O2()._snapshot(624)):
        with pytest.raises(ValueError, match="^more than 1249 snapshot keys$"):
            build()


def test_finite_snapshot_is_antichain():
    space = flagged_snapshot(sym3(), 5)
    assert space.concrete == {"1", "C2", "C3", "S3"}
    assert not space.families
    assert all(a == b for (a, b) in space.order)


def test_torus_snapshot_lattices_are_canonical():
    """Each snapshot key is in Hermite normal form by the invariants
    themselves, not by a second reduction: pivots positive and strictly
    to the right of the last, zeros before them, and each entry above a
    pivot in [0, pivot).  A unimodularly mixed copy of the rows reduces
    back to them.  The enumeration builds its keys without the public
    constructor, so each must equal the one that constructor builds."""
    rng = random.Random(11)
    for rank, bound in ((2, 3), (1, 8), (3, 2)):
        group = Torus(rank)
        for name, key in snapshot_keys(group, bound).items():
            last = -1
            for i, row in enumerate(key.rows):
                p = next(j for j, x in enumerate(row) if x)
                assert p > last and row[p] > 0, name
                assert all(0 <= above[p] < row[p] for above in key.rows[:i]), name
                last = p
            mixed = [list(r) for r in key.rows]
            for _ in range(4 if len(mixed) > 1 else 0):
                i, j = rng.sample(range(len(mixed)), 2)
                c = rng.choice((-2, -1, 1, 2))
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            mixed = [[-x for x in r] if rng.random() < 0.5 else r for r in mixed]
            rng.shuffle(mixed)
            assert la.hermite_normal_form(mixed) == key.rows, name
            assert DualLattice(rank, key.rows) == key, name
            assert key_name(group, key) == name
            assert parse_key(group, name) == key
    # a name that is not in Hermite normal form reads as the key it spans
    assert parse_key(Torus(2), "L[1 -2; 0 2]") == snapshot_keys(Torus(2), 3)["L[1 0; 0 2]"]
    # the rows may come from any iterable, a zip of columns among them
    assert la.hermite_normal_form(zip((2, 0), (1, 3))) == ((2, 1), (0, 3))
    assert la.hermite_normal_form(zip((1, 0), (0, 2))) == ((1, 0), (0, 2))


def test_torus_keys_take_no_second_hermite_form(monkeypatch):
    """The enumeration writes each key's rows in Hermite form and builds
    the key from them: no key is reduced again."""
    calls = []
    hnf = la.hermite_normal_form
    monkeypatch.setattr(la, "hermite_normal_form", lambda rows: calls.append(1) or hnf(rows))
    lattices = _hnf_lattices(3, 2)
    assert len(lattices) == 279 and not calls


def test_semidirect_snapshot_unsupported():
    with pytest.raises(UnsupportedGroup):
        flagged_snapshot(NSU3T, 3)
    with pytest.raises(UnsupportedGroup):
        burnside_rank(ToralSemidirect(3, ()))


def test_snapshot_parts():
    parts = snapshot_parts(O2(), 3)
    assert [label for label, _ in parts] == ["cyclic", "dihedral"]
    cyc = dict(parts)["cyclic"]
    assert cyc.concrete == {"C(1)", "C(2)", "C(3)", "SO2"}
    parts3 = snapshot_parts(SO3(), 3)
    assert len(parts3) == 7
    # the pieces partition the snapshot
    whole = flagged_snapshot(SO3(), 3)
    union = set()
    for _, piece in parts3:
        assert not (union & piece.concrete)
        union |= piece.concrete
    assert union == whole.concrete


# the smaller bound's snapshot is the larger one's truncation, on these bounds
TRUNCATIONS = [
    (group, b, larger)
    for group, bounds in [(Circle(), (2, 3, 4, 8)), (O2(), (2, 3, 4, 8)), (SO3(), (2, 3, 4, 8)),
                          (Torus(1), (2, 3, 4)), (Torus(2), (2, 3, 4, 6)), (Torus(3), (2, 3))]
    for b, larger in itertools.combinations(bounds, 2)
]


@pytest.mark.parametrize("group, bound, larger", TRUNCATIONS)
def test_snapshots_are_truncations_of_one_space(group, bound, larger):
    """A snapshot is the larger bound's snapshot restricted to its points
    and families, with the same Thomason heights, dimensions and ranks.  A
    one-dimensional group's family samples name the first members past the
    bound, so the families are compared without them."""
    small, big = flagged_snapshot(group, bound), flagged_snapshot(group, larger)
    cut = restrict(big, small.concrete, small.family_ids())
    if isinstance(group, Torus):
        assert cut == small
    unsampled = lambda space: [replace(f, samples=()) for f in space.families]
    assert (cut.concrete, cut.covers, unsampled(cut)) == \
        (small.concrete, small.covers, unsampled(small))
    heights, whole = thomason_heights(small), thomason_heights(big)
    assert heights.heights == {p: whole.heights[p] for p in small.concrete}
    assert heights.family_heights == {f: whole.family_heights[f] for f in small.family_ids()}
    for candidate in (dimension_candidate, rank_candidate):
        part, values = candidate(group, small).values, candidate(group, big).values
        assert part == {x: values[x] for x in part}


# ---------------------------------------------------------------------------
# per-key tables


PINNED_KEYS = [
    Cyc(1), Cyc(3), Dih(1), Dih(2), Dih(3), SO2Key(), O2Key(), FullKey(), A4Key(), S4Key(),
    A5Key(), KleinKey(), DualLattice(1, ((2,),)), DualLattice(2, ((1, 0),)),
    DualLattice(2, ((1, 1), (0, 2))), DualLattice(3, ((0, 1, 1),)), FiniteIdx(0), FiniteIdx(2),
]

# (key_name, height_rep, weyl_data, key_dimension, key_rank) per group and key;
# every key a group does not list raises KeyMismatch in all five
PINNED_TABLES = [
    (Circle(), {
        Cyc(1): ("C(1)", 0, WeylData("SO(2)", 1, "1"), 0, 0),
        Cyc(3): ("C(3)", 0, WeylData("SO(2)", 1, "1"), 0, 0),
        FullKey(): ("G", 1, WeylData("1", 1, "1"), 1, 1),
    }),
    (O2(), {
        Cyc(1): ("C(1)", 0, WeylData("SO(2)", 2, "C2"), 0, 0),
        Cyc(3): ("C(3)", 0, WeylData("SO(2)", 2, "C2"), 0, 0),
        Dih(1): ("D(2)", 0, WeylData("1", 2, "C2"), 0, 0),
        Dih(2): ("D(4)", 0, WeylData("1", 2, "C2"), 0, 0),
        Dih(3): ("D(6)", 0, WeylData("1", 2, "C2"), 0, 0),
        SO2Key(): ("SO2", 1, WeylData("1", 2, "C2"), 1, 1),
        FullKey(): ("G", 1, WeylData("1", 1, "1"), 1, 1),
    }),
    (SO3(), {
        Cyc(1): ("C(1)", 0, WeylData("SO(3)", 1, "1"), 0, 0),
        Cyc(3): ("C(3)", 0, WeylData("SO(2)", 2, "C2"), 0, 0),
        Dih(1): ("C(2)", 0, WeylData("SO(2)", 2, "C2"), 0, 0),
        Dih(2): ("V4", 0, WeylData("1", 6, "S3"), 0, 0),
        Dih(3): ("D(6)", 0, WeylData("1", 2, "C2"), 0, 0),
        SO2Key(): ("SO2", 1, WeylData("1", 2, "C2"), 1, 1),
        O2Key(): ("O2", 1, WeylData("1", 1, "1"), 1, 1),
        FullKey(): ("G", 0, WeylData("1", 1, "1"), 3, 1),
        A4Key(): ("A4", 0, WeylData("1", 2, "C2"), 0, 0),
        S4Key(): ("S4", 0, WeylData("1", 1, "1"), 0, 0),
        A5Key(): ("A5", 0, WeylData("1", 1, "1"), 0, 0),
        KleinKey(): ("V4", 0, WeylData("1", 6, "S3"), 0, 0),
    }),
    (Torus(1), {
        FullKey(): ("G", 1, WeylData("1", 1, "1"), 1, 1),
        DualLattice(1, ((2,),)): ("L[2]", 0, WeylData("SO(2)", 1, "1"), 0, 0),
    }),
    (Torus(2), {
        FullKey(): ("G", 2, WeylData("1", 1, "1"), 2, 2),
        DualLattice(2, ((1, 0),)): ("L[1 0]", 1, WeylData("SO(2)", 1, "1"), 1, 1),
        DualLattice(2, ((1, 1), (0, 2))): ("L[1 1; 0 2]", 0, WeylData("T^2", 1, "1"), 0, 0),
    }),
    (Torus(3), {
        FullKey(): ("G", 3, WeylData("1", 1, "1"), 3, 3),
        DualLattice(3, ((0, 1, 1),)): ("L[0 1 1]", 2, WeylData("SO(2)", 1, "1"), 2, 2),
    }),
    (sym3(), {
        FiniteIdx(0): ("1", 0, WeylData("1", 6, "S3"), 0, 0),
        FiniteIdx(2): ("C3", 0, WeylData("1", 2, "C2"), 0, 0),
    }),
    (NSU3T, {
        FullKey(): ("G", 1, WeylData("1", 1, "1"), 2, 2),
    }),
]


def test_group_tables_pinned():
    functions = (key_name, height_rep, weyl_data, key_dimension, key_rank)
    for group, table in PINNED_TABLES:
        for key in PINNED_KEYS:
            for function, expected in zip(functions, table.get(key, (KeyMismatch,) * 5)):
                if expected is KeyMismatch:
                    with pytest.raises(KeyMismatch):
                        function(group, key)
                else:
                    assert function(group, key) == expected, (function.__name__, group, key)


# ---------------------------------------------------------------------------
# names, parsing, loaders


def test_key_names():
    assert key_name(Circle(), Cyc(6)) == "C(6)"
    assert key_name(O2(), Dih(3)) == "D(6)"
    assert key_name(SO3(), KleinKey()) == "V4"
    assert key_name(Torus(2), DualLattice(2, ((2, 1), (0, 3)))) == "L[2 1; 0 3]"
    assert key_name(Torus(2), DualLattice(2, ())) == "G"
    assert key_name(sym3(), FiniteIdx(2)) == "C3"


def test_so3_fusion():
    assert parse_key(SO3(), "D(2)") == Cyc(2)
    assert parse_key(SO3(), "D(4)") == KleinKey()
    assert parse_key(SO3(), "D(6)") == Dih(3)
    assert key_name(SO3(), Dih(1)) == "C(2)"


def test_loaders():
    g = finite_group_from_json(json.dumps(
        {"classes": [{"id": "1", "weylOrder": 6, "weylName": "S3"},
                     {"id": "S3", "weylOrder": 1}]}
    ))
    assert len(g.classes) == 2
    sd = toral_semidirect_from_json(json.dumps(
        {"rank": 2,
         "generators": [[[-1, 1], [0, 1]], [[1, 0], [1, -1]]],
         "relations": [[0, 0], [1, 1], [0, 1, 0, 1, 0, 1]]}
    ))
    assert height_rep(sd, FullKey()) == 1
    with pytest.raises(ValueError):
        toral_semidirect_from_json(json.dumps(
            {"rank": 1, "generators": [[[2]]], "relations": []}
        ))
    with pytest.raises(ValueError):
        finite_group_from_json(json.dumps({"classes": [], "extra": 1}))


def test_weyl_order_must_be_a_positive_integer():
    for order in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="^Weyl order of e must be an integer >= 1$"):
            FiniteClass("e", order)
    for order in (0, -3):
        with pytest.raises(ValueError, match="^Weyl order of G must be an integer >= 1$"):
            finite_group_from_json(json.dumps(
                {"classes": [{"id": "e", "weylOrder": 1}, {"id": "G", "weylOrder": order}]}
            ))


def test_class_id_and_weyl_name_must_be_strings():
    # checked by the class itself, so a group built in Python is refused
    # before a cube sorts mixed ids (tests/test_cli.py has the JSON cases)
    for bad_id in (1, None, ("e",)):
        with pytest.raises(ValueError, match="^class id .* is not a string$"):
            FiniteClass(bad_id, 1)
    with pytest.raises(ValueError, match="^class id 1 is not a string$"):
        FiniteGroup((FiniteClass(1, 1), FiniteClass("x", 2)))
    for name in (7, None, ["C2"]):
        with pytest.raises(ValueError, match="^Weyl name of e is not a string$"):
            FiniteClass("e", 1, name)


def test_group_constructors_check_their_invariants():
    # the JSON loaders check only JSON types; a group built in Python meets
    # the same checks as one read from a file
    empty = "^a finite group has at least the class of its trivial subgroup$"
    for classes in ((), []):
        with pytest.raises(ValueError, match=empty):
            FiniteGroup(classes)
    with pytest.raises(ValueError, match=empty):
        finite_group_from_json(json.dumps({"classes": []}))
    for rank in (2.0, "2", True):
        with pytest.raises(ValueError, match="^rank must be an integer$"):
            ToralSemidirect(rank, ())
        with pytest.raises(ValueError, match="^torus rank is not an integer$"):
            Torus(rank)
        with pytest.raises(ValueError, match="^dimension must be an integer$"):
            IntegerAction(rank, ())
    with pytest.raises(ValueError, match="^rank must be an integer$"):
        toral_semidirect_from_json(json.dumps({"rank": "2", "generators": []}))
    for rank in (0, 4):
        with pytest.raises(ValueError, match="^torus rank must be between 1 and 3$"):
            Torus(rank)
        with pytest.raises(ValueError, match="^rank must be between 1 and 3$"):
            ToralSemidirect(rank, ())


def test_parse_key_errors_and_reuse():
    for group, name in [
        (Circle(), "L[1 0]"),  # a lattice name for a group without lattice keys
        (Torus(2), "L[2]"),  # a row of the wrong width
        (Torus(2), "L[1 x]"),  # not an integer
        (Circle(), "C(0)"),
        (sym3(), "L[2]"),
        (Torus(2), "X"),
        (O2(), "D(3)"),  # dihedral groups have even order
    ]:
        with pytest.raises(KeyMismatch):
            parse_key(group, name)
    with pytest.raises(KeyMismatch):
        parse_key([Torus(2)], "G")  # not a catalog group, and not hashable
    for group, name in [(Torus(3), "L[1 0 2; 0 1 1]"), (O2(), "D(4)"), (sym3(), "C3")]:
        first = parse_key(group, name)
        assert parse_key(group, name) == first
        assert key_name(group, first) == name


@pytest.mark.parametrize("group, bound",
                         [(group, b) for group, bounds in CATALOG_SWEEP for b in bounds]
                         + [(sym3(), 1)])
def test_snapshot_fills_the_key_table(group, bound):
    """parse_key reads a snapshot's points back as the key objects the
    snapshot built, and a cold parse of each name gives an equal key."""
    liegroups._snapshot_data.cache_clear()
    liegroups._key_table.cache_clear()
    keys = snapshot_keys(group, bound)
    assert all(parse_key(group, name) is key for name, key in keys.items())
    liegroups._key_table.cache_clear()
    assert all(parse_key(group, name) == key for name, key in keys.items())


def test_a_name_parsed_before_the_snapshot_keeps_its_key():
    liegroups._snapshot_data.cache_clear()
    liegroups._key_table.cache_clear()
    first = parse_key(Torus(2), "L[1 -2; 0 2]")  # not in Hermite normal form
    keys = snapshot_keys(Torus(2), 3)
    assert parse_key(Torus(2), "L[1 -2; 0 2]") == first == keys["L[1 0; 0 2]"]
    assert key_name(Torus(2), first) == "L[1 0; 0 2]"


def test_finite_class_names_shadow_the_shared_vocabulary():
    # class ids a circle or a torus would read as its own keys
    group = FiniteGroup((FiniteClass("e", 2), FiniteClass("C(2)", 1), FiniteClass("G", 1)))
    for i, name in enumerate(["e", "C(2)", "G"]):
        assert parse_key(group, name) == FiniteIdx(i)
        assert key_name(group, parse_key(group, name)) == name
    space = flagged_snapshot(group, 1)
    assert dimension_candidate(group, space).values == {"e": 0, "C(2)": 0, "G": 0}
    (node,) = build_decomposition(group, 1).nodes.values()
    assert node.factor_labels == ("C(2) ~ D(Q)", "G ~ D(Q)", "e ~ D(Q[W2])")
    # the shared vocabulary still serves the other groups
    assert parse_key(Circle(), "G") == FullKey() and parse_key(Circle(), "C(2)") == Cyc(2)


def test_key_lookups_do_not_hash_every_class(monkeypatch):
    # parse_key finds its name table by the group's hash, which reads every
    # class: hashing the group on each of n lookups would hash n * n classes
    calls = 0
    plain = FiniteClass.__hash__

    def counting(self):
        nonlocal calls
        calls += 1
        return plain(self)

    monkeypatch.setattr(FiniteClass, "__hash__", counting)
    for n in (50, 200):
        group = FiniteGroup(tuple(FiniteClass("c%d" % i, 1) for i in range(n)))
        space = flagged_snapshot(group, 1)
        calls = 0
        assert set(dimension_candidate(group, space).values.values()) == {0}
        assert calls <= n


def test_toral_semidirect_dimension_and_rank():
    o2 = ToralSemidirect(1, (((-1,),),), ((0, 0),))
    for group, r in [(NSU3T, 2), (o2, 1), (ToralSemidirect(3, ()), 3)]:
        assert key_dimension(group, FullKey()) == r
        assert key_rank(group, FullKey()) == r
        with pytest.raises(KeyMismatch):
            key_dimension(group, DualLattice(r, ((2,) + (0,) * (r - 1),)))


def test_action_entries_must_be_integers():
    for generators in [(((-1.5,),),), (((-1.0,),),), (((True,),),)]:
        with pytest.raises(ValueError):
            IntegerAction(1, generators)
        with pytest.raises(ValueError):
            ToralSemidirect(1, generators)
    for word in [(0.0, 0), (True, 0), (0, 1), (-1, 0)]:
        with pytest.raises(ValueError):
            ToralSemidirect(1, (((-1,),),), (word,))
    assert ToralSemidirect(1, (((-1,),),), ((0, 0),)).generators == (((-1,),),)
    with pytest.raises(ValueError, match="dimension must be nonnegative"):
        IntegerAction(-1)
    with pytest.raises(ValueError, match="dihedral parameter must be positive"):
        Dih(0)


def test_group_from_spec():
    assert group_from_spec("circle") == Circle()
    assert group_from_spec("torus:3") == Torus(3)
    assert group_from_spec("nsu3t") == NSU3T
    # the one-dimensional groups compare and print by class
    assert Circle() == Circle() and Circle() != O2() and O2() != SO3()
    assert hash(SO3()) == hash(SO3()) and repr(SO3()) == "SO3()"
    with pytest.raises(KeyMismatch):
        group_from_spec("nosuchgroup")
    # outside the vocabulary; the CLI reads such an argument as a file path
    for spec in ("nosuchgroup", "torus", "torus3", "space.json", "circle:2"):
        with pytest.raises(KeyMismatch):
            group_from_spec(spec)
