"""Independent brute-force oracles for the fast paths.

Each suite recomputes a quantity by exhaustive enumeration and compares
it against the structured implementation; they back the ``oracle`` CLI
subcommand and the acceptance tests.  The oracles deliberately avoid the
code paths they check: subset counting against the isomax formula, coset
enumeration against Smith normal form, all-pairs cotoral tests against
every snapshot's order build, iterated derivatives against the
longest-path heights, and raw subset filtering against the down-set
generator.
"""

from itertools import combinations

from . import intlinalg as la
from .cube import isomax_dim
from .dispersion import thomason_heights, thomason_derivative
from .liegroups import (
    Circle,
    O2,
    SO3,
    Torus,
    cotoral_le,
    flagged_snapshot,
    key_name,
    _hnf_lattices,
)
from .priestley import AccumulationFamily, FinitePriestley, FlaggedPriestley, down_sets
from .spaces import guiding_examples


class OracleMismatch(AssertionError):
    pass


def check_isomax():
    """Brute-force superset counting equals two to the isomax dimension, n <= 6."""
    cases = 0
    for n in range(7):
        subsets = [
            phi for k in range(1, n + 2) for phi in combinations(range(n + 1), k)
        ]
        for phi in subsets:
            members = [
                psi for psi in subsets if set(phi) <= set(psi) and max(psi) == max(phi)
            ]
            if len(members) != 2 ** isomax_dim(phi, n):
                raise OracleMismatch("isomax mismatch at %r, n=%d" % (phi, n))
            cases += 1
    return cases


def _coset_count(coords, cap):
    """Order of Z^k modulo the row span of ``coords`` by breadth-first
    enumeration of reduced residues."""
    hnf = la.hermite_normal_form(coords)
    k = len(coords[0])

    def reduce(v):
        v = list(v)
        for row in hnf:
            j = next(i for i, x in enumerate(row) if x)
            q = v[j] // row[j]
            for t in range(k):
                v[t] -= q * row[t]
        return tuple(v)

    seen = {reduce((0,) * k)}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for i in range(k):
            for delta in (1, -1):
                w = list(v)
                w[i] += delta
                w = reduce(w)
                if w not in seen:
                    if len(seen) > cap:
                        raise OracleMismatch("coset enumeration exceeded cap")
                    seen.add(w)
                    frontier.append(w)
    return len(seen)


def check_snf_torsion():
    """Smith-form torsion-freeness equals coset enumeration for all nested
    same-rank lattice pairs of index up to 24."""
    max_index = 24
    cases = 0
    pools = [(1, 6), (2, 4), (3, 2)]
    for rank, bound in pools:
        lattices = [L for L in _hnf_lattices(rank, bound) if L.rows]
        full = [L for L in lattices if len(L.rows) == len(L.rows[0])]
        for lk in full:
            det_k = abs(la.det(lk.rows))
            for lh in full:
                det_h = abs(la.det(lh.rows))
                if det_h % det_k or det_h // det_k > max_index:
                    continue
                coords = la._lattice_coordinates(lk.rows, lh.rows)
                if coords is None:
                    continue
                torsion_free = all(f == 1 for f in la.snf_invariant_factors(coords))
                order = _coset_count(coords, max_index + 1)
                if order != det_h // det_k:
                    raise OracleMismatch(
                        "coset count %r disagrees with index %d" % (order, det_h // det_k)
                    )
                if torsion_free != (order == 1):
                    raise OracleMismatch(
                        "torsion verdicts disagree for %r in %r" % (lh, lk)
                    )
                cases += 1
    return cases


CATALOG_SWEEP = (
    (Circle(), (2, 3, 4)),
    (O2(), (2, 3, 4)),
    (SO3(), (2, 3, 4)),
    (Torus(1), (2, 3, 4)),
    (Torus(2), (2, 3, 4)),
    # rank three is swept at the small bound only: bound 3 adds no new
    # heights, and the all-pairs reference below would make 2.1 M
    # cotoral_le calls on its 1450 keys, some four seconds (the snapshot
    # itself builds in about 0.07 s)
    (Torus(3), (2,)),
)


def check_cotoral_order():
    """Each snapshot's order pairs, in order, equal all-pairs ``cotoral_le``
    on its keys, on every rung of the catalog sweep; on the tori the keys
    and families are also checked against a scan over every lattice."""
    cases = 0
    for group, bounds in CATALOG_SWEEP:
        for bound in bounds:
            keys, order_pairs, fams, _ = group._snapshot(bound)
            pairs = [
                (a, b)
                for a in keys
                for b in keys
                if a != b and cotoral_le(group, keys[a], keys[b])
            ]
            if list(order_pairs) != pairs:
                raise OracleMismatch("order pairs differ for %r at %d" % (group, bound))
            cases += len(keys) ** 2
            if not isinstance(group, Torus):
                continue
            lattices = _hnf_lattices(group.rank, bound)
            if list(keys) != [key_name(group, k) for k in lattices]:
                raise OracleMismatch("key order differs for %r at %d" % (group, bound))
            pairs = set(pairs)
            expected = [
                AccumulationFamily(
                    id="conv:%s" % name,
                    limit=name,
                    member_lt=frozenset(
                        b for b in keys if b == name or (name, b) in pairs
                    ),
                    member_height_hint=key.corank() - 1 if key.corank() > 1 else None,
                )
                for name, key in sorted(keys.items())
                if key.corank() > 0
            ]
            if sorted(fams, key=lambda f: f.id) != expected:
                raise OracleMismatch("families differ for %r at %d" % (group, bound))
    return cases


def snapshot_spaces():
    """Catalog group snapshots over the sweep of bounds."""
    return [
        flagged_snapshot(group, b) for group, bounds in CATALOG_SWEEP for b in bounds
    ]


def catalog_spaces():
    """Snapshot fixtures plus the four guiding sequence models."""
    return list(guiding_examples()) + snapshot_spaces()


def check_derivative_vs_heights(spaces=None, kmax=3):
    """k derivative steps remove exactly the material of height below k,
    and each step has the covers, and equals, the public constructor's
    build of its points, its families and the order the original space
    induces on its points."""
    if spaces is None:
        spaces = catalog_spaces()
    cases = 0
    for space in spaces:
        heights = thomason_heights(space)
        current = space
        for k in range(kmax + 1):
            expected_pts = {p for p, v in heights.heights.items() if v >= k}
            expected_fams = {f for f, v in heights.family_heights.items() if v >= k}
            if current.concrete != expected_pts:
                raise OracleMismatch(
                    "derivative step %d keeps %r, heights say %r"
                    % (k, sorted(current.concrete), sorted(expected_pts))
                )
            if set(current.family_ids()) != expected_fams:
                raise OracleMismatch("family survivors differ at step %d" % k)
            current = thomason_derivative(current)
            pts = current.concrete
            induced = [(a, b) for (a, b) in space.order if a in pts and b in pts]
            rebuild = FlaggedPriestley(pts, induced, current.families)
            if current.covers != rebuild.covers:
                raise OracleMismatch("derivative step %d has other covers than its rebuild" % (k + 1))
            if current != rebuild:
                raise OracleMismatch("derivative step %d differs from its rebuild" % (k + 1))
            cases += 1
    return cases


def sample_posets():
    """Structured and pseudo-random finite posets for the down-set oracle."""
    import random

    rng = random.Random(20260810)
    posets = []
    chain = FinitePriestley(
        frozenset(str(i) for i in range(6)),
        [(str(i), str(i + 1)) for i in range(5)],
    )
    posets.append(chain)
    posets.append(FinitePriestley(frozenset("abcde"), []))
    posets.append(
        FinitePriestley(frozenset(["g", "c1", "c2"]), [("c1", "g"), ("c2", "g")])
    )
    # two parallel 6-chains: twelve points, 49 down-sets
    pts = ["a%d" % i for i in range(6)] + ["b%d" % i for i in range(6)]
    rel = [("a%d" % i, "a%d" % (i + 1)) for i in range(5)]
    rel += [("b%d" % i, "b%d" % (i + 1)) for i in range(5)]
    posets.append(FinitePriestley(frozenset(pts), rel))
    for trial in range(8):
        n = rng.randint(4, 8)
        pts = [chr(ord("a") + i) for i in range(n)]
        rel = []
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.3:
                rel.append((pts[i], pts[j]))
        posets.append(FinitePriestley(frozenset(pts), rel))
    return posets


def check_down_sets():
    """Union-generated down-sets equal the exhaustive subset filter."""
    cases = 0
    for poset in sample_posets():
        pts = sorted(poset.points)
        oracle = set()
        for mask in range(1 << len(pts)):
            s = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
            if poset.is_down_set(s):
                oracle.add(s)
        fast = set(down_sets(poset))
        if fast != oracle:
            raise OracleMismatch("down-set families differ on %r" % (pts,))
        cases += 1
    return cases


SUITES = {
    "isomax": check_isomax,
    "cotoral": check_cotoral_order,
    "snf": check_snf_torsion,
    "derivative": check_derivative_vs_heights,
    "downsets": check_down_sets,
}


def run_suite(name):
    """Run one suite (or 'all'); yields (suite, cases) pairs."""
    names = sorted(SUITES) if name == "all" else [name]
    for n in names:
        if n not in SUITES:
            raise ValueError("unknown oracle suite %r" % (n,))
        yield n, SUITES[n]()
