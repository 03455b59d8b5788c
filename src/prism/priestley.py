"""Finite spectral/Priestley spaces and finitely presented flagged models.

One space class lives here.  ``FlaggedPriestley`` is a finite
presentation of a countable Priestley space: finitely many concrete
points with a partial order, plus "accumulation families".  A family
stands for an infinite sequence of pairwise order-homogeneous members
converging to a unique concrete limit (one-point-compactification
behaviour: every infinite set of members accumulates exactly at the
limit).  A member's order relations to the concrete points are declared
wholesale: every point of ``member_lt`` sits strictly above every member,
every point of ``member_gt`` strictly below.  Members of distinct
families are incomparable by convention.  The order of the concrete
points holds every pair the members imply, ``member_gt`` below
``member_lt``, so its principal closures need no family rule.

A finite poset is a flagged space without families: on a finite set the
Stone topology is discrete, so a finite Priestley space carries no
topological data beyond its order.  ``FinitePriestley`` is that special
case, a subclass that rejects families and names its points ``points``.
``FiniteTopSpace`` holds a finite topology so the two directions of the
finite Priestley correspondence can be computed (specialization order one
way, up-set topology the other).

Symbolic subsets of a flagged space record, besides an explicit concrete
part, one portion tag per family: ``empty``, ``finite`` (a nonempty finite
set of members), ``cofinite`` (all but a nonempty finite set), or ``all``.
Homogeneity makes every predicate we need (closed, open, down-set, up-set)
depend only on this granularity.  A symbolic set is closed exactly when
any family with infinitely many members inside has its limit inside; this
finite rule is the decidable surrogate for closure in the modelled space.
Complementing swaps open with closed and up-sets with down-sets, so a set
is open, or an up-set, when its complement is closed, or a down-set.

For families with ``member_order == "descendingChain"`` the members form a
strictly descending chain (samples are listed top down).  Portions then
read as: ``finite`` is a prefix (an up-closed piece), ``cofinite`` a tail.
The portion algebra is tied to the declared orientation; ``inverse`` keeps
the tag and swaps the bounds, so chain families are fully faithful only in
their declared orientation.
"""

from functools import cached_property
from itertools import combinations
import json

from .errors import NotT0, Value, replace


ANTICHAIN = "antichain"
DESCENDING = "descendingChain"

# portion tags for family members inside a symbolic set
EMPTY = "empty"
FINITE = "finite"
COFINITE = "cofinite"
ALL = "all"


def _kahn(succ):
    """Kahn's algorithm on a successor map: the nodes in a topological
    order, and the in-degrees left over, which are positive exactly on the
    nodes that lie on a cycle or above one."""
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for q in targets:
            indegree[q] += 1
    topo = [p for p in succ if not indegree[p]]
    for p in topo:
        for q in succ[p]:
            indegree[q] -= 1
            if not indegree[q]:
                topo.append(q)
    return topo, indegree


def _transitive_closure(points, pairs):
    """The covers (a list) of the reflexive-transitive closure of ``pairs``
    and its up-sets (point -> set); raises unless it is antisymmetric.

    Kahn's algorithm orders the points topologically; a point it leaves
    over lies on a cycle or above one.  Up-sets are built in reverse
    topological order, visiting a point's successors in rising rank and
    joining ``up[q]`` only when ``q`` is not in the set yet.  A successor
    joined that way is reached through no other, so it is a cover, and
    every cover is a successor (the transitive reduction of Aho, Garey and
    Ullman, 1972).
    """
    succ = {p: set() for p in points}
    for (a, b) in pairs:
        if a not in succ or b not in succ:
            unknown = (ab for ab in pairs if not succ.keys() >= set(ab))
            raise ValueError("order mentions unknown point in %r" % (min(unknown, key=repr),))
        if a != b:
            succ[a].add(b)
    topo, indegree = _kahn(succ)
    if len(topo) < len(succ):
        raise ValueError("order is not antisymmetric on %r, %r" % _cycle_pair(succ, indegree))
    rank = {p: i for i, p in enumerate(topo)}
    up = {}
    covers = []
    for p in reversed(topo):
        s = {p}
        for q in sorted(succ[p], key=rank.__getitem__):
            if q not in s:
                s |= up[q]
                covers.append((p, q))
        up[p] = s
    return covers, up


def _cycle_pair(succ, indegree):
    """Two distinct points of one cycle among those Kahn's pass left over.

    Every left-over point has a left-over predecessor, and every successor
    of one is left over, so one pass over their successors lists the
    predecessors, and walking them from any left-over point runs into a
    cycle.  Ties are broken by ``repr`` so that the pair named does not
    depend on hash order.
    """
    preds = {p: [] for p, n in indegree.items() if n}
    for p in preds:
        for q in succ[p]:
            preds[q].append(p)
    pred = {q: min(ps, key=repr) for q, ps in preds.items()}
    seen = set()
    p = min(pred, key=repr)
    while p not in seen:
        seen.add(p)
        p = pred[p]
    return pred[p], p


# ---------------------------------------------------------------------------
# finite topological spaces


class FiniteTopSpace(Value):
    """A finite topology given by its full family of open sets."""

    points: frozenset
    opens: frozenset

    def __post_init__(self):
        points = frozenset(self.points)
        opens = frozenset(frozenset(u) for u in self.opens)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "opens", opens)
        if frozenset() not in opens or points not in opens:
            raise ValueError("opens must contain the empty set and the whole set")
        for u in opens:
            if not u <= points:
                raise ValueError("open set %r is not a subset of the points" % (set(u),))
        for u in opens:
            for v in opens:
                if u | v not in opens or u & v not in opens:
                    raise ValueError("opens are not closed under union/intersection")

    def closure(self, subset):
        """Smallest closed set containing ``subset``."""
        result = self.points
        for u in self.opens:
            c = self.points - u
            if subset <= c:
                result = result & c
        return result


def specialization_order(space):
    """Specialization order of a finite T0 space: y <= x iff y in cl{x}.

    Raises NotT0 when two distinct points have identical closures (the
    relation is a partial order exactly for T0 spaces).
    """
    closures = {x: space.closure(frozenset([x])) for x in space.points}
    pts = sorted(space.points)
    for a, b in combinations(pts, 2):
        if closures[a] == closures[b]:
            raise NotT0("points %r and %r have the same closure" % (a, b))
    return frozenset(
        (y, x) for x in space.points for y in closures[x]
    )


# ---------------------------------------------------------------------------
# finite Priestley spaces


def priestley_of_spectral(space):
    """Finite Priestley space of a finite T0 (hence sober) space."""
    return FinitePriestley(space.points, specialization_order(space))


def spectral_of_priestley(p):
    """The spectral space of a finite Priestley space: opens are the
    up-sets, the complements of the down-sets."""
    return FiniteTopSpace(p.points, frozenset(p.points - d for d in down_sets(p)))


def down_sets(p):
    """All down-sets of a finite poset: the thick-ideal lattice of its prism.

    Generated as unions of principal down-sets (every down-set is the
    union of the principal down-sets of its elements); the exhaustive
    subset filter serves as the independent oracle in the tests.
    """
    principal = {q: p.down_closure(q) for q in p.points}
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        s = frontier.pop()
        for q in p.points:
            t = s | principal[q]
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return tuple(sorted(seen, key=lambda s: (len(s), sorted(s))))


# ---------------------------------------------------------------------------
# flagged spaces


class AccumulationFamily(Value):
    """An infinite homogeneous sequence of members converging to ``limit``.

    ``member_height_hint`` asserts the common height of the members; it
    models substructure (sub-families accumulating at each member) that
    the finite presentation drops.
    """

    id: str
    limit: str
    member_order: str
    member_lt: frozenset
    member_gt: frozenset
    samples: tuple
    member_height_hint: int | None

    def __init__(self, id, limit, member_order=ANTICHAIN, member_lt=frozenset(),
                 member_gt=frozenset(), samples=(), member_height_hint=None):
        member_lt, member_gt, hint = frozenset(member_lt), frozenset(member_gt), member_height_hint
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "member_order", member_order)
        object.__setattr__(self, "member_lt", member_lt)
        object.__setattr__(self, "member_gt", member_gt)
        object.__setattr__(self, "samples", tuple(samples))
        object.__setattr__(self, "member_height_hint", hint)
        if member_order not in (ANTICHAIN, DESCENDING):
            raise ValueError("unknown member order %r" % (member_order,))
        if member_lt & member_gt:
            raise ValueError("member_lt and member_gt must be disjoint")
        if hint is not None and (type(hint) is not int or hint < 0):
            raise ValueError("height hint must be a natural number, got %r" % (hint,))


class FlaggedPriestley(Value):
    """Finitely presented countable Priestley space: points plus families.

    ``order`` may be given as any relation.  On construction each pair
    ``(g, l)`` of a family's ``member_gt`` and ``member_lt`` joins it, as
    the members lie between them; the whole is checked for antisymmetry,
    which refuses every cycle, one through members included, and reduced
    to its covers, the stored order.  Spaces cut from a built one keep
    these pairs.  Equality and hashing compare the covers in place of
    ``order``, which is no stored field value: the constructor drops it,
    and a cached property closes it again on first read.  ``repr`` shows
    ``order``.  Indices built on first use are cached properties, not
    fields, so equality, hashing, ``repr`` and ``replace`` do not see them.
    """

    concrete: frozenset
    order: frozenset
    families: tuple = ()
    _compare = ("concrete", "families", "covers")

    def __post_init__(self):
        pts = frozenset(self.concrete)
        fams = tuple(sorted(self.families, key=lambda f: f.id))
        ids = [f.id for f in fams]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate family ids")
        if set(ids) & set(pts):
            raise ValueError("family ids must not collide with point names")
        pairs = [*map(tuple, self.order)]
        for f in fams:
            if f.limit not in pts:
                raise ValueError("family %s has unknown limit %r" % (f.id, f.limit))
            if not (f.member_lt <= pts and f.member_gt <= pts):
                raise ValueError("family %s bounds mention unknown points" % f.id)
            pairs += [(g, l) for g in f.member_gt for l in f.member_lt]
        object.__setattr__(self, "concrete", pts)
        object.__setattr__(self, "covers", frozenset(_transitive_closure(pts, pairs)[0]))
        object.__setattr__(self, "families", fams)
        object.__delattr__(self, "order")

    @cached_property
    def order(self):  # the field the constructor drops, closed again
        return frozenset((p, q) for p, s in self._down_up[1].items() for q in s)

    def le(self, p, q):
        return q in self.up_closure(p)

    @cached_property
    def _down_up(self):
        """Principal down- and up-sets: one closure, its up-sets transposed."""
        up = _transitive_closure(self.concrete, self.covers)[1]
        down = {p: [] for p in up}
        for p, s in up.items():
            for q in s:
                down[q].append(p)
        return (
            {p: frozenset(s) for p, s in down.items()},
            {p: frozenset(s) for p, s in up.items()},
        )

    @cached_property
    def _cover_index(self):
        """Lower point -> the cover pairs leaving it, and upper point -> the
        number of covers into it."""
        above, indegree = {}, {}
        for ab in self.covers:
            above.setdefault(ab[0], []).append(ab)
            indegree[ab[1]] = indegree.get(ab[1], 0) + 1
        return above, indegree

    def is_down_set(self, subset):
        """Whether ``subset`` holds everything below its points.  By
        transitivity it is enough that it holds the points they cover."""
        return all(a in subset for (a, b) in self.covers if b in subset)

    def down_closure(self, p):
        return self._down_up[0].get(p, frozenset())

    def up_closure(self, p):
        return self._down_up[1].get(p, frozenset())

    @cached_property
    def _families_by_id(self):
        return {f.id: f for f in self.families}

    def family(self, fid):
        return self._families_by_id[fid]

    def family_ids(self):
        return tuple(f.id for f in self.families)

    def minimal_concrete(self):
        """Concrete points with nothing below them, members included: no
        cover ends at them and no family has them in member_lt."""
        return self.concrete.difference(
            self._cover_index[1], *(f.member_lt for f in self.families)
        )

    @cached_property
    def _triggers(self):
        """The families a point triggers: point -> those whose member_lt
        hold it, point -> those whose member_gt hold it, point -> those it
        is limit of, and the points of the first and the third map.  The
        symbolic and generalization closures read the first two, meeting
        their keys with a principal set.  Weak visibility reads the other
        three: a point of a down-set it adds that lies in the fourth fires
        families through the first and the third.  It tests each fired
        family's member_gt against the up-set of the queried point, and
        so never reads the second."""
        lt, gt, limit = {}, {}, {}
        for f in self.families:
            for q in f.member_lt:
                lt.setdefault(q, []).append(f)
            for q in f.member_gt:
                gt.setdefault(q, []).append(f)
            limit.setdefault(f.limit, []).append(f)
        return lt, gt, limit, frozenset(lt).union(limit)


class FinitePriestley(FlaggedPriestley):
    """A finite poset: a flagged space without families, whose Priestley
    topology is discrete.  Built as ``FinitePriestley(points, order)``;
    families raise ValueError."""

    def __post_init__(self):
        if self.families:
            raise ValueError("a finite poset has no accumulation families")
        super().__post_init__()

    @property
    def points(self):
        return self.concrete

    def minimal_points(self):
        return self.minimal_concrete()


# ---------------------------------------------------------------------------
# symbolic subsets of a flagged space


class SymbolicSet(Value):
    """A subset of a flagged space: explicit points plus a portion per family."""

    concrete: frozenset
    portions: tuple  # sorted (family id, tag) pairs; omitted means empty

    def __init__(self, concrete, portions=()):
        items = portions.items() if isinstance(portions, dict) else portions
        cleaned = tuple(sorted((fid, tag) for fid, tag in items if tag != EMPTY))
        for _, tag in cleaned:
            if tag not in (FINITE, COFINITE, ALL):
                raise ValueError("unknown portion tag %r" % (tag,))
        object.__setattr__(self, "concrete", frozenset(concrete))
        object.__setattr__(self, "portions", cleaned)
        object.__setattr__(self, "_tags", dict(cleaned))

    def portion(self, fid):
        return self._tags.get(fid, EMPTY)

    def complement(self, space):
        flip = {EMPTY: ALL, FINITE: COFINITE, COFINITE: FINITE, ALL: EMPTY}
        return SymbolicSet(
            space.concrete - self.concrete,
            {f.id: flip[self.portion(f.id)] for f in space.families},
        )

    def is_closed(self, space):
        """Infinitely many members inside force the limit inside."""
        tags, concrete = self._tags, self.concrete
        for f in space.families:
            if tags.get(f.id) in (COFINITE, ALL) and f.limit not in concrete:
                return False
        return True

    def is_open(self, space):
        """The complement is closed."""
        return self.complement(space).is_closed(space)

    def is_clopen(self, space):
        return self.is_closed(space) and self.is_open(space)

    def is_down_set(self, space):
        concrete = self.concrete
        if not space.is_down_set(concrete):
            return False
        tags = self._tags
        for f in space.families:
            tag = tags.get(f.id, EMPTY)
            if tag != EMPTY and not f.member_gt <= concrete:
                return False
            if tag != ALL and not f.member_lt.isdisjoint(concrete):
                return False
            if f.member_order == DESCENDING and tag == FINITE:
                return False  # nonempty finite pieces of a chain are not down-closed
        return True

    def is_up_set(self, space):
        """The complement is a down-set."""
        return self.complement(space).is_down_set(space)

    def describe(self):
        parts = "{%s}" % ", ".join(sorted(self.concrete))
        fams = ", ".join("%s: %s" % (f, t) for f, t in self.portions)
        return parts + (" / members: {%s}" % fams if fams else "")


def _principal(space, p, side):
    """The principal down-set (``side`` 0) or up-set (``side`` 1) of the
    point ``p``, and the tags of its symbolic closure: ``all`` by the id of
    each family whose member_lt (member_gt) meets it, as all its members
    lie below (above) ``p``.  An unknown point raises ValueError."""
    points = space._down_up[side].get(p)
    if points is None:
        raise ValueError("unknown point %r" % (p,))
    bounds = space._triggers[side]
    return points, {f.id: ALL for q in bounds.keys() & points for f in bounds[q]}


def down_closure_symbolic(space, p):
    """Everything below ``p``: its principal down-set, and all members of
    each family with an upper bound (member_lt) in it."""
    return SymbolicSet(*_principal(space, p, 0))


def up_closure_symbolic(space, p):
    """Everything above ``p``: its principal up-set, and all members of
    each family with a lower bound (member_gt) in it."""
    return SymbolicSet(*_principal(space, p, 1))


# ---------------------------------------------------------------------------
# order reversal, Thomason points, Noetherianness


def inverse(space):
    """Order reversal, an involution; a finite poset stays one.  The
    reversed covers are the reversed order's covers: nothing is closed again."""
    covers = frozenset((b, a) for (a, b) in space.covers)
    families = (replace(f, member_lt=f.member_gt, member_gt=f.member_lt) for f in space.families)
    return _assemble(type(space), space.concrete, covers, families)


def thomason_points(space):
    """Isolated minimal points: height-zero material of the Thomason filtration.

    For a finite poset these are just the minimal points, as a frozenset.
    For a flagged space the result is symbolic: minimal concrete points
    that are not the limit of any family, together with every family whose
    members are minimal (nothing declared below them, no height hint
    pretending otherwise).  Chain members are never minimal.
    """
    limits = {f.limit for f in space.families}
    concrete = frozenset(p for p in space.minimal_concrete() if p not in limits)
    if isinstance(space, FinitePriestley):
        return concrete
    tags = {
        f.id: ALL
        for f in space.families
        if f.member_order == ANTICHAIN
        and not f.member_gt
        and not f.member_height_hint
    }
    return SymbolicSet(concrete, tags)


def is_noetherian(space):
    """Descending chain condition on closed down-sets of the modelled space.

    It holds exactly when every limit dominates its members: the limit is
    one of their upper bounds or lies above one in the order, which holds
    the relations through members.  An undominated family leaves
    infinitely many pairwise-incomparable maximal points in the closure of
    any tail, an infinite strictly descending chain of closed down-sets.
    Finite posets pass.
    """
    return all(
        f.limit in f.member_lt or not f.member_lt.isdisjoint(space.down_closure(f.limit))
        for f in space.families
    )


# ---------------------------------------------------------------------------
# clopen down-set classes


class ClopenDownClass(Value):
    """A shape class of clopen down-sets of a flagged space.

    A realization picks ``required`` plus any subset of ``optional`` that
    stays down-closed, with family members per tag: ``finite`` allows any
    finite member set (the empty one included; nonempty choices need the
    family's lower bounds realized), ``cofinite`` all but finitely many,
    ``all`` every member.  ``realize`` builds the least realization, with
    no members on the finite side, as a SymbolicSet and validates it.
    """

    family_tags: tuple
    required: frozenset
    optional: frozenset

    def __init__(self, family_tags, required, optional):
        object.__setattr__(self, "family_tags", family_tags)
        object.__setattr__(self, "required", required)
        object.__setattr__(self, "optional", optional)

    def tag(self, fid):
        for f, t in self.family_tags:
            if f == fid:
                return t
        return EMPTY

    def realize(self, space):
        tags = {f: t for f, t in self.family_tags if t != FINITE}
        s = SymbolicSet(self.required, {f.id: tags.get(f.id, EMPTY) for f in space.families})
        if not (s.is_clopen(space) and s.is_down_set(space)):
            raise ValueError("realization is not a clopen down-set")
        return s

    def describe(self):
        fams = ", ".join("%s: %s" % (f, t) for f, t in sorted(self.family_tags))
        return "required={%s} optional={%s} members={%s}" % (
            ", ".join(sorted(self.required)),
            ", ".join(sorted(self.optional)),
            fams,
        )


def _closed(points, closure):
    """``points`` with the principal closure of each of them."""
    return frozenset(points).union(*map(closure, points))


# clopen_down_sets raises ValueError once it has found more classes than
# this: T^2 at bound 4 (41 families) reaches it, and `prism closed-sets
# torus:2` exits in 0.9-1.1 s with a peak RSS of 169 MB (Python 3.11.7 on a
# shared 2-vCPU host), while T^2 at bound 2 (13 families) has 4097
CLOPEN_MAX_CLASSES = 1 << 16


def _hits(sets, points):
    """The bitmask of the ``sets`` that meet ``points``."""
    return sum(1 << k for k, s in enumerate(sets) if not points.isdisjoint(s))


def clopen_down_sets(space):
    """All shape classes of clopen down-sets of a flagged space.

    A class fixes, per family, whether a finite or an infinite share of its
    members is inside, and propagates the forced consequences: an infinite
    portion pulls in the limit and the lower bounds, a finite portion
    expels the limit, a point above members of a finitely-tagged family is
    expelled, and expulsion propagates upward as inclusion propagates
    downward.  Profiles whose constraints clash are dropped.

    Write D_i for the down-closure of family i's limit and upper bounds
    (pulled in when i is infinite) and U_j for the up-closure of its limit
    and lower bounds (pushed out when j is finite).  A closure of a union
    is the union of the closures, so a profile P requires the union of D_i
    over i in P and excludes the union of U_j over j not in P; it clashes
    exactly when D_i meets U_j for some infinite i and finite j.  The tags
    are per-family masks in the same way: an infinite family is ``all``
    when its lower bounds meet D_i for some infinite i, else
    ``cofinite``; a finite antichain family is ``empty`` when its upper
    bounds meet U_k for some finite k, else ``finite``; a finite chain
    family is ``empty``.  So every set test is made once per pair of
    families, and the search tests bits.

    The profiles are searched depth first: the last family is decided
    first and the first family last, each finite side before its infinite
    side, so the classes come out in ascending order of the profile read
    as a binary number (bit i set: family i infinite).  A clash is found
    when the lower family of its pair is decided, and prunes every profile
    below it.  Classes with equal ``optional`` sets share one frozenset.
    More than ``CLOPEN_MAX_CLASSES`` classes raise ValueError.
    """
    if isinstance(space, FinitePriestley) or not isinstance(space, FlaggedPriestley):
        raise TypeError("clopen_down_sets expects a flagged space")
    fams = space.families
    n = len(fams)
    pulled_in = [_closed({f.limit} | f.member_gt, space.down_closure) for f in fams]
    pushed_out = [_closed({f.limit} | f.member_lt, space.up_closure) for f in fams]
    # bit k of clash_in[i] (clash_out[i]): family i infinite (finite) clashes
    # with family k finite (infinite); only families k > i, decided before i
    clash_in = [_hits(pushed_out[i + 1:], d) << i + 1 for i, d in enumerate(pulled_in)]
    clash_out = [_hits(pulled_in[i + 1:], u) << i + 1 for i, u in enumerate(pushed_out)]
    # an infinite family i is "all" when profile & to_all[i]; a finite one is
    # "empty" when ~profile & to_empty[i], its own bit for a chain family
    to_all = [_hits(pulled_in, f.member_lt) for f in fams]
    to_empty = [
        _hits(pushed_out, f.member_gt) if f.member_order == ANTICHAIN else 1 << i
        for i, f in enumerate(fams)
    ]

    def pair(j, profile):
        if profile >> j & 1:
            return fams[j].id, ALL if profile & to_all[j] else COFINITE
        return fams[j].id, EMPTY if ~profile & to_empty[j] else FINITE

    # a block of 8 families reads only the profile bits in its mask, so
    # its (id, tag) pairs are cached as one tuple under those bits; the
    # families are sorted by id, so each class's pairs are too
    blocks = []
    for lo in range(0, n, 8):
        span = range(lo, min(lo + 8, n))
        mask = 0
        for j in span:
            mask |= 1 << j | to_all[j] | to_empty[j]
        blocks.append((mask, span, {}))
    shared = {}
    out = []
    # (families left undecided, required, the points neither required nor
    # excluded, profile so far).  An explicit stack, as a recursive closure
    # would keep ``out`` alive in a reference cycle until the cyclic
    # collector runs
    stack = [(n, frozenset(), space.concrete, 0)]
    while stack:
        i, required, optional, profile = stack.pop()
        if i:
            i -= 1
            if not clash_in[i] & ~profile:
                down = pulled_in[i]
                stack.append((i, required | down, optional - down, profile | 1 << i))
            if not clash_out[i] & profile:
                stack.append((i, required, optional - pushed_out[i], profile))
            continue
        tags = ()
        for mask, span, cache in blocks:
            key = profile & mask
            part = cache.get(key)
            if part is None:
                part = cache[key] = tuple(pair(j, profile) for j in span)
            tags += part
        if len(out) == CLOPEN_MAX_CLASSES:
            raise ValueError(
                "more than %d clopen down-set classes" % CLOPEN_MAX_CLASSES
            )
        out.append(ClopenDownClass(tags, required, shared.setdefault(optional, optional)))
    return tuple(out)


def _assemble(cls, points, covers, families):
    """A space of class ``cls`` with its fields set directly, for spaces
    made from an already-built one: the covers are not closed and the
    families not checked again."""
    space = object.__new__(cls)
    object.__setattr__(space, "concrete", points)
    object.__setattr__(space, "families", tuple(families))
    object.__setattr__(space, "covers", covers)
    return space


def _cut_minimal(space, cut, families):
    """``space`` less the minimal points ``cut``, with ``families``: a
    Thomason derivative.  The points kept are an up-set, so its covers are
    the parent's less those leaving ``cut``, the only ones walked.  Its
    cover index, stored in it, is the parent's less ``cut`` (which no
    cover enters), with the dropped covers' in-degrees lowered."""
    above, indegree = space._cover_index
    dropped = [ab for a in cut for ab in above.get(a, ())]
    above, indegree = dict(above), dict(indegree)
    for a in cut:
        above.pop(a, None)
    for _, b in dropped:
        indegree[b] -= 1
        if not indegree[b]:
            del indegree[b]
    child = _assemble(type(space), space.concrete - cut, space.covers.difference(dropped), families)
    child.__dict__["_cover_index"] = above, indegree
    return child


def restrict(space, points, family_ids):
    """Flagged subspace on the given points and families, equal to what the
    public constructor builds from its fields.

    Family bounds are intersected with the surviving points, and a family
    whose bounds all survive is kept as it is; the caller is responsible
    for the subset being meaningful (e.g. a clopen piece).  Points outside
    ``space`` raise ValueError.  On an up-set (no cover leaves the points),
    as a generalization closure and a catalog part are, the covers are the
    parent's covers between the points, pair objects shared: a point
    between two of them lies above one, so inside.  Any other subset has
    its induced order reduced afresh.  A derivative does not come here (see
    ``_cut_minimal``).  Families cut from validated ones keep sorted, unique
    ids, limits inside the space and no cycle, so nothing is checked again.
    """
    pts = frozenset(points)
    if not pts <= space.concrete:
        raise ValueError("restrict to unknown point %r" % (min(pts - space.concrete),))
    by_id = space._families_by_id
    fams = (
        f if f.member_lt | f.member_gt <= pts
        else replace(f, member_lt=f.member_lt & pts, member_gt=f.member_gt & pts)
        for f in map(by_id.get, sorted(by_id.keys() & family_ids))
        if f.limit in pts
    )
    above = space._cover_index[0]
    covers = [ab for a in pts for ab in above.get(a, ())]
    if any(b not in pts for _, b in covers):  # not an up-set
        induced = [(p, q) for p in pts for q in space.up_closure(p) & pts]
        covers = _transitive_closure(pts, induced)[0]
    return _assemble(FlaggedPriestley, pts, frozenset(covers), fams)


def instantiate(space, depth):
    """Finite truncation of a flagged space with ``depth`` explicit members.

    Members of family ``f`` are named ``f#0 .. f#<depth-1>`` and inserted
    between the family's bounds; chain members additionally descend in
    index order.  Used by the oracle tests.
    """
    points = set(space.concrete)
    order = set(space.covers)
    for f in space.families:
        names = ["%s#%d" % (f.id, i) for i in range(depth)]
        points.update(names)
        for i, m in enumerate(names):
            for l in f.member_lt:
                order.add((m, l))
            for g in f.member_gt:
                order.add((g, m))
            if f.member_order == DESCENDING and i + 1 < depth:
                order.add((names[i + 1], m))
    return FinitePriestley(frozenset(points), frozenset(order))


def realize_in_truncation(space, sym, depth):
    """Concrete subset of ``instantiate(space, depth)`` denoted by ``sym``.

    Finite portions take one member, cofinite portions all but one; for
    chain families the choices respect the chain (prefix/tail).
    """
    out = set(sym.concrete)
    for f in space.families:
        names = ["%s#%d" % (f.id, i) for i in range(depth)]
        tag = sym.portion(f.id)
        if tag == ALL:
            out.update(names)
        elif tag == COFINITE:
            out.update(names[1:])  # drop the first member: a tail for chains
        elif tag == FINITE:
            out.add(names[0])  # one member: a prefix for chains
    return frozenset(out)


# ---------------------------------------------------------------------------
# JSON (schema flagged-priestley/v1)

_FAMILY_OPTIONAL = ("memberOrder", "memberLt", "memberGt", "samples", "heightHint")
_JSON_KINDS = {str: "strings", list: "arrays", dict: "objects", int: "integers"}


def _json_object(data, required=(), optional=()):
    """``data`` checked to be a JSON object with every required field and
    no field outside ``required`` and ``optional``."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object, got %r" % (data,))
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ValueError("unknown fields: %s" % ", ".join(sorted(unknown)))
    missing = set(required) - set(data)
    if missing:
        raise ValueError("missing fields: %s" % ", ".join(sorted(missing)))
    return data


def _json_loads(text):
    """``json.loads``, raising ValueError on input nested too deeply for it."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _json_list(value, field, kind=str):
    """``value`` checked to be a JSON array of exactly ``kind``, as a tuple."""
    if not (type(value) is list and all(type(x) is kind for x in value)):
        raise ValueError("%s must be an array of %s" % (field, _JSON_KINDS[kind]))
    return tuple(value)


def flagged_from_json(text):
    """Parse the flagged-priestley/v1 schema.

    Unknown fields, missing required fields and fields of the wrong type
    raise ValueError.
    """
    data = _json_object(_json_loads(text), optional=("points", "order", "families"))
    points = _json_list(data.get("points", []), "points")
    order = []
    for pair in _json_list(data.get("order", []), "order", list):
        if len(_json_list(pair, "an order pair")) != 2:
            raise ValueError("an order pair must name two points, got %r" % (pair,))
        order.append(tuple(pair))
    families = []
    for fam in _json_list(data.get("families", []), "families", dict):
        _json_object(fam, ("id", "limit"), _FAMILY_OPTIONAL)
        if not (isinstance(fam["id"], str) and isinstance(fam["limit"], str)):
            raise ValueError("family id and limit must be strings")
        families.append(
            AccumulationFamily(
                id=fam["id"],
                limit=fam["limit"],
                member_order=fam.get("memberOrder", ANTICHAIN),
                member_lt=frozenset(_json_list(fam.get("memberLt", []), "memberLt")),
                member_gt=frozenset(_json_list(fam.get("memberGt", []), "memberGt")),
                samples=_json_list(fam.get("samples", []), "samples"),
                member_height_hint=fam.get("heightHint"),
            )
        )
    return FlaggedPriestley(frozenset(points), frozenset(order), tuple(families))


def flagged_to_json(space):
    strict = sorted((a, b) for (a, b) in space.order if a != b)
    return json.dumps(
        {
            "points": sorted(space.concrete),
            "order": [list(p) for p in strict],
            "families": [
                {
                    "id": f.id,
                    "limit": f.limit,
                    "memberOrder": f.member_order,
                    "memberLt": sorted(f.member_lt),
                    "memberGt": sorted(f.member_gt),
                    "samples": list(f.samples),
                    "heightHint": f.member_height_hint,
                }
                for f in space.families
            ],
        },
        indent=2,
        sort_keys=True,
    )
