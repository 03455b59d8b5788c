"""Thomason derivatives, heights, and dispersion checks on flagged spaces.

Heights live in the naturals plus ``math.inf``.  The Thomason height is
the least solution of

    h(p)      = max(0, h(q)+1 for concrete q < p,
                       fam(f)+1 for families with limit p,
                       fam(f)+1 for families whose members lie below p)
    fam(f)    = infinity                       for descending chains,
                max(0, h(c)+1 for c in member_gt(f), declared hint)
                                               for antichain families,

which is a longest path in the graph on the concrete points and the
family ids with edges q -> p for each cover q < p, c -> f for c in
member_gt(f), and f -> limit(f), f -> member_lt(f).  The covers suffice:
every strict pair is a chain of covers, at least as long.  One pass of
Kahn's algorithm computes it.  A node the pass leaves over lies on a
cycle through some family (one whose limit sits at or below a lower bound
of its members) or above one, and its height is infinite, as is every
height above a descending chain.  A member height hint is the family's
starting value, so it acts as a floor; a hint strictly below the
structurally forced value is rejected as inconsistent.

The derivative mirrors the same bookkeeping step by step so that k
applications remove exactly the material of height < k: a family whose
structural blockers are gone but whose hint is still positive survives
with the hint decremented (its phantom substructure is being consumed).
"""

from math import inf
from types import MappingProxyType

from .errors import ChecksFailed, InconsistentHint, Value, replace
from .priestley import (
    ALL,
    ANTICHAIN,
    COFINITE,
    DESCENDING,
    FinitePriestley,
    FlaggedPriestley,
    SymbolicSet,
    _assemble,
    _cut_minimal,
    _kahn,
    _principal,
    is_noetherian,
    restrict,
    thomason_points,
)


class HeightAssignment(Value):
    """Heights of the concrete points and the common member heights."""

    heights: dict
    family_heights: dict

    def __getitem__(self, name):
        if name in self.heights:
            return self.heights[name]
        return self.family_heights[name]

    def all_finite(self):
        return self.max_height() != inf

    def max_height(self):
        values = list(self.heights.values()) + list(self.family_heights.values())
        return max(values) if values else 0


class DispersionCandidate(Value):
    """A candidate dispersion: natural values on points and family ids, in
    a read-only view of a dict of its own, and its last is_dispersion
    verdict, which therefore cannot go stale."""

    values: MappingProxyType

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def __getitem__(self, name):
        return self.values[name]


# ---------------------------------------------------------------------------
# derivative and heights


def thomason_derivative(space):
    """Remove the isolated minimal material (one filtration step).

    Finite posets lose their minimal points.  Flagged spaces lose the
    Thomason concrete points and the families whose members are currently
    minimal and unhinted; surviving families see removed points dropped
    from their bounds and positive hints decremented.
    """
    tp = thomason_points(space)
    if isinstance(space, FinitePriestley):  # its Thomason points are a plain set
        return _cut_minimal(space, tp, ())
    cut, consumed = tp.concrete, tp._tags
    # a Thomason point is minimal, so in no family's member_lt
    families = (
        f if f.member_gt.isdisjoint(cut) and not f.member_height_hint
        else replace(
            f,
            member_gt=f.member_gt - cut,
            # positive hints step down; None and 0 stay
            member_height_hint=f.member_height_hint and f.member_height_hint - 1,
        )
        for f in space.families
        if f.id not in consumed
    )
    return _cut_minimal(space, cut, families)


def thomason_heights(space):
    """Longest-path heights; infinite values mean not dispersible there."""
    value = dict.fromkeys(space.concrete, 0)
    succ = {p: [] for p in space.concrete}
    for f in space.families:
        value[f.id] = inf if f.member_order == DESCENDING else f.member_height_hint or 0
        succ[f.id] = list(f.member_lt | {f.limit})
        for c in f.member_gt:
            succ[c].append(f.id)
    for (a, b) in space.covers:
        succ[a].append(b)
    topo, left = _kahn(succ)
    for n in topo:
        step = value[n] + 1
        for q in succ[n]:
            if value[q] < step:
                value[q] = step
    # what the pass leaves over lies on a cycle through a family, or above one
    for n, d in left.items():
        if d:
            value[n] = inf
    heights = {p: value[p] for p in space.concrete}
    fam_heights = {f.id: value[f.id] for f in space.families}
    for f in space.families:
        if f.member_height_hint is None:
            continue
        if f.member_order == DESCENDING:
            raise InconsistentHint(
                "family %s declares a finite member height on a chain" % f.id
            )
        # the pass holds max(hint, forced floor), or inf on a cycle or above one
        if f.member_height_hint < fam_heights[f.id]:
            raise InconsistentHint(
                "family %s declares member height %d below the forced %s"
                % (f.id, f.member_height_hint, fam_heights[f.id])
            )
    return HeightAssignment(heights, fam_heights)


def trivialize(space):
    """Forget the order but keep the convergence data (for CB heights)."""
    families = (
        replace(f, member_order=ANTICHAIN, member_lt=frozenset(), member_gt=frozenset())
        for f in space.families
    )
    return _assemble(FlaggedPriestley, space.concrete, frozenset(), families)


def cb_heights(space):
    """Cantor-Bendixson heights: Thomason heights of the trivialized space."""
    return thomason_heights(trivialize(space))


def is_dispersible(space):
    return thomason_heights(space).all_finite()


def height_of_space(space):
    return thomason_heights(space).max_height()


# ---------------------------------------------------------------------------
# dispersion candidates


def is_dispersion(space, candidate):
    """Check the two dispersion axioms; returns (ok, witness).

    Axiom one is strict monotonicity along the order, member/limit bounds
    included.  Axiom two is checked on the flagged surrogate: the limit of
    every family must sit strictly above the common member value (the
    members witness accumulation inside every closed set containing a
    tail).  The witness names the first violated comparison; an order
    witness is the least violating pair.  Strict monotonicity on the
    covers gives it on every pair, so all pairs are scanned only for the
    witness of a failing check.  Then a descending-chain family breaks
    axiom one among its own members, witnessed ``("family-order", id, id)``.
    Last, a family valued below its ``member_height_hint`` fails, witnessed
    ``("family-hint", id)``: the hint is the height of the members, and a
    dispersion dominates the heights.  A candidate that misses a point or
    a family, or names something else, raises ValueError.  The candidate
    keeps the verdict with the space object, so the axioms are checked once
    per space and candidate: a call on another space checks afresh and
    replaces it.  A ValueError is never kept.
    """
    if candidate.__dict__.get("_verdict", (None,))[0] is not space:
        candidate.__dict__["_verdict"] = space, _check_axioms(space, candidate)
    return candidate._verdict[1]


def _check_axioms(space, candidate):
    values = candidate.values
    missing = space.concrete.difference(values)
    if missing:
        raise ValueError("candidate is not total: missing %r" % (min(missing, key=repr),))
    for f in space.families:
        if f.id not in values:
            raise ValueError("candidate is not total: missing family %r" % (f.id,))
    if len(values) > len(space.concrete) + len(space.families):  # ids and names are distinct
        unknown = values.keys() - space.concrete - set(space.family_ids())
        raise ValueError("candidate names no point or family: %r" % (min(unknown, key=repr),))
    for name, v in values.items():
        if type(v) is not int or v < 0:
            raise ValueError("candidate value for %r is not a natural" % (name,))
    if any(not values[p] < values[q] for (p, q) in space.covers):
        broken = [(p, q) for (p, q) in space.order if p != q and not values[p] < values[q]]
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
        if f.member_order == DESCENDING:  # no natural falls strictly forever
            return False, ("family-order", f.id, f.id)
    for f in space.families:
        if values[f.id] < (f.member_height_hint or 0):
            return False, ("family-hint", f.id)
    return True, None


# ---------------------------------------------------------------------------
# strata


class StrataReport(Value):
    at_level: SymbolicSet
    below: SymbolicSet
    at_or_above: SymbolicSet


def strata(space, candidate, level):
    """The slice (P_level, P_below, P_at_or_above) of a dispersion.

    Only the axioms are checked, once per space and candidate by
    ``is_dispersion`` (ChecksFailed if they fail; a level that is not a
    natural raises ValueError); the structure of the slice follows from
    them.  Values rise strictly along the covers, from member_gt to family
    to member_lt, and from a family to its limit.  So P_below is a
    down-set, and open: a limit inside has its family's
    value below its own.  Its complement P_at_or_above is then a closed
    up-set, and a point or member of value ``level`` has everything below
    it, and every family it is the limit of, outside that part: the slice
    is minimal and isolated there.  Every portion is ``all`` or ``empty``.
    """
    if type(level) is not int or level < 0:
        raise ValueError("level %r is not a natural" % (level,))
    ok, witness = is_dispersion(space, candidate)
    if not ok:
        raise ChecksFailed("candidate is not a dispersion: %r" % (witness,))
    values, below, at = candidate.values, ([], {}), ([], {})  # points, portions
    for p in space.concrete:
        if values[p] <= level:
            (below if values[p] < level else at)[0].append(p)
    for f in space.families:
        if values[f.id] <= level:
            (below if values[f.id] < level else at)[1][f.id] = ALL
    below = SymbolicSet(*below)
    return StrataReport(SymbolicSet(*at), below, below.complement(space))


# ---------------------------------------------------------------------------
# weak visibility


def weakly_visible(space, point):
    """Witness that {point} = (up-closure) & (clopen down-set), or None.

    The witness is the least clopen down-set containing the point: the
    principal down-set, which meets the up-set only in the point, grown by
    rules every such set obeys.  Members below a point inside are all in
    (tag ``all``), a limit inside takes a cofinite tail at least (tag
    ``cofinite``), and either tag forces the down-closures of the limit and
    the member_gt in.  So the answer is None as soon as an added down-set
    meets the up-set, or a tagged family has a member_gt there, its members
    lying above the point.  The trigger index names the families an added
    down-set fires, each at most once per tag, and a worklist holds the
    points whose down-sets are still to add.  The result is a union of
    principal down-sets whose tagged families have their limits and
    member_gt inside, so a clopen down-set.  When no family is tagged, its
    concrete part is the cached principal down-set itself.
    """
    lower, upper = space._down_up
    up = upper.get(point)
    if up is None:
        raise ValueError("unknown point %r" % (point,))
    lt, _, limit, watch = space._triggers
    concrete = down = lower[point]
    stack, tags = [], {}
    while True:
        for q in down & watch:
            for fired, tag in ((lt, ALL), (limit, COFINITE)):
                for f in fired.get(q, ()):
                    if tags.get(f.id) not in (ALL, tag):
                        if not f.member_gt.isdisjoint(up):
                            return None
                        tags[f.id] = tag
                        stack += (*f.member_gt, f.limit)
        while stack and stack[-1] in concrete:
            stack.pop()
        if not stack:
            return SymbolicSet(concrete, tags)
        down = lower[stack.pop()]
        if not down.isdisjoint(up):
            return None
        concrete |= down


# ---------------------------------------------------------------------------
# generalization closures


def gen_closure(space, point):
    """Subspace of everything the point generalizes to (cotorally above it).

    It keeps the families the point's symbolic up-closure tags (members
    above the point) whose limit it holds, and carries the induced order.
    """
    return restrict(space, *_principal(space, point, 1))


def is_generically_noetherian(space):
    """Every generalization closure satisfies the descending chain condition.

    A Noetherian space passes, as a closure inherits only dominated
    families.  Otherwise the definition is evaluated on the points below
    some family's lower bound, the only closures that inherit a family.
    """
    below = (space.down_closure(g) for f in space.families for g in f.member_gt)
    return is_noetherian(space) or all(
        is_noetherian(gen_closure(space, p)) for p in frozenset().union(*below)
    )
