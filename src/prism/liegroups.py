"""Subgroup-space models for a catalog of compact Lie groups.

The catalog covers finite groups (user-supplied conjugacy-class data),
the circle, tori of rank <= 3, O(2), SO(3), and semidirect products of a
torus by a finite group of integer matrices.  Closed subgroups are
encoded by exact keys:

* cyclic and dihedral classes by their parameter (``Dih(n)`` has order
  2n and prints ``D(2n)``),
* closed subgroups of a rank-r torus by duality: a subgroup is the
  annihilator of a unique sublattice of Z^r, canonicalized in Hermite
  normal form (the zero lattice is the full torus and prints ``G``),
* the exceptional classes of SO(3) by name, with the classical fusion
  rules (an order-2 dihedral class is the fused ``C(2)``, the Klein
  four-group is its own key ``V4``).

The cotoral order ("normal with torus quotient") becomes table lookup
for the one-dimensional groups and, for tori, the exact lattice
condition: the annihilator lattices are nested with torsion-free
quotient, decided by Smith normal form for one pair and, in a snapshot,
read off the lattice points each key has inside the bound's box.

Heights are computed representation-theoretically: the component group
of a subgroup acts on the first rational homology of the identity
component of its centre, and the height is the number of simple summands
of that action.  In dimension <= 3 the count is exact by an invariant
line argument: one-dimensional summands are cut out by sign characters
of the generators, and whatever is left is a single simple piece.

Each group's part of the model lives on its class.  The private base
``_Group`` gives the defaults: no strict cotoral pairs, height 0, trivial
Weyl data, dimension 0, rank equal to dimension, a finite Phi and one
Burnside class.  The circle, O(2) and SO(3) read their answers off
three class tables (see ``_OneDim``).  The public functions below
validate the key with ``canonical_key`` and make one method call.  Adding
a group takes one subclass of ``_Group`` that defines ``_canonical``
(which keys belong to it, after fusion) and ``_snapshot``, and overrides
whichever defaults do not hold for it, ``_family_id`` among them.
"""

from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd, inf, prod
from operator import add
import re

from .errors import DimTooLarge, KeyMismatch, NotInvariant, UnsupportedGroup, Value
from . import intlinalg as la
from .priestley import (
    AccumulationFamily,
    FlaggedPriestley,
    _json_list,
    _json_loads,
    _json_object,
    restrict,
)


# ---------------------------------------------------------------------------
# subgroup keys


class _ParamKey(Value):
    """A key with one positive parameter ``n``; each subclass names the key
    and words the refusal of ``n < 1``."""

    n: int

    def __init__(self, n):
        if n < 1:
            raise ValueError(self._refusal)
        object.__setattr__(self, "n", n)


class Cyc(_ParamKey):
    _refusal = "cyclic order must be positive"

    @property
    def name(self):
        return "C(%d)" % self.n


class Dih(_ParamKey):  # order 2n
    _refusal = "dihedral parameter must be positive"

    @property
    def name(self):
        return "D(%d)" % (2 * self.n)


class _UnitKey(Value):
    """A key without parameters; each subclass names one subgroup class."""

    name = ""


class SO2Key(_UnitKey): name = "SO2"
class O2Key(_UnitKey): name = "O2"
class FullKey(_UnitKey): name = "G"
class A4Key(_UnitKey): name = "A4"
class S4Key(_UnitKey): name = "S4"
class A5Key(_UnitKey): name = "A5"
class KleinKey(_UnitKey): name = "V4"


_UNIT_KEYS = {cls.name: cls() for cls in _UnitKey.__subclasses__()}


class DualLattice(Value):
    """Annihilator lattice of a closed subgroup of a torus, in HNF."""

    rank: int  # ambient rank
    rows: tuple = ()

    def __post_init__(self):
        rows = la.hermite_normal_form(self.rows)
        if any(len(r) != self.rank for r in rows):
            raise ValueError("lattice row of wrong width")
        object.__setattr__(self, "rows", rows)

    def corank(self):
        """Dimension of the annihilated subgroup."""
        return self.rank - len(self.rows)

    @property
    def name(self):
        if not self.rows:
            return "G"
        return "L[%s]" % "; ".join(" ".join(map(str, row)) for row in self.rows)


class FiniteIdx(Value):
    index: int


# ---------------------------------------------------------------------------
# integer actions and the height formula


def _int_matrix(rows):
    """``rows`` as a tuple-of-tuples matrix of integers (booleans are not)."""
    m = tuple(tuple(r) for r in rows)
    if not all(type(x) is int for r in m for x in r):
        raise ValueError("matrix entries must be integers, got %r" % (m,))
    return m


class IntegerAction(Value):
    """A finite group acting on a lattice through integer generator matrices."""

    dim: int
    generators: tuple = ()

    def __post_init__(self):
        gens = tuple(_int_matrix(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if type(self.dim) is not int:
            raise ValueError("dimension must be an integer")
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        for g in gens:
            if len(g) != self.dim or any(len(r) != self.dim for r in g):
                raise ValueError("generator of wrong shape")
            if la.det(g) not in (1, -1):
                raise ValueError("generator is not invertible over the integers")
            if la.matrix_order(g) is None:
                raise ValueError("generator does not have finite order (checked to 12)")


def _sign_eigenspace(action, signs):
    rows = []
    for g, e in zip(action.generators, signs):
        for i in range(action.dim):
            rows.append(tuple(g[i][j] - (e if i == j else 0) for j in range(action.dim)))
    return la.kernel(rows, action.dim)


def count_simple_summands(action):
    """Number of simple summands of the rationalized action, dim <= 3.

    Sign characters cut out every one-dimensional summand; the Maschke
    complement of their span is either zero or a single simple piece,
    since any proper invariant subspace of it would force an invariant
    line, which is impossible in dimension three or less.  Their span has
    dimension ``one_dim_total``: joint eigenvectors of distinct sign tuples
    are independent, as ``g_i - e`` applied to a shortest relation among
    them, for a generator ``g_i`` on which two of its sign tuples differ,
    would give a shorter one.
    """
    if action.dim > 3:
        raise DimTooLarge("simple-summand counting needs dimension <= 3")
    if not action.generators:
        return action.dim
    one_dim_total = sum(
        len(_sign_eigenspace(action, signs))
        for signs in product((1, -1), repeat=len(action.generators))
    )
    return one_dim_total + (one_dim_total < action.dim)


def fixed_subspace(action):
    """Basis of the subspace fixed by every generator."""
    return _sign_eigenspace(action, (1,) * len(action.generators))


# tabulated actions of the component group on H_1 of the central torus
_NEGATION = IntegerAction(1, (((-1,),),))
_TRIVIAL_LINE = IntegerAction(1, ())


# ---------------------------------------------------------------------------
# Weyl data


class WeylData(Value):
    """Identity component and component group of a Weyl group N_G(H)/H."""

    identity_component: str  # "1", "SO(2)", "T^2", "T^3", "SO(3)"
    component_order: int
    component_name: str

    def is_finite(self):
        return self.identity_component == "1"


_TRIVIAL_WEYL = WeylData("1", 1, "1")


def finite_weyl_criterion(action, subspace):
    """Finite index in the normalizer: the subspace meets the fixed
    directions fully, dim(S cap T^W) = dim(T^W), that is, T^W lies in S;
    by the rank identity that holds exactly when adding T^W to S leaves
    its dimension unchanged."""
    subspace = list(subspace)
    _check_invariant(action, subspace)
    return la.span_dim(subspace + fixed_subspace(action)) == la.span_dim(subspace)


def normalizer_directions(action, subspace):
    """Lie-algebra directions of the normalizer: the subspace plus the
    fixed directions (the quotient is carried entirely by the fixed
    isotypical piece), as the reduced echelon basis of their sum."""
    subspace = list(subspace)
    _check_invariant(action, subspace)
    return tuple(la.rref(subspace + fixed_subspace(action))[0])


def _check_invariant(action, subspace):
    """Raise NotInvariant unless the generators map the basis vectors into
    the span: adding all their images at once leaves its dimension unchanged."""
    if any(len(v) != action.dim for v in subspace):
        raise ValueError("subspace vectors must have length %d" % action.dim)
    images = [tuple(sum(a * x for a, x in zip(row, v)) for row in g)
              for g in action.generators for v in subspace]
    if la.span_dim(subspace + images) != la.span_dim(subspace):
        raise NotInvariant("subspace is not invariant under the action")


# ---------------------------------------------------------------------------
# groups


class _Group(Value):
    """Defaults for a catalog group.  Every key a hook receives has been
    through the group's ``_canonical``, which each group defines, as it
    defines ``_snapshot(bound)``: the snapshot's keys by name, its order
    pairs, families and parts."""

    @cached_property
    def _hash(self):  # the catalog caches key on the group; a finite group's reads each class
        return Value.__hash__(self)

    def __hash__(self):
        return self._hash

    def _parse(self, name):
        """The key of a name in the group's own vocabulary, or None; it
        is asked before the shared key vocabulary."""
        return None

    def _name(self, key):
        return key.name

    def _lie_rank(self):
        return 0

    def _family_id(self, limit):
        """The id the snapshot gives a family with this limit, or None."""
        return None

    def _cotoral_lt(self, sub, sup):
        """The cotoral order on two distinct keys."""
        return False

    def _height(self, key):
        return 0

    def _weyl(self, key):
        return _TRIVIAL_WEYL

    def _dimension(self, key):
        return 0

    def _rank(self, key):
        return self._dimension(key)

    def _phi_is_finite(self):
        return True

    def _burnside_rank(self):
        return 1


class FiniteClass(Value):
    """One conjugacy class of subgroups of a finite group."""

    id: str
    weyl_order: int
    weyl_name: str = ""

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError("class id %r is not a string" % (self.id,))
        if type(self.weyl_order) is not int or self.weyl_order < 1:
            raise ValueError("Weyl order of %s must be an integer >= 1" % self.id)
        if not isinstance(self.weyl_name, str):
            raise ValueError("Weyl name of %s is not a string" % self.id)

    def component_name(self):
        return self.weyl_name or ("1" if self.weyl_order == 1 else "W%d" % self.weyl_order)


class FiniteGroup(_Group):
    classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ValueError("a finite group has at least the class of its trivial subgroup")
        if len({c.id for c in self.classes}) != len(self.classes):
            raise ValueError("duplicate class ids")

    def _canonical(self, key):
        if isinstance(key, FiniteIdx) and 0 <= key.index < len(self.classes):
            return key

    def _parse(self, name):
        for i, cls in enumerate(self.classes):
            if cls.id == name:
                return FiniteIdx(i)

    def _name(self, key):
        return self.classes[key.index].id

    def _weyl(self, key):
        cls = self.classes[key.index]
        return WeylData("1", cls.weyl_order, cls.component_name())

    def _burnside_rank(self):
        return len(self.classes)

    def _snapshot(self, bound):
        names = [cls.id for cls in self.classes]
        parts = [(n, (n,), ()) for n in names]
        return {n: FiniteIdx(i) for i, n in enumerate(names)}, [], [], parts


class _OneDim(_Group):
    """The circle, O(2) and SO(3), read off three class tables.

    ``_KEYS`` maps each key class of the group to the key's dimension,
    rank, central action (of the component group on H_1 of the central
    torus; None when there is no central torus) and Weyl data.
    ``_FAMILIES`` holds one row per family of finite subgroups: its id, the
    key class of its members, their first parameter, the family's limit,
    and whether the members are cotoral in the limit (the only strict
    cotoral pairs).  ``_SINGLES`` names the keys that form singleton parts.
    The snapshot names each family's members up to the bound, then the
    unit keys of ``_KEYS`` in its order; a family's samples are its next
    three members.
    """

    _SINGLES = ()

    def _canonical(self, key):
        return key if type(key) in self._KEYS else None

    def _lie_rank(self):
        return 1

    def _family_id(self, limit):
        return next((fid for fid, _, _, lim, _ in self._FAMILIES if lim == limit), None)

    def _cotoral_lt(self, sub, sup):
        # a finite cyclic group is cotoral in the circle it lies on
        return any(cotoral and type(sub) is cls and sup.name == limit
                   for _, cls, _, limit, cotoral in self._FAMILIES)

    def _height(self, key):
        action = self._KEYS[type(key)][2]
        return count_simple_summands(action) if action is not None else 0

    def _weyl(self, key):
        return self._KEYS[type(key)][3]

    def _dimension(self, key):
        return self._KEYS[type(key)][0]

    def _rank(self, key):
        return self._KEYS[type(key)][1]

    def _phi_is_finite(self):
        # finitely many classes unless a family's members have finite Weyl groups
        return not any(self._KEYS[row[1]][3].is_finite() for row in self._FAMILIES)

    def _snapshot(self, bound):
        units = [cls for cls in self._KEYS if issubclass(cls, _UnitKey)]
        _check_key_count(len(units) + sum(max(0, bound + 1 - row[2]) for row in self._FAMILIES))
        keys, order_pairs, fams, parts = {}, [], [], []
        for fid, cls, first, limit, cotoral in self._FAMILIES:
            members = [cls(n) for n in range(first, bound + 1)]
            names = [k.name for k in members]
            keys.update(zip(names, members))
            start = max(first, bound + 1)
            samples = tuple(cls(n).name for n in range(start, start + 3))
            above = {limit} if cotoral else ()
            fams.append(AccumulationFamily(fid, limit, member_lt=above, samples=samples))
            parts.append((fid, (*names, limit), (fid,)))
            order_pairs += [(name, limit) for name in names if cotoral]
        keys.update((cls.name, cls()) for cls in units)
        parts += [(single, (single,), ()) for single in self._SINGLES]
        return keys, order_pairs, fams, parts


_C2_WEYL = WeylData("1", 2, "C2")
# a torus key's Weyl data, by the number of rows of its lattice
_TORUS_WEYL = (_TRIVIAL_WEYL, WeylData("SO(2)", 1, "1"),
               WeylData("T^2", 1, "1"), WeylData("T^3", 1, "1"))


class Circle(_OneDim):
    _KEYS = {
        Cyc: (0, 0, None, WeylData("SO(2)", 1, "1")),
        FullKey: (1, 1, _TRIVIAL_LINE, _TRIVIAL_WEYL),
    }
    _FAMILIES = (("cyclic", Cyc, 1, "G", True),)


class O2(_OneDim):
    _KEYS = {
        Cyc: (0, 0, None, WeylData("SO(2)", 2, "C2")),
        Dih: (0, 0, None, _C2_WEYL),
        SO2Key: (1, 1, _TRIVIAL_LINE, _C2_WEYL),
        FullKey: (1, 1, _NEGATION, _TRIVIAL_WEYL),
    }
    _FAMILIES = (("cyclic", Cyc, 1, "SO2", True), ("dihedral", Dih, 1, "G", False))


class SO3(_OneDim):
    _KEYS = {
        Cyc: (0, 0, None, WeylData("SO(2)", 2, "C2")),
        Dih: (0, 0, None, _C2_WEYL),
        SO2Key: (1, 1, _TRIVIAL_LINE, _C2_WEYL),
        O2Key: (1, 1, _NEGATION, _TRIVIAL_WEYL),
        A4Key: (0, 0, None, _C2_WEYL),
        S4Key: (0, 0, None, _TRIVIAL_WEYL),
        A5Key: (0, 0, None, _TRIVIAL_WEYL),
        KleinKey: (0, 0, None, WeylData("1", 6, "S3")),
        FullKey: (3, 1, None, _TRIVIAL_WEYL),
    }
    # Dih(1) and Dih(2) fuse with C(2) and V4, so the dihedral keys start at 3
    _FAMILIES = (("cyclic", Cyc, 1, "SO2", True), ("dihedral", Dih, 3, "O2", False))
    _SINGLES = ("G", "A4", "S4", "A5", "V4")

    def _canonical(self, key):
        if isinstance(key, Dih) and key.n <= 2:
            # reflections fuse with rotations of order 2
            return Cyc(2) if key.n == 1 else KleinKey()
        return super()._canonical(key)

    def _weyl(self, key):
        if key == Cyc(1):
            return WeylData("SO(3)", 1, "1")
        return super()._weyl(key)


class Torus(_Group):
    rank: int

    def __post_init__(self):
        if type(self.rank) is not int:
            raise ValueError("torus rank is not an integer")
        if not 1 <= self.rank <= 3:
            raise ValueError("torus rank must be between 1 and 3")

    def _canonical(self, key):
        if isinstance(key, DualLattice) and key.rank == self.rank:
            return key
        if isinstance(key, FullKey):
            return DualLattice(self.rank, ())

    def _lie_rank(self):
        return self.rank

    def _family_id(self, limit):
        return "conv:" + limit

    def _cotoral_lt(self, sub, sup):
        """K <= H via annihilators: L_H inside L_K with torsion-free
        quotient (all Smith invariant factors 1)."""
        coords = la._lattice_coordinates(sub.rows, sup.rows)
        return coords is not None and all(f == 1 for f in la.snf_invariant_factors(coords))

    def _height(self, key):
        # the action on H_1 of the central torus is trivial: one summand per dimension
        return key.corank()

    def _weyl(self, key):
        return _TORUS_WEYL[len(key.rows)]

    def _dimension(self, key):
        return key.corank()

    def _snapshot(self, bound):
        """The in-bound lattices, with the cotoral order read off lattice points.

        Saturation lemma: for ``L_H`` inside ``L_K``, the quotient
        ``L_K / L_H`` is torsion-free exactly when the coordinates of
        ``L_H``'s basis in ``L_K``'s basis form a primitive matrix (all
        Smith invariant factors 1, that is, the gcd of its maximal minors
        is 1).  A proper cotoral pair has ``L_H`` of smaller rank than
        ``L_K``, and a one-row ``K`` lies under ``G`` (the zero lattice)
        only.

        In-box argument: every row of an in-bound HNF key has entries in
        ``[-b, b]``, so the rows of any in-bound ``H`` above ``K`` are
        points of ``L_K`` inside the box ``[-b, b]^r``; they lead with a
        positive pivot, so only that half of the box is listed, once per
        ``K`` with coordinates.  Each nonzero point listed is the row of a
        one-row key, above ``K`` exactly when its coordinates have gcd 1; a
        two-row key is above a three-row ``K`` when both its rows are listed
        and their coordinates' cross product (the 2x2 minors) has gcd 1.
        Each ``K``'s hits are sorted by key position, which gives the pair
        list of the all-pairs test, in its order.
        """
        lattices = _hnf_lattices(self.rank, bound)
        keys = {k.name: k for k in lattices}
        names = list(keys)
        line = {k.rows[0]: pos for pos, k in enumerate(lattices) if len(k.rows) == 1}
        planes = {}  # a two-row key's first row -> its second row -> its position
        for pos, k in enumerate(lattices):
            if len(k.rows) == 2:
                planes.setdefault(k.rows[0], {})[k.rows[1]] = pos
        up = {}
        order_pairs = []
        for name, key in zip(names, lattices):
            hits = [0] if key.rows else []  # every proper subgroup lies under G
            if len(key.rows) > 1:
                points = _box_points(key.rows, bound)
                hits += [line[x] for x, t in points.items() if gcd(*t) == 1]
                if len(key.rows) == 3:
                    for x, (a, b, c) in points.items():
                        seconds = planes.get(x, {})
                        for y in seconds.keys() & points.keys():
                            d = points[y]
                            if gcd(a * d[1] - b * d[0], a * d[2] - c * d[0], b * d[2] - c * d[1]) == 1:
                                hits.append(seconds[y])
                hits.sort()
            up[name] = [names[pos] for pos in hits]
            order_pairs += [(name, above) for above in up[name]]
        corank = {name: k.corank() for name, k in keys.items()}
        fams = [
            AccumulationFamily(self._family_id(name), name,
                               member_lt=frozenset([name, *up[name]]),
                               member_height_hint=corank[name] - 1 if corank[name] > 1 else None)
            for name in sorted(keys)
            if corank[name]
        ]
        parts = [("all", tuple(keys), tuple(f.id for f in fams))]
        return keys, order_pairs, fams, parts


class ToralSemidirect(_Group):
    """A rank-r torus extended by a finite group of integer matrices."""

    rank: int
    generators: tuple
    relations: tuple = ()

    def __post_init__(self):
        if type(self.rank) is not int:
            raise ValueError("rank must be an integer")
        if not 1 <= self.rank <= 3:
            raise ValueError("rank must be between 1 and 3")
        # integer, square, invertible and of finite order
        gens = IntegerAction(self.rank, self.generators).generators
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relations", tuple(map(tuple, self.relations)))
        for word in self.relations:
            if not all(type(i) is int and 0 <= i < len(gens) for i in word):
                raise ValueError("relation %r is not a word in the generator indices" % (word,))
            m = la.identity(self.rank)
            for i in word:
                m = la.mat_mul(m, gens[i])
            if m != la.identity(self.rank):
                raise ValueError("relation %r does not hold" % (word,))

    def _canonical(self, key):
        if isinstance(key, FullKey):
            return key
        raise KeyMismatch(
            "subgroup keys beyond the full group are not enumerated for "
            "toral semidirect products"
        )

    def _lie_rank(self):
        return self.rank

    def _height(self, key):
        return count_simple_summands(IntegerAction(self.rank, self.generators))

    def _dimension(self, key):
        # the only key is the whole group, of the torus's dimension and rank
        return self.rank

    def _phi_is_finite(self):
        return all(g == la.identity(self.rank) for g in self.generators)

    def _burnside_rank(self):
        raise UnsupportedGroup(
            "class counting for central extensions needs the subgroup "
            "enumeration that is not modelled"
        )

    def _snapshot(self, bound):
        raise UnsupportedGroup("subgroup enumeration for toral semidirect products is not modelled")


# the normalizer of a maximal torus in SU(3): the Weyl group S3 acting on
# the A2 lattice through its two simple reflections
NSU3T = ToralSemidirect(
    2,
    (((-1, 1), (0, 1)), ((1, 0), (1, -1))),
    ((0, 0), (1, 1), (0, 1, 0, 1, 0, 1)),
)


# ---------------------------------------------------------------------------
# per-key and per-group answers


def _catalog(group):
    if not isinstance(group, _Group):
        raise KeyMismatch("unknown group %r" % (group,))
    return group


def canonical_key(group, key):
    """Validate a key against its group and apply the fusion rules."""
    canonical = _catalog(group)._canonical(key)
    if canonical is None:
        raise KeyMismatch("key %r does not belong to %r" % (key, group))
    return canonical


def key_name(group, key):
    return group._name(canonical_key(group, key))


def parse_key(group, name):
    """Inverse of key_name on the group's key vocabulary."""
    table = _key_table(_catalog(group))
    key = table.get(name)
    if key is None:
        key = table[name] = _parse_key(group, name)
    return key


@lru_cache(maxsize=None)
def _key_table(group):
    """Name-to-key table of a catalog group.  A snapshot enters the keys it
    built, so reading its points back parses nothing; any other name is
    parsed on first use and entered."""
    return {}


_KEY_SYNTAX = re.compile(r"C\((\d+)\)|D\((\d+)\)|L\[(.*)\]")


def _parse_key(group, name):
    """The key a name reads as in a catalog group.  The group's own names
    come first, so a finite group may call a class ``G`` or ``C(2)``."""
    key = group._parse(name)
    if key is not None:
        return key
    if name in _UNIT_KEYS:
        return canonical_key(group, _UNIT_KEYS[name])
    m = _KEY_SYNTAX.fullmatch(name)
    if m is None:
        raise KeyMismatch("cannot parse key %r" % (name,))
    cyclic, dihedral, lattice = m.groups()
    try:
        if cyclic is not None:
            return canonical_key(group, Cyc(int(cyclic)))
        if dihedral is not None:
            if int(dihedral) % 2:
                raise KeyMismatch("dihedral groups have even order: %r" % name)
            return canonical_key(group, Dih(int(dihedral) // 2))
        rows = tuple(tuple(map(int, part.split())) for part in lattice.split(";")) \
            if lattice.strip() else ()
        return canonical_key(group, DualLattice(group_rank(group), rows))
    except ValueError as exc:  # a malformed number, or a row or key out of range
        raise KeyMismatch("cannot parse key %r for %r: %s" % (name, group, exc)) from None


def group_rank(group):
    return _catalog(group)._lie_rank()


def cotoral_le(group, sub, sup):
    """The cotoral order: sub is normal in sup with quotient a torus."""
    sub = canonical_key(group, sub)
    sup = canonical_key(group, sup)
    return sub == sup or group._cotoral_lt(sub, sup)


def height_rep(group, key):
    """Representation-theoretic height of a subgroup.

    The component group of the subgroup acts on the first rational
    homology of the identity component of its centre; the height is the
    number of simple summands.  Keys with semisimple (or finite) identity
    component have nothing to act on and sit at height zero.
    """
    return group._height(canonical_key(group, key))


def weyl_data(group, key):
    return group._weyl(canonical_key(group, key))


def has_finite_weyl(group, key):
    return weyl_data(group, key).is_finite()


def key_dimension(group, key):
    return group._dimension(canonical_key(group, key))


def key_rank(group, key):
    return group._rank(canonical_key(group, key))


def phi_is_finite(group):
    """Finitely many classes with finite Weyl group: the component group
    acts trivially on the maximal torus."""
    return _catalog(group)._phi_is_finite()


def burnside_rank(group):
    """Number of finite-Weyl conjugacy classes, or infinity."""
    return group._burnside_rank() if phi_is_finite(group) else inf


def spectrum_is_noetherian(group):
    return phi_is_finite(group)


# ---------------------------------------------------------------------------
# snapshots


# a group snapshot of more keys raises ValueError before they are listed:
# T^3 at bound 4 has 5205, and O(2) at bound 100 000 would have 200 002:
# `prism heights o2 --bound 100000` exits 1 within 0.25 s.  The largest
# torus snapshot admitted, T^3 at bound 7 (76 364 keys), costs
# `prism heights` 17.1 s and 891 MB (Python 3.11.7, 2-vCPU host)
SNAPSHOT_MAX_KEYS = 100_000


def _check_key_count(n):
    if n > SNAPSHOT_MAX_KEYS:
        raise ValueError("more than %d snapshot keys" % SNAPSHOT_MAX_KEYS)


def _hnf_lattices(rank, bound):
    """All HNF lattices in Z^rank with entries bounded by ``bound``.

    Per set of pivot columns (none for the zero lattice) and choice of
    pivots in [1, bound], each entry right of a row's pivot ranges over
    [0, p) in the column of a lower row's pivot p, and over
    [-bound, bound] elsewhere.  Those rows are already in Hermite form,
    so each key is built from them directly.  Each choice's count meets
    the key cap before its lattices are listed, and ``bound`` meets it
    first: there are at least as many one-row lattices.
    """
    _check_key_count(bound)
    out = []
    anything = range(-bound, bound + 1)
    for k in range(rank + 1):
        for cols in combinations(range(rank), k):
            row_of = {c: r for r, c in enumerate(cols)}
            cells = [(i, j) for i in range(k) for j in range(cols[i] + 1, rank)]
            for pivots in product(range(1, bound + 1), repeat=k):
                ranges = [range(pivots[row_of[j]]) if j in row_of else anything for _, j in cells]
                _check_key_count(len(out) + prod(map(len, ranges)))
                for entries in product(*ranges):
                    rows = [[0] * rank for _ in range(k)]
                    for i, c in enumerate(cols):
                        rows[i][c] = pivots[i]
                    for (i, j), v in zip(cells, entries):
                        rows[i][j] = v
                    key = object.__new__(DualLattice)
                    object.__setattr__(key, "rank", rank)
                    object.__setattr__(key, "rows", tuple(map(tuple, rows)))
                    out.append(key)
    return out


def _box_points(rows, bound):
    """The origin and the points of the lattice with HNF basis ``rows``
    inside the box ``[-bound, bound]^r`` whose first nonzero entry is
    positive, each mapped to its coordinates in that basis.

    The basis is triangular, so the points are built row by row.  The
    columns from a row's pivot up to the next pivot are final once that
    row's coefficient is chosen: the pivot column confines it to an
    interval and the others narrow it.  While the earlier coefficients are
    all 0, the coefficient is kept nonnegative, as the point's first
    nonzero entry is this row's positive pivot times it: that is the half
    of the box an HNF row lies in.
    """
    width = len(rows[0])
    pivots = [row.index(next(filter(None, row))) for row in rows]
    points = {(0,) * width: ()}
    for row, p, end in zip(rows, pivots, pivots[1:] + [width]):
        a = row[p]
        rest = [(row[j], j) for j in range(p + 1, end)]
        grown = {}
        for v, coords in points.items():
            c = v[p]
            lo = -((bound + c) // a) if any(coords) else 0
            hi = (bound - c) // a
            for e, j in rest:
                c = v[j]
                if e < 0:
                    e, c = -e, -c
                if e:
                    lo, hi = max(lo, -((bound + c) // e)), min(hi, (bound - c) // e)
                elif abs(c) > bound:
                    hi = lo - 1
            point = tuple([x + lo * y for x, y in zip(v, row)])
            for t in range(lo, hi + 1):
                grown[point] = coords + (t,)
                point = tuple(map(add, point, row))
        points = grown
    return points


@lru_cache(maxsize=None)
def _snapshot_data(group, bound):
    """Name-to-key map, flagged model and part grouping of a catalog
    group's snapshot; the only cache of a snapshot.  Its keys go into the
    group's key table, so ``parse_key`` reads the points back by lookup."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    keys, order_pairs, fams, parts = _catalog(group)._snapshot(bound)
    _key_table(group).update(keys)
    return keys, FlaggedPriestley(frozenset(keys), order_pairs, tuple(fams)), parts


def flagged_snapshot(group, bound):
    """Flagged model of the subgroup prism up to the complexity bound.

    Concrete points are the keys of complexity at most ``bound`` (cyclic
    or dihedral order, Hermite entries) together with the unparameterized
    keys; the order is cotoral, and each accumulation family records a
    tail of the catalog's convergent sequences.
    """
    return _snapshot_data(group, bound)[1]


def snapshot_keys(group, bound):
    """Name-to-key map matching flagged_snapshot's point names."""
    return dict(_snapshot_data(group, bound)[0])


def snapshot_parts(group, bound):
    """The snapshot cut into its catalog pieces (clopen in the full prism).

    For O(2) these are the cyclic and dihedral parts; SO(3) adds one
    singleton piece per exceptional class; finite groups fall apart into
    singletons; the circle and the tori are a single piece.
    """
    _, space, parts = _snapshot_data(group, bound)
    return [
        (label, restrict(space, points, fam_ids)) for label, points, fam_ids in parts
    ]


# ---------------------------------------------------------------------------
# dimension and rank as candidate dispersions


def _candidate(group, space, hook):
    """The group's ``hook`` on a snapshot's keys; a family takes its limit's
    value minus one, as the limit is one dimension and rank above it."""
    value_of = getattr(_catalog(group), hook)
    values = {name: value_of(parse_key(group, name)) for name in space.concrete}
    for f in space.families:
        if f.id != group._family_id(f.limit):
            raise KeyMismatch("unknown family %r" % (f.id,))
        values[f.id] = values[f.limit] - 1
    from .dispersion import DispersionCandidate

    return DispersionCandidate(values)


def dimension_candidate(group, space):
    """Subgroup dimension as a candidate dispersion on a snapshot."""
    return _candidate(group, space, "_dimension")


def rank_candidate(group, space):
    """Subgroup rank as a candidate dispersion on a snapshot."""
    return _candidate(group, space, "_rank")


# ---------------------------------------------------------------------------
# JSON loaders for user-supplied groups


def finite_group_from_json(text):
    """Schema: {"classes": [{"id", "weylOrder", "weylName"?}, ...]}."""
    data = _json_object(_json_loads(text), ("classes",))
    classes = []
    for entry in _json_list(data["classes"], "classes", dict):
        _json_object(entry, ("id", "weylOrder"), ("weylName",))
        classes.append(
            FiniteClass(entry["id"], entry["weylOrder"], entry.get("weylName", ""))
        )
    return FiniteGroup(tuple(classes))


def toral_semidirect_from_json(text):
    """Schema: {"rank": r, "generators": [[[..]..]..], "relations": [[..]..]}."""
    data = _json_object(_json_loads(text), ("rank", "generators"), ("relations",))
    gens = tuple(
        tuple(_json_list(row, "a generator row", int) for row in _json_list(g, "a generator", list))
        for g in _json_list(data["generators"], "generators", list)
    )
    rels = tuple(
        _json_list(word, "a relation", int)
        for word in _json_list(data.get("relations", []), "relations", list)
    )
    return ToralSemidirect(data["rank"], gens, rels)


def _read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# the group identifiers: names, and kinds read as "<kind>:<argument>", each
# made from the argument; a torus rank that is no integer reaches Torus as
# it was given, and Torus refuses it
_GROUP_NAMES = {"circle": Circle, "o2": O2, "so3": SO3, "nsu3t": lambda: NSU3T}
_GROUP_KINDS = {
    "torus": lambda arg: Torus(int(arg) if re.fullmatch(r"\s*[-+]?\d+\s*", arg) else arg),
    "finite": lambda arg: finite_group_from_json(_read_text(arg)),
    "semidirect": lambda arg: toral_semidirect_from_json(_read_text(arg)),
}


def group_from_spec(spec):
    """Resolve a CLI group identifier like ``circle`` or ``torus:2``."""
    if spec in _GROUP_NAMES:
        return _GROUP_NAMES[spec]()
    kind, colon, arg = spec.partition(":")
    if colon and kind in _GROUP_KINDS:
        return _GROUP_KINDS[kind](arg)
    raise KeyMismatch("unknown group identifier %r" % (spec,))
