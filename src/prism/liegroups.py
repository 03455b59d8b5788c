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
quotient, decided by Smith normal form.

Heights are computed representation-theoretically: the component group
of a subgroup acts on the first rational homology of the identity
component of its centre, and the height is the number of simple summands
of that action.  In dimension <= 3 the count is exact by an invariant
line argument: one-dimensional summands are cut out by sign characters
of the generators, and whatever is left is a single simple piece.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import inf
import json
import re

from .errors import DimTooLarge, KeyMismatch, NotInvariant, UnsupportedGroup
from . import intlinalg as la
from .priestley import AccumulationFamily, FlaggedPriestley, restrict


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FiniteClass:
    """One conjugacy class of subgroups of a finite group."""

    id: str
    weyl_order: int
    weyl_name: str = ""

    def component_name(self):
        return self.weyl_name or ("1" if self.weyl_order == 1 else "W%d" % self.weyl_order)


@dataclass(frozen=True)
class FiniteGroup:
    classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        ids = [c.id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate class ids")


@dataclass(frozen=True)
class Circle:
    pass


@dataclass(frozen=True)
class Torus:
    rank: int

    def __post_init__(self):
        if not 1 <= self.rank <= 3:
            raise ValueError("torus rank must be between 1 and 3")


@dataclass(frozen=True)
class O2:
    pass


@dataclass(frozen=True)
class SO3:
    pass


@dataclass(frozen=True)
class ToralSemidirect:
    """A rank-r torus extended by a finite group of integer matrices."""

    rank: int
    generators: tuple
    relations: tuple = ()

    def __post_init__(self):
        gens = tuple(la.mat(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relations", tuple(tuple(w) for w in self.relations))
        if not 1 <= self.rank <= 3:
            raise ValueError("rank must be between 1 and 3")
        for g in gens:
            if len(g) != self.rank or any(len(r) != self.rank for r in g):
                raise ValueError("generator of wrong shape")
            if la.det(g) not in (1, -1):
                raise ValueError("generator is not invertible over the integers")
            if la.matrix_order(g) is None:
                raise ValueError("generator does not have finite order (checked to 12)")
        for word in self.relations:
            m = la.identity(self.rank)
            for i in word:
                m = la.mat_mul(m, gens[i])
            if m != la.identity(self.rank):
                raise ValueError("relation %r does not hold" % (word,))


# the normalizer of a maximal torus in SU(3): the Weyl group S3 acting on
# the A2 lattice through its two simple reflections
NSU3T = ToralSemidirect(
    2,
    (((-1, 1), (0, 1)), ((1, 0), (1, -1))),
    ((0, 0), (1, 1), (0, 1, 0, 1, 0, 1)),
)


def group_rank(group):
    if isinstance(group, (Circle, O2, SO3)):
        return 1
    if isinstance(group, Torus):
        return group.rank
    if isinstance(group, ToralSemidirect):
        return group.rank
    return 0


# ---------------------------------------------------------------------------
# subgroup keys


@dataclass(frozen=True)
class Cyc:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cyclic order must be positive")


@dataclass(frozen=True)
class Dih:
    n: int  # order 2n

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dihedral parameter must be positive")


@dataclass(frozen=True)
class SO2Key:
    pass


@dataclass(frozen=True)
class O2Key:
    pass


@dataclass(frozen=True)
class FullKey:
    pass


@dataclass(frozen=True)
class A4Key:
    pass


@dataclass(frozen=True)
class S4Key:
    pass


@dataclass(frozen=True)
class A5Key:
    pass


@dataclass(frozen=True)
class KleinKey:
    pass


@dataclass(frozen=True)
class DualLattice:
    """Annihilator lattice of a closed subgroup of a torus, in HNF."""

    rank: int  # ambient rank
    rows: tuple = ()

    def __post_init__(self):
        rows = la.hermite_normal_form(self.rows)
        for r in rows:
            if len(r) != self.rank:
                raise ValueError("lattice row of wrong width")
        object.__setattr__(self, "rows", rows)

    def corank(self):
        """Dimension of the annihilated subgroup."""
        return self.rank - len(self.rows)


@dataclass(frozen=True)
class FiniteIdx:
    index: int


_SO3_EXCEPTIONAL = {
    A4Key(): ("A4", 2, "C2"),
    S4Key(): ("S4", 1, "1"),
    A5Key(): ("A5", 1, "1"),
    KleinKey(): ("V4", 6, "S3"),
}


def canonical_key(group, key):
    """Validate a key against its group and apply the fusion rules."""
    if isinstance(group, Circle):
        if isinstance(key, (Cyc, FullKey)):
            return key
    elif isinstance(group, Torus):
        if isinstance(key, DualLattice) and key.rank == group.rank:
            return key
        if isinstance(key, FullKey):
            return DualLattice(group.rank, ())
    elif isinstance(group, O2):
        if isinstance(key, (Cyc, Dih, SO2Key, FullKey)):
            return key
    elif isinstance(group, SO3):
        if isinstance(key, Dih):
            if key.n == 1:
                return Cyc(2)  # reflections fuse with rotations of order 2
            if key.n == 2:
                return KleinKey()
            return key
        if isinstance(key, (Cyc, SO2Key, O2Key, A4Key, S4Key, A5Key, KleinKey, FullKey)):
            return key
    elif isinstance(group, FiniteGroup):
        if isinstance(key, FiniteIdx) and 0 <= key.index < len(group.classes):
            return key
    elif isinstance(group, ToralSemidirect):
        if isinstance(key, FullKey):
            return key
        raise KeyMismatch(
            "subgroup keys beyond the full group are not enumerated for "
            "toral semidirect products"
        )
    raise KeyMismatch("key %r does not belong to %r" % (key, group))


def key_name(group, key):
    key = canonical_key(group, key)
    if isinstance(key, Cyc):
        return "C(%d)" % key.n
    if isinstance(key, Dih):
        return "D(%d)" % (2 * key.n)
    if isinstance(key, SO2Key):
        return "SO2"
    if isinstance(key, O2Key):
        return "O2"
    if isinstance(key, FullKey):
        return "G"
    if isinstance(key, A4Key):
        return "A4"
    if isinstance(key, S4Key):
        return "S4"
    if isinstance(key, A5Key):
        return "A5"
    if isinstance(key, KleinKey):
        return "V4"
    if isinstance(key, DualLattice):
        if not key.rows:
            return "G"
        return "L[%s]" % "; ".join(" ".join(str(x) for x in row) for row in key.rows)
    if isinstance(key, FiniteIdx):
        return group.classes[key.index].id
    raise KeyMismatch("unprintable key %r" % (key,))


def parse_key(group, name):
    """Inverse of key_name on the group's key vocabulary."""
    m = re.fullmatch(r"C\((\d+)\)", name)
    if m:
        return canonical_key(group, Cyc(int(m.group(1))))
    m = re.fullmatch(r"D\((\d+)\)", name)
    if m:
        order = int(m.group(1))
        if order % 2:
            raise KeyMismatch("dihedral groups have even order: %r" % name)
        return canonical_key(group, Dih(order // 2))
    if name == "G":
        return canonical_key(group, FullKey())
    fixed = {"SO2": SO2Key(), "O2": O2Key(), "A4": A4Key(), "S4": S4Key(),
             "A5": A5Key(), "V4": KleinKey()}
    if name in fixed:
        return canonical_key(group, fixed[name])
    m = re.fullmatch(r"L\[(.*)\]", name)
    if m:
        body = m.group(1).strip()
        rows = ()
        if body:
            rows = tuple(
                tuple(int(x) for x in part.split()) for part in body.split(";")
            )
        return canonical_key(group, DualLattice(group_rank(group), rows))
    if isinstance(group, FiniteGroup):
        for i, cls in enumerate(group.classes):
            if cls.id == name:
                return FiniteIdx(i)
    raise KeyMismatch("cannot parse key %r" % (name,))


# ---------------------------------------------------------------------------
# cotoral order


def _lattice_cotoral_le(lk, lh):
    """K <= H for torus subgroups via annihilators: L_H inside L_K with
    torsion-free quotient (all Smith invariant factors 1)."""
    coords = []
    for row in lh.rows:
        c = la.solve_in_lattice(lk.rows, row)
        if c is None:
            return False
        coords.append(c)
    if not coords:
        return True
    return all(f == 1 for f in la.snf_invariant_factors(coords))


def cotoral_le(group, sub, sup):
    """The cotoral order: sub is normal in sup with quotient a torus."""
    sub = canonical_key(group, sub)
    sup = canonical_key(group, sup)
    if sub == sup:
        return True
    if isinstance(group, Circle):
        return isinstance(sub, Cyc) and isinstance(sup, FullKey)
    if isinstance(group, Torus):
        return _lattice_cotoral_le(sub, sup)
    if isinstance(group, (O2, SO3)):
        return isinstance(sub, Cyc) and isinstance(sup, SO2Key)
    return False  # finite groups and semidirect products: reflexivity only


# ---------------------------------------------------------------------------
# integer actions and the height formula


@dataclass(frozen=True)
class IntegerAction:
    """A finite group acting on a lattice through integer generator matrices."""

    dim: int
    generators: tuple = ()

    def __post_init__(self):
        gens = tuple(la.mat(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
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
    return la.kernel([la.fvec(r) for r in rows], action.dim)


def count_simple_summands(action):
    """Number of simple summands of the rationalized action, dim <= 3.

    Sign characters cut out every one-dimensional summand; the Maschke
    complement of their span is either zero or a single simple piece,
    since any proper invariant subspace of it would force an invariant
    line, which is impossible in dimension three or less.
    """
    if action.dim > 3:
        raise DimTooLarge("simple-summand counting needs dimension <= 3")
    if not action.generators:
        return action.dim
    one_dim_total = 0
    eigenvectors = []
    for signs in product((1, -1), repeat=len(action.generators)):
        ker = _sign_eigenspace(action, signs)
        one_dim_total += len(ker)
        eigenvectors.extend(ker)
    span = la.span_dim(eigenvectors)
    return one_dim_total + (1 if span < action.dim else 0)


def fixed_subspace(action):
    """Basis of the subspace fixed by every generator."""
    return _sign_eigenspace(action, (1,) * len(action.generators))


# tabulated actions of the component group on H_1 of the central torus
_NEGATION = IntegerAction(1, (((-1,),),))
_TRIVIAL_LINE = IntegerAction(1, ())


def height_rep(group, key):
    """Representation-theoretic height of a subgroup.

    The component group of the subgroup acts on the first rational
    homology of the identity component of its centre; the height is the
    number of simple summands.  Keys with semisimple (or finite) identity
    component have nothing to act on and sit at height zero.
    """
    key = canonical_key(group, key)
    if isinstance(group, FiniteGroup):
        return 0
    if isinstance(group, Circle):
        return count_simple_summands(_TRIVIAL_LINE) if isinstance(key, FullKey) else 0
    if isinstance(group, Torus):
        corank = key.corank()
        return count_simple_summands(IntegerAction(corank, ())) if corank else 0
    if isinstance(group, O2):
        if isinstance(key, SO2Key):
            return count_simple_summands(_TRIVIAL_LINE)
        if isinstance(key, FullKey):
            return count_simple_summands(_NEGATION)
        return 0
    if isinstance(group, SO3):
        if isinstance(key, SO2Key):
            return count_simple_summands(_TRIVIAL_LINE)
        if isinstance(key, O2Key):
            return count_simple_summands(_NEGATION)
        return 0  # Full, the polyhedral classes, and finite keys
    if isinstance(group, ToralSemidirect):
        return count_simple_summands(IntegerAction(group.rank, group.generators))
    raise KeyMismatch("no height table for %r" % (group,))


# ---------------------------------------------------------------------------
# Weyl data


@dataclass(frozen=True)
class WeylData:
    """Identity component and component group of a Weyl group N_G(H)/H."""

    identity_component: str  # "1", "SO(2)", "T^2", "T^3", "SO(3)"
    component_order: int
    component_name: str

    def is_finite(self):
        return self.identity_component == "1"


def weyl_data(group, key):
    key = canonical_key(group, key)
    if isinstance(group, FiniteGroup):
        cls = group.classes[key.index]
        return WeylData("1", cls.weyl_order, cls.component_name())
    if isinstance(group, Circle):
        if isinstance(key, Cyc):
            return WeylData("SO(2)", 1, "1")
        return WeylData("1", 1, "1")
    if isinstance(group, Torus):
        k = len(key.rows)
        if k == 0:
            return WeylData("1", 1, "1")
        return WeylData("SO(2)" if k == 1 else "T^%d" % k, 1, "1")
    if isinstance(group, O2):
        if isinstance(key, Cyc):
            return WeylData("SO(2)", 2, "C2")
        if isinstance(key, (SO2Key, Dih)):
            return WeylData("1", 2, "C2")
        return WeylData("1", 1, "1")
    if isinstance(group, SO3):
        if isinstance(key, Cyc):
            if key.n == 1:
                return WeylData("SO(3)", 1, "1")
            return WeylData("SO(2)", 2, "C2")
        if isinstance(key, (SO2Key, Dih)):
            return WeylData("1", 2, "C2")
        if key in _SO3_EXCEPTIONAL:
            _, order, name = _SO3_EXCEPTIONAL[key]
            return WeylData("1", order, name)
        return WeylData("1", 1, "1")  # O2 and the full group
    if isinstance(group, ToralSemidirect):
        return WeylData("1", 1, "1")  # the full group normalizes itself
    raise KeyMismatch("no Weyl table for %r" % (group,))


def has_finite_weyl(group, key):
    return weyl_data(group, key).is_finite()


def finite_weyl_criterion(action, subspace):
    """Finite index in the normalizer: the subspace meets the fixed
    directions fully, dim(S cap T^W) = dim(T^W)."""
    _check_invariant(action, subspace)
    fixed = fixed_subspace(action)
    meet = la.intersect_spaces(list(subspace), fixed, action.dim)
    return len(meet) == len(fixed)


def normalizer_directions(action, subspace):
    """Lie-algebra directions of the normalizer: the subspace plus the
    fixed directions (the quotient is carried entirely by the fixed
    isotypical piece)."""
    _check_invariant(action, subspace)
    return tuple(la.sum_spaces(list(subspace), fixed_subspace(action)))


def _check_invariant(action, subspace):
    vectors = [la.fvec(v) for v in subspace]
    for g in action.generators:
        for v in vectors:
            image = tuple(
                sum(row[j] * v[j] for j in range(action.dim)) for row in g
            )
            if not la.in_span(vectors, image):
                raise NotInvariant("subspace is not invariant under the action")


# ---------------------------------------------------------------------------
# global finiteness predicates


def phi_is_finite(group):
    """Finitely many classes with finite Weyl group: the component group
    acts trivially on the maximal torus."""
    if isinstance(group, (FiniteGroup, Circle, Torus)):
        return True
    if isinstance(group, (O2, SO3)):
        return False
    if isinstance(group, ToralSemidirect):
        return all(g == la.identity(group.rank) for g in group.generators)
    raise KeyMismatch("unknown group %r" % (group,))


def burnside_rank(group):
    """Number of finite-Weyl conjugacy classes, or infinity."""
    if not phi_is_finite(group):
        return inf
    if isinstance(group, FiniteGroup):
        return len(group.classes)
    if isinstance(group, (Circle, Torus)):
        return 1
    raise UnsupportedGroup(
        "class counting for central extensions needs the subgroup "
        "enumeration that is not modelled"
    )


def spectrum_is_noetherian(group):
    return phi_is_finite(group)


# ---------------------------------------------------------------------------
# snapshots


def _hnf_lattices(rank, bound):
    """All HNF lattices in Z^rank with entries bounded by ``bound``."""
    out = [DualLattice(rank, ())]

    def fill(pivot_cols):
        k = len(pivot_cols)
        rows = [[0] * rank for _ in range(k)]

        def fill_cell(cells, idx):
            if idx == len(cells):
                yield tuple(tuple(r) for r in rows)
                return
            i, j = cells[idx]
            if j == pivot_cols[i]:
                choices = range(1, bound + 1)
            elif j in pivot_cols:
                pivot_row = pivot_cols.index(j)
                top = min(rows[pivot_row][j] - 1, bound)
                choices = range(0, top + 1)
            else:
                choices = range(-bound, bound + 1)
            for v in choices:
                rows[i][j] = v
                yield from fill_cell(cells, idx + 1)
            rows[i][j] = 0

        # fill pivots first so reduction bounds are known
        cells = [(i, pivot_cols[i]) for i in range(k)]
        cells += [
            (i, j)
            for i in range(k)
            for j in range(pivot_cols[i] + 1, rank)
            if (i, j) not in cells
        ]
        yield from fill_cell(cells, 0)

    from itertools import combinations

    for k in range(1, rank + 1):
        for pivot_cols in combinations(range(rank), k):
            for rows in fill(pivot_cols):
                out.append(DualLattice(rank, rows))
    return out


@lru_cache(maxsize=None)
def _snapshot_data(group, bound):
    """Keys, order pairs, families, and part grouping for a catalog group."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if isinstance(group, ToralSemidirect):
        raise UnsupportedGroup(
            "subgroup enumeration for toral semidirect products is not modelled"
        )
    parts = []
    if isinstance(group, FiniteGroup):
        names = [cls.id for cls in group.classes]
        parts = [(n, (n,), ()) for n in names]
        return {n: FiniteIdx(i) for i, n in enumerate(names)}, [], [], parts

    keys = {}
    fams = []
    if isinstance(group, Circle):
        cyc = [Cyc(n) for n in range(1, bound + 1)]
        for k in cyc + [FullKey()]:
            keys[key_name(group, k)] = k
        fams.append(
            AccumulationFamily(
                id="cyclic",
                limit="G",
                member_lt=frozenset({"G"}),
                samples=tuple("C(%d)" % n for n in range(bound + 1, bound + 4)),
            )
        )
        parts = [("cyclic", tuple(keys), ("cyclic",))]
    elif isinstance(group, O2):
        for k in [Cyc(n) for n in range(1, bound + 1)]:
            keys[key_name(group, k)] = k
        for k in [Dih(n) for n in range(1, bound + 1)]:
            keys[key_name(group, k)] = k
        keys["SO2"] = SO2Key()
        keys["G"] = FullKey()
        fams.append(
            AccumulationFamily(
                id="cyclic",
                limit="SO2",
                member_lt=frozenset({"SO2"}),
                samples=tuple("C(%d)" % n for n in range(bound + 1, bound + 4)),
            )
        )
        fams.append(
            AccumulationFamily(
                id="dihedral",
                limit="G",
                samples=tuple("D(%d)" % (2 * n) for n in range(bound + 1, bound + 4)),
            )
        )
        cyc_names = tuple(n for n in keys if n.startswith("C(")) + ("SO2",)
        dih_names = tuple(n for n in keys if n.startswith("D(")) + ("G",)
        parts = [("cyclic", cyc_names, ("cyclic",)), ("dihedral", dih_names, ("dihedral",))]
    elif isinstance(group, SO3):
        for k in [Cyc(n) for n in range(1, bound + 1)]:
            keys[key_name(group, k)] = k
        for k in [Dih(n) for n in range(3, bound + 1)]:
            keys[key_name(group, k)] = k
        for k in [SO2Key(), O2Key(), A4Key(), S4Key(), A5Key(), KleinKey(), FullKey()]:
            keys[key_name(group, k)] = k
        dstart = max(3, bound + 1)
        fams.append(
            AccumulationFamily(
                id="cyclic",
                limit="SO2",
                member_lt=frozenset({"SO2"}),
                samples=tuple("C(%d)" % n for n in range(bound + 1, bound + 4)),
            )
        )
        fams.append(
            AccumulationFamily(
                id="dihedral",
                limit="O2",
                samples=tuple("D(%d)" % (2 * n) for n in range(dstart, dstart + 3)),
            )
        )
        cyc_names = tuple(n for n in keys if n.startswith("C(")) + ("SO2",)
        dih_names = tuple(n for n in keys if n.startswith("D(")) + ("O2",)
        parts = [("cyclic", cyc_names, ("cyclic",)), ("dihedral", dih_names, ("dihedral",))]
        for single in ("G", "A4", "S4", "A5", "V4"):
            parts.append((single, (single,), ()))
    elif isinstance(group, Torus):
        for k in _hnf_lattices(group.rank, bound):
            keys[key_name(group, k)] = k
        # a proper cotoral subgroup has strictly smaller dimension, so only
        # mixed-corank pairs need the lattice test; the keys are canonical
        # lattices already, so the test runs on them directly
        corank = {name: k.corank() for name, k in keys.items()}
        higher = {d: [b for b in keys if corank[b] > d] for d in set(corank.values())}
        up = {name: [] for name in keys}
        order_pairs = []
        for a, ka in keys.items():
            for b in higher[corank[a]]:
                if _lattice_cotoral_le(ka, keys[b]):
                    order_pairs.append((a, b))
                    up[a].append(b)
        for name in sorted(keys):
            d = corank[name]
            if d == 0:
                continue
            fams.append(
                AccumulationFamily(
                    id="conv:%s" % name,
                    limit=name,
                    member_lt=frozenset([name, *up[name]]),
                    member_height_hint=(d - 1) if d > 1 else None,
                )
            )
        parts = [("all", tuple(keys), tuple(f.id for f in fams))]
        return keys, order_pairs, fams, parts
    else:
        raise KeyMismatch("unknown group %r" % (group,))
    order_pairs = [
        (a, b)
        for a in keys
        for b in keys
        if a != b and cotoral_le(group, keys[a], keys[b])
    ]
    return keys, order_pairs, fams, parts


@lru_cache(maxsize=None)
def flagged_snapshot(group, bound):
    """Flagged model of the subgroup prism up to the complexity bound.

    Concrete points are the keys of complexity at most ``bound`` (cyclic
    or dihedral order, Hermite entries) together with the unparameterized
    keys; the order is cotoral, and each accumulation family records a
    tail of the catalog's convergent sequences.
    """
    keys, order_pairs, fams, _ = _snapshot_data(group, bound)
    return FlaggedPriestley(frozenset(keys), frozenset(order_pairs), tuple(fams))


def snapshot_keys(group, bound):
    """Name-to-key map matching flagged_snapshot's point names."""
    return dict(_snapshot_data(group, bound)[0])


def snapshot_parts(group, bound):
    """The snapshot cut into its catalog pieces (clopen in the full prism).

    For O(2) these are the cyclic and dihedral parts; SO(3) adds one
    singleton piece per exceptional class; finite groups fall apart into
    singletons; the circle and the tori are a single piece.
    """
    keys, order_pairs, fams, parts = _snapshot_data(group, bound)
    space = FlaggedPriestley(frozenset(keys), frozenset(order_pairs), tuple(fams))
    return [
        (label, restrict(space, points, fam_ids)) for label, points, fam_ids in parts
    ]


# ---------------------------------------------------------------------------
# dimension and rank as candidate dispersions


def key_dimension(group, key):
    key = canonical_key(group, key)
    if isinstance(group, FiniteGroup):
        return 0
    if isinstance(group, Circle):
        return 1 if isinstance(key, FullKey) else 0
    if isinstance(group, Torus):
        return key.corank()
    if isinstance(group, O2):
        return 1 if isinstance(key, (SO2Key, FullKey)) else 0
    if isinstance(group, SO3):
        if isinstance(key, FullKey):
            return 3
        return 1 if isinstance(key, (SO2Key, O2Key)) else 0
    raise KeyMismatch("no dimension table for %r" % (group,))


def key_rank(group, key):
    key = canonical_key(group, key)
    if isinstance(group, SO3):
        return 1 if isinstance(key, (SO2Key, O2Key, FullKey)) else 0
    return key_dimension(group, key)


def _candidate(group, space, value_of_key):
    values = {}
    for name in space.concrete:
        values[name] = value_of_key(parse_key(group, name))
    for f in space.families:
        if f.id in ("cyclic", "dihedral"):
            values[f.id] = 0
        elif f.id.startswith("conv:"):
            values[f.id] = value_of_key(parse_key(group, f.id[len("conv:"):])) - 1
        else:
            raise KeyMismatch("unknown family %r" % (f.id,))
    from .dispersion import DispersionCandidate

    return DispersionCandidate(values)


def dimension_candidate(group, space):
    """Subgroup dimension as a candidate dispersion on a snapshot."""
    return _candidate(group, space, lambda k: key_dimension(group, k))


def rank_candidate(group, space):
    """Subgroup rank as a candidate dispersion on a snapshot."""
    return _candidate(group, space, lambda k: key_rank(group, k))


# ---------------------------------------------------------------------------
# JSON loaders for user-supplied groups


def finite_group_from_json(text):
    """Schema: {"classes": [{"id", "weylOrder", "weylName"?}, ...]}."""
    data = json.loads(text)
    if not isinstance(data, dict) or set(data) - {"classes"}:
        raise ValueError("expected an object with a 'classes' field")
    classes = []
    for entry in data["classes"]:
        bad = set(entry) - {"id", "weylOrder", "weylName"}
        if bad:
            raise ValueError("unknown class fields: %s" % ", ".join(sorted(bad)))
        classes.append(
            FiniteClass(entry["id"], int(entry["weylOrder"]), entry.get("weylName", ""))
        )
    return FiniteGroup(tuple(classes))


def toral_semidirect_from_json(text):
    """Schema: {"rank": r, "generators": [[[..]..]..], "relations": [[..]..]}."""
    data = json.loads(text)
    if not isinstance(data, dict) or set(data) - {"rank", "generators", "relations"}:
        raise ValueError("expected rank/generators/relations")
    return ToralSemidirect(
        int(data["rank"]),
        tuple(tuple(tuple(int(x) for x in row) for row in g) for g in data["generators"]),
        tuple(tuple(int(i) for i in w) for w in data.get("relations", [])),
    )


def group_from_spec(spec, read_file=None):
    """Resolve a CLI group identifier like ``circle`` or ``torus:2``."""
    if read_file is None:
        def read_file(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read()

    if spec == "circle":
        return Circle()
    if spec == "o2":
        return O2()
    if spec == "so3":
        return SO3()
    if spec == "nsu3t":
        return NSU3T
    if spec.startswith("torus:"):
        return Torus(int(spec.split(":", 1)[1]))
    if spec.startswith("finite:"):
        return finite_group_from_json(read_file(spec.split(":", 1)[1]))
    if spec.startswith("semidirect:"):
        return toral_semidirect_from_json(read_file(spec.split(":", 1)[1]))
    raise KeyMismatch("unknown group identifier %r" % (spec,))
