"""Ready-made flagged models of a convergent sequence with one limit point.

These are the standard one-point-compactification pictures: countably
many isolated points accumulating at a single limit, with four choices of
spectral order on top of the same Stone space.  They make handy fixtures
and demonstrate how order and topology interact independently:

with the limit above the members the space is the familiar
Zariski-spectrum-of-a-PID picture (dispersible, Noetherian); with no
order it is still dispersible but glues differently; with the limit below
(or below an infinite descending chain) there are no isolated minimal
points at all and no dispersion exists.
"""

from .priestley import (
    ANTICHAIN,
    DESCENDING,
    AccumulationFamily,
    FlaggedPriestley,
)

UNRELATED = "unrelated"
LIMIT_ABOVE = "limit-above"
DESCENDING_TO_LIMIT = "descending-chain"
LIMIT_BELOW = "limit-below"

RELATIONS = (UNRELATED, LIMIT_ABOVE, DESCENDING_TO_LIMIT, LIMIT_BELOW)


def convergent_sequence_space(relation):
    """A sequence of isolated points converging to the limit ``inf``.

    ``relation`` picks the order: ``unrelated`` (trivial order),
    ``limit-above`` (every member below the limit), ``descending-chain``
    (members form an infinite descending chain, limit underneath), or
    ``limit-below`` (an antichain of members, limit underneath).  For
    ``unrelated`` and ``limit-above`` four members, ``0`` to ``3``, are
    concrete points and ``4`` to ``6`` are the family's samples; the other
    two keep all members anonymous.
    """
    if relation not in RELATIONS:
        raise ValueError("unknown relation %r" % (relation,))
    limit = "inf"
    if relation in (DESCENDING_TO_LIMIT, LIMIT_BELOW):
        fam = AccumulationFamily(
            id="tail",
            limit=limit,
            member_order=DESCENDING if relation == DESCENDING_TO_LIMIT else ANTICHAIN,
            member_gt=frozenset({limit}),
            samples=("0", "1", "2"),
        )
        return FlaggedPriestley(frozenset({limit}), (), (fam,))
    names = ["0", "1", "2", "3"]
    member_lt = frozenset({limit}) if relation == LIMIT_ABOVE else frozenset()
    fam = AccumulationFamily(
        id="tail", limit=limit, member_lt=member_lt, samples=("4", "5", "6")
    )
    order = [(n, limit) for n in names] if relation == LIMIT_ABOVE else []
    return FlaggedPriestley(frozenset(names) | {limit}, order, (fam,))


def guiding_examples():
    """The four orders on one convergent sequence, in the canonical order."""
    return tuple(map(convergent_sequence_space, RELATIONS))
