"""Exception types and the immutable value base shared across the library.

Every domain error raised by this package derives from PrismError, so
callers (and the CLI) can distinguish domain failures from programming
errors.
"""

from operator import attrgetter


class PrismError(Exception):
    """Base class for all domain errors raised by this package."""


class NotT0(PrismError):
    """Two distinct points of a finite space have identical closures."""


class InconsistentHint(PrismError):
    """A declared member height hint contradicts a computable lower bound."""


class ChecksFailed(PrismError):
    """strata was given a candidate that is not a dispersion."""


class KeyMismatch(PrismError):
    """A subgroup key does not belong to the given group."""


class DimTooLarge(PrismError):
    """Simple-summand counting is only valid in dimension <= 3."""


class NotInvariant(PrismError):
    """A subspace is not invariant under the given integer action."""


class NotDispersible(PrismError):
    """A decomposition was requested for a non-dispersible space."""


class UnsupportedGroup(PrismError):
    """The requested operation is not available for this group encoding."""


class Value:
    """An immutable value that compares, hashes and prints by its fields.

    Fields are annotated class attributes in constructor order, an assigned
    plain value (no cached property) being the default.  Equality and hashing
    read ``_compare`` (all fields unless the class names others) and never
    hold across classes.  ``__post_init__``, or a hot class's own
    ``__init__``, checks and sets the fields with ``object.__setattr__``; any
    other setting or deleting raises AttributeError.  Caches may live in the
    instance ``__dict__``.

    Five hot classes keep a faster ``__init__`` of their own, ``Cyc`` and
    ``Dih`` sharing their base's: ``AccumulationFamily``, ``Cyc`` and
    ``Dih``, built by every catalog snapshot (the catalog-cold benchmark),
    and ``SymbolicSet`` and ``ClopenDownClass``, built by the closures and
    clopen classes (the point-queries benchmark).  ``DualLattice`` is built
    by none there: the torus enumeration sets a key's fields directly.
    """

    _fields = _compare = ()
    _values = staticmethod(lambda value: ())  # the compared fields

    def __init_subclass__(cls):
        own = tuple(vars(cls).get("__annotations__", ()))
        if own:
            cls._fields += own
            cls._compare = vars(cls).get("_compare", cls._fields)
            cls._values = staticmethod(attrgetter(*cls._compare))

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if kwargs or len(args) != len(fields):
            values = {f: getattr(cls, f) for f in fields  # a plain value, not a cached property
                      if hasattr(cls, f) and not hasattr(getattr(cls, f), "__get__")}
            values.update(**dict(zip(fields, args)), **kwargs)  # a field given twice raises
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError("%s() takes %s, not %r, %r" % (cls.__name__, fields, args, kwargs))
            args = [values[f] for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check and normalise the fields; a subclass says how."""

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot set or delete %r of an immutable value" % (name,))

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)


def replace(value, **changes):
    """``value`` with some fields changed, built again by its constructor,
    which checks and normalises them, as ``dataclasses.replace`` does."""
    return type(value)(**{f: getattr(value, f) for f in value._fields} | changes)
