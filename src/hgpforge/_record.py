"""Immutable value records on `__slots__`.

The package's plain records are `typing.NamedTuple` types.  A record that
checks its fields on construction, is read in a loop, or has a length of
its own is a `SlotRecord` instead: its explicit `__init__` is the only way
to build it (a NamedTuple's `_make` and `_replace` skip `__new__`), a slot
read is about three times faster than a tuple field read, and a tuple's
own length is its field count.  Neither kind generates methods by `exec`,
so importing the package loads neither `dataclasses` nor `inspect`.

The value types `f2la.BinaryMatrix` and `diagonal.PhasePolynomial` are
SlotRecords too, each with a repr of its own.
"""


class SlotRecord:
    """Base of the slot records: the fields are `__slots__`, in order.

    A subclass sets each field once in `__init__` with `object.__setattr__`.
    Equality and hashing go by the field values, equality only between
    records of the same class; the repr is `Name(field=value, ...)`; any
    later assignment or deletion raises AttributeError.  The fields are the
    `__init__` arguments in order, so copy and pickle rebuild a record by
    calling its class on them.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, so the checks run again
        return type(self), self._values()
