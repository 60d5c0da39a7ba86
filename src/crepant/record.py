"""Immutable value records with named, slotted fields.

A record class lists its fields in `__slots__`, and the base reads them
for everything: a positional `__init__` that takes one value per field and
sets it through `object.__setattr__`, since assignment is refused, equality
with a record of the same class and equal fields, a hash over the fields
(so a record with an unhashable field is unhashable), the repr
``Name(field=value, ...)`` and a pickle/deepcopy rebuild from the fields.
A class whose last fields have defaults passes them on from its own
`__init__`.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, not {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    __delattr__ = __setattr__
