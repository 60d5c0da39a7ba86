"""Immutable value records with named, slotted fields.

A record class lists its fields in `__slots__`, and the base reads them
for everything: a positional `__init__` that takes one value per field,
equality with a record of the same class and equal fields, a hash over the
fields (so a record with an unhashable field is unhashable), the repr
``Name(field=value, ...)`` and a pickle/deepcopy rebuild from the fields.
A class whose last fields have defaults passes them on from its own
`__init__`.

Assignment is refused, so `__init__` sets each field through its slot's own
setter, bound once per class as `coeffring` binds `BaseScalar`'s: it calls
the class's `_set_fields(self, <one parameter per field>)`, compiled from
the field names when the class is made, as `collections.namedtuple`
compiles its `__new__`.  That is one setter call per field, with no loop and
no name lookup, and a wrong number of values is Python's own TypeError,
naming the class.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        scope = {f"set_{name}": getattr(cls, name).__set__ for name in names}
        exec(f"def _set_fields(self, {', '.join(names)}):\n"
             + "".join(f"    set_{name}(self, {name})\n" for name in names),
             scope)
        cls._set_fields = scope["_set_fields"]
        cls._set_fields.__qualname__ = cls.__qualname__

    def __init__(self, *values):
        self._set_fields(*values)

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
