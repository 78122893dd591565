"""Plain record classes: the base of every value type in symsum.

A record's fields are the parameters of its written-out `__init__`, with
their annotations.  `Record` derives the rest when the class is created,
generating and `exec`-ing no code, so importing symsum stays cheap:
`FIELDS` (the `(name, annotation)` pairs), `DEFAULTS`, `==` (same type,
equal field values), a repr naming each field, and `replace(**changes)`,
a copy built through `__init__` so that its checks run again.  Fields
named in `HIDDEN` are left out of `==` and the repr.  A `Frozen` record
also hashes by its field values and refuses assignment; its `__init__`
writes each field once with `set_field`.
"""

from operator import attrgetter

set_field = object.__setattr__


def values_getter(names):
    """The function from a record to the tuple of its values of `names`."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return attrgetter(*names) if names else lambda record: ()


class Record:
    FIELDS: tuple = ()
    DEFAULTS: dict = {}
    HIDDEN: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            names = code.co_varnames[1 : code.co_argcount]
            defaults = init.__defaults__ or ()
            cls.FIELDS = tuple((n, init.__annotations__.get(n)) for n in names)
            cls.DEFAULTS = dict(zip(names[len(names) - len(defaults) :], defaults))
        cls._shown = tuple(n for n, _ in cls.FIELDS if n not in cls.HIDDEN)
        cls._values = staticmethod(values_getter(cls._shown))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        for name, _ in self.FIELDS:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)


class Frozen(Record):
    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
