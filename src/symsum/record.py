"""Plain record classes: the base of every value type in symsum.

A record's fields are the parameters of its written-out `__init__`, with
their annotations.  `Record` derives the rest when the class is created,
generating and `exec`-ing no code, so importing symsum stays cheap:
`FIELDS` (the `(name, annotation)` pairs), `DEFAULTS`, `==` (same type,
equal field values), a repr naming each field, and `replace(**changes)`,
a copy built through `__init__` so that its checks run again.  A
`Frozen` record also hashes by its field values and refuses assignment;
its `__init__` writes each field once with `set_field`.  `exact_str`,
which prints a number at any size, lives here for the repr's int fields.
"""

from operator import attrgetter

set_field = object.__setattr__
_TEXT = object()  # the value of a repr piece that is only text


def exact_str(x) -> str:
    """`str(x)` for an int or a Fraction, at any size.  str() is tried
    first, so any other value prints as its str(); only where it raises,
    past int()'s digit limit (4,300 by default), is an int split in two
    halves of its digits by divmod."""
    try:
        return str(x)
    except ValueError:
        pass
    num, den = x.numerator, x.denominator
    if den != 1:
        return f"{exact_str(num)}/{exact_str(den)}"
    k = abs(num).bit_length() * 3 // 20  # about half its digits, as log10(2) > 0.3
    high, low = divmod(abs(num), 10**k)
    return "-" * (num < 0) + exact_str(high) + exact_str(low).zfill(k)


def values_getter(names):
    """The function from a record to the tuple of its values of `names`."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return attrgetter(*names) if names else lambda record: ()


class Record:
    FIELDS: tuple = ()
    DEFAULTS: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            names = code.co_varnames[1 : code.co_argcount]
            defaults = init.__defaults__ or ()
            cls.FIELDS = tuple((n, init.__annotations__.get(n)) for n in names)
            cls.DEFAULTS = dict(zip(names[len(names) - len(defaults) :], defaults))
        cls._values = staticmethod(values_getter([n for n, _ in cls.FIELDS]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        """The class name and each field's repr, written from an
        explicit stack of pieces, each a text and then a value, so that
        nesting costs no Python frames: a record with this repr or a dict
        pushes its own pieces, an int writes its digits at any size, and
        any other value writes its repr."""
        out, stack = [], [("", self)]
        while stack:
            text, x = stack.pop()
            out.append(text)
            cls = x.__class__
            if cls.__repr__ is Record.__repr__:
                fields = cls.FIELDS
                pieces = [
                    (f"{', ' if i else cls.__qualname__ + '('}{n}=", getattr(x, n))
                    for i, (n, _) in enumerate(fields)
                ]
                pieces.append((")" if fields else f"{cls.__qualname__}()", _TEXT))
            elif cls is dict:
                pieces = [
                    (f"{', ' if i else '{'}{k!r}: ", v) for i, (k, v) in enumerate(x.items())
                ]
                pieces.append(("}" if x else "{}", _TEXT))
            else:
                if x is not _TEXT:
                    out.append(exact_str(x) if cls is int else repr(x))
                continue
            stack.extend(reversed(pieces))
        return "".join(out)

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
