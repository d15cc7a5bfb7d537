"""Frozen record classes, built without generating code.

``@record`` makes a class with annotated fields an immutable value type, as
``dataclasses.dataclass(frozen=True)`` does, but its methods are closures
over the field names rather than ``exec``-ed source, so a module of records
imports without compiling anything and without ``dataclasses`` (which loads
``inspect``).  The fields are the class's own annotations, in order; a class
attribute is a field's default, shared by every instance that takes it, so
``__post_init__`` copies a mutable one.  ``__init__`` takes the fields by
position or keyword, then calls ``__post_init__``, which may normalize a
field with ``object.__setattr__``.  ``__eq__``, ``__hash__`` and
``__repr__`` work on the field tuple unless the class defines its own; as
with a frozen dataclass, a class defining ``__eq__`` alone still gets the
field hash.  Assigning or deleting an attribute raises
``FrozenRecordError``; ``cached_property`` works, as it writes the instance
dict.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


def fields(cls: type) -> tuple[str, ...]:
    """The field names of a record class, in order."""
    return cls.__match_args__


def _bind(cls: type, names: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of any call but one positional value per field,
    with a plain function's TypeErrors."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    for name in names[:len(args)]:
        if name in kwargs:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{where} missing required argument {name!r}")
    if kwargs:
        raise TypeError(f"{where} got an unexpected keyword argument {next(iter(kwargs))!r}")
    return values


def _no_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Install the record methods on ``cls`` (see the module docstring)."""
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    defaults = {name: own[name] for name in names if name in own}
    count = len(names)
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    get = attrgetter(*names)
    key = get if count > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    keep = {"__eq__", "__repr__", "__hash__"} & own.keys()
    if "__eq__" in own and own.get("__hash__") is None:
        keep.discard("__hash__")  # Python's None for a body with __eq__ alone
    for method in (__eq__, __repr__, __hash__):
        if method.__name__ not in keep:
            setattr(cls, method.__name__, method)
    cls.__init__ = __init__
    cls.__setattr__ = _no_setattr
    cls.__delattr__ = _no_delattr
    cls.__match_args__ = names
    return cls
