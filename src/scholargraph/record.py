"""Plain record classes, defined without code generation.

A subclass of :class:`Record` names its fields in ``__slots__`` and gets the
methods a ``@dataclass`` would write for it: ``__init__`` (positional or
keyword arguments, with defaults), ``__eq__`` (same class, equal fields),
``__repr__``, and ``__reduce__`` for copy and pickle.  They are ordinary
methods that read the field names when called, so defining a record class
costs no more than defining any class.
A ``Record`` is mutable and unhashable; a :class:`FrozenRecord` refuses
assignment and hashes as the tuple of its fields, as a frozen dataclass
does.

Defaults are class keywords, ``class PlanStep(Record, actual=0)``; a
callable default is called for each instance, like a dataclass's
``default_factory``.  ``hidden=(...)`` names fields left out of equality,
hashing and the repr.  A ``"__dict__"`` entry in ``__slots__`` gives the
instances a ``__dict__`` (for ``functools.cached_property``) and is not a
field.
"""

from __future__ import annotations

_MISSING = object()


class Record:
    """A mutable record whose fields are its ``__slots__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **defaults: object) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._compared = tuple(name for name in cls._fields if name not in hidden)
        cls._defaults = defaults

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            if field in kwargs:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            object.__setattr__(self, field, value)
        for field in fields[len(args):]:
            value = kwargs.pop(field, _MISSING)
            if value is _MISSING:
                value = self._defaults.get(field, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{name}() missing required argument: {field!r}")
                if callable(value):
                    value = value()
            object.__setattr__(self, field, value)
        if kwargs:
            raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join([f"{field}={getattr(self, field)!r}" for field in self._compared])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return (type(self), tuple([getattr(self, field) for field in self._fields]))


class FrozenRecord(Record):
    """A hashable record whose fields cannot be assigned after ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
