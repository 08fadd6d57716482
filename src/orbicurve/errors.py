"""Exception types shared across the package, the default work bound, and
`frozen`, the decorator of the package's immutable value classes.

Every process that runs orbicurve code loads this module, so what it holds
costs nothing more to reach.  The package does not use the standard
library's `dataclass`: under PYTHONDONTWRITEBYTECODE, importing its module
also compiles and runs `inspect`, `ast`, `dis` and `tokenize` (about 6.5 ms
on Python 3.11, x86-64), and each `@dataclass(frozen=True)` class then
`exec`s six generated methods (0.6 to 0.8 ms a class).  For the 24 value
classes that was about 8 of the 23 ms that `orbicurve chi` spends beyond a
bare interpreter.
"""

from operator import attrgetter

# the default bound on the work of one call: cosets, group order, words and
# samples
DEFAULT_MAX_COSETS = 10**6


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values(self) == self._values(other)
    return NotImplemented


def _hash(self):
    return hash(self._values(self))


def _repr(self):
    fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make `cls` an immutable value class of the fields it annotates, in
    order, with class attributes as their defaults.

    Only `__init__` is generated, one `exec` per class, since construction
    is on hot paths: it sets each field with `object.__setattr__`, then calls
    `__post_init__` if the class has one.  Every class shares one
    `__eq__` (same class, equal field tuples), `__hash__` (of the field
    tuple), `__repr__` (`Name(field=value, ...)`), and a `__setattr__` and
    `__delattr__` that raise AttributeError.  This stands in for
    `dataclass(frozen=True)`, whose import loads `inspect` and `ast` (about
    6.5 ms of start-up without bytecode caches) and which `exec`s six methods
    per class (0.6 to 0.8 ms each class, on Python 3.11).
    """
    names = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name not in cls.__dict__ for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without default follows a default")
    body = "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    namespace = {}
    exec(f"def __init__(self, {', '.join(names)}):\n{body}",
         {"_set": object.__setattr__}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    get = attrgetter(*names)
    cls._fields = names
    cls._values = staticmethod(get if len(names) > 1 else lambda self: (get(self),))
    cls.__init__ = init
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


class OrbicurveError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedSignature(OrbicurveError):
    """Signature violates the encoding rules (entry < 2, negative g or r, ...)."""


class UnknownGenerator(OrbicurveError):
    """A word refers to a generator that the presentation does not have."""


class ArityMismatch(OrbicurveError):
    """Number or degree of permutation images does not fit the presentation."""


class NonIntegralRank(OrbicurveError):
    """No torsion-free normal subgroup of the requested index can exist."""


class LcmNotDividing(OrbicurveError):
    """Requested cover index is not a multiple of lcm of the torsion orders."""


class NotOpenGroup(OrbicurveError):
    """Operation is defined for punctured (r >= 1) signatures only."""


class UnsupportedKind(OrbicurveError):
    """Torsion classification not available for this kind of group.  Nothing
    in the package raises it any more; it stays exported for code that
    catches it."""


class BadK(OrbicurveError):
    """k must be one of 2, 3, 4, 6."""


class NotHyperbolic(OrbicurveError):
    """Triple is not a hyperbolic triangle signature."""


class UnknownExample(OrbicurveError):
    """No named example under that identifier."""


class BadParameters(OrbicurveError):
    """Parametrized example or construction called with invalid parameters."""
