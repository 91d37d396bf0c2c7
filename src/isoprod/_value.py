"""Equality, hashing, repr and ``_replace`` for the package's stateful classes.

A subclass compares the parameters of its own ``__init__``, in order (two or
more), or the fields it names in the class attribute ``_compared`` (not
``_fields``, which ``cli._plain`` reads as the mark of a record).  Instances
are equal when they are one object, or of one class with equal compared
fields; the hash and the repr read the same fields.  Anything else kept in
an instance's ``__dict__``, such as a :class:`kept` fact, is left out of all
three.
"""

from operator import attrgetter


class _Value:
    __slots__ = ()
    _compared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compared" not in vars(cls) and "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._compared = code.co_varnames[1:code.co_argcount]
        if cls._compared:
            cls._key = attrgetter(*cls._compared)  # the fields as one tuple, in C

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def _replace(self, **changes):
        """A new instance with ``changes`` applied to the fields; it keeps nothing cached."""
        return self.__class__(**dict(zip(self._compared, self._key(self)), **changes))


class _Frozen(_Value):
    """A :class:`_Value` whose attributes cannot be assigned or deleted;
    ``__init__`` and :class:`kept` write the instance ``__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class kept:
    """A fact computed on its first read and kept in the instance ``__dict__``.

    A non-data descriptor: the kept value shadows it, so later reads are
    plain attribute reads.  It takes no lock: threads racing on a first read may
    each compute the fact, which is pure, and one equal value is kept.  A
    computation that raises keeps nothing and raises again on every read.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value
