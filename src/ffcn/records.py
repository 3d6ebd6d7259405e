"""Immutable value records that cost next to nothing to define.

A record is a subclass of ``record(name, fields)`` with ``__slots__ = ()``:
a tuple with named fields, so it compares and hashes by value, has no
field that can be assigned, and takes its fields by position or by name.
A record that checks or coerces its fields does so in ``__new__``, and
``_replace`` builds the new record through the class, so it runs the
same checks.

``dataclasses`` would import ``inspect``, ``ast`` and ``dis`` and execute
generated methods for every class; ``typing.NamedTuple`` would import
``typing``.  ``collections`` is loaded anyway, and ``namedtuple`` compiles
one constructor lambda per class.
"""

from collections import namedtuple


def record(name: str, fields: str):
    """The base class of a record ``name`` with space-separated ``fields``."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base
