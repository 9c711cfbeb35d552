"""Every mapping family evaluates through one path.

`Mapping.__call__` and `Mapping.batch` are the only entry points, and both
reach a family's formula through its `_eval`.  A family that defined its own
`__call__` or `batch`, or left `_eval` to the base class, would open a second
path whose one-point and block values need not agree; this test names it.
"""

import inspect

import quadstab.mappings as mappings

FAMILIES = [cls for _, cls in inspect.getmembers(mappings, inspect.isclass)
            if issubclass(cls, mappings.Mapping) and cls is not mappings.Mapping]


def test_every_family_evaluates_through_its_own_eval():
    # a class that others derive from (`_Parts`) may leave `_eval` to them
    leaves = [cls for cls in FAMILIES if not any(other.__base__ is cls for other in FAMILIES)]
    assert len(leaves) >= 10
    missing = [cls.__name__ for cls in leaves if cls._eval is mappings.Mapping._eval]
    assert not missing, "mapping families without an _eval: " + ", ".join(missing)


def test_no_family_defines_its_own_call_or_batch():
    second = [f"{cls.__name__}.{name}" for cls in FAMILIES for name in ("__call__", "batch")
              if name in cls.__dict__]
    assert not second, "mapping families with a second evaluation path: " + ", ".join(second)
