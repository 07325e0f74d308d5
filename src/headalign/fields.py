"""One type check per field annotation, shared by every serialised record.

A float field takes a finite real that is not a bool and stores a
``float``; an int field takes an integral that is not a bool and stores an
``int``.  A failed check raises ``InvalidArgumentError`` naming the field.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from numbers import Integral, Real

from .errors import InvalidArgumentError

__all__ = ["CHECKS", "check_entry", "check_fields", "from_dict"]


def _float(name: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, Real):
        raise InvalidArgumentError(f"{name} must be a number, got {v!r}")
    if not math.isfinite(x := float(v)):
        raise InvalidArgumentError(f"{name} must be finite, got {x}")
    return x


def _int(name: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _instance(kind: type, what: str):
    def check(name: str, v):
        if not isinstance(v, kind):
            raise InvalidArgumentError(f"{name} must be {what}, got {v!r}")
        return v

    return check


def _list(check, size: int | None = None):
    """A list or tuple, of ``size`` entries if given, stored as a tuple of checked entries."""
    what = "a list" if size is None else f"a list of {size} entries"

    def run(name: str, v) -> tuple:
        if not isinstance(v, (list, tuple)) or size not in (None, len(v)):
            raise InvalidArgumentError(f"{name} must be {what}, got {v!r}")
        return tuple(check(f"{name}[{i}]", x) for i, x in enumerate(v))

    return run


def _oscillations(name: str, items) -> tuple:
    """Each entry an ``Oscillation`` or its ``[amp_deg, period_s(, phase_rad)]`` list."""
    from .simulate import Oscillation  # simulate imports this module

    try:
        return tuple(o if isinstance(o, Oscillation) else Oscillation(*o) for o in items)
    except TypeError:
        raise InvalidArgumentError(f"{name} must list [amp_deg, period_s(, phase_rad)] entries, got {items!r}") from None
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{name}: {exc}") from None


#: The check of each field type, keyed by its annotation string; range rules stay with each record.
CHECKS = {
    "float": _float,
    "int": _int,
    "bool": _instance(bool, "true or false"),
    "str": _instance(str, "a string"),
    "tuple[int, int]": _list(_int, 2),
    "tuple[int, int] | None": lambda name, v: None if v is None else _list(_int, 2)(name, v),
    "tuple[int, ...]": _list(_int),
    "tuple[float, float]": _list(_float, 2),
    "tuple[float, ...]": _list(_float),
    "tuple[Oscillation, ...]": _oscillations,
}


def check_fields(record) -> None:
    """Replace each field of the (possibly frozen) dataclass ``record`` by its checked value."""
    for f in fields(record):
        object.__setattr__(record, f.name, CHECKS[f.type](f.name, getattr(record, f.name)))


def check_entry(where: str, entry, kinds: dict[str, str]) -> dict:
    """``entry``, a dict with exactly the keys of ``kinds`` (name to annotation), values checked."""
    if not isinstance(entry, dict) or entry.keys() != kinds.keys():
        raise InvalidArgumentError(f"{where} must have exactly the keys {sorted(kinds)}")
    return {key: CHECKS[kind](f"{where}.{key}", entry[key]) for key, kind in kinds.items()}


def from_dict(cls, d, what: str):
    """``cls(**d)`` for the dataclass ``cls``, once ``d`` is a dict that names
    no unknown field and every field without a default; ``what`` names the record."""
    if not isinstance(d, dict):
        raise InvalidArgumentError(f"{what} fields must be an object, got {d!r}")
    names = [f.name for f in fields(cls)]
    if unknown := sorted(set(d) - set(names)):
        raise InvalidArgumentError(f"unknown {what} field(s) {unknown}; expected {names}")
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    if missing := [name for name in required if name not in d]:
        raise InvalidArgumentError(f"missing {what} field(s) {missing}")
    return cls(**d)
