"""JSON round trip for the frozen config dataclasses, derived from their fields.

A config serializes field by field (tuples as lists, nested configs as
objects). Parsing fills absent keys from the defaults, rejects unknown ones
and checks each value against the shape its default implies (a tuple's
items that of its first item, or the class's `json_items`), so a bad config
file or checkpoint header is a ValidationError. `__post_init__` runs the
class's `validate()`: a config is checked once, when it is built.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from functools import cache

from .errors import ValidationError
from .shape import INTEGER, STRING, Scalar, checker

_SCALARS = {bool: Scalar({bool}, "a boolean"), int: INTEGER,
            float: Scalar({int, float}, "a number"), str: STRING}


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, JsonConfig):
        return value.to_json()
    return value


def _tupled(value):
    return tuple(_tupled(v) for v in value) if isinstance(value, list) else value


@cache
def _parts(cls) -> tuple:
    """(each field's default, the check of the rest but the nested configs)."""
    defaults = {f.name: f.default if f.default is not MISSING else f.default_factory()
                for f in fields(cls)}
    shape = {f"{name}?": [name, cls.json_items.get(name) or _SCALARS[type(d[0])]]
             if type(d) is tuple else _SCALARS[type(d)]
             for name, d in defaults.items() if not isinstance(d, JsonConfig)}
    return defaults, checker(shape, "config")


class JsonConfig:
    """Mixin for frozen config dataclasses whose fields all have defaults."""

    # Prefix of parse errors when the caller names no location.
    json_name = "config"
    # The shape of an item of a tuple field whose default's items are not scalars.
    json_items = {}

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValidationError unless the values meet the config's rules."""

    def to_json(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, obj, where: str = None):
        where = where or cls.json_name
        defaults, check = _parts(cls)
        unknown = set(check(obj, where)) - set(defaults)
        if unknown:
            raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
        return cls(**{name: type(defaults[name]).from_json(value, f"{where}.{name}")
                      if isinstance(defaults[name], JsonConfig) else _tupled(value)
                      for name, value in obj.items()})
