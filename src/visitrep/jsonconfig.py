"""JSON round trip and field checks for the frozen config dataclasses.

Each field has one shape (see `shape`): the class's `json_fields` entry, or
else the one its default implies (a tuple's items that of its first item, a
section its class). `__post_init__` checks every field's JSON form against
its shape, then runs `validate()`, which keeps only the rules across fields:
a config is checked once, when it is built (from JSON, by its constructor or
by `dataclasses.replace`), and a bad value reads `config.<section>: <field>
must be <desc>, got <value>`. `from_json` refuses a non-object and unknown
keys, fills absent keys from the defaults and parses each section.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from functools import cache

from .errors import ValidationError
from .shape import INTEGER, STRING, Scalar, checker

_SCALARS = {bool: Scalar({bool}, "a boolean"), int: INTEGER,
            float: Scalar({int, float}, "a number"), str: STRING}


def _plain(value):
    """A field's JSON form, but a section stays a config."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def _tupled(value):
    return tuple(_tupled(v) for v in value) if isinstance(value, list) else value


@cache
def _parts(cls) -> tuple:
    """(each field's default, the check of every field)."""
    defaults = {f.name: f.default if f.default is not MISSING else f.default_factory()
                for f in fields(cls)}
    shape = {name: cls.json_fields[name] if name in cls.json_fields
             else Scalar({type(d)}, f"a {type(d).__name__}") if isinstance(d, JsonConfig)
             else [name, _SCALARS[type(d[0])]] if type(d) is tuple else _SCALARS[type(d)]
             for name, d in defaults.items()}
    return defaults, checker(shape, cls.json_name)


class JsonConfig:
    """Mixin for frozen config dataclasses whose fields all have defaults."""

    # Where the config sits in a run config; the prefix of its errors.
    json_name = "config"
    # The shape of each field whose default's type does not say enough.
    json_fields = {}

    def __post_init__(self):
        _parts(type(self))[1]({k: _plain(v) for k, v in vars(self).items()}, self.json_name)
        self.validate()

    def validate(self) -> None:
        """Raise ValidationError unless the fields meet the rules across them."""

    def to_json(self) -> dict:
        return {f.name: v.to_json() if isinstance(v := getattr(self, f.name), JsonConfig)
                else _plain(v) for f in fields(self)}

    @classmethod
    def from_json(cls, obj):
        checker({}, cls.json_name)(obj)  # an object, whatever its keys
        defaults = _parts(cls)[0]
        unknown = set(obj) - set(defaults)
        if unknown:
            raise ValidationError(f"{cls.json_name}: unknown keys {sorted(unknown)}")
        return cls(**{name: type(defaults[name]).from_json(value)
                      if isinstance(defaults[name], JsonConfig) else _tupled(value)
                      for name, value in obj.items()})
