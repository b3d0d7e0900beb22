"""JSON round trip for the frozen config dataclasses, derived from their fields.

A config serializes field by field (tuples as lists, nested configs as
objects). Parsing accepts a partial object, fills the rest from the
defaults, rejects unknown keys and values of the wrong JSON type, and runs
the config's own validate(). Config files and checkpoint headers both come
from outside the program, so every rejection is a ValidationError.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .errors import ValidationError


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, JsonConfig):
        return value.to_json()
    return value


def _tupled(value):
    return tuple(_tupled(v) for v in value) if isinstance(value, list) else value


def _type_ok(value, default) -> bool:
    """Whether a JSON value may stand in for a field with this default."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return isinstance(value, int) or isinstance(default, float)
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, tuple):
        return isinstance(value, list)
    return True


class JsonConfig:
    """Mixin for frozen config dataclasses whose fields all have defaults."""

    # Prefix of parse errors when the caller names no location.
    json_name = "config"

    def to_json(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, obj, where: str = None):
        where = where or cls.json_name
        if not isinstance(obj, dict):
            raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
        known = {f.name: f for f in fields(cls)}
        unknown = set(obj) - set(known)
        if unknown:
            raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
        kwargs = {}
        for name, value in obj.items():
            f = known[name]
            default = f.default if f.default is not MISSING else f.default_factory()
            if isinstance(default, JsonConfig):
                value = type(default).from_json(value, f"{where}.{name}")
            elif not _type_ok(value, default):
                raise ValidationError(
                    f"{where}.{name}: expected {type(default).__name__}, got {value!r}"
                )
            kwargs[name] = _tupled(value)
        cfg = cls(**kwargs)
        if hasattr(cfg, "validate"):
            cfg.validate()
        return cfg
