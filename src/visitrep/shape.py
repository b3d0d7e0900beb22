"""One checker for every JSON document the program reads.

A shape is a literal: a dict of fields (a key ending in "?" may be absent;
unlisted keys pass unread), `[item name, item shape]` for a list, or a
Scalar. `checker(shape, name)` compiles it once; its check formats nothing
unless it fails, and then says `<where>[, <item> <i>...]: <name> must be
<desc>, got <repr>` (the type name for an object or a list), as in
`line 2, visit 0, code 0: code must be a JSON object, got int`, or
`<where>...: missing field '<key>'`.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ValidationError

# A value whose type is one of `types` exactly (so true is not an integer)
# and for which ok(value) holds, unless ok is None.
Scalar = namedtuple("Scalar", "types desc ok", defaults=(None,))

STRING = Scalar({str}, "a string")
NAME = Scalar({str}, "a non-empty string", len)
INTEGER = Scalar({int}, "an integer")
COUNT = Scalar({int}, "a non-negative integer", (0).__le__)
POSITIVE = Scalar({int}, "an integer >= 1", (1).__le__)


class _Bad(Exception):
    """A failed check: its message, and the list items above it, innermost first."""


def _compile(shape, name: str):
    """(types, ok, each, fail): a value meets the shape if its type is in `types`,
    ok and each (unless None) pass it, and fail(value) says why it does not."""
    if isinstance(shape, Scalar):
        return shape.types, shape.ok, None, lambda v: f"{name} must be {shape.desc}, got {v!r}"
    if isinstance(shape, list):
        types, ok, check, fail = _compile(shape[1], shape[0])

        def each(value):
            # A list of scalars that passes is checked in one pass; the item
            # loop below runs only to name the first item that fails.
            if not check and set(map(type, value)) <= types and (not ok or all(map(ok, value))):
                return
            for i, x in enumerate(value):
                try:
                    if type(x) not in types or (ok and not ok(x)):
                        raise _Bad(fail(x), [])
                    if check:
                        check(x)
                except _Bad as bad:
                    bad.args[1].append(f"{shape[0]} {i}")
                    raise

        return {list}, None, each, lambda v: f"{name} must be a list, got {type(v).__name__}"
    fields = [(k.rstrip("?"), k[-1] == "?", *_compile(s, k.rstrip("?"))) for k, s in shape.items()]

    def each(value):
        for key, optional, types, ok, check, fail in fields:
            if key in value:
                x = value[key]
                if type(x) not in types or (ok and not ok(x)):
                    raise _Bad(fail(x), [])
                if check:
                    check(x)
            elif not optional:
                raise _Bad(f"missing field '{key}'", [])

    return {dict}, None, each, lambda v: f"{name} must be a JSON object, got {type(v).__name__}"


def checker(shape, name: str):
    """check(value, where="") -> value, for values of `shape` called `name`."""
    each = _compile({name: shape}, name)[2]  # the value is checked as a field

    def check(value, where=""):
        try:
            each({name: value})
        except _Bad as bad:
            what, items = bad.args
            at = ", ".join([str(where)] * bool(where) + items[::-1])
            raise ValidationError(f"{at}: {what}" if at else what) from None
        return value

    return check
