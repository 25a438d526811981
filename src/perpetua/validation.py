"""Machine-readable validation issues, and the one place values are checked: when built.

A value's dataclass fields are also its config schema: ``Validated.to_dict``
writes them and ``build`` reads them back.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING, dataclass

import numpy as np

from .errors import NonFiniteParameter

# concrete types, not numbers.Real: an ABC isinstance costs about 1 us, and a
# value is checked each time one is built
_REALS = (float, int, np.floating, np.integer)


@dataclass(frozen=True)
class Issue:
    code: str
    field: str
    message: str


def finite_real(value) -> float | None:
    """value as a float when it is a finite real number (not bool, not str), else None.

    The one test of what counts as a number, for config files and every
    family's parameters alike: a string or a boolean is refused, never coerced.
    """
    if not isinstance(value, _REALS) or isinstance(value, bool):
        return None
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        return None
    return out if math.isfinite(out) else None


def require_finite(value, field: str, code: str) -> list[Issue]:
    if finite_real(value) is None:
        return [Issue(code, field, f"{field} must be a finite number, got {value!r}")]
    return []


def require_positive(value, field: str, code: str) -> list[Issue]:
    """require_finite, then value > 0, both reported under code."""
    issues = require_finite(value, field, code)
    if not issues and value <= 0:
        issues.append(Issue(code, field, f"{field} must be > 0"))
    return issues


class Validated:
    """Frozen values that check themselves when built: NonFiniteParameter lists every issue.

    to_dict writes the fields in order, a tuple as a list and a nested value in
    its own form: {"kind": ..., <fields>} when flat (the jump laws), else
    {"family": ..., "params": {<fields>}} (measures and test functions).
    """

    flat = False

    def __post_init__(self):
        issues = self.validate()
        if issues:
            raise NonFiniteParameter(issues)

    def to_dict(self) -> dict:
        params = {f.name: _wire(getattr(self, f.name)) for f in dataclasses.fields(self)}
        return {"kind": self.kind, **params} if self.flat else {"family": self.kind, "params": params}


def _wire(value):
    if isinstance(value, Validated):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_wire(v) for v in value]
    return value


def json_object(value, name: str) -> dict:
    """value when it is a JSON object; otherwise NonFiniteParameter whose message calls it name.

    The issue is about the value itself, so its field is empty; where the
    value was read for a field, build puts that field's path there.
    """
    if not isinstance(value, dict):
        raise NonFiniteParameter([Issue("FIELD_TYPE", "", f"{name} must be an object, got {value!r}")])
    return value


def _key_issues(d: dict, known, required=()) -> list[Issue]:
    """FIELD_UNKNOWN for each key of d not in known, then FIELD_MISSING for each required one d lacks."""
    issues = [Issue("FIELD_UNKNOWN", k, f"unknown field {k!r} (known: {', '.join(known) or 'none'})")
              for k in d if k not in known]
    return issues + [_missing(k) for k in required if k not in d]


def _missing(key: str) -> Issue:
    return Issue("FIELD_MISSING", key, f"missing field {key!r}")


def family_params(d, name: str) -> tuple:
    """(family, params) of the {"family", "params"} object d named name; params may be left out."""
    issues = _key_issues(json_object(d, name), ("family", "params"), ("family",))
    params = d.get("params", {})
    if not isinstance(params, dict):
        issues.append(Issue("FIELD_TYPE", "params", f"params must be an object, got {params!r}"))
    if issues:
        raise NonFiniteParameter(issues)
    return d["family"], params


def family_class(registry: dict, name, key: str, code: str, what: str):
    """registry[name]; None is FIELD_MISSING key, any other unknown name is code."""
    if name is None:
        raise NonFiniteParameter([_missing(key)])
    if not isinstance(name, str) or name not in registry:
        raise NonFiniteParameter([Issue(code, key, f"unknown {what} {name!r}")])
    return registry[name]


def build(cls, params: dict, read: dict | None = None, **fixed):
    """cls built from params, a JSON object of its fields; all problems raised together.

    A key is a field's name, or its metadata "key" (LevyTriplet's gaussian).
    A key naming no field is FIELD_UNKNOWN, a field with no default and no key
    FIELD_MISSING, and a tuple field takes a list.  fixed fields are set here
    and are no keys.  read maps a field to the reader of its nested JSON value
    (of each item, for a tuple field); nested issues follow the value's own,
    each field prefixed with the key and index it came from, such as
    levy_measure.jump_law.b or parts[1].rate.  A nested value that fails is
    passed on as written, and a value's own checks never look inside it.
    """
    fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)
              if f.name not in fixed}
    required = [k for k, f in fields.items()
                if f.default is MISSING and f.default_factory is MISSING]
    issues, nested, values, read = _key_issues(params, fields, required), [], dict(fixed), read or {}
    for key, value in params.items():
        if key not in fields:
            continue
        name, many = fields[key].name, str(fields[key].type).startswith("tuple")
        if many and not isinstance(value, list):
            issues.append(Issue("FIELD_TYPE", key, f"{key} must be a list, got {value!r}"))
        elif name in read:
            value = ([_read(read[name], v, f"{key}[{i}]", nested) for i, v in enumerate(value)]
                     if many else _read(read[name], value, key, nested))
        values[name] = value
    if not issues:
        try:
            built = cls(**values)
        except NonFiniteParameter as exc:
            issues = exc.issues
    if issues or nested:
        raise NonFiniteParameter(issues + nested)
    return built


def _read(reader, value, path: str, nested: list):
    """reader(value); when it fails, its issues go to nested with their fields under path."""
    try:
        return reader(value)
    except NonFiniteParameter as exc:
        nested += [dataclasses.replace(i, field=f"{path}.{i.field}" if i.field else path)
                   for i in exc.issues]
        return value
