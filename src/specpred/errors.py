"""Base class of the errors the package raises on bad input or a failed run,
and the one reader of its JSON input files and of their sections."""

import json


class SpecpredError(Exception):
    """Any specpred error; the CLI reports it with exit status 2."""


def is_number(v) -> bool:
    """True for a JSON number (an int or a float, not a bool)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# Kind -> (test of a JSON value, its form in a refusal, its reading).
_FORMS = {int: (lambda x: is_number(x) and x % 1 == 0, "a whole number", int),
          float: (is_number, "a number", float),
          bool: (lambda x: isinstance(x, bool), "true or false", bool),
          str: (lambda x: isinstance(x, str), "a string", str),
          tuple: (lambda x: all(map(is_number, x if isinstance(x, list) else [x])),
                  "a number or a list of numbers",
                  lambda x: tuple(map(float, x if isinstance(x, list) else [x])))}
KINDS = {kind.__name__: kind for kind in _FORMS}   # by a field's type name


def read_as(kind, v, name: str, error: type = TypeError):
    """``kind(v)`` for the value ``v`` of the field ``name`` of an input file,
    by the ``_FORMS`` rule of its kind (any other callable reads ``v``
    itself); one it cannot read raises ``error`` naming the field."""
    ok, form, read = _FORMS.get(kind, (lambda x: True, None, kind))
    try:
        if not ok(v):
            raise TypeError(f"not {form}")
        return read(v)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} cannot be read from {v!r}: {exc}") from exc


def read_section(spec, section: str, kinds: dict, error: type) -> dict:
    """Each key of the ``section`` mapping ``spec`` read as its kind in ``kinds``
    (``read_as``); a key outside ``kinds`` raises ``error``, a non-mapping
    ``spec`` TypeError, which ``load_json`` reports naming the file."""
    if not isinstance(spec, dict):
        raise TypeError(f"the {section} section must be a mapping, got {spec!r}")
    if unknown := [key for key in spec if key not in kinds]:
        raise error(f"unknown {section} key {unknown[0]!r}; expected one of "
                    f"{', '.join(kinds)}")
    return {key: read_as(kinds[key], v, f"{section} {key}", error)
            for key, v in spec.items()}


def load_json(path, what: str, parse, error: type):
    """``parse`` of the JSON in ``path``; a file that is not UTF-8 JSON, or
    that ``parse`` cannot read (a missing key, a wrong type or value), raises
    ``error`` naming the ``what`` file.  A typed error from ``parse`` keeps
    its type and its message, which gains the file's name at the end."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except SpecpredError as exc:
            raise type(exc)(f"{exc} (in {what} file {path})") from exc
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise error(f"malformed {what} file {path}: {exc}") from exc
