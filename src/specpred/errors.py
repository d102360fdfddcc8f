"""Base class of the errors the package raises on bad input or a failed run,
and the one reader of its JSON input files."""

import json


class SpecpredError(Exception):
    """Any specpred error; the CLI reports it with exit status 2."""


def is_number(v) -> bool:
    """True for a JSON number (an int or a float, not a bool)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read_as(kind, v, name: str, error: type = TypeError):
    """``kind(v)`` for the value ``v`` of the field ``name`` of an input file;
    one it cannot read raises ``error`` naming the field.  An int takes a
    whole JSON number, a float any JSON number, a bool only a JSON boolean."""
    forms = {int: (lambda x: is_number(x) and x % 1 == 0, "a whole number"),
             float: (is_number, "a number"),
             bool: (lambda x: isinstance(x, bool), "true or false")}
    ok, form = forms.get(kind, (lambda x: True, None))
    try:
        if not ok(v):
            raise TypeError(f"not {form}")
        return kind(v)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} cannot be read from {v!r}: {exc}") from exc


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
