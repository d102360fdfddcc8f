"""Base class of the errors the package raises on bad input or a failed run,
and the one reader of its JSON input files."""

import json


class SpecpredError(Exception):
    """Any specpred error; the CLI reports it with exit status 2."""


def is_number(v) -> bool:
    """True for a JSON number (an int or a float, not a bool)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load_json(path, what: str, parse, error: type):
    """``parse`` of the JSON in ``path``; a file that is not JSON, or that
    ``parse`` cannot read (a missing key, a wrong type), raises ``error``
    naming the ``what`` file.  A typed error from ``parse`` keeps its type
    and its message, which gains the file's name at the end."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except SpecpredError as exc:
            raise type(exc)(f"{exc} (in {what} file {path})") from exc
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise error(f"malformed {what} file {path}: {exc}") from exc
