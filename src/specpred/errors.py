"""Base class of the errors the package raises on bad input or a failed run."""


class SpecpredError(Exception):
    """Any specpred error; the CLI reports it with exit status 2."""
