"""The toolkit's errors: one for bad input, one for a numerical failure.

The CLI exits 2 on an InputError and 3 on a NumericalError; any other
exception is a bug.
"""


class XmodalError(Exception):
    """Base class for all toolkit-specific errors."""


class InputError(XmodalError):
    """A file, record, setting or argument the toolkit cannot use."""


class NumericalError(XmodalError, ValueError):
    """A computation produced a value that is not finite."""
