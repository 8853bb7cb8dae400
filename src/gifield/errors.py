"""Exception types shared across the package.

They name bad input only: a bad config, bad usage or a bad input file. The
command line exits 2 for any of them. Every other precondition is a plain
``ValueError``.
"""


class GifieldError(Exception):
    """Base class for all package-specific errors."""


class FormatError(GifieldError, ValueError):
    """A file is not in the format its reader expects.

    A dataset or dictionary file does not start with the expected magic tag,
    or a ``results.csv`` is not readable CSV text, lacks a column, has another
    header, has a row of the wrong length or holds a cell that is not a number.
    """


class CorruptionError(GifieldError, ValueError):
    """A file's payload does not match its declared structure or role."""


class ValidationError(GifieldError, ValueError):
    """An experiment configuration or a command's arguments are invalid."""
