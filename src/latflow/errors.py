"""Exception hierarchy shared by all latflow modules.

Everything derives from :class:`LatflowError` so callers (and the CLI) can
catch one base class.  Names describe the violated contract.  Text files are
read through :func:`read_text`, so bytes that are not UTF-8 raise one too,
and seeds pass through :func:`check_seed`, so a negative one does.
"""

import numbers


class LatflowError(Exception):
    """Base class for all latflow errors."""


# -- sparse matrix construction / use ------------------------------------

class IndexOutOfBounds(LatflowError):
    pass


class DuplicateEntry(LatflowError):
    pass


class NonFiniteWeight(LatflowError):
    pass


class DimensionMismatch(LatflowError):
    pass


class NotSquare(LatflowError):
    pass


class NoConvergence(LatflowError):
    """Iteration hit its step limit.  Carries the last estimate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


# -- topology generation --------------------------------------------------

class StencilWiderThanGrid(LatflowError):
    pass


class ArgumentTooSmall(LatflowError):
    pass


class DegreeTooLarge(LatflowError):
    pass


def check_seed(seed):
    """``seed``, unless it is a negative integer, which numpy would refuse
    with a bare ValueError."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ArgumentTooSmall(f"seed {seed} is negative")
    return seed


# -- rules ----------------------------------------------------------------

class RuleOutOfRange(LatflowError):
    pass


class KeyOutOfTable(LatflowError):
    """A matvec result does not index the rule table: stencil and rule disagree."""


class NonIntegerKey(LatflowError):
    pass


# -- engine / systems -----------------------------------------------------

class BadStateValue(LatflowError):
    pass


# -- analysis -------------------------------------------------------------

class TooFewRows(LatflowError):
    pass


class SingularSystem(LatflowError):
    pass


# -- file formats / config ------------------------------------------------

class FileFormatError(LatflowError):
    pass


class ConfigError(LatflowError):
    pass


def read_text(path, error=FileFormatError):
    """The contents of a UTF-8 text file; undecodable bytes raise ``error``."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc
