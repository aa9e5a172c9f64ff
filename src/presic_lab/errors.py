"""Exception hierarchy shared across the package, the rules for integer and
real inputs, and the rules for which batch row a NumericEvalError names."""

import numbers

import numpy as np


class PresicLabError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PresicLabError):
    """A caller violated a precondition (bad shapes, bad parameters, bad files)."""


class NumericEvalError(PresicLabError):
    """An evaluation produced a mathematically undefined or non-finite value;
    `row` is the batch index of the first bad entry, which `template` names."""

    def __init__(self, template, row=None):
        super().__init__(template.format(row=row))
        self.template, self.row = template, row


class DomainError(PresicLabError):
    """An operator output left the declared domain while strict mode was on."""


class DegenerateDomainError(PresicLabError):
    """Every sampled configuration was degenerate (e.g. the box is a single point)."""


def as_int(value, what, least=None):
    """`value` as an int if it is an integer or an integral float (no bool)
    of at least `least`, else a UsageError naming `what`."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if whole and not isinstance(value, bool) and (least is None or value >= least):
        return int(value)
    raise UsageError(f"{what} must be an integer{'' if least is None else f' >= {least}'}, "
                     f"got {value!r}")


def as_real(value, what):
    """`value` as a float if it is a real number (an int or float, or a
    numpy scalar of one, never a bool), else a UsageError naming `what`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise UsageError(f"{what} must be a real number, got {value!r}")


def _fail(message, bad):
    """Raise NumericEvalError, naming the first row of `bad` that holds a True."""
    bad = np.asarray(bad)
    if bad.ndim == 0:
        raise NumericEvalError(message)
    raise NumericEvalError(message + " (row {row})", int(np.nonzero(bad)[0][0]))


def require_finite(value, what):
    """Return `value`, raising NumericEvalError at its first non-finite row."""
    finite = np.isfinite(value)
    if not finite.all():
        _fail(f"non-finite result in {what}", ~finite)
    return value


class _renumber:
    """Re-raise a NumericEvalError that names a batch row as naming
    `row_of(row)`: a chunk's row becomes its window's sample index, or a
    buffer row the run it holds. Every other exception passes unchanged.
    A class, as its `with` costs under half of a generator-based one's."""

    def __init__(self, row_of):
        self.row_of = row_of

    def __enter__(self):
        return self

    def __exit__(self, kind, err, traceback):
        if isinstance(err, NumericEvalError) and err.row is not None:
            raise NumericEvalError(err.template, int(self.row_of(err.row))) from None
        return False
