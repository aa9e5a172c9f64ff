"""Exception hierarchy shared across the package."""


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
