"""Typed failures of :mod:`mbhalf.equilibrium`.

They live apart from that module, which imports numpy, so that the command
line can map them to its exit codes without importing numpy for every
subcommand; :mod:`mbhalf.equilibrium` imports them, and they stay
importable from there.
"""


class DomainError(ValueError):
    """Argument outside the domain of a closed-form density."""


class BranchSelectionError(ArithmeticError):
    """No cubic root with positive imaginary part.

    Raised by :func:`mbhalf.equilibrium.density_vx_cardano` when all three
    roots of the spectral cubic are real, which happens exactly when s lies
    outside the support (0, 27/8), and when s lies so close to 27/8 (within
    a few units of 2^-prec, prec the working precision) that the pair of
    complex roots cannot be told from a real double root.
    """


class StagnationError(RuntimeError):
    """The minimizer's KKT solve did not reach a KKT point: the pivot
    iterations hit their cap, or the bordered KKT system was singular.

    Attributes
    ----------
    objective : float
        Lowest objective value recorded before the failure.
    """

    def __init__(self, message, objective):
        super().__init__(message)
        self.objective = objective
