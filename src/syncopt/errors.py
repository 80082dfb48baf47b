"""Exception hierarchy shared by all toolkit modules."""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class ValidationError(ToolkitError):
    """Input or assumption check failed (bad scenario, graph, or plant data)."""


class NumericalError(ToolkitError):
    """A numerical procedure failed: singular system, divergence, lost stability."""


class NotHurwitzError(NumericalError):
    """A matrix that must be Hurwitz has an eigenvalue with real part >= 0."""
