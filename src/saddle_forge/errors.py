"""Error taxonomy shared by all modules, with the CLI exit-code mapping."""

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INVALID_INPUT = 3
EXIT_IO = 4


class SaddleForgeError(Exception):
    """Base class; carries the CLI exit code for the failure category."""
    exit_code = EXIT_CHECK_FAILED


class DomainViolation(SaddleForgeError):
    """Parameters violate the moduli ordering constraints."""
    exit_code = EXIT_INVALID_INPUT


class InvalidResolution(SaddleForgeError):
    """A resolution, count, radius, tolerance or seed out of range."""
    exit_code = EXIT_INVALID_INPUT


class NoConvergence(SaddleForgeError):
    """Iteration budget exhausted; carries the best value found."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class NoRoot(SaddleForgeError):
    """No real root of the equation in the search interval."""


class DegenerateRoot(NoRoot):
    """A root too close to a puncture to resolve in double precision."""


class BranchInconsistency(SaddleForgeError):
    """Branch continuation of w disagrees between two paths to the same
    point (loop-closure violation beyond tolerance)."""


class WeldMismatch(SaddleForgeError):
    """Reflected boundary curves failed to coincide during assembly
    (typically an unsolved period problem)."""


class ContourTooClose(SaddleForgeError):
    """A probe value lies too close to a boundary value of the Gauss map
    for the winding count to be trustworthy."""


class NotApplicable(SaddleForgeError):
    """The requested check does not apply to these parameters."""
    exit_code = EXIT_OK
