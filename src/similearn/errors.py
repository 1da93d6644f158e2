"""Exception types shared across the package."""


class DegenerateKernelError(ValueError):
    """Raised when a kernel matrix cannot be built or normalized.

    Happens when a Gaussian d_max^2, or the normalizing scale after the
    fallback to the largest |K|, is zero or subnormal; when a squared
    distance is negative beyond tolerance; or when the kernel, its scale
    or its scaled entries are not finite (features too large or too
    small for the kernel). The message names the kernel.
    """


class LinearSolveError(RuntimeError):
    """Raised when a linear system inside an update is numerically singular."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class DivergenceError(RuntimeError):
    """Raised when iterates blow up (non-finite values) during optimization."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class DataFormatError(ValueError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
