"""Exception hierarchy shared by all oscconv modules."""


class OscconvError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(OscconvError):
    """A parameter, size, or configuration value violates an invariant."""


class InputError(OscconvError):
    """External input (command line, image file, pixel values, config file) is malformed."""


class NumericError(OscconvError):
    """Non-finite values or other numeric failures during computation."""


class DivergenceError(NumericError):
    """The state norm passed the divergence guard, 10*sqrt(n): integrator blow-up,
    or a bounded run whose coherent state, of norm sqrt(n*(1 + eps*n/rho)), lies past it.

    Attributes:
        step: 1-based index of the integration step that tripped the guard.
    """

    def __init__(self, step: int, norm: float):
        self.step = step
        self.norm = norm
        super().__init__(f"state norm {norm:.3g} exceeded the divergence guard at step {step}")

    def __reduce__(self):  # the default passes the message alone to __init__
        return type(self), (self.step, self.norm)
