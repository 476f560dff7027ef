"""Coupled oscillator array: integration and signal extraction.

Implements the mean-field coupled array of self-sustained complex
oscillators

    dz_i/dt = (rho + i w_i) z_i - rho z_i |z_i|^2 + eps * sum_j z_j

with a fixed-step classical Runge-Kutta integrator, plus the derived
signals used by the readout: unwrapped phases, smoothed instantaneous
frequencies, the averager output S(t), its envelope |S(t)|, and a
behavioral peak-detector model.

Time is dimensionless radian-time: with the default center frequency
omega0 = 1 one oscillation period is 2*pi time units. Physical time is
a presentation-layer multiplication by a carrier frequency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigurationError,
    DivergenceError,
    InsufficientDataError,
    NumericError,
)

# Divergence guard: the normalized dynamics keep ||z|| of order sqrt(n),
# so 10*sqrt(n) is only reachable through integrator blow-up.
DIVERGENCE_FACTOR = 10.0

# Coupling of the two-oscillator locking sweep when none is configured.
SWEEP_EPSILON = 0.05


def default_coupling(n: int, delta_omega: float) -> float:
    """Default coupling coefficient for an n-oscillator FSK-encoded array.

    Returns 3 * delta_omega / n. The product eps * n is the array-level
    pull rate; tying it to delta_omega keeps full-match encodings locked
    well inside one beat period while opposite-sign encodings stay outside
    the locking range, and makes the measured lock time scale as
    1 / delta_omega. The factor 3 was calibrated on the bundled filter
    bank (DOM-dot correlation and good/bad separation margins).
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return 3.0 * delta_omega / n


def default_timestep(omega_max: float) -> float:
    """Default integration step: 50 samples per period of the fastest oscillator."""
    if omega_max <= 0:
        raise ConfigurationError(f"omega_max must be positive, got {omega_max}")
    return 2.0 * math.pi / (50.0 * omega_max)


def _check_accuracy(dt: float, omega_max: float) -> None:
    """Integration-accuracy guard: at least 25 steps per period of omega_max."""
    limit = 2.0 * math.pi / (25.0 * omega_max)
    if dt > limit:
        raise ConfigurationError(
            f"dt={dt:.6g} exceeds the accuracy guard 2*pi/(25*omega_max)={limit:.6g}"
        )


@dataclass(frozen=True)
class OscillatorArrayConfig:
    """Dynamical parameters and integration controls for one array.

    Attributes:
        n: number of oscillators.
        rho: nonlinear gain (sets the limit-cycle relaxation rate).
        omega0: center angular frequency, radians per unit time.
        delta_omega: FSK full-scale detuning; encoded frequencies stay
            within omega0 +/- 2*delta_omega.
        epsilon: coupling coefficient. None selects
            default_coupling(n, delta_omega).
        include_self_in_sum: whether the mean-field sum includes z_i
            itself (default true; excluding it only shifts the effective
            linear gain by epsilon).
        dt: integration step in radian-time. None selects
            default_timestep(omega0 + 2*delta_omega).
        t_end: total integration span in radian-time.
        stride: sampling stride; the trace records every stride-th step.
        seed: seed for the default random-phase initial state.
    """

    n: int
    rho: float = 1.0
    omega0: float = 1.0
    delta_omega: float = 0.05
    epsilon: float | None = None
    include_self_in_sum: bool = True
    dt: float | None = None
    t_end: float = 400.0
    stride: int = 1
    seed: int = 0

    def __post_init__(self):
        # the negated comparisons also reject NaN and +inf
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if not 0 < self.rho < math.inf:
            raise ConfigurationError(f"rho must be positive and finite, got {self.rho}")
        if not 0 < self.omega0 < math.inf:
            raise ConfigurationError(f"omega0 must be positive and finite, got {self.omega0}")
        if not 0 <= self.delta_omega < math.inf:
            raise ConfigurationError(f"delta_omega must be >= 0 and finite, got {self.delta_omega}")
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", default_coupling(self.n, self.delta_omega))
        if not 0 <= self.epsilon < math.inf:
            raise ConfigurationError(f"epsilon must be >= 0 and finite, got {self.epsilon}")
        if self.dt is None:
            object.__setattr__(self, "dt", default_timestep(self.omega_max))
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.t_end < math.inf:
            raise ConfigurationError(f"t_end must be finite and >= dt={self.dt}, got {self.t_end}")
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")
        # a run records at most 2**24 complex values (256 MiB); the float test
        # comes first, as round() fails on a t_end/dt that overflows to inf
        if self.t_end / self.dt > 2**24 * self.stride or self.n * self.num_samples > 2**24:
            raise ConfigurationError(
                f"t_end={self.t_end:g}, dt={self.dt:g} and stride={self.stride} record more than "
                f"2**24 values of the {self.n} oscillators; raise dt or stride, or lower t_end"
            )
        _check_accuracy(self.dt, self.omega_max)

    @property
    def omega_max(self) -> float:
        """Largest frequency the FSK encoding can produce under this config."""
        return self.omega0 + 2.0 * self.delta_omega

    @property
    def n_steps(self) -> int:
        """RK4 steps of one run."""
        return int(round(self.t_end / self.dt))

    @property
    def num_samples(self) -> int:
        """Samples of one run: the initial state and every stride-th of the n_steps."""
        return self.n_steps // self.stride + 1


@dataclass(eq=False)
class SimulationTrace:
    """Sampled time evolution of one integration run.

    All arrays are read-only; times and states are set by integrate and
    the derived signals are computed lazily and cached. states has shape
    (num_samples, n); sample k corresponds to times[k].
    """

    times: np.ndarray
    states: np.ndarray
    config: OscillatorArrayConfig

    def __post_init__(self):
        for arr in (self.times, self.states):
            arr.setflags(write=False)

    @property
    def num_samples(self) -> int:
        return self.times.size

    @property
    def dt_sample(self) -> float:
        """Spacing between consecutive samples (stride * dt)."""
        return self.config.stride * self.config.dt

    @cached_property
    def phases(self) -> np.ndarray:
        """Per-oscillator unwrapped phase arg(z_i), shape (num_samples, n)."""
        out = np.unwrap(np.angle(self.states), axis=0)
        out.setflags(write=False)
        return out

    @cached_property
    def inst_freq(self) -> np.ndarray:
        """Smoothed instantaneous frequency at the default window (one period)."""
        return instantaneous_frequency(self)

    @cached_property
    def final_freq(self) -> np.ndarray:
        """Per-oscillator inst_freq averaged over the final 10% of the trace."""
        out = self.inst_freq[-max(1, self.num_samples // 10):].mean(axis=0)
        out.setflags(write=False)
        return out

    @cached_property
    def averager(self) -> np.ndarray:
        """Complex averager output S(t) = (1/n) * sum_j z_j."""
        out = self.states.sum(axis=1) / self.config.n
        out.setflags(write=False)
        return out

    @cached_property
    def envelope(self) -> np.ndarray:
        """|S(t)| for the normalized averager; the DOM readout signal."""
        out = np.abs(self.averager)
        out.setflags(write=False)
        return out

    @cached_property
    def peak_detector_output(self) -> np.ndarray:
        """Peak-detector response to the envelope at the default decay."""
        out = default_peak_detector(self.envelope, self.config)
        out.setflags(write=False)
        return out


def _field(omega: np.ndarray, cfg: OscillatorArrayConfig):
    """The right-hand side z -> dz/dt of the array with natural frequencies omega."""
    gain = cfg.rho + 1j * omega
    rho, eps, include_self = cfg.rho, cfg.epsilon, cfg.include_self_in_sum

    def rhs(z: np.ndarray) -> np.ndarray:
        s = z.sum()
        return gain * z - rho * z * np.abs(z) ** 2 + eps * (s if include_self else s - z)

    return rhs


def _checked(omega, z, cfg: OscillatorArrayConfig, name: str) -> tuple[np.ndarray, np.ndarray]:
    """omega and the complex state z (called name in errors) as length-n finite arrays."""
    omega = np.asarray(omega, dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128)
    if omega.shape != (cfg.n,) or z.shape != (cfg.n,):
        raise ConfigurationError(
            f"omega/{name} must both have length n={cfg.n}, got {omega.shape} and {z.shape}"
        )
    if not (np.isfinite(omega).all() and np.isfinite(z).all()):
        raise NumericError(f"non-finite values in omega or {name}")
    return omega, z


def derivative(state: np.ndarray, omega: np.ndarray, cfg: OscillatorArrayConfig) -> np.ndarray:
    """Time derivative dz/dt of the array at one state.

    Args:
        state: length-n complex amplitudes.
        omega: length-n natural frequencies.
        cfg: array configuration (rho, epsilon, coupling topology).

    Returns:
        Length-n complex rate vector.

    Raises:
        ConfigurationError: if the lengths do not match cfg.n.
        NumericError: if state or omega contain non-finite values.
    """
    omega, state = _checked(omega, state, cfg, "state")
    return _field(omega, cfg)(state)


def random_initial_state(n: int, seed: int, amplitude: float = 1.0) -> np.ndarray:
    """Oscillators on a circle of the given amplitude with seeded random phases.

    z_i = amplitude * exp(i theta_i), theta_i drawn independently and
    uniformly from [0, 2*pi). The same seed always produces the same state.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if amplitude <= 0:
        raise ConfigurationError(f"amplitude must be positive, got {amplitude}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return amplitude * np.exp(1j * theta)


def integrate(
    omega: np.ndarray,
    cfg: OscillatorArrayConfig,
    init: np.ndarray | None = None,
) -> SimulationTrace:
    """Integrate the array with a classical 4th-order Runge-Kutta scheme.

    The step is fixed at cfg.dt and the trace records every cfg.stride-th
    step, so runs are deterministic: identical (omega, cfg, init) produce
    bit-identical traces.

    Args:
        omega: length-n natural frequencies (radian-time units).
        cfg: array configuration.
        init: initial complex state; defaults to
            random_initial_state(cfg.n, cfg.seed).

    Returns:
        SimulationTrace sampled at uniform spacing stride * dt.

    Raises:
        ConfigurationError: on length mismatch or a dt too coarse for the
            actual frequency vector.
        NumericError: on non-finite inputs.
        DivergenceError: if the state norm exceeds 10*sqrt(n) at any step.
    """
    if init is None:
        init = random_initial_state(cfg.n, cfg.seed)
    omega, init = _checked(omega, init, cfg, "init")
    _check_accuracy(cfg.dt, max(np.abs(omega).max(), cfg.omega_max))

    rhs = _field(omega, cfg)
    dt, stride = cfg.dt, cfg.stride
    half, sixth = 0.5 * dt, dt / 6.0
    guard = DIVERGENCE_FACTOR * math.sqrt(cfg.n)
    states = np.empty((cfg.num_samples, cfg.n), dtype=np.complex128)
    states[0] = init
    z = init.copy()
    for step in range(1, cfg.n_steps + 1):
        k1 = rhs(z)
        k2 = rhs(z + half * k1)
        k3 = rhs(z + half * k2)
        k4 = rhs(z + dt * k3)
        z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = math.sqrt(float(np.sum(z.real * z.real + z.imag * z.imag)))
        if not math.isfinite(norm) or norm > guard:
            raise DivergenceError(step, norm)
        if step % stride == 0:
            states[step // stride] = z
    return SimulationTrace(times=sample_times(cfg, cfg.num_samples), states=states, config=cfg)


def sample_times(cfg: OscillatorArrayConfig, num_samples: int) -> np.ndarray:
    """Times of the first num_samples trace samples, spaced stride * dt."""
    return np.arange(num_samples) * (cfg.stride * cfg.dt)


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Column-wise moving average, edge-padded so the length is preserved."""
    left = window // 2
    right = window - 1 - left
    padded = np.pad(values, ((left, right), (0, 0)), mode="edge")
    kernel = np.ones(window) / window
    return sliding_window_view(padded, window, axis=0) @ kernel


def instantaneous_frequency(trace: SimulationTrace) -> np.ndarray:
    """Per-oscillator instantaneous frequency, shape (num_samples, n).

    Unwraps the phase of each oscillator, differentiates with central
    differences, and smooths with a moving average over one oscillation
    period (2*pi/omega0) worth of samples.

    Raises:
        InsufficientDataError: for traces shorter than 3 samples.
    """
    if trace.num_samples < 3:
        raise InsufficientDataError(
            f"instantaneous frequency needs >= 3 samples, trace has {trace.num_samples}"
        )
    period = 2.0 * math.pi / trace.config.omega0
    window = max(1, int(round(period / trace.dt_sample)))
    freq = np.gradient(trace.phases, trace.times, axis=0)
    return _moving_average(freq, min(window, trace.num_samples))


def peak_detector(envelope: np.ndarray, tau_decay: float, dt: float) -> np.ndarray:
    """Behavioral peak detector: decaying running maximum of the envelope.

    v[0] = envelope[0]; v[k] = max(envelope[k], v[k-1] * exp(-dt/tau_decay)).

    Args:
        envelope: sampled non-negative signal.
        tau_decay: decay time constant, radian-time.
        dt: sample spacing of the envelope.

    Raises:
        InsufficientDataError: for an empty envelope.
    """
    if tau_decay <= 0:
        raise ConfigurationError(f"tau_decay must be positive, got {tau_decay}")
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    envelope = np.asarray(envelope, dtype=np.float64)
    if envelope.size == 0:
        raise InsufficientDataError("peak detector needs at least one envelope sample")
    decay = math.exp(-dt / tau_decay)
    out = np.empty_like(envelope)
    held = out[0] = envelope[0]
    for k in range(1, envelope.size):
        held = max(envelope[k], held * decay)
        out[k] = held
    return out


def default_peak_detector(envelope: np.ndarray, cfg: OscillatorArrayConfig) -> np.ndarray:
    """Peak detector on a trace envelope, decaying over ten carrier periods."""
    tau = 10.0 * 2.0 * math.pi / cfg.omega0
    return peak_detector(envelope, tau, cfg.stride * cfg.dt)


@dataclass(frozen=True)
class SweepPoint:
    """One detuning point of a two-oscillator locking sweep."""

    detuning: float
    locked: bool
    final_freq_gap: float
    beat_amplitude: float


def sweep_locking(
    epsilon: float,
    detunings: np.ndarray,
    omega0: float = 1.0,
    rho: float = 1.0,
    t_end: float = 1200.0,
    dt: float | None = None,
    seed: int = 0,
    gap_tol: float | None = None,
) -> tuple[SweepPoint, ...]:
    """Two-oscillator locking sweep over a detuning grid.

    For each detuning d the oscillators run at omega0 -/+ d/2 under
    coupling epsilon. A point is locked when the gap between the two
    final instantaneous frequencies (averaged over the last 10% of the
    trace) is below gap_tol.

    Args:
        epsilon: coupling coefficient.
        detunings: grid of detuning values, each >= 0.
        omega0: center frequency.
        rho: nonlinear gain.
        t_end: span per run; long runs sharpen the boundary.
        dt: integration step; None picks the default for the fastest
            frequency on the grid.
        seed: initial-phase seed shared by all points.
        gap_tol: locked threshold on the final frequency gap;
            None selects 0.1 * epsilon.

    Returns:
        One SweepPoint per detuning, in grid order.
    """
    detunings = np.asarray(detunings, dtype=np.float64)
    if detunings.size == 0:
        raise ConfigurationError("detuning grid must be nonempty")
    if (detunings < 0).any():
        raise ConfigurationError("detunings must be >= 0")
    if gap_tol is None:
        gap_tol = 0.1 * epsilon
    if not 0 < gap_tol < math.inf:
        raise ConfigurationError(f"gap_tol must be positive and finite, got {gap_tol}")
    # delta_omega sized so omega_max, and with it the default dt and the
    # accuracy guard, covers the fastest frequency on the grid
    cfg = OscillatorArrayConfig(
        n=2,
        rho=rho,
        omega0=omega0,
        delta_omega=0.25 * float(detunings.max()),
        epsilon=epsilon,
        dt=dt,
        t_end=t_end,
        seed=seed,
    )
    points = []
    for d in detunings:
        omega = np.array([omega0 - 0.5 * d, omega0 + 0.5 * d])
        trace = integrate(omega, cfg)
        gap = float(abs(trace.final_freq[1] - trace.final_freq[0]))
        window = trace.envelope[-max(1, trace.num_samples // 5):]
        beat = float((window.max() - window.min()) / 2.0)
        points.append(
            SweepPoint(
                detuning=float(d),
                locked=bool(gap < gap_tol),
                final_freq_gap=gap,
                beat_amplitude=beat,
            )
        )
    return tuple(points)
