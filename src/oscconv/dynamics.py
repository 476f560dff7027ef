"""Coupled oscillator array: integration and signal extraction.

Implements the mean-field coupled array of self-sustained complex
oscillators

    dz_i/dt = (rho + i w_i) z_i - rho z_i |z_i|^2 + eps * sum_j z_j

with a fixed-step classical Runge-Kutta integrator, plus the derived
signals used by the readout: unwrapped phases, smoothed instantaneous
frequencies, the averager output S(t), its envelope |S(t)|, and a
behavioral peak-detector model. The experiments are in oscconv.inference.

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
        if self.stride > self.n_steps:  # a longer stride records only the initial state
            raise ConfigurationError(f"stride must be <= the run's {self.n_steps} steps")
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(eq=False)
class SimulationTrace:
    """Sampled time evolution of one integration run, or of a block of runs.

    All arrays are read-only views; the derived signals are computed
    lazily and cached, along the sample axis, so that the same code reads
    one run or a block. times and averager cover every sample, sample k
    at times[k]. One run has states of shape (samples, n), every sample,
    and averager of shape (samples,), the mean of states. A block has a
    leading row axis: averager (rows, samples), no states (rows, 0, n)
    and block_freq (rows, n), the final_freq its rows summed as they
    ran; its failures[i] is the DivergenceError that stopped row i, or
    None.
    """

    times: np.ndarray
    states: np.ndarray
    config: OscillatorArrayConfig
    averager: np.ndarray
    failures: tuple[DivergenceError | None, ...] = ()
    block_freq: np.ndarray | None = None

    def __post_init__(self):
        # read-only views: the caller's own arrays stay writeable
        for name in ("times", "states", "averager", "block_freq"):
            if getattr(self, name) is not None:
                setattr(self, name, _read_only(getattr(self, name).view()))

    def rows(self, rows: slice) -> SimulationTrace:
        """The trace of some rows of a block."""
        return SimulationTrace(self.times, self.states[rows], self.config, self.averager[rows],
                               self.failures[rows], self.block_freq[rows])

    @property
    def num_samples(self) -> int:
        return self.times.size

    @cached_property
    def phases(self) -> np.ndarray:
        """Per-oscillator unwrapped phase arg(z_i) of the recorded states."""
        return _read_only(np.unwrap(np.angle(self.states), axis=-2))

    @cached_property
    def inst_freq(self) -> np.ndarray:
        """Smoothed instantaneous frequency at the default window (one period)."""
        return instantaneous_frequency(self)

    @cached_property
    def final_freq(self) -> np.ndarray:
        """Per-oscillator inst_freq averaged over the final 10% of the trace."""
        if self.block_freq is not None and self.num_samples >= 3:  # below 3, inst_freq raises
            return self.block_freq
        return _read_only(self.inst_freq[..., -max(1, self.num_samples // 10):, :].mean(axis=-2))

    @cached_property
    def envelope(self) -> np.ndarray:
        """|S(t)| of the averager S(t) = (1/n) * sum_j z_j; the DOM readout signal."""
        return _read_only(np.abs(self.averager))

    @cached_property
    def peak_detector_output(self) -> np.ndarray:
        """Peak-detector response to the envelope at the default decay."""
        return _read_only(default_peak_detector(self.envelope, self.config))


def _field(omega: np.ndarray, cfg: OscillatorArrayConfig):
    """The right-hand side z -> dz/dt of the array with natural frequencies omega.

    omega and z have shape (n,) or (rows, n); each row is an array of its own.
    """
    gain = cfg.rho + 1j * omega
    rho, eps, include_self = cfg.rho, cfg.epsilon, cfg.include_self_in_sum

    def rhs(z: np.ndarray) -> np.ndarray:
        s = z.sum(axis=-1, keepdims=True)
        return gain * z - rho * z * np.abs(z) ** 2 + eps * (s if include_self else s - z)

    return rhs


def _checked(omega, z, cfg: OscillatorArrayConfig, name: str) -> tuple[np.ndarray, np.ndarray]:
    """omega, shape (n,) or (rows, n), and the complex state z (called name
    in errors), shape (n,) or omega's, as finite C-ordered arrays."""
    # C order keeps each row's sums in the same order, whatever the caller's layout
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    z = np.ascontiguousarray(z, dtype=np.complex128)
    if omega.ndim > 2 or omega.shape[-1:] != (cfg.n,) or not omega.size or z.shape not in (
        (cfg.n,), omega.shape
    ):
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


def random_initial_state(n: int, seed: int) -> np.ndarray:
    """Oscillators on the unit circle with seeded random phases.

    z_i = exp(i theta_i), theta_i drawn independently and uniformly from
    [0, 2*pi). The same seed always produces the same state.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.exp(1j * theta)


def _check_block(rows: int, cfg: OscillatorArrayConfig) -> None:
    """Hold a block of rows to the 2**24 values OscillatorArrayConfig lets one run record."""
    recorded = rows * cfg.num_samples
    if recorded > 2**24:
        raise ConfigurationError(
            f"a block of {rows} runs would record {recorded} values, more than 2**24; "
            f"integrate fewer rows at a time, raise dt or stride, or lower t_end"
        )


def _final_freq_weights(cfg: OscillatorArrayConfig) -> tuple[int, np.ndarray]:
    """(first, w): final_freq = sum over samples j >= first of w[j - first] * (phase_j - phase_j-1).

    The final-10% mean of the moving average gives each gradient sample a
    share, and np.gradient splits a sample's share between the phase steps
    on its two sides, or gives all of it to the one step at either end.
    """
    num = cfg.num_samples
    window = _smoothing_window(cfg, num)
    final, lead = max(1, num // 10), window // 2
    # final sample k averages the edge-padded gradient at k - lead + [0, window):
    # count the uses of each padded index u, then fold u onto the run
    u = np.arange(num - final - lead, num - lead + window - 1)
    uses = np.minimum(u + lead, num - 1) - np.maximum(u + lead - window + 1, num - final) + 1
    share = np.bincount(np.clip(u, 0, num - 1), weights=uses, minlength=num) / (final * window)
    share[1:-1] /= 2.0
    first = max(1, num - final - lead)
    return first, (share[first - 1:-1] + share[first:]) / (cfg.stride * cfg.dt)


def integrate(
    omega: np.ndarray,
    cfg: OscillatorArrayConfig,
    init: np.ndarray,
) -> SimulationTrace:
    """Integrate the array with a classical 4th-order Runge-Kutta scheme.

    The step is fixed at cfg.dt and the trace records every cfg.stride-th
    step, so runs are deterministic: identical (omega, cfg, init) produce
    bit-identical traces.

    A 1-D omega is one run, and its trace keeps every state. A 2-D omega
    is a block of runs, one per row, stepped together; the block's trace
    keeps every row's averager and no states: each row sums its final_freq
    as it runs instead. A row's averager and final_freq are bit-identical
    to the same row's in any other block, its averager to its 1-D run's,
    and its final_freq agrees with its 1-D run's to rounding. A diverging
    row stops alone: from then on it holds zeros, and its error is in the
    trace's failures.

    Args:
        omega: natural frequencies (radian-time units), shape (n,) or
            (rows, n).
        cfg: array configuration.
        init: initial complex state, shape (n,) or omega's shape.

    Returns:
        The SimulationTrace of the run or the block, sampled at uniform
        spacing stride * dt.

    Raises:
        ConfigurationError: on a shape mismatch, a dt too coarse for the
            actual frequencies, or a block that would record more than
            2**24 values.
        NumericError: on non-finite inputs.
        DivergenceError: for a 1-D omega, if the state norm exceeds
            10*sqrt(n) at any step.
    """
    omega, init = _checked(omega, init, cfg, "init")
    _check_accuracy(cfg.dt, max(np.abs(omega).max(), cfg.omega_max))

    rows = np.atleast_2d(omega)
    # per row: the state sums (n times the averager) at every sample, and a
    # run's every state or a block's weighted phase steps from sample first on
    run = omega.ndim == 1
    if not run:
        _check_block(len(rows), cfg)
    first, weights = (cfg.num_samples, None) if run else _final_freq_weights(cfg)
    z = last = np.array(np.broadcast_to(init, rows.shape), order="C")
    rhs = _field(rows, cfg)
    dt, stride = cfg.dt, cfg.stride
    half, sixth = 0.5 * dt, dt / 6.0
    guard = DIVERGENCE_FACTOR * math.sqrt(cfg.n)
    sums = np.zeros((len(rows), cfg.num_samples), dtype=np.complex128)
    states = np.zeros((len(rows), cfg.num_samples if run else 0, cfg.n), dtype=np.complex128)
    freq = np.zeros(rows.shape)
    sums[:, 0] = z.sum(axis=1)
    if run:
        states[:, 0] = z
    failures = {}
    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports a diverging row
        for step in range(1, cfg.n_steps + 1):
            k1 = rhs(z)
            k2 = rhs(z + half * k1)
            k3 = rhs(z + half * k2)
            k4 = rhs(z + dt * k3)
            z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            norm = np.sqrt((z.real * z.real + z.imag * z.imag).sum(axis=1))
            if not norm.max() <= guard:
                # a failed row restarts from zero, a fixed point that never
                # trips the guard again
                for row in np.flatnonzero(~(norm <= guard)):
                    failures[int(row)] = DivergenceError(step, float(norm[row]))
                    z[row] = 0.0
                if len(failures) == len(rows):
                    break
            if step % stride == 0:
                sample = step // stride
                sums[:, sample] = z.sum(axis=1)
                if run:
                    states[:, sample] = z
                elif sample >= first:
                    freq += weights[sample - first] * np.angle(z * last.conj())
                last = z
    sums /= cfg.n
    times = sample_times(cfg)
    if run:
        if failures:
            raise failures[0]
        return SimulationTrace(times=times, states=states[0], config=cfg, averager=sums[0])
    failed = tuple(failures.get(row) for row in range(len(rows)))
    return SimulationTrace(times, states, cfg, sums, failed, freq)


def sample_times(cfg: OscillatorArrayConfig) -> np.ndarray:
    """Times of a run's cfg.num_samples trace samples, spaced stride * dt."""
    return np.arange(cfg.num_samples) * (cfg.stride * cfg.dt)


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Moving average along the sample axis (-2), edge-padded so the length is preserved."""
    pad = [(0, 0)] * values.ndim
    pad[-2] = (window // 2, window - 1 - window // 2)
    padded = np.pad(values, pad, mode="edge")
    kernel = np.ones(window) / window
    return sliding_window_view(padded, window, axis=-2) @ kernel


def _smoothing_window(cfg: OscillatorArrayConfig, num_samples: int) -> int:
    """Samples in instantaneous_frequency's moving average: one period of omega0."""
    period = 2.0 * math.pi / cfg.omega0
    return min(max(1, int(round(period / (cfg.stride * cfg.dt)))), num_samples)


def instantaneous_frequency(trace: SimulationTrace) -> np.ndarray:
    """Per-oscillator instantaneous frequency at each recorded state, states' shape.

    Unwraps the phase of each oscillator, differentiates with central
    differences, and smooths with a moving average over one oscillation
    period (2*pi/omega0) worth of samples.

    Raises:
        InsufficientDataError: for traces shorter than 3 samples, or
            that recorded no states.
    """
    if trace.num_samples < 3:
        raise InsufficientDataError(
            f"instantaneous frequency needs >= 3 samples, trace has {trace.num_samples}"
        )
    if not trace.states.shape[-2]:
        raise InsufficientDataError("instantaneous frequency needs states; the trace recorded none")
    freq = np.gradient(trace.phases, trace.times, axis=-2)
    return _moving_average(freq, _smoothing_window(trace.config, trace.num_samples))


def peak_detector(envelope: np.ndarray, tau_decay: float, dt: float) -> np.ndarray:
    """Behavioral peak detector: decaying running maximum of the envelope.

    v[0] = envelope[0]; v[k] = max(envelope[k], v[k-1] * exp(-dt/tau_decay)),
    along the last axis, so a block of envelopes is one pass.

    Args:
        envelope: sampled non-negative signal, shape (..., samples).
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
    held = out[..., 0] = envelope[..., 0]
    for k in range(1, envelope.shape[-1]):
        held = out[..., k] = np.maximum(envelope[..., k], held * decay)
    return out


def default_peak_detector(envelope: np.ndarray, cfg: OscillatorArrayConfig) -> np.ndarray:
    """Peak detector on a trace envelope, decaying over ten carrier periods."""
    tau = 10.0 * 2.0 * math.pi / cfg.omega0
    return peak_detector(envelope, tau, cfg.stride * cfg.dt)
