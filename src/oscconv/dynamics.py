"""Coupled oscillator array: integration and signal extraction.

Implements the mean-field coupled array of self-sustained complex
oscillators

    dz_i/dt = (rho + i w_i) z_i - rho z_i |z_i|^2 + eps * sum_j z_j

with a fixed-step classical Runge-Kutta integrator, plus the signals
used by the readout: the final frequency of each oscillator, the
averager output S(t), its envelope |S(t)|, and a behavioral
peak-detector model. A run keeps its final state, not its history.
The experiments are in oscconv.inference.

Time is dimensionless radian-time: with the default center frequency
omega0 = 1 one oscillation period is 2*pi time units. Physical time is
a presentation-layer multiplication by a carrier frequency.
"""
from __future__ import annotations

import itertools
import math
import operator
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

# Divergence guard: a run stops once ||z|| passes 10*sqrt(n). Integrator blow-up
# trips it, and so does a bounded run with eps*n/rho > 99, as its coherent state
# has |z_i|**2 = 1 + eps*n/rho (ROADMAP item 3).
DIVERGENCE_FACTOR = 10.0
# Averager samples one run, or one block of runs, may record: 256 MiB.
VALUE_CAP = 2**24


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
    if not 0 <= delta_omega < math.inf:  # negated, so NaN fails too
        raise ConfigurationError(f"delta_omega must be >= 0 and finite, got {delta_omega}")
    return 3.0 * delta_omega / n


def default_timestep(omega_max: float) -> float:
    """Default integration step: 50 samples per period of the fastest oscillator."""
    if not 0 < omega_max < math.inf:
        raise ConfigurationError(f"omega_max must be positive and finite, got {omega_max}")
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
        dt: integration step in radian-time. None selects
            default_timestep(omega0 + 2*delta_omega).
        t_end: total integration span in radian-time.
    """

    n: int
    rho: float = 1.0
    omega0: float = 1.0
    delta_omega: float = 0.05
    epsilon: float | None = None
    dt: float | None = None
    t_end: float = 400.0

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            n = 0
        if n < 1:
            raise ConfigurationError(f"n must be an integer >= 1, got {self.n!r}")
        # the negated comparisons also reject NaN and +inf
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
        # the float test comes first, as round() fails on a t_end/dt that overflows to inf
        if self.t_end / self.dt > VALUE_CAP or self.num_samples > VALUE_CAP:
            raise ConfigurationError(
                f"t_end={self.t_end:g} and dt={self.dt:g} record more than 2**24 values; "
                f"raise dt or lower t_end"
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
        """Samples of one run: the initial state and the state after each of the n_steps."""
        return self.n_steps + 1


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(eq=False)
class SimulationTrace:
    """Sampled time evolution of one integration run, or of a block of runs.

    All arrays are read-only views; the envelope is computed lazily and
    cached, along the sample axis, so that the same code reads one run or
    a block. times and averager cover every sample, sample k at times[k].
    One run has averager (samples,), the mean of its states, its final
    state, states (1, n), and freq (n,), the final_freq it summed as it
    ran. A block has a leading row axis: averager (rows, samples), states
    (rows, 1, n), 0 for a failed row, and freq (rows, n); its failures[i]
    is the DivergenceError that stopped row i, or None. A trace built
    without a freq reads its final_freq as None.
    """

    times: np.ndarray
    states: np.ndarray
    config: OscillatorArrayConfig
    averager: np.ndarray
    failures: tuple[DivergenceError | None, ...] = ()
    freq: np.ndarray | None = None

    def __post_init__(self):
        # read-only views: the caller's own arrays stay writeable
        for name in ("times", "states", "averager", "freq"):
            if getattr(self, name) is not None:
                setattr(self, name, _read_only(getattr(self, name).view()))

    def rows(self, rows: slice) -> SimulationTrace:
        """The trace of some rows of a block."""
        if self.averager.ndim == 1:
            raise ConfigurationError("rows() reads a block of runs; this trace is one run")
        return SimulationTrace(self.times, self.states[rows], self.config, self.averager[rows],
                               self.failures[rows], self.freq[rows])

    @property
    def num_samples(self) -> int:
        return self.times.size

    @property
    def final_freq(self) -> np.ndarray:
        """Per-oscillator instantaneous frequency averaged over the final 10% of the trace.

        integrate sums it from the run's phase steps. The accuracy guard holds
        dt*|omega| to 2*pi/25, far below the half turn at which a step wraps.
        """
        _check_freq_samples(self.num_samples)
        return self.freq

    @cached_property
    def envelope(self) -> np.ndarray:
        """|S(t)| of the averager S(t) = (1/n) * sum_j z_j; the DOM readout signal."""
        return _read_only(np.abs(self.averager))


def _field(omega: np.ndarray, cfg: OscillatorArrayConfig):
    """rhs(z, k): dz/dt of the arrays with natural frequencies omega, written into k.

    omega and z have shape (n, cols), oscillator-major: each column is an
    array of its own. Its oscillator sum, shape (cols,), is an axis-0 reduce,
    which numpy runs as element-wise adds, one oscillator after the next.
    rhs evaluates z * (gain - rho*|z|**2) + eps*sum_j z_j. It takes |z|**2
    as conj(z)*z, a complex array, so the field never casts to float and
    back. Its imaginary part is the multiply's rounding residue: 0 with
    numpy's baseline complex multiply, but not always with the AVX-512
    kernels that numpy 2 dispatches to, which also round z*w and w*z
    apart. Operand order is thus part of the bits, here and in the phase
    step z * conj(last) of integrate. rhs(z, k, s) reuses k = conj(z)*z,
    which it overwrites, and s, z's column sums. -rho and eps are 0-d
    complex arrays, which numpy need not cast from float on every call.
    Each ufunc is called by a bound name with a positional output, the
    cheapest call numpy offers on a block this small.
    """
    gain = cfg.rho + 1j * omega
    neg_rho, eps = np.array(-cfg.rho, dtype=complex), np.array(cfg.epsilon, dtype=complex)
    coupled = np.empty(omega.shape[1:], dtype=np.complex128)
    add, multiply, conjugate, add_reduce = np.add, np.multiply, np.conjugate, np.add.reduce

    def rhs(z: np.ndarray, k: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
        if s is None:
            conjugate(z, k)
            multiply(k, z, k)
            s = add_reduce(z, 0, None, coupled)
        multiply(k, neg_rho, k)
        add(k, gain, k)
        multiply(k, z, k)
        add(k, multiply(s, eps, coupled), k)
        return k

    return rhs


def _columns(x: np.ndarray, rows: int) -> np.ndarray:
    """x, one row of shape (n,) for all rows or shape (rows, n), as the
    columns of a C-ordered (n, max(rows, 2)) array.

    A lone row gets a zero partner column, a fixed point of the field: over
    a size-1 axis numpy would sum the row's oscillators as one 1-D reduce,
    pairwise and not one after the next as in any wider block, and the
    row's last bits would differ.
    """
    cols = np.zeros((x.shape[-1], max(rows, 2)), dtype=x.dtype)
    cols[:, :rows] = np.atleast_2d(x).T
    return cols


def _checked(omega, z, cfg: OscillatorArrayConfig, name: str) -> tuple[np.ndarray, np.ndarray]:
    """omega, shape (n,) or (rows, n), and the complex state z (called name
    in errors), shape (n,) or omega's, as finite C-ordered arrays."""
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

    Evaluates the field integrate steps, in the same padded columns, so one
    integrate step is bit for bit the RK4 step over derivative.

    Args:
        state: length-n complex amplitudes.
        omega: length-n natural frequencies.
        cfg: array configuration (rho, epsilon).

    Returns:
        Length-n complex rate vector.

    Raises:
        ConfigurationError: if the lengths do not match cfg.n.
        NumericError: if state or omega contain non-finite values.
    """
    omega, state = _checked(omega, state, cfg, "state")
    rows = len(np.atleast_2d(omega))
    state = _columns(state, rows)
    rate = _field(_columns(omega, rows), cfg)(state, np.empty_like(state))
    return rate[:, :rows].T.reshape(omega.shape)


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hashmix(value: int, const: list[int], mult: int) -> int:
    """SeedSequence's hash of value under const[0], which then advances by mult."""
    old, const[0] = const[0], const[0] * mult & _M32
    value = (value ^ old) * const[0] & _M32
    return value ^ value >> 16


def _mix(x: int, value: int, const: list[int]) -> int:
    x = (0xCA01F9DD * x - 0x4973F715 * _hashmix(value, const, 0x931E8875)) & _M32
    return x ^ x >> 16


def _pcg64(seed: int, n: int):
    """Yield the first n outputs of numpy's PCG64(SeedSequence(seed)), XSL-RR 128/64."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = [0x43B0D7E5]
    pool = [_hashmix(word, const, 0x931E8875) for word in (words + [0, 0, 0])[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], pool[src], const)
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = _mix(pool[dst], word, const)
    const = [0x8B51F9DD]
    out = [_hashmix(pool[i % 4], const, 0x58F38DED) for i in range(8)]
    # generate_state(4, uint64) pairs words little-endian: state (u0 : u1), increment (u2 : u3)
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    inc = (out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]) << 1 & _M128 | 1
    state = ((inc + (out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2])) * mult + inc) & _M128
    for _ in range(n):
        state = (state * mult + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (x >> rot | x << 64 - rot) & _M64


def random_initial_state(n: int, seed: int) -> np.ndarray:
    """Oscillators on the unit circle with seeded random phases.

    z_i = exp(i theta_i), theta_i drawn independently and uniformly from
    [0, 2*pi) by the package's own PCG64 stream: a non-negative integer seed
    always gives the same state, which tests pin to numpy's
    Generator(PCG64(SeedSequence(seed))).uniform(0, 2*pi, n) bit for bit.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    try:
        index = operator.index(seed)
    except TypeError:
        index = -1
    if index < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    # uniform(0, 2*pi) is 0.0 + 2*pi * next_double, next_double = (x >> 11) * 2**-53
    return np.exp(1j * np.array([math.tau * ((x >> 11) * 2.0**-53) for x in _pcg64(index, n)]))


def _check_block(rows: int, cfg: OscillatorArrayConfig) -> None:
    """Hold a block of rows to the VALUE_CAP values OscillatorArrayConfig lets one run record."""
    recorded = rows * cfg.num_samples
    if recorded > VALUE_CAP:
        raise ConfigurationError(
            f"a block of {rows} runs would record {recorded} values, more than 2**24; "
            f"integrate fewer rows at a time, raise dt or lower t_end"
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
    return first, (share[first - 1:-1] + share[first:]) / cfg.dt


def integrate(
    omega: np.ndarray,
    cfg: OscillatorArrayConfig,
    init: np.ndarray,
) -> SimulationTrace:
    """Integrate the array with a classical 4th-order Runge-Kutta scheme.

    The step is fixed at cfg.dt and the trace records the averager at the
    initial state and after every step, so runs are deterministic:
    identical (omega, cfg, init) produce bit-identical traces.

    A 2-D omega is a block of runs, one per row, stepped together; its
    trace keeps each row's averager and final state, not its history. A
    1-D omega is one run, the block of its one row without the row axis.
    Every run sums its final_freq from its phase steps as it runs. A row's
    averager, final state and final_freq are bit-identical to the same
    row's in any other block and to its 1-D run's. A diverging row stops
    alone: from then on it holds zeros, and its error is in failures.

    The loop steps the rows oscillator-major, as the columns of an (n, rows)
    array, so a row's oscillators add up one after the next, in the same
    order in any block; a lone row gets a zero partner column (_columns).
    Each step computes conj(z)*z of its new state once: the next step's
    field reads it, and the divergence guard reads its real part, the
    squared moduli. The guard's first tier is one maximum over them all:
    while none passes 50, half of 100, no column of n sums past 100*n.
    Past that, the guard compares each column's sum, its squared norm,
    with 100*n. The step's sum of z goes into its sample's column of the
    recorded sums, and the next step's field reads it. z steps in place.
    One (4, n, cols) buffer holds conj(z)*z, in which k1 is computed, k2,
    k3 and k4, so one multiply doubles k2 and k3. The stage input, the
    conjugate of last, the state that a sample's phase step reads from
    sample first - 1 on, and that step's product and angle each keep one
    buffer for the call.

    Args:
        omega: natural frequencies (radian-time units), shape (n,) or
            (rows, n).
        cfg: array configuration.
        init: initial complex state, shape (n,) or omega's shape.

    Returns:
        The SimulationTrace of the run or the block, sampled every dt.

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

    rows = len(np.atleast_2d(omega))
    _check_block(rows, cfg)
    first, weights = _final_freq_weights(cfg)
    z = _columns(init, rows)
    rhs = _field(_columns(omega, rows), cfg)
    add, multiply, conjugate, arctan2 = np.add, np.multiply, np.conjugate, np.arctan2
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
    dt, guard2 = cfg.dt, DIVERGENCE_FACTOR**2 * cfg.n
    # n squared moduli of at most guard2 / (2n) sum to less than guard2
    guard1 = guard2 / (2 * cfg.n)
    # 0-d complex operands: numpy would cast a float to complex on every call
    half, dt, sixth, two = (np.array(x, dtype=complex) for x in (0.5 * dt, dt, dt / 6.0, 2.0))
    # per column: the state sums (n times the averager) at every sample and
    # the weighted phase steps from sample first on
    sums = np.zeros((z.shape[1], cfg.num_samples), dtype=np.complex128)
    sample_sums = sums.T
    freq = np.zeros(z.shape)
    s = add_reduce(z, 0, None, sample_sums[0])
    slopes = np.empty((4, *z.shape), dtype=complex)
    a2, k2, k3, k4 = slopes  # k1 is computed in a2's buffer
    k23 = slopes[1:3]
    a2_real = a2.reshape(-1).real
    multiply(conjugate(z, a2), z, a2)
    tmp, phase = np.empty((2, *z.shape), dtype=complex)
    phase_real, phase_imag, angle = phase.real, phase.imag, np.empty(z.shape)
    last_conj = conjugate(z)
    failures = {}
    with np.errstate(over="ignore", invalid="ignore"):  # the guard reports a diverging row
        for step in range(1, cfg.n_steps + 1):
            k1 = rhs(z, a2, s)
            add(multiply(half, k1, tmp), z, tmp)
            rhs(tmp, k2)
            add(multiply(half, k2, tmp), z, tmp)
            rhs(tmp, k3)
            add(multiply(dt, k3, tmp), z, tmp)
            rhs(tmp, k4)
            # k1 + 2*k2 + 2*k3 + k4, summed left to right
            multiply(k23, two, k23)
            add(k1, k2, k1)
            add(k1, k3, k1)
            add(k1, k4, k1)
            add(z, multiply(k1, sixth, k1), z)
            # the next step's k1 input, and the guard's squared moduli
            multiply(conjugate(z, a2), z, a2)
            if not max_reduce(a2_real) <= guard1:
                norm2 = add_reduce(a2.real, 0)
                if not max_reduce(norm2) <= guard2:
                    # a failed row restarts from zero, a fixed point that never
                    # trips the guard again
                    for row in np.flatnonzero(~(norm2 <= guard2)):
                        failures[int(row)] = DivergenceError(step, math.sqrt(norm2[row]))
                        z[:, row] = a2[:, row] = 0.0
                    if len(failures) == rows:
                        break
            s = add_reduce(z, 0, None, sample_sums[step])
            if step >= first:
                multiply(z, last_conj, phase)
                arctan2(phase_imag, phase_real, angle)
                add(freq, multiply(angle, weights[step - first], angle), freq)
            if step >= first - 1:  # the next phase step reads this state
                conjugate(z, last_conj)
    sums /= cfg.n
    times = sample_times(cfg)
    freq = np.ascontiguousarray(freq[:, :rows].T)
    states = np.ascontiguousarray(z[:, :rows].T)[:, None]
    if omega.ndim == 1:
        if failures:
            raise failures[0]
        return SimulationTrace(times, states[0], cfg, sums[0], freq=freq[0])
    failed = tuple(failures.get(row) for row in range(rows))
    return SimulationTrace(times, states, cfg, sums[:rows], failed, freq)


def sample_times(cfg: OscillatorArrayConfig) -> np.ndarray:
    """Times of a run's cfg.num_samples trace samples, spaced dt."""
    return np.arange(cfg.num_samples) * cfg.dt


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Moving average along the sample axis (-2), edge-padded so the length is preserved."""
    pad = [(0, 0)] * values.ndim
    pad[-2] = (window // 2, window - 1 - window // 2)
    padded = np.pad(values, pad, mode="edge")
    kernel = np.ones(window) / window
    return sliding_window_view(padded, window, axis=-2) @ kernel


def _check_freq_samples(num_samples: int) -> None:
    """final_freq needs 3 samples of a run."""
    if num_samples < 3:
        raise InsufficientDataError(
            f"final frequency needs >= 3 samples, the run records {num_samples}"
        )


def _smoothing_window(cfg: OscillatorArrayConfig, num_samples: int) -> int:
    """Samples in instantaneous_frequency's moving average: one period of omega0."""
    period = 2.0 * math.pi / cfg.omega0
    return min(max(1, int(round(period / cfg.dt))), num_samples)


def instantaneous_frequency(trace: SimulationTrace) -> np.ndarray:
    """Per-oscillator instantaneous frequency at each state of a history, states' shape.

    Unwraps the phase of each oscillator, differentiates with central
    differences, and smooths with a moving average over one oscillation
    period (2*pi/omega0) worth of samples. integrate keeps no history; this
    stays only while perfbench/tracing.py patches it (ROADMAP item 1).

    Raises:
        InsufficientDataError: for a trace without a state at each of
            at least 3 samples.
    """
    if trace.states.shape[-2] != trace.num_samples or trace.num_samples < 3:
        raise InsufficientDataError(
            "instantaneous frequency needs >= 3 states; integrate keeps only final states"
        )
    phases = np.unwrap(np.angle(trace.states), axis=-2)
    freq = np.gradient(phases, trace.times, axis=-2)
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
    for name, value in (("tau_decay", tau_decay), ("dt", dt)):
        if not 0 < value < math.inf:
            raise ConfigurationError(f"{name} must be positive and finite, got {value}")
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
    return peak_detector(envelope, tau, cfg.dt)
