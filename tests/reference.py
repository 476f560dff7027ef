"""A test-side state history: integrate keeps each run's final state only."""
import numpy as np

from oscconv import OscillatorArrayConfig, SimulationTrace, derivative
from oscconv.dynamics import sample_times


def rk4_history(omega, cfg: OscillatorArrayConfig, init) -> np.ndarray:
    """Every sample's state of the run, or block of runs, that integrate steps.

    A classical RK4 over the public derivative, stepping a whole (rows, n)
    block at once. omega is (n,) or (rows, n) and init (n,) or omega's
    shape. The history is (samples, n) for one run and (rows, samples, n)
    for a block: the state axis is -2, as instantaneous_frequency reads it.
    Each step is bit for bit integrate's. There is no divergence guard.
    """
    omega = np.asarray(omega, dtype=np.float64)
    z = np.broadcast_to(np.asarray(init, dtype=np.complex128), omega.shape)
    dt = cfg.dt
    history = np.empty((cfg.num_samples, *omega.shape), dtype=np.complex128)
    history[0] = z
    for step in range(1, cfg.num_samples):
        k1 = derivative(z, omega, cfg)
        k2 = derivative(z + 0.5 * dt * k1, omega, cfg)
        k3 = derivative(z + 0.5 * dt * k2, omega, cfg)
        k4 = derivative(z + dt * k3, omega, cfg)
        z = history[step] = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.moveaxis(history, 0, -2)


def history_trace(omega, cfg: OscillatorArrayConfig, init) -> SimulationTrace:
    """The trace of rk4_history's states, which instantaneous_frequency reads."""
    history = rk4_history(omega, cfg, init)
    return SimulationTrace(sample_times(cfg), history, cfg, history.mean(axis=-1))
