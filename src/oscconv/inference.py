"""Experiments on the array: DOM readout, lock classification, rankings, maps, sweeps.

A match run encodes (fragment, filter) detunings onto the array,
integrates it from seeded random phases, and reads the Degree of Match
(DOM) off the averager envelope: a synchronized array holds a high
steady envelope, a mismatched one beats at the surviving difference
frequencies and stays low. The exact dot product from the oracle module
rides along in every report as ground truth. A locking sweep finds the
detuning at which two coupled oscillators stop locking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    OscillatorArrayConfig,
    SimulationTrace,
    _check_block,
    _read_only,
    integrate,
    random_initial_state,
)
from .encoding import Fragment, GaborFilter, fsk_encode
from .errors import ConfigurationError, PolicyError
from .oracle import FeatureMap, Image, dot

DOM_METHODS = ("sample_peak_detector", "trailing_mean_envelope")


@dataclass(frozen=True)
class DomPolicy:
    """How a scalar DOM is read off a trace.

    trailing_mean_envelope averages the envelope over the final
    trailing_fraction of the run (seed-robust, the default).
    sample_peak_detector samples the peak-detector output at the sample
    nearest sample_time, mirroring a sampled hardware readout.
    """

    method: str = "trailing_mean_envelope"
    sample_time: float | None = None
    trailing_fraction: float = 0.2

    def __post_init__(self):
        if self.method not in DOM_METHODS:
            raise ConfigurationError(
                f"method must be one of {DOM_METHODS}, got {self.method!r}"
            )
        if not 0.0 < self.trailing_fraction <= 1.0:
            raise ConfigurationError(
                f"trailing_fraction must be in (0, 1], got {self.trailing_fraction}"
            )
        if self.sample_time is not None and not 0 <= self.sample_time < math.inf:
            raise ConfigurationError(f"sample_time must be >= 0 and finite, got {self.sample_time}")
        if self.method == "sample_peak_detector" and self.sample_time is None:
            raise ConfigurationError("sample_peak_detector needs a nonnegative sample_time")


def dom(trace: SimulationTrace, policy: DomPolicy) -> float | list[float]:
    """Degree of Match of one run under the given readout policy.

    Nonnegative; at most 1 for an uncoupled unit-amplitude array and at
    most sqrt(1 + eps*n/rho) in general (mean-field gain lifts the
    coherent amplitude slightly above the free limit cycle), up to the
    fixed RK4 step's error: at the default dt and rho 0.2 the integrated
    limit cycle lies 2e-6 above the exact one. A block trace gives one
    DOM per row.

    Raises:
        PolicyError: if sample_time lies beyond the trace.
    """
    if policy.method == "trailing_mean_envelope":
        m = min(trace.num_samples, max(1, int(round(policy.trailing_fraction * trace.num_samples))))
        return trace.envelope[..., -m:].mean(axis=-1).tolist()
    if policy.sample_time > trace.times[-1]:
        raise PolicyError(
            f"sample_time {policy.sample_time} beyond trace end {trace.times[-1]}"
        )
    idx = int(np.argmin(np.abs(trace.times - policy.sample_time)))
    return trace.peak_detector_output[..., idx].tolist()


def classify_lock(trace: SimulationTrace, spread_tol: float | None = None) -> bool | list[bool]:
    """Whether the array has synchronized to a common frequency.

    True iff max_i |f_i - median(f)| < spread_tol, with f_i the
    per-oscillator instantaneous frequency averaged over the final 10%
    of the trace. spread_tol defaults to 0.1 * delta_omega. A block
    trace gives one flag per row.
    """
    if spread_tol is None:
        if trace.config.delta_omega == 0:
            raise ConfigurationError("delta_omega is 0: set spread_tol (default 0.1*delta_omega)")
        spread_tol = 0.1 * trace.config.delta_omega
    if not 0 < spread_tol < math.inf:
        raise ConfigurationError(f"spread_tol must be positive and finite, got {spread_tol}")
    final = trace.final_freq
    spread = np.abs(final - np.median(final, axis=-1, keepdims=True)).max(axis=-1)
    return (spread < spread_tol).tolist()


def measure_lock_time(
    trace: SimulationTrace,
    dom_threshold_fraction: float = 0.8,
) -> float | None | list[float | None]:
    """Earliest time after which the envelope stays above threshold.

    The threshold is dom_threshold_fraction times the final plateau
    (mean envelope over the last 10%). Returns None when the envelope
    never settles: the above-threshold suffix must span at least a
    quarter of the trace, which rejects beating envelopes whose last
    upswing happens to end the run above threshold. A block trace gives
    one lock time (or None) per row.
    """
    if not 0.0 < dom_threshold_fraction < 1.0:
        raise ConfigurationError(
            f"dom_threshold_fraction must be in (0, 1), got {dom_threshold_fraction}"
        )
    env, times = trace.envelope, trace.times
    plateau = env[..., -max(1, trace.num_samples // 10):].mean(axis=-1, keepdims=True)
    below = env < dom_threshold_fraction * plateau
    # k: the sample after the last one below threshold, 0 if none is
    k = np.where(below.any(axis=-1), trace.num_samples - np.argmax(below[..., ::-1], axis=-1), 0)
    start = times[np.minimum(k, trace.num_samples - 1)]
    span = times[-1] - times[0]
    settled = (k < trace.num_samples) & ~(times[-1] - start < 0.25 * span)
    return np.where(settled, start - times[0], None).tolist()


@dataclass(frozen=True)
class FilterResult:
    """Aggregated outcome of matching one filter against the fragment.

    averager is the read-only averager output S(t) of the first seed's
    run, the one signal a trace dump needs; the run's states are not kept.
    """

    filter_index: int
    theta_deg: float
    k: float
    dot: float
    dom_mean: float
    dom_std: float
    doms: tuple[float, ...]
    locked: bool
    lock_time: float | None
    averager: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class FilterError:
    """A filter whose runs failed; reports stay usable without it."""

    filter_index: int
    message: str


@dataclass(frozen=True)
class MatchReport:
    """Per-filter DOM results with oracle ground truth and ranking.

    ranking holds the indices of successful filters sorted by mean DOM
    descending, ties broken toward the lower index. dynamic_range is
    max - min of the mean DOMs over successful filters.
    """

    results: tuple[FilterResult, ...]
    errors: tuple[FilterError, ...]
    ranking: tuple[int, ...]
    dynamic_range: float


# Complex values one integrate call of _seed_blocks may record: 4 MiB, the
# 2**24 one run may record / 64. At the defaults that lets 74 match or
# feature-map rows share the per-step cost of the RK4 loop.
_CALL_VALUES = 2**18


def _read_call(omegas, inits: np.ndarray, cfg: OscillatorArrayConfig, read) -> list:
    """Integrate, in one call, a block per frequency vector with a run per
    initial state; return per block (read(its trace), None), or (None, its
    first failed seed's error). The call's trace dies on return."""
    runs = len(inits)
    call = integrate(np.repeat(omegas, runs, axis=0), cfg, np.tile(inits, (len(omegas), 1)))
    outcomes = []
    for start in range(0, len(call.failures), runs):
        trace = call.rows(slice(start, start + runs))
        failure = next((f for f in trace.failures if f is not None), None)
        outcomes.append((None, failure) if failure is not None else (read(trace), None))
    return outcomes


def _seed_blocks(omegas, cfg: OscillatorArrayConfig, seeds: tuple[int, ...], read):
    """Yield, per frequency vector, (read(trace), None) for the trace of its
    block with a run per seed, or (None, its first failed seed's error).
    The seeds, cfg.n and the block cap are checked, and the initial states
    built, before any run.

    One integrate call steps the blocks of as many vectors as record at
    most _CALL_VALUES values together, and at least one. Every block of a
    call is read before the next call starts, so no trace outlives its
    call.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if cfg.n != len(omegas[0]):
        raise ConfigurationError(f"cfg.n={cfg.n} but the runs need n={len(omegas[0])} oscillators")
    runs = len(seeds)
    _check_block(runs, cfg)
    inits = np.array([random_initial_state(cfg.n, int(seed)) for seed in seeds])
    per_call = max(1, _CALL_VALUES // (runs * cfg.num_samples))
    for start in range(0, len(omegas), per_call):
        yield from _read_call(omegas[start:start + per_call], inits, cfg, read)


def match_filters(
    fragment: Fragment,
    bank: tuple[GaborFilter, ...],
    cfg: OscillatorArrayConfig,
    policy: DomPolicy,
    seeds: tuple[int, ...],
    reference_oscillator: bool = False,
    spread_tol: float | None = None,
    dom_threshold_fraction: float = 0.8,
) -> MatchReport:
    """Match a fragment against every filter in the bank.

    Each filter is FSK-encoded and integrated as one block, a run per
    seed, that may share an integrate call with other filters' blocks;
    DOMs are averaged across seeds, the lock flag is a
    strict-majority vote, and lock_time is the median of the finite
    per-seed lock times when the majority locked. Filters whose runs
    diverge become error entries, with the error of the first failed
    seed, rather than crashing the report. Deterministic for a fixed
    seed tuple.

    Args:
        fragment: the image patch to match.
        bank: nonempty tuple of filters sharing the fragment's side.
        cfg: array configuration; cfg.n must equal side^2 plus one when
            reference_oscillator is set.
        policy: DOM readout policy.
        seeds: nonempty initial-phase seeds, one run per seed.
        reference_oscillator: append one extra oscillator at omega0 that
            encodes no pixel.
        spread_tol: lock-classification frequency tolerance
            (None: 0.1 * delta_omega).
        dom_threshold_fraction: envelope threshold for lock-time
            measurement, as a fraction of the final plateau.
    """
    if not bank:
        raise ConfigurationError("filter bank must be nonempty")
    # every filter is encoded, and its side checked, before the first run
    omegas = [fsk_encode(fragment, filt, cfg.omega0, cfg.delta_omega) for filt in bank]
    if reference_oscillator:
        omegas = [np.append(omega, cfg.omega0) for omega in omegas]

    def read(trace: SimulationTrace) -> dict:
        doms = dom(trace, policy)
        locked = sum(classify_lock(trace, spread_tol)) * 2 > len(seeds)
        finite = [t for t in measure_lock_time(trace, dom_threshold_fraction) if t is not None]
        lock_time = float(np.median(finite)) if locked and finite else None
        return dict(dom_mean=float(np.mean(doms)), dom_std=float(np.std(doms)), doms=tuple(doms),
                    locked=locked, lock_time=lock_time,
                    # a copy: a view would keep every seed's averager alive
                    averager=_read_only(trace.averager[0].copy()))

    results, errors = [], []
    blocks = _seed_blocks(omegas, cfg, seeds, read)
    for index, (filt, (fields, failure)) in enumerate(zip(bank, blocks)):
        if failure is not None:
            errors.append(FilterError(filter_index=index, message=str(failure)))
        else:
            results.append(FilterResult(filter_index=index, theta_deg=filt.theta_deg, k=filt.k,
                                        dot=dot(fragment, filt), **fields))

    by_index = {r.filter_index: r for r in results}
    ranking = tuple(sorted(by_index, key=lambda i: (-by_index[i].dom_mean, i)))
    doms = [r.dom_mean for r in results]
    dynamic_range = float(max(doms) - min(doms)) if doms else 0.0
    return MatchReport(
        results=tuple(results), errors=tuple(errors), ranking=ranking,
        dynamic_range=dynamic_range,
    )


def winner_take_all(report: MatchReport, top_k: int) -> tuple[int, ...]:
    """Indices of the top_k filters by mean DOM, ties toward lower index."""
    if not 1 <= top_k <= len(report.ranking):
        raise ConfigurationError(
            f"top_k must be in [1, {len(report.ranking)}], got {top_k}"
        )
    return report.ranking[:top_k]


def feature_map_onn(
    img: Image,
    filt: GaborFilter,
    cfg: OscillatorArrayConfig,
    policy: DomPolicy,
    seeds: tuple[int, ...],
) -> FeatureMap:
    """Mean DOM of (window, filter) matches over every valid window.

    The analog counterpart of a valid-mode correlation map: each window
    is matched independently, in row-major order, and the output is
    deterministic for a fixed seed tuple. Failed windows hold NaN and are
    listed in errors.
    """
    if filt.side > img.width or filt.side > img.height:
        raise ConfigurationError(
            f"filter side {filt.side} exceeds image {img.height}x{img.width}"
        )
    out_h = img.height - filt.side + 1
    out_w = img.width - filt.side + 1
    omegas = [
        fsk_encode(img.window(*divmod(cell, out_w), filt.side), filt, cfg.omega0, cfg.delta_omega)
        for cell in range(out_h * out_w)
    ]
    values, errors = [], []
    blocks = _seed_blocks(omegas, cfg, seeds, lambda trace: float(np.mean(dom(trace, policy))))
    for cell, (value, failure) in enumerate(blocks):
        if failure is not None:
            value = math.nan
            errors.append((*divmod(cell, out_w), str(failure)))
        values.append(value)
    return FeatureMap(width=out_w, height=out_h, values=np.array(values), errors=tuple(errors))


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
    coupling epsilon, all detunings in one integrate call. A point is
    locked when the gap between the two final instantaneous frequencies
    (averaged over the last 10% of the trace) is below gap_tol.

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

    Raises:
        DivergenceError: of the first diverging detuning in grid order.
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
        n=2, rho=rho, omega0=omega0, delta_omega=0.25 * float(detunings.max()),
        epsilon=epsilon, dt=dt, t_end=t_end,
    )
    _check_block(detunings.size, cfg)  # before the grid's frequency block is built
    omega = np.column_stack([omega0 - 0.5 * detunings, omega0 + 0.5 * detunings])

    def read(trace: SimulationTrace) -> tuple[bool, float, float]:
        gap = abs(trace.final_freq[0, 1] - trace.final_freq[0, 0])
        window = trace.envelope[0, -max(1, trace.num_samples // 5):]
        return bool(gap < gap_tol), float(gap), float((window.max() - window.min()) / 2.0)

    outcomes = _read_call(omega, random_initial_state(cfg.n, seed)[None], cfg, read)
    failure = next((f for _, f in outcomes if f is not None), None)
    if failure is not None:
        raise failure
    return tuple(SweepPoint(float(d), *fields) for d, (fields, _) in zip(detunings, outcomes))
