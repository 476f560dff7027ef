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

from . import _shares
from .dynamics import (
    VALUE_CAP,
    OscillatorArrayConfig,
    SimulationTrace,
    _check_block,
    _read_only,
    integrate,
    random_initial_state,
)
from .encoding import Fragment, GaborFilter, fsk_encode
from .errors import ConfigurationError
from .oracle import FeatureMap, Image, dot

# the share of the run, at its end, whose mean envelope is the DOM readout
DOM_TRAILING_FRACTION = 0.2
# the lock-time envelope threshold, as a fraction of the final plateau
DOM_THRESHOLD_FRACTION = 0.8
# the lock tolerance on final frequencies, as a fraction of the array's frequency
# scale: delta_omega for a match, epsilon for a locking sweep
LOCK_SPREAD_FRACTION = 0.1


def dom(trace: SimulationTrace) -> float | list[float]:
    """Degree of Match of one run, its mean envelope over the final DOM_TRAILING_FRACTION.

    Nonnegative; at most 1 for an uncoupled unit-amplitude array and at
    most sqrt(1 + eps*n/rho) in general (mean-field gain lifts the
    coherent amplitude slightly above the free limit cycle), up to the
    fixed RK4 step's error: at the default dt and rho 0.2 the integrated
    limit cycle lies 2e-6 above the exact one. A block trace gives one
    DOM per row.
    """
    m = max(1, int(round(DOM_TRAILING_FRACTION * trace.num_samples)))
    return trace.envelope[..., -m:].mean(axis=-1).tolist()


def _median(values) -> np.ndarray:
    """np.median(values, axis=-1, keepdims=True) of floats, bit for bit.

    The same partition and the same mean of the middle one or two values;
    NaN if the last axis holds one. np.median's own NaN check imports
    numpy.ma on numpy 2, which costs a match 1.3 MB of RSS.
    """
    values = np.asarray(values, dtype=np.float64)
    size = values.shape[-1]
    half = size // 2
    part = np.partition(values, [half - 1, half, -1] if size % 2 == 0 else [half, -1], axis=-1)
    median = part[..., half - 1 + size % 2:half + 1].mean(axis=-1, keepdims=True)
    last = part[..., -1:]
    return np.where(np.isnan(last), last, median)


def classify_lock(trace: SimulationTrace) -> bool | list[bool]:
    """Whether the array has synchronized to a common frequency.

    True iff max_i |f_i - median(f)| < LOCK_SPREAD_FRACTION * delta_omega,
    with f_i the per-oscillator instantaneous frequency averaged over the
    final 10% of the trace and median(f) their median as np.median takes
    it (the middle f_i, or the mean of the two middle ones; NaN if any f_i
    is). A block trace gives one flag per row.
    """
    tolerance = _lock_tolerance(trace.config.delta_omega, "delta_omega")
    final = trace.final_freq
    spread = np.abs(final - _median(final)).max(axis=-1)
    return (spread < tolerance).tolist()


def _lock_tolerance(scale: float, name: str) -> float:
    """LOCK_SPREAD_FRACTION * scale; name is scale's setting, which a 0 tolerance blames."""
    if scale == 0:  # a 0 tolerance would read every row as unlocked
        raise ConfigurationError(f"{name} is 0, and so is the lock tolerance; set {name} above 0")
    return LOCK_SPREAD_FRACTION * scale


def measure_lock_time(trace: SimulationTrace) -> float | None | list[float | None]:
    """Earliest time after which the envelope stays above threshold.

    The threshold is DOM_THRESHOLD_FRACTION times the final plateau
    (mean envelope over the last 10%). Returns None when the envelope
    never settles: the above-threshold suffix must span at least a
    quarter of the trace, which rejects beating envelopes whose last
    upswing happens to end the run above threshold. A block trace gives
    one lock time (or None) per row.
    """
    env, times = trace.envelope, trace.times
    plateau = env[..., -max(1, trace.num_samples // 10):].mean(axis=-1, keepdims=True)
    below = env < DOM_THRESHOLD_FRACTION * plateau
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


# Oscillator states, rows x n, that one integrate call of _seed_blocks steps at
# most. Past 2**12 a step's cost per state falls by a fifth at most, and the
# default match's 18 filters x 8 seeds x 25 = 3,600 states take one call.
_CALL_STATES = 2**12
# Oscillator states that a share of a call steps at least. On a 2-CPU host, a
# block of 2 x 300 states or more stepped in two processes took a sixth or
# more less time per step than in one; 2 x 250 or fewer, 8% less at most.
_SHARE_STATES = 300


def _seed_blocks(omegas, cfg: OscillatorArrayConfig, seeds: tuple[int, ...], read):
    """Yield, per frequency vector, (read(trace), None) for the trace of its
    block with a run per seed, or (None, its first failed seed's error).
    The seeds, cfg.n and the block cap are checked, and the initial states
    built, before any run.

    A call takes as many blocks as together step at most _CALL_STATES
    oscillator states and record at most VALUE_CAP values, and at least
    one. Its blocks are split into as many shares, runs of whole blocks,
    as there are CPUs this process may use, blocks in the call, or whole
    _SHARE_STATES states among them, whichever is fewest. Each share is one
    integrate call, in this process or a forked one (_shares.run), whose
    blocks are all read, and its trace released, before the next call
    starts. A row's bits do not depend on the rows stepped beside it, so
    no outcome depends on the number of shares.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if cfg.n != len(omegas[0]):
        raise ConfigurationError(f"cfg.n={cfg.n} but the runs need n={len(omegas[0])} oscillators")
    runs = len(seeds)
    _check_block(runs, cfg, "seeds")
    inits = np.array([random_initial_state(cfg.n, seed) for seed in seeds])
    per_call = max(1, min(_CALL_STATES // (runs * cfg.n), VALUE_CAP // (runs * cfg.num_samples)))
    cpus = _shares.cpus()

    def step(group) -> list:
        call = integrate(np.repeat(group, runs, axis=0), cfg, np.tile(inits, (len(group), 1)))
        outcomes = []
        for row in range(0, len(call.failures), runs):
            trace = call.rows(slice(row, row + runs))
            failure = next((f for f in trace.failures if f is not None), None)
            outcomes.append((None, failure) if failure is not None else (read(trace), None))
        return outcomes

    for start in range(0, len(omegas), per_call):
        group = omegas[start:start + per_call]
        count = max(1, min(cpus, len(group), len(group) * runs * cfg.n // _SHARE_STATES))
        for outcomes in _shares.run(step, _shares.split(group, count)):
            yield from outcomes


def match_filters(
    fragment: Fragment,
    bank: tuple[GaborFilter, ...],
    cfg: OscillatorArrayConfig,
    seeds: tuple[int, ...],
    reference_oscillator: bool = False,
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
        seeds: nonempty initial-phase seeds, one run per seed.
        reference_oscillator: append one extra oscillator at omega0 that
            encodes no pixel.
    """
    if not bank:
        raise ConfigurationError("filter bank must be nonempty")
    # the lock tolerance is checked before the first filter is encoded
    _lock_tolerance(cfg.delta_omega, "delta_omega")
    # every filter is encoded, and its side checked, before the first run
    omegas = [fsk_encode(fragment, filt, cfg) for filt in bank]
    if reference_oscillator:
        omegas = [np.append(omega, cfg.omega0) for omega in omegas]

    def read(trace: SimulationTrace) -> dict:
        doms = dom(trace)
        locked = sum(classify_lock(trace)) * 2 > len(seeds)
        finite = [t for t in measure_lock_time(trace) if t is not None]
        lock_time = _median(finite).item() if locked and finite else None
        return dict(dom_mean=float(np.mean(doms)), dom_std=float(np.std(doms)), doms=tuple(doms),
                    locked=locked, lock_time=lock_time,
                    # a copy: a view would keep every seed's averager alive
                    averager=trace.averager[0].copy())

    results, errors = [], []
    blocks = _seed_blocks(omegas, cfg, seeds, read)
    for index, (filt, (fields, failure)) in enumerate(zip(bank, blocks)):
        if failure is not None:
            errors.append(FilterError(filter_index=index, message=str(failure)))
        else:
            fields["averager"] = _read_only(fields["averager"])  # a forked share's comes writeable
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
        fsk_encode(img.window(*divmod(cell, out_w), filt.side), filt, cfg)
        for cell in range(out_h * out_w)
    ]
    values, errors = [], []
    blocks = _seed_blocks(omegas, cfg, seeds, lambda trace: float(np.mean(dom(trace))))
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


# Span of each locking-sweep run when none is set: long runs sharpen the boundary.
SWEEP_T_END = 1200.0
# The array settings a locking sweep takes besides epsilon, in sweep-locking --help order.
_SWEEP_KEYS = ("t_end", "rho", "dt")


def _sweep_config(
    epsilon: float,
    points: int,
    lowest: float,
    highest: float,
    t_end: float = SWEEP_T_END,
    **array: float | None,
) -> OscillatorArrayConfig:
    """Array config of a locking sweep over points detunings from lowest to highest;
    array holds those of rho and dt that were set.

    sweep_locking builds its config here. The CLI calls it only to check a
    grid against the VALUE_CAP block cap, by its size and ends, before it
    builds the grid.
    """
    unknown = sorted(set(array) - set(_SWEEP_KEYS))
    if unknown:
        raise ConfigurationError(
            f"a locking sweep sets only {', '.join(_SWEEP_KEYS)}, not {', '.join(unknown)}"
        )
    if lowest < 0:
        raise ConfigurationError("detunings must be >= 0")
    # delta_omega sized so omega_max, and with it the default dt and the
    # accuracy guard, covers the fastest frequency on the grid
    cfg = OscillatorArrayConfig(
        n=2, delta_omega=0.25 * highest, epsilon=epsilon, t_end=t_end, **array
    )
    _check_block(points, cfg, "sweep points")
    return cfg


def sweep_locking(
    epsilon: float,
    detunings: np.ndarray,
    *,
    seed: int = 0,
    **array: float | None,
) -> tuple[SweepPoint, ...]:
    """Two-oscillator locking sweep over a detuning grid.

    For each detuning d, a one-run block of _seed_blocks, the oscillators
    run at omega0 -/+ d/2 under coupling epsilon. A point is locked
    when the gap between the two final instantaneous frequencies
    (averaged over the last 10% of the trace) is below
    LOCK_SPREAD_FRACTION * epsilon.

    Args:
        epsilon: coupling coefficient.
        detunings: grid of detuning values, each >= 0.
        seed: initial-phase seed shared by all points.
        array: any of the array settings t_end, rho and dt, with
            OscillatorArrayConfig's defaults; t_end defaults to SWEEP_T_END,
            and dt to the default for the fastest frequency on the grid.

    Returns:
        One SweepPoint per detuning, in grid order.

    Raises:
        DivergenceError: of the first diverging detuning in grid order.
    """
    detunings = np.asarray(detunings, dtype=np.float64)
    if detunings.size == 0:
        raise ConfigurationError("detuning grid must be nonempty")
    cfg = _sweep_config(epsilon, detunings.size, float(detunings.min()), float(detunings.max()),
                        **array)
    # the config has checked epsilon before the lock tolerance is derived from it
    tolerance = _lock_tolerance(cfg.epsilon, "epsilon")
    omega = np.column_stack([cfg.omega0 - 0.5 * detunings, cfg.omega0 + 0.5 * detunings])

    def read(trace: SimulationTrace) -> tuple[bool, float, float]:
        gap = abs(trace.final_freq[0, 1] - trace.final_freq[0, 0])
        window = trace.envelope[0, -max(1, trace.num_samples // 5):]
        return bool(gap < tolerance), float(gap), float((window.max() - window.min()) / 2.0)

    outcomes = list(_seed_blocks(omega, cfg, (seed,), read))
    failure = next((f for _, f in outcomes if f is not None), None)
    if failure is not None:
        raise failure
    return tuple(SweepPoint(float(d), *fields) for d, (fields, _) in zip(detunings, outcomes))
