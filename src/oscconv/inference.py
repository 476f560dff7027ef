"""Match orchestration: DOM readout, lock classification, rankings, maps.

A match run encodes (fragment, filter) detunings onto the array,
integrates it from seeded random phases, and reads the Degree of Match
(DOM) off the averager envelope: a synchronized array holds a high
steady envelope, a mismatched one beats at the surviving difference
frequencies and stays low. The exact dot product from the oracle module
rides along in every report as ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    OscillatorArrayConfig,
    SimulationTrace,
    integrate,
    random_initial_state,
)
from .encoding import Fragment, GaborFilter, fsk_encode
from .errors import ConfigurationError, NumericError, PolicyError
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


def dom(trace: SimulationTrace, policy: DomPolicy) -> float:
    """Degree of Match of one run under the given readout policy.

    Nonnegative; at most 1 for an uncoupled unit-amplitude array and at
    most sqrt(1 + eps*n/rho) in general (mean-field gain lifts the
    coherent amplitude slightly above the free limit cycle).

    Raises:
        PolicyError: if sample_time lies beyond the trace.
    """
    if policy.method == "trailing_mean_envelope":
        m = min(trace.num_samples, max(1, int(round(policy.trailing_fraction * trace.num_samples))))
        return float(trace.envelope[-m:].mean())
    if policy.sample_time > trace.times[-1]:
        raise PolicyError(
            f"sample_time {policy.sample_time} beyond trace end {trace.times[-1]}"
        )
    idx = int(np.argmin(np.abs(trace.times - policy.sample_time)))
    return float(trace.peak_detector_output[idx])


def classify_lock(trace: SimulationTrace, spread_tol: float | None = None) -> bool:
    """Whether the array has synchronized to a common frequency.

    True iff max_i |f_i - median(f)| < spread_tol, with f_i the
    per-oscillator instantaneous frequency averaged over the final 10%
    of the trace. spread_tol defaults to 0.1 * delta_omega.
    """
    if spread_tol is None:
        if trace.config.delta_omega == 0:
            raise ConfigurationError("delta_omega is 0: set spread_tol (default 0.1*delta_omega)")
        spread_tol = 0.1 * trace.config.delta_omega
    if not 0 < spread_tol < math.inf:
        raise ConfigurationError(f"spread_tol must be positive and finite, got {spread_tol}")
    final = trace.final_freq
    return bool(np.abs(final - np.median(final)).max() < spread_tol)


def measure_lock_time(
    trace: SimulationTrace,
    dom_threshold_fraction: float = 0.8,
    min_hold_fraction: float = 0.25,
) -> float | None:
    """Earliest time after which the envelope stays above threshold.

    The threshold is dom_threshold_fraction times the final plateau
    (mean envelope over the last 10%). Returns None when the envelope
    never settles: the above-threshold suffix must span at least
    min_hold_fraction of the trace, which rejects beating envelopes
    whose last upswing happens to end the run above threshold.
    """
    if not 0.0 < dom_threshold_fraction < 1.0:
        raise ConfigurationError(
            f"dom_threshold_fraction must be in (0, 1), got {dom_threshold_fraction}"
        )
    if not 0.0 <= min_hold_fraction < 1.0:
        raise ConfigurationError(
            f"min_hold_fraction must be in [0, 1), got {min_hold_fraction}"
        )
    env = trace.envelope
    plateau = env[-max(1, trace.num_samples // 10):].mean()
    threshold = dom_threshold_fraction * plateau
    below = np.nonzero(env < threshold)[0]
    k = 0 if below.size == 0 else int(below[-1]) + 1
    if k >= trace.num_samples:
        return None
    span = trace.times[-1] - trace.times[0]
    if trace.times[-1] - trace.times[k] < min_hold_fraction * span:
        return None
    return float(trace.times[k] - trace.times[0])


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


def _seed_runs(omega: np.ndarray, cfg: OscillatorArrayConfig, seeds: tuple[int, ...]):
    """One run of the array per seed, each from that seed's random initial phases."""
    for seed in seeds:
        yield integrate(omega, cfg, random_initial_state(cfg.n, seed))


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

    Each filter is FSK-encoded and integrated once per seed; DOMs are
    averaged across seeds, the lock flag is a strict-majority vote, and
    lock_time is the median of the finite per-seed lock times when the
    majority locked. Filters whose runs diverge become error entries
    rather than crashing the report. Deterministic for a fixed seed
    tuple.

    Args:
        fragment: the image patch to match.
        bank: nonempty tuple of filters sharing the fragment's side.
        cfg: array configuration; cfg.n must equal side^2 plus one when
            reference_oscillator is set.
        policy: DOM readout policy.
        seeds: nonempty initial-phase seeds, one integration per seed.
        reference_oscillator: append one extra oscillator at omega0 that
            encodes no pixel.
        spread_tol: lock-classification frequency tolerance
            (None: 0.1 * delta_omega).
        dom_threshold_fraction: envelope threshold for lock-time
            measurement, as a fraction of the final plateau.
    """
    if not bank:
        raise ConfigurationError("filter bank must be nonempty")
    if not seeds:
        raise ConfigurationError("need at least one seed")
    for filt in bank:
        if filt.side != fragment.side:
            raise ConfigurationError(
                f"filter side {filt.side} does not match fragment side {fragment.side}"
            )
    expected = fragment.side ** 2 + (1 if reference_oscillator else 0)
    if cfg.n != expected:
        raise ConfigurationError(
            f"cfg.n={cfg.n} but this match needs n={expected} oscillators"
        )
    seeds = tuple(int(s) for s in seeds)

    results, errors = [], []
    for index, filt in enumerate(bank):
        omega = fsk_encode(fragment, filt, cfg.omega0, cfg.delta_omega)
        if reference_oscillator:
            omega = np.append(omega, cfg.omega0)
        doms, locks, times = [], [], []
        try:
            for trace in _seed_runs(omega, cfg, seeds):
                if not doms:
                    averager = trace.averager
                doms.append(dom(trace, policy))
                locks.append(classify_lock(trace, spread_tol))
                times.append(measure_lock_time(trace, dom_threshold_fraction))
        except NumericError as exc:
            errors.append(FilterError(filter_index=index, message=str(exc)))
            continue
        locked = sum(locks) * 2 > len(locks)
        finite = [t for t in times if t is not None]
        lock_time = float(np.median(finite)) if locked and finite else None
        results.append(FilterResult(
            filter_index=index,
            theta_deg=filt.theta_deg,
            k=filt.k,
            dot=dot(fragment, filt),
            dom_mean=float(np.mean(doms)),
            dom_std=float(np.std(doms)),
            doms=tuple(doms),
            locked=locked,
            lock_time=lock_time,
            averager=averager,
        ))

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
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if cfg.n != filt.side ** 2:
        raise ConfigurationError(
            f"cfg.n={cfg.n} but this map needs n={filt.side ** 2} oscillators"
        )
    if filt.side > img.width or filt.side > img.height:
        raise ConfigurationError(
            f"filter side {filt.side} exceeds image {img.height}x{img.width}"
        )
    seeds = tuple(int(s) for s in seeds)
    out_h = img.height - filt.side + 1
    out_w = img.width - filt.side + 1
    values, errors = [], []
    for r in range(out_h):
        for c in range(out_w):
            omega = fsk_encode(img.window(r, c, filt.side), filt, cfg.omega0, cfg.delta_omega)
            try:
                doms = [dom(trace, policy) for trace in _seed_runs(omega, cfg, seeds)]
            except NumericError as exc:
                values.append(float("nan"))
                errors.append((r, c, str(exc)))
                continue
            values.append(float(np.mean(doms)))
    return FeatureMap(width=out_w, height=out_h, values=np.array(values), errors=tuple(errors))
