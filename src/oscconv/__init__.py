"""Convolution inference on a simulated coupled-oscillator array.

Images and filters are compared by FSK-encoding their pixel differences
onto the natural frequencies of a mean-field coupled array of
self-sustained oscillators; the Degree of Match is read off the
averager envelope and validated against an exact digital oracle.
"""
from .dynamics import (
    OscillatorArrayConfig,
    SimulationTrace,
    default_coupling,
    default_timestep,
    derivative,
    instantaneous_frequency,
    integrate,
    peak_detector,
    random_initial_state,
)
from .encoding import (
    Fragment,
    GaborFilter,
    default_bank,
    edge_fragment,
    fsk_encode,
    gabor_filter,
    normalize_fragment,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    InputError,
    InsufficientDataError,
    NumericError,
    OscconvError,
    PolicyError,
)
from .hardware import (
    CostEstimate,
    HardwareParams,
    inference_cost_estimate,
    locking_range_fraction,
    power_per_oscillator,
)
from .inference import (
    DomPolicy,
    FilterError,
    FilterResult,
    MatchReport,
    SweepPoint,
    classify_lock,
    dom,
    feature_map_onn,
    match_filters,
    measure_lock_time,
    sweep_locking,
    winner_take_all,
)
from .oracle import (
    FeatureMap,
    Image,
    convolve_valid,
    distance_identity_check,
    dot,
)
from .pgm import read_pgm, write_pgm

__version__ = "0.1.0"

__all__ = [
    "OscillatorArrayConfig", "SimulationTrace",
    "default_coupling", "default_timestep", "derivative",
    "instantaneous_frequency", "integrate", "peak_detector",
    "random_initial_state",
    "Fragment", "GaborFilter", "default_bank", "edge_fragment",
    "fsk_encode", "gabor_filter", "normalize_fragment",
    "OscconvError", "ConfigurationError", "PolicyError", "InputError",
    "InsufficientDataError", "NumericError", "DivergenceError",
    "CostEstimate", "HardwareParams", "inference_cost_estimate",
    "locking_range_fraction", "power_per_oscillator",
    "DomPolicy", "FilterError", "FilterResult", "MatchReport", "SweepPoint",
    "classify_lock", "dom", "feature_map_onn", "match_filters",
    "measure_lock_time", "sweep_locking", "winner_take_all",
    "FeatureMap", "Image", "convolve_valid", "distance_identity_check", "dot",
    "read_pgm", "write_pgm",
]
