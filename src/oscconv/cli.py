"""Command-line front end.

Subcommands:
    match          match one image fragment against a filter bank
    sweep-locking  two-oscillator locking sweep over a detuning grid
    featuremap     analog feature map vs exact correlation map
    hw             closed-form hardware estimates

Configuration comes from built-in defaults, overridden by a JSON config
file (--config), overridden by flags. All CSV output has a header row
and locale-independent number formatting; runs are deterministic given
the config and seeds. Exit codes: 0 success, 1 usage or config error
or an output directory or file that cannot be made or written, or a
closed stdout, 2 runtime numeric error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# dynamics.peak_detector is called through its module, where perfbench/tracing.py
# patches it. integrate and fsk_encode are not called here: the tracer patches them
# under these names, and fails on a name that is missing.
from . import _shares, dynamics
from .dynamics import OscillatorArrayConfig, integrate, sample_times  # noqa: F401
from .encoding import GaborFilter, default_bank, fsk_encode, gabor_filter  # noqa: F401
from .errors import ConfigurationError, InputError, NumericError, OscconvError
from .hardware import (
    HardwareParams,
    inference_cost_estimate,
    locking_range_fraction,
    power_per_oscillator,
)
from .inference import (
    SWEEP_T_END,
    _SWEEP_KEYS,
    MatchReport,
    _sweep_config,
    feature_map_onn,
    match_filters,
    sweep_locking,
    winner_take_all,
)
from .oracle import FeatureMap, Image, convolve_valid
from .pgm import read_pgm


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts with a minus and a digit, such as --grid
        # -0.2:-0.1:0.1, is a value and not a flag; argparse's own pattern
        # takes only a bare negative number such as -0.2 for a value
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise InputError(message)


_ENG_PREFIXES = ((1e-15, "f"), (1e-12, "p"), (1e-9, "n"), (1e-6, "u"), (1e-3, "m"), (1.0, ""))


def _eng(value: float, unit: str) -> str:
    """Engineering rendering of a small SI quantity, e.g. 2.08e-4 W -> 0.208 mW."""
    mag = abs(value)
    if mag == 0:
        return f"0 {unit}"
    for scale, prefix in _ENG_PREFIXES:
        if mag < scale * 1000.0:
            return f"{value / scale:.4g} {prefix}{unit}"
    return f"{value:.4g} {unit}"


def load_image(path: str) -> Image:
    """Read a PGM file and normalize pixel values onto [-1, +1]."""
    raw, maxval = read_pgm(path)
    values = 2.0 * raw.ravel() / maxval - 1.0
    return Image(width=raw.shape[1], height=raw.shape[0], values=values)


# -- configuration ----------------------------------------------------------
#
# A checker takes a JSON value and the name to report it under, and returns
# the value in the form the library takes or raises ConfigurationError.
# Every config file value and every flag value passes its key's checker
# once, where it enters. A null value, like an absent one, keeps the default.


def _checker(kind: str, test, convert=lambda value: value):
    """Checker of the values that pass test; kind describes them in errors."""

    def check(value, name: str):
        try:
            if test(value):
                return convert(value)
        except (TypeError, OverflowError):  # not a number, or too large for a float
            pass
        raise ConfigurationError(f"{name} must be {kind}, got {value!r}")

    return check


_number = _checker("a finite number", lambda v: not isinstance(v, bool) and math.isfinite(v), float)
# the library checks the tighter bound of side (>= 1)
_natural = _checker("an integer >= 0", lambda v: type(v) is int and v >= 0)
_boolean = _checker("true or false", lambda v: isinstance(v, bool))


def _list(check, items: str):
    """Checker of a nonempty JSON list whose items pass check."""

    def checked(value, name: str) -> tuple:
        if isinstance(value, (list, tuple)) and value:
            return tuple(check(item, f"{name}[{i}]") for i, item in enumerate(value))
        raise ConfigurationError(f"{name} must be a nonempty list of {items}, got {value!r}")

    return checked


def _object(checks: dict, required: tuple = ()):
    """Checker of a JSON object whose fields are checked by checks[field]."""

    def checked(value, name: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigurationError(f"{name} must be an object, got {value!r}")
        for key in value:
            if key not in checks:
                raise ConfigurationError(f"{name}: unknown field {key!r}")
        for key in required:
            if value.get(key) is None:
                raise ConfigurationError(f"{name}: missing field {key!r}")
        set_fields = {key: item for key, item in value.items() if item is not None}
        return {key: checks[key](item, f"{name}.{key}") for key, item in set_fields.items()}

    return checked


def _seeds(value, name: str) -> tuple | range:
    """Seeds checked one by one, or a --seeds range by its first and least seed."""
    if isinstance(value, range):
        _natural(value[0], f"{name}[0]")
        return value
    return _list(_natural, "seeds")(value, name)


_bank_entries = _list(_object(
    {"theta_deg": _number, "k": _number, "phase": _number, "binarized": _boolean},
    required=("theta_deg", "k"),
), "filter entries")


def _parse_seeds(text: str) -> tuple | range:
    """Seed list '0,3,5', or half-open range 'start:stop' left unbuilt for the block cap."""
    try:
        if ":" in text:
            start, stop = (int(p) for p in text.split(":"))
            if not 0 < stop - start <= sys.maxsize:  # len() of a longer range overflows
                raise ValueError
            return range(start, stop)
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects 'a,b,c' or 'start:stop', got {text!r}") from None


# Every setting: its checker, and the flag that overrides it with that flag's
# argparse options, or no flag. A flag's dest is its setting's key; the flags
# are in --help order.
_SETTINGS = {
    "seeds": (_seeds, "--seeds", dict(
        type=_parse_seeds, help="seed list 'a,b,c' or range 'start:stop'")),
    "rho": (_number, "--rho", dict(type=float)),
    "delta_omega": (_number, "--delta-omega", dict(type=float)),
    "epsilon": (_number, "--epsilon", dict(type=float)),
    "dt": (_number, "--dt", dict(type=float)),
    "t_end": (_number, "--t-end", dict(type=float)),
    "side": (_natural, "--side", dict(type=int, help="fragment/filter side in pixels")),
    # a bank file path or an inline list of entries
    "bank": (lambda v, name: v if isinstance(v, str) else _bank_entries(v, name), "--bank",
             dict(help="JSON bank file: list of {theta_deg, k, phase, binarized}")),
    "reference_oscillator": (_boolean, "--reference-oscillator", dict(
        action="store_true", default=None,
        help="add one extra oscillator at omega0 that encodes no pixel")),
    "seed": (_natural, None, None),
}
# the settings that are OscillatorArrayConfig fields
_ARRAY_KEYS = {f.name for f in fields(OscillatorArrayConfig)} & _SETTINGS.keys()
_config_file = _object({key: check for key, (check, *_) in _SETTINGS.items()})


@dataclass
class RunConfig:
    """Merged run configuration shared by the simulation commands.

    array holds the OscillatorArrayConfig fields that were set; the others
    keep that class's defaults.
    """

    array: dict = field(default_factory=dict)
    seed: int = 0  # sweep-locking's initial phases; match and featuremap use seeds
    side: int = 5
    seeds: tuple | range = range(8)
    reference_oscillator: bool = False
    bank: object = None  # None (default bank), path string, or checked entries

    def array_config(self, n: int) -> OscillatorArrayConfig:
        return OscillatorArrayConfig(n=n, **self.array)

    def resolve_bank(self) -> tuple[GaborFilter, ...]:
        if self.bank is None:
            return default_bank(self.side)
        entries = self.bank
        if isinstance(entries, str):
            entries = _bank_entries(_read_json(entries, "bank file"), "bank")
        return tuple(gabor_filter(self.side, **entry) for entry in entries)


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    # malformed JSON, bad UTF-8, an integer too long to parse, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} {path}: invalid JSON: {exc}") from exc


def _config_from(args: argparse.Namespace) -> RunConfig:
    """Defaults, then JSON file values, then flag overrides."""
    values = {}
    if args.config is not None:
        values = _config_file(_read_json(args.config, "config file"), "config")
    for key, value in vars(args).items():
        if value is not None and key in _SETTINGS:
            values[key] = _SETTINGS[key][0](value, key)
    array = {key: values.pop(key) for key in _ARRAY_KEYS & values.keys()}
    return RunConfig(array=array, **values)


def _parse_origin(text: str) -> tuple[int, int]:
    try:
        row, col = (int(p) for p in text.split(","))
        return row, col
    except ValueError:
        raise InputError(f"--origin expects 'row,col', got {text!r}") from None


def _parse_grid(text: str) -> tuple[float, float, int]:
    """start, step and point count of 'start:stop:step', left unbuilt for the block cap."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
        # the sum is finite only if every grid point is; NaN fails every comparison
        if not (start <= stop and 0 < step and abs(start) + abs(stop) + step < math.inf):
            raise ValueError
    except ValueError:
        raise InputError(f"--grid expects 'start:stop:step', got {text!r}") from None
    points = (stop - start) / step + 0.5
    if points == math.inf:  # floor() fails on it; no such grid passes the block cap
        raise InputError(f"--grid {text!r} holds more points than a float counts")
    return start, step, int(math.floor(points)) + 1


def _out_dir(args) -> Path:
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows: list | tuple) -> None:
    """Write header and rows of Python float, int, str and None cells.

    csv writes a float by repr, None as "" and any other object by str().
    It serves the tables with None, int or str cells, which need its
    quoting: report.csv, report_errors.csv, sweep.csv and
    featuremap_errors.csv. The all-float tables, the trace and map CSVs,
    go through _write_float_csv.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _cells(values: np.ndarray) -> Iterator[str]:
    """The csv text of each float, made as it is read: repr, as csv writes a float."""
    return map(repr, values.tolist())


def _write_float_csv(path: Path, header: list[str], columns: list[Iterable[str]]) -> None:
    """Write header and columns of _cells text in one write, the bytes _write_csv writes.

    A float's text holds no comma, quote or newline, so no cell needs csv's quoting.
    """
    # the empty last line ends the text with a newline
    lines = [",".join(header), *map(",".join, zip(*columns)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))


def _write_map_csv(path: Path, fmap: FeatureMap) -> None:
    _write_float_csv(path, [f"c{j}" for j in range(fmap.width)], list(map(_cells, fmap.grid().T)))


# -- subcommands -------------------------------------------------------------

def cmd_match(args) -> int:
    cfg = _config_from(args)
    img = load_image(args.image)
    row, col = _parse_origin(args.origin)
    # the window checks side against the image before the bank is built at that side
    fragment = img.window(row, col, cfg.side)
    bank = cfg.resolve_bank()
    n = cfg.side ** 2 + (1 if cfg.reference_oscillator else 0)
    array_cfg = cfg.array_config(n)
    out = _out_dir(args)
    report = match_filters(
        fragment, bank, array_cfg, cfg.seeds, reference_oscillator=cfg.reference_oscillator
    )
    _write_csv(
        out / "report.csv",
        ["filter_index", "theta_deg", "k", "dot", "dom_mean", "dom_std", "locked", "lock_time"],
        [
            [r.filter_index, r.theta_deg, r.k, r.dot, r.dom_mean, r.dom_std, int(r.locked),
             r.lock_time]
            for r in report.results
        ],
    )
    if report.errors:
        _write_csv(
            out / "report_errors.csv",
            ["filter_index", "message"],
            [[e.filter_index, e.message] for e in report.errors],
        )
    if not report.results:
        raise NumericError(
            f"all {len(report.errors)} filters failed; see report_errors.csv"
        )
    if args.dump_traces:
        _dump_traces(out, report, array_cfg)
    _print_match_summary(report)
    return 0


def _print_match_summary(report: MatchReport) -> None:
    top = winner_take_all(report, min(4, len(report.ranking)))
    best = next(r for r in report.results if r.filter_index == top[0])
    print(
        f"winner: filter {best.filter_index} "
        f"(theta={best.theta_deg:g} k={best.k:g}) "
        f"dom={best.dom_mean:.4f} dot={best.dot:g}"
    )
    print(f"top-{len(top)} by dom: {', '.join(str(i) for i in top)}")
    print(f"dynamic range: {report.dynamic_range:.4f}")
    print(f"filters: {len(report.results)} ok, {len(report.errors)} failed")


def _dump_traces(out: Path, report: MatchReport, array_cfg: OscillatorArrayConfig) -> None:
    """One trace CSV per successful filter, from its first-seed match run; the files
    are written in as many shares as there are CPUs this process may use, or fewer."""
    averagers = np.array([result.averager for result in report.results])
    envelopes = np.abs(averagers)
    peaks = dynamics.peak_detector(envelopes, array_cfg)
    times = list(_cells(sample_times(array_cfg)))  # every file has the same sample times

    def write(indices: range) -> None:
        for i in indices:
            # a peak cell with its envelope cell's bits has its text; the int64 views
            # keep -0.0 apart from 0.0, and one NaN from another
            envelope_text = list(_cells(envelopes[i]))
            peak_text = envelope_text.copy()
            held = np.flatnonzero(envelopes[i].view(np.int64) != peaks[i].view(np.int64))
            for col, text in zip(held.tolist(), _cells(peaks[i][held])):
                peak_text[col] = text
            _write_float_csv(
                out / f"trace_filter_{report.results[i].filter_index:02d}.csv",
                ["time", "averager_re", "averager_im", "envelope", "peak_detector"],
                [times, *map(_cells, (averagers[i].real, averagers[i].imag)), envelope_text,
                 peak_text],
            )

    files = range(len(report.results))
    _shares.run(write, _shares.split(files, min(_shares.cpus(), len(files))))


# Coupling of the two-oscillator locking sweep when none is configured.
SWEEP_EPSILON = 0.05


def cmd_sweep_locking(args) -> int:
    cfg = _config_from(args)
    start, step, count = _parse_grid(args.grid)
    epsilon = cfg.array.get("epsilon", SWEEP_EPSILON)
    run = {k: v for k, v in cfg.array.items() if k in _SWEEP_KEYS}
    # the block cap is checked before the grid is built, by its size and its last, largest point
    _sweep_config(epsilon, count, start, start + step * (count - 1), **run)
    out = _out_dir(args)
    points = sweep_locking(epsilon, start + step * np.arange(count), seed=cfg.seed, **run)
    _write_csv(
        out / "sweep.csv",
        ["detuning", "locked", "final_freq_gap", "beat_amplitude"],
        [[p.detuning, int(p.locked), p.final_freq_gap, p.beat_amplitude] for p in points],
    )
    locked = [p.detuning for p in points if p.locked]
    if locked:
        print(f"locking boundary: {max(locked):g} (largest locked detuning, epsilon={epsilon:g})")
    else:
        print(f"no locked point on the grid (epsilon={epsilon:g})")
    return 0


def cmd_featuremap(args) -> int:
    cfg = _config_from(args)
    img = load_image(args.image)
    if cfg.side > min(img.width, img.height):
        raise ConfigurationError(f"filter side {cfg.side} exceeds image {img.height}x{img.width}")
    # the filter flags make a one-entry bank, in place of any other
    if any(v is not None for v in (args.theta_deg, args.k, args.phase)) or args.raw_filter:
        if args.theta_deg is None or args.k is None:
            raise InputError(
                "--theta-deg and --k must be given together; --phase and --raw-filter need both"
            )
        if args.filter_index is not None:
            raise InputError("--filter-index picks a bank filter; --theta-deg and --k build one")
        cfg.bank = ({"theta_deg": args.theta_deg, "k": args.k, "phase": args.phase or 0.0,
                     "binarized": not args.raw_filter},)
    bank = cfg.resolve_bank()
    index = args.filter_index or 0
    if not 0 <= index < len(bank):
        raise ConfigurationError(f"--filter-index {index} outside bank of {len(bank)} filters")
    filt = bank[index]
    array_cfg = cfg.array_config(cfg.side ** 2)
    out = _out_dir(args)
    onn = feature_map_onn(img, filt, array_cfg, cfg.seeds)
    oracle_map = convolve_valid(img, filt, mode="correlation")
    _write_map_csv(out / "onn_map.csv", onn)
    _write_map_csv(out / "oracle_map.csv", oracle_map)
    if onn.errors:
        _write_csv(out / "featuremap_errors.csv", ["row", "col", "message"], onn.errors)
    if not np.isfinite(onn.values).any():
        raise NumericError(
            f"all {len(onn.errors)} windows failed; see featuremap_errors.csv"
        )
    valid = np.isfinite(onn.values)
    r = math.nan
    # a lone oscillator's amplitude is sqrt(1 + eps/rho) whatever its
    # frequency: its map's spread is RK4 step error, which r would correlate
    if (array_cfg.n > 1 and valid.sum() >= 2
            and np.std(onn.values[valid]) > 0 and np.std(oracle_map.values[valid]) > 0):
        r = float(np.corrcoef(onn.values[valid], oracle_map.values[valid])[0, 1])
    print(
        f"pearson={r!r} rows={onn.height} cols={onn.width} "
        f"windows={onn.height * onn.width} errors={len(onn.errors)}"
    )
    return 0


def cmd_hw(args) -> int:
    hw = HardwareParams(
        i_drv=args.i_drv, vcc=args.vcc, f=args.freq, c_coup=args.c_coup, n=args.n
    )
    # the estimates multiply these integers by floats, which fails beyond the largest float
    if max(args.n, args.n_filters) > sys.float_info.max:
        raise ConfigurationError("--n and --n-filters must not exceed the largest float")
    fraction = locking_range_fraction(hw)
    power = power_per_oscillator(hw)
    cost = inference_cost_estimate(hw, args.delay_per_conv, args.n_filters)
    if not all(map(math.isfinite, (fraction, power, cost.delay, cost.energy))):
        raise ConfigurationError("the hardware estimates overflow a float")
    print(f"locking_range_fraction = {fraction:.6g}")
    print(f"power_per_oscillator = {power:.6g} W ({_eng(power, 'W')})")
    print(
        f"inference: delay = {cost.delay:.6g} s ({_eng(cost.delay, 's')}), "
        f"energy = {cost.energy:.6g} J ({_eng(cost.energy, 'J')})"
    )
    return 0


# -- parser ------------------------------------------------------------------

# the setting flags of match and featuremap but --reference-oscillator, which
# match lists first
_RUN_FLAGS = [key for key, (_, flag, _) in _SETTINGS.items()
              if flag and key != "reference_oscillator"]


def _add_flags(p: _Parser, *keys: str, **helps: str) -> None:
    """The flags of the settings keys, in order; helps replaces a flag's help text."""
    for key in keys:
        _, flag, options = _SETTINGS[key]
        p.add_argument(flag, dest=key, **{**options, "help": helps.get(key, options.get("help"))})


def _add_io_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out-dir", help="output directory (default: current)")


def build_parser() -> _Parser:
    parser = _Parser(prog="oscconv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="match a fragment against the filter bank")
    p.add_argument("image", help="PGM image (P2 or P5)")
    p.add_argument("--origin", default="0,0", help="fragment top-left 'row,col'")
    p.add_argument("--dump-traces", action="store_true", help="write per-filter trace CSVs")
    _add_flags(p, "reference_oscillator")
    _add_io_flags(p)
    _add_flags(p, *_RUN_FLAGS)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("sweep-locking", help="two-oscillator locking sweep")
    _add_flags(p, "epsilon", epsilon=f"coupling coefficient (default {SWEEP_EPSILON:g})")
    p.add_argument("--grid", default="0:0.2:0.01", help="detuning grid 'start:stop:step'")
    _add_flags(p, *_SWEEP_KEYS, t_end=f"span per run (default {SWEEP_T_END:g})")
    _add_io_flags(p)
    p.set_defaults(func=cmd_sweep_locking)

    p = sub.add_parser("featuremap", help="analog feature map plus oracle map")
    p.add_argument("image", help="PGM image (P2 or P5)")
    p.add_argument("--filter-index", type=int, help="index into the bank (default 0)")
    p.add_argument("--theta-deg", type=float, help="build a single filter instead: direction")
    p.add_argument("--k", type=float, help="build a single filter instead: inverse period")
    p.add_argument("--phase", type=float, help="filter phase offset (default 0)")
    p.add_argument("--raw-filter", action="store_true", help="skip binarization")
    _add_io_flags(p)
    _add_flags(p, *_RUN_FLAGS)
    p.set_defaults(func=cmd_featuremap)

    p = sub.add_parser("hw", help="hardware locking range, power, and cost")
    p.add_argument("--i-drv", dest="i_drv", type=float, required=True, help="drive current, A")
    p.add_argument("--vcc", type=float, required=True, help="supply voltage, V")
    p.add_argument("--freq", type=float, required=True, help="oscillation frequency, Hz")
    p.add_argument("--c-coup", dest="c_coup", type=float, required=True, help="coupling capacitance, F")
    p.add_argument("--n", type=int, default=26, help="oscillator count")
    p.add_argument("--delay-per-conv", dest="delay_per_conv", type=float, default=6e-9,
                   help="delay per convolution, s")
    p.add_argument("--n-filters", dest="n_filters", type=int, default=1)
    p.set_defaults(func=cmd_hw)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, and not at exit
        return code
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        print(f"error: stdout is closed: {exc}", file=sys.stderr)
        # so that the flush at exit, of what stdout still holds, does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # an output directory or file that cannot be made or written is one line too
    except (OscconvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
