"""oscconv benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the package is imported from the checkout's
src/. Each workload is timed pass by pass, every pass in a fresh worker
process (worker.py), until --seconds have passed (at least one pass).
The benchmark's inputs are made from --seed; the program only receives
them as files (a PGM image, a JSON config, a numpy array).

Workloads (``VARIANTS`` input variants per command workload, picked by
seed % VARIANTS; seed 0 is the acceptance-suite input):

  bank_match     ``oscconv match --dump-traces`` of the bundled 5x5 edge
                 fragment against the 18-filter bank, 8 seeds averaged
                 (variant v uses seeds 8v..8v+7). Many same-shaped n=25
                 integrations, the lock readouts, and the per-filter
                 re-integration of --dump-traces.
  locking_sweep  ``oscconv sweep-locking --epsilon 0.05 --grid 0:0.2:0.01``
                 (variant v: initial-phase seed v). n=2, ~10.5k steps per
                 row, 21 rows: per-step overhead and long-trace readouts.
  featuremap     ``oscconv featuremap`` of an 8x8 crop of the 16x16 grating
                 of acceptance criterion 11 against the theta=30, k=0.35
                 filter, 4 seeds (variant v picks the crop). Window
                 fan-out, DOM-only readout, PGM read and map CSV writes.
  oracle_maps    ``oscconv.oracle.convolve_valid`` maps, correlation and
                 convolution, of every bank filter over a 256x256 uniform
                 noise image drawn from the seed. No dynamics at all.

wall_s is the median time of a pass's timed part; setup_s the median of
SETUP_SAMPLES fresh-process set-ups (import oscconv, build the config and
filter bank), taken before and after the passes; peak_rss_mb the median
of the passes' peak resident sets (VmHWM, Linux).

wall_s and setup_s are speed-normalised seconds: host seconds times the
host's speed, which the worker measures with a fixed reference
computation (worker.host_speed) right after the set-up and every 0.2 s
of a pass. On shared virtual machines the CPU speed moves between states
about 1.7x apart, and the share of time spent in the slow one drifts
over minutes; that moves host seconds between runs by more than any
bound a benchmark can hold, and the normalised times cancel most of it.
The host seconds are printed as wall_host_s and setup_host_s, and the
mean speed of the passes as host_speed. The traced pass is not sampled
and its layer times are host seconds.

Every pass is checked. Its outputs are compared with reference outputs
recorded at the seed commit (reference/, written by record.py) or, for
oracle_maps, with a numpy sliding-window reference; lock flags must match
exactly and the largest deviation must stay within OUTPUT_TOL. The
fidelity metrics must meet the acceptance thresholds. Every CSV file (and
the oracle map array) must be byte-identical to the first run of the same
source at the same seed in this checkout (.perfbench/digests.json). A
pass that fails a check counts all its units as failed.

Output: a table of every metric with its unit and sample count, then, as
the last line, one JSON object {"correct", "attempted", "failed",
"metrics"} whose metrics are the end_to_end metrics of BENCHMARK.json
(--trace 0) or its per_layer metrics (--trace 1). The table's other
metrics are zero in a correct run, exist only on some workloads, or have
no better direction (the share.<layer> figures, which sum to about 100%),
so they are printed and not returned. The traced run adds one traced pass
after the untraced ones. Its tracing_overhead_s is an estimate built from
span counts (tracing.py); traced_minus_untraced_s, the traced pass's wall
time minus the untraced median, is printed beside it but is mostly pass
to pass variation. The exit code is 1 when a check fails, 2 when the
benchmark cannot run (no oscconv sources, a worker crash).
"""
from __future__ import annotations

import os

# one thread per numeric library, set before numpy loads here and in the workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"

VARIANTS = 4
OUTPUT_TOL = 1e-6
SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 170

# The physics every command workload shares: default n=25 array config,
# dt = 2*pi / (50 * omega_max) with omega_max = omega0 + 2*delta_omega.
DT = 2.0 * math.pi / (50.0 * 1.1)
MATCH_STEPS = int(round(400.0 / DT))
SWEEP_STEPS = int(round(1200.0 / DT))  # grid max 0.2: omega_max = 1 + 0.2/2 = 1.1
BANK_SIZE = 18
MATCH_SEEDS = 8
SWEEP_EPSILON = 0.05
SWEEP_ROWS = 21
FM_SIDE = 8
FM_ORIGINS = ((0, 0), (0, 8), (8, 0), (8, 8))
FM_SEEDS = 4
ORACLE_SIDE = 256

# The bundled 5x5 edge fragment (oscconv.edge_fragment), frozen here so
# the workload input does not change with the package.
EDGE_FRAGMENT = (
    (0.20, 0.35, 0.80, 0.30, 0.15),
    (0.30, 0.75, 0.90, 0.35, 0.20),
    (0.70, 0.95, 0.55, 0.30, 0.25),
    (0.90, 0.60, 0.35, 0.30, 0.20),
    (0.55, 0.40, 0.30, 0.25, 0.15),
)


class BenchmarkError(Exception):
    """The benchmark cannot run or cannot read a result."""


# -- inputs ----------------------------------------------------------------

def write_pgm(path: Path, pixels: np.ndarray) -> None:
    rows = [" ".join(str(int(v)) for v in row) for row in pixels]
    path.write_text(f"P2\n{pixels.shape[1]} {pixels.shape[0]}\n255\n" + "\n".join(rows) + "\n")


def grating(side: int, theta_deg: float, k: float) -> np.ndarray:
    """Unbinarized oriented cosine grating on a centered side x side grid."""
    coords = np.arange(side) - (side - 1) / 2.0
    x, y = np.meshgrid(coords, coords, indexing="xy")
    theta = math.radians(theta_deg)
    return np.cos(2.0 * math.pi * k * (x * math.cos(theta) + y * math.sin(theta)))


def make_inputs(workload: str, seed: int, inputs: Path):
    """Write the workload's inputs; return a function out_dir -> worker spec fields."""
    inputs.mkdir(parents=True, exist_ok=True)
    variant = seed % VARIANTS
    if workload == "bank_match":
        image = inputs / "fragment.pgm"
        values = 2.0 * np.array(EDGE_FRAGMENT) - 1.0  # as oscconv.normalize_fragment
        write_pgm(image, np.round((values + 1.0) / 2.0 * 255.0))  # as acceptance criterion 10
        seeds = f"{MATCH_SEEDS * variant}:{MATCH_SEEDS * (variant + 1)}"
        return lambda out: {"argv": ["match", str(image), "--dump-traces", "--seeds", seeds,
                                     "--out-dir", str(out)]}
    if workload == "locking_sweep":
        config = inputs / "config.json"
        config.write_text(json.dumps({"seed": variant}))
        return lambda out: {"argv": ["sweep-locking", "--epsilon", str(SWEEP_EPSILON),
                                     "--grid", "0:0.2:0.01", "--config", str(config),
                                     "--out-dir", str(out)]}
    if workload == "featuremap":
        row, col = FM_ORIGINS[variant]
        full = 0.9 * grating(16, 30.0, 0.35)  # the criterion-11 image
        crop = full[row:row + FM_SIDE, col:col + FM_SIDE]
        image = inputs / "grating.pgm"
        write_pgm(image, np.round((crop + 1.0) / 2.0 * 255.0))
        return lambda out: {"argv": ["featuremap", str(image), "--theta-deg", "30", "--k", "0.35",
                                     "--seeds", f"0:{FM_SEEDS}", "--out-dir", str(out)]}
    if workload == "oracle_maps":
        image = inputs / "noise.npy"
        rng = np.random.default_rng(seed % 2**64)
        np.save(image, rng.uniform(-1.0, 1.0, (ORACLE_SIDE, ORACLE_SIDE)))
        return lambda out: {"image": str(image), "out_dir": str(out)}
    raise ValueError(workload)


# -- outputs ---------------------------------------------------------------

def _number(text: str):
    return None if text == "" else float(text)


def read_csv_columns(path: Path) -> dict[str, list]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [_number(row[key]) for row in rows] for key in (rows[0] if rows else {})}


def read_map(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [None if math.isnan(v) else v for row in rows for v in map(float, row)]


def parse_outputs(workload: str, out: Path) -> dict[str, list]:
    """The numeric outputs of one command pass, as named columns."""
    if workload == "bank_match":
        return read_csv_columns(out / "report.csv")
    if workload == "locking_sweep":
        return read_csv_columns(out / "sweep.csv")
    if workload == "featuremap":
        return {"onn": read_map(out / "onn_map.csv"), "oracle": read_map(out / "oracle_map.csv")}
    raise ValueError(workload)


EXACT_COLUMNS = ("locked", "filter_index")


def compare(got: dict[str, list], ref: dict[str, list]) -> tuple[float, list[str]]:
    """Largest absolute deviation from the reference, and any mismatches."""
    worst, problems = 0.0, []
    for key, expected in ref.items():
        values = got.get(key)
        if values is None or len(values) != len(expected):
            problems.append(f"{key}: {0 if values is None else len(values)} values, "
                            f"reference has {len(expected)}")
            continue
        for i, (a, b) in enumerate(zip(values, expected)):
            if (a is None) != (b is None):
                problems.append(f"{key}[{i}]: {a} vs reference {b}")
            elif key in EXACT_COLUMNS and a != b:
                problems.append(f"{key}[{i}]: {a} vs reference {b}")
            elif a is not None:
                worst = max(worst, abs(a - b))
    if worst > OUTPUT_TOL:
        problems.append(f"output_max_abs_dev {worst:.3g} > {OUTPUT_TOL:g}")
    return worst, problems


def pearson(a, b) -> float:
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    if len(pairs) < 2:
        return float("nan")
    return float(np.corrcoef(np.array(pairs).T)[0, 1])


def fidelity(workload: str, outputs: dict[str, list]) -> dict[str, tuple[float, bool, str]]:
    """Fidelity metrics against the frozen acceptance thresholds: name -> (value, met, rule)."""
    if workload == "bank_match":
        index, dom, dot = outputs["filter_index"], outputs["dom_mean"], outputs["dot"]
        top_dom = {i for _, i in sorted(zip((-d for d in dom), index))[:4]}
        top_dot = {i for _, i in sorted(zip((-d for d in dot), index))[:4]}
        r = pearson(dom, dot)
        overlap = len(top_dom & top_dot) / 4.0
        return {  # acceptance criteria 5 and 6
            "dom_dot_pearson": (r, r >= 0.7, ">= 0.7"),
            "top4_overlap": (overlap, overlap >= 0.75, ">= 3/4"),
        }
    if workload == "locking_sweep":
        eps = SWEEP_EPSILON
        locked = [d for d, flag in zip(outputs["detuning"], outputs["locked"]) if flag]
        boundary = max(locked) if locked else 0.0
        err = abs(boundary - 2 * eps) / (2 * eps)
        # acceptance criterion 3
        return {"lock_boundary_err": (err, 0.5 * eps <= boundary <= 2 * eps,
                                      "boundary in [0.5 eps, 2 eps]")}
    if workload == "featuremap":
        r = pearson(outputs["onn"], outputs["oracle"])
        return {"map_pearson": (r, r >= 0.6, ">= 0.6")}  # acceptance criterion 11
    return {}


FIDELITY_UNITS = {"dom_dot_pearson": "r", "top4_overlap": "share", "map_pearson": "r",
                  "lock_boundary_err": "share"}


def oracle_reference(image: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Independent valid-mode correlation and convolution maps, in worker order."""
    side = int(round(math.sqrt(kernels.shape[1])))
    windows = sliding_window_view(image, (side, side))
    maps = []
    for kernel in kernels.reshape(-1, side, side):
        for k in (kernel, kernel[::-1, ::-1]):  # correlation, then convolution
            maps.append(np.einsum("rcij,ij->rc", windows, k).ravel())
    return np.stack(maps)


# -- passes ----------------------------------------------------------------

@dataclass
class Workload:
    units: str
    units_per_pass: int
    osc_steps_per_pass: int | None


WORKLOADS = {
    "bank_match": Workload("filters", BANK_SIZE, 25 * MATCH_STEPS * BANK_SIZE * MATCH_SEEDS),
    "locking_sweep": Workload("rows", SWEEP_ROWS, 2 * SWEEP_STEPS * SWEEP_ROWS),
    "featuremap": Workload("windows", (FM_SIDE - 4) ** 2,
                           25 * MATCH_STEPS * (FM_SIDE - 4) ** 2 * FM_SEEDS),
    "oracle_maps": Workload("maps", 2 * BANK_SIZE, None),
}


@dataclass
class Pass:
    setup_s: float  # host seconds, as are wall_s and the traced layers
    setup_speed: float
    peak_rss_mb: float
    wall_s: float = 0.0
    speed: float = 1.0
    failed_units: int = 0
    dev: float = 0.0
    fidelity: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_worker(spec: dict, tmp: Path, tag: str) -> dict:
    spec_path, result_path = tmp / f"{tag}.spec.json", tmp / f"{tag}.result.json"
    spec_path.write_text(json.dumps({**spec, "src": str(SRC), "result": str(result_path)}))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("oscconv/**/*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    files = sorted([*out.glob("*.csv"), *out.glob("maps.npy")])
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def check_pass(workload: str, variant: int, out: Path, exit_code: int, p: Pass) -> None:
    spec = WORKLOADS[workload]
    if exit_code != 0:
        p.problems.append(f"command exited {exit_code}")
        p.failed_units = spec.units_per_pass
        return
    if workload == "oracle_maps":
        maps = np.load(out / "maps.npy")
        ref = oracle_reference(np.load(out.parent / "inputs" / "noise.npy"),
                               np.load(out / "kernels.npy"))
        devs = np.abs(maps - ref).max(axis=1) if maps.shape == ref.shape else None
        if devs is None:
            p.problems.append(f"maps shape {maps.shape}, reference {ref.shape}")
            p.failed_units = spec.units_per_pass
            return
        p.dev = float(devs.max())
        p.failed_units = int((devs > OUTPUT_TOL).sum())
        if p.failed_units:
            p.problems.append(f"{p.failed_units} maps deviate by up to {p.dev:.3g}")
        return
    outputs = parse_outputs(workload, out)
    ref_path = REFERENCE / f"{workload}-v{variant}.json"
    if not ref_path.exists():
        raise BenchmarkError(f"missing reference outputs {ref_path}; run perfbench/record.py")
    p.dev, problems = compare(outputs, json.loads(ref_path.read_text()))
    p.problems += problems
    p.fidelity = fidelity(workload, outputs)
    for name, (value, met, rule) in p.fidelity.items():
        if not met:
            p.problems.append(f"{name} {value:.4g} misses its threshold ({rule})")
    # failed filters or windows differ from the reference, so they fail the pass
    if p.problems:
        p.failed_units = spec.units_per_pass


class Digests:
    """Output digests per (source fingerprint, workload, seed), kept across runs."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}
        self.key_prefix = source_fingerprint()

    def check(self, workload: str, seed: int, digests: dict[str, str]) -> list[str]:
        key = f"{self.key_prefix}/{workload}/{seed}"
        first = self.data.setdefault(key, digests)
        return [f"{name} differs from the first run of this source"
                for name in sorted(set(first) | set(digests))
                if first.get(name) != digests.get(name)]

    def save(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=0, sort_keys=True))


def one_pass(workload, seed, argv_for, tmp, tag, trace, digests) -> Pass:
    out = tmp / tag
    result = run_worker({"workload": workload, "mode": "pass", "trace": trace,
                         "out_dir": str(out), **argv_for(out)}, tmp, tag)
    p = Pass(setup_s=result["setup_s"], setup_speed=result["setup_speed"],
             peak_rss_mb=result["peak_rss_mb"], wall_s=result["wall_s"],
             speed=result["speed"], layers=result.get("layers", {}))
    check_pass(workload, seed % VARIANTS, out, result["exit_code"], p)
    if result["exit_code"] == 0:
        determinism = digests.check(workload, seed, output_digests(out))
        p.problems += determinism
        if determinism:
            p.failed_units = WORKLOADS[workload].units_per_pass
    shutil.rmtree(out, ignore_errors=True)
    return p


# -- reporting ---------------------------------------------------------------

def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ",".join(f"{v.split('_')[0]}={os.environ[v]}"
                       for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}, threads {threads}")


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, digests: Digests):
    """Measure one workload. Returns (rows, passes, traced pass or None)."""
    tmp = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        argv_for = make_inputs(workload, seed, tmp / "inputs")

        def setup_sample() -> tuple[float, float]:
            result = run_worker({"workload": workload, "mode": "setup", "trace": False},
                                tmp, "setup")
            return result["setup_s"], result["setup_speed"]

        # set-up samples before and after the passes, so that one spell of
        # host contention does not set them all
        setups = [setup_sample() for _ in range(SETUP_SAMPLES // 2)]
        passes: list[Pass] = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < seconds:
            passes.append(one_pass(workload, seed, argv_for, tmp, f"pass{len(passes)}",
                                   False, digests))
        setups += [(p.setup_s, p.setup_speed) for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample())
        traced = one_pass(workload, seed, argv_for, tmp, "traced", True, digests) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    spec = WORKLOADS[workload]
    n = len(passes)
    walls = [p.wall_s * p.speed for p in passes]
    attempted = spec.units_per_pass * n
    failed = sum(p.failed_units for p in passes)
    rows = [
        ("wall_s", median(walls), "s", n),
        ("setup_s", median([s * speed for s, speed in setups]), "s", len(setups)),
        ("peak_rss_mb", median([p.peak_rss_mb for p in passes]), "MB", n),
        ("failed_share", failed / attempted, "share", attempted),
        ("output_max_abs_dev", max(p.dev for p in passes), "abs", n),
    ]
    if spec.osc_steps_per_pass is not None:
        rows.insert(1, ("osc_steps_per_s", median([spec.osc_steps_per_pass / w for w in walls]),
                        "1/s", n))
    for name in passes[0].fidelity:
        rows.append((name, median([p.fidelity[name][0] for p in passes]),
                     FIDELITY_UNITS[name], n))
    rows += [
        ("wall_host_s", median([p.wall_s for p in passes]), "s", n),
        ("setup_host_s", median([s for s, _ in setups]), "s", len(setups)),
        ("host_speed", median([p.speed for p in passes]), "x", n),
    ]
    if traced is not None:
        traced.layers["traced_minus_untraced_s"] = (
            traced.wall_s - median([p.wall_s for p in passes]), "s")
    return rows, passes, traced


def print_rows(title: str, rows) -> None:
    print(title)
    for name, value, unit, n in rows:
        print(f"  {name:42s} {value:>16.6g} {unit:>14s}  n={n}")


def json_metrics(names_units, measured: dict[str, tuple[float, str]]) -> dict:
    metrics = {}
    for name, unit in names_units:
        value, got_unit = measured[name]
        if got_unit != unit:
            raise BenchmarkError(f"metric {name}: measured in {got_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config_path = ROOT / "BENCHMARK.json"
    if not (SRC / "oscconv" / "__init__.py").is_file() or not config_path.is_file():
        print(f"error: {ROOT} has no src/oscconv package or no BENCHMARK.json", file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())
    key = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in config[key]]
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    WORK.mkdir(exist_ok=True)
    digests = Digests(WORK / "digests.json")
    print(f"environment: {environment()}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            rows, passes, traced = run_workload(workload, args.seed, args.seconds,
                                                bool(args.trace), digests)
            print(f"\n== {workload}  seed={args.seed} variant={args.seed % VARIANTS} "
                  f"passes={len(passes)} units={WORKLOADS[workload].units}")
            print_rows("end-to-end (median over passes; n = samples):", rows)
            checked = passes + ([traced] if traced else [])
            problems = sorted({msg for p in checked for msg in p.problems})
            if traced is not None:
                print_rows("per-layer (one traced pass; .s = self time):",
                           [(k, v, u, 1) for k, (v, u) in sorted(traced.layers.items())])
                measured = traced.layers
            else:
                measured = {name: (value, unit) for name, value, unit, _ in rows}
            print("checks: " + ("ok (outputs within tolerance, fidelity thresholds met, "
                                "outputs byte-identical across runs)" if not problems
                                else "FAILED: " + "; ".join(problems)))
            correct &= not problems
            attempted += WORKLOADS[workload].units_per_pass * len(checked)
            failed += sum(p.failed_units for p in checked)
            for name, metric in json_metrics(wanted, measured).items():
                metrics[name if len(workloads) == 1 else f"{workload}.{name}"] = metric
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        digests.save()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
