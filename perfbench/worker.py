"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py SPEC.json

run.py writes SPEC.json and reads the result file the spec names. The
pass imports oscconv from the checkout's src/ (the set-up time runs from
this file's first line to a built config and filter bank), then runs the
workload once through the package's public entry points: oscconv.cli.main
for the command workloads, the oscconv.oracle API for oracle_maps. A
traced pass patches the package's public functions first (tracing.py)
and adds per-layer metrics to the result. Right after the set-up and
during the pass the worker measures the host's speed (host_speed), which
run.py uses to normalise the timings. The numeric libraries' thread
counts come from the environment run.py sets (one thread each).
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ORACLE_MODES = ("correlation", "convolution")
DERIVATIVE_CALLS = 500
DERIVATIVE_REPEATS = 7
# One step of the reference computation takes REFERENCE_STEP_S host seconds
# at speed 1.0. The constant fixes the scale of the speed-normalised times
# only; it cancels when two runs are compared.
REFERENCE_STEP_S = 10e-6
SETUP_SPEED_STEPS = 5000
PASS_SPEED_STEPS = 500
PASS_SPEED_INTERVAL_S = 0.2


def host_speed(steps: int) -> float:
    """This host's current speed, from the time of a fixed computation.

    The computation is the kind of work the package's hot loops do, a
    Python loop of small complex numpy operations on 25 values, and it
    uses no oscconv code, so a change to the package leaves it alone.
    """
    import numpy as np

    z = np.exp(1j * np.arange(25.0))
    omega = np.linspace(0.9, 1.1, 25)
    start = time.perf_counter()
    for _ in range(steps):
        z = z + 0.01 * ((1 + 1j * omega) * z - z * np.abs(z) ** 2 + 0.006 * z.sum())
    return steps * REFERENCE_STEP_S / (time.perf_counter() - start)


class SpeedSampler:
    """Samples host_speed every PASS_SPEED_INTERVAL_S while a pass runs.

    The host's speed changes within a pass, so samples taken only before
    and after it do not tell the pass's mean speed. The samples are taken
    by a SIGALRM handler in this process, so the load stays one thread;
    the time they take is kept in ``spent`` and taken off the pass time.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.speeds: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.speeds.append(host_speed(PASS_SPEED_STEPS))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PASS_SPEED_INTERVAL_S, PASS_SPEED_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def derivative_us(n: int) -> float:
    """Median host microseconds of one public derivative() call on n oscillators."""
    import numpy as np
    from oscconv.dynamics import OscillatorArrayConfig, derivative, random_initial_state

    cfg = OscillatorArrayConfig(n=n)
    state = random_initial_state(n, 0)
    omega = np.full(n, cfg.omega0)
    blocks = []
    for _ in range(DERIVATIVE_REPEATS):
        start = time.perf_counter()
        for _ in range(DERIVATIVE_CALLS):
            derivative(state, omega, cfg)
        blocks.append((time.perf_counter() - start) / DERIVATIVE_CALLS)
    return 1e6 * float(np.median(blocks))


def peak_rss_mb() -> float:
    """This process's peak resident set since exec, in MiB.

    VmHWM belongs to the address space exec created; ru_maxrss would also
    carry the spawning parent's resident set over the exec.
    """
    with open("/proc/self/status") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kib / 1024.0


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import oscconv
    from oscconv import cli

    if Path(oscconv.__file__).resolve().parent != src / "oscconv":
        sys.exit(f"imported oscconv from {oscconv.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    bank = cli.RunConfig().resolve_bank()
    result = {"setup_s": time.perf_counter() - _START}
    result["setup_speed"] = host_speed(SETUP_SPEED_STEPS)

    if spec["mode"] == "pass":
        out = Path(spec["out_dir"])
        # the traced pass is not sampled: its layer times are host seconds
        sampler = SpeedSampler(enabled=tracer is None)
        if spec["workload"] == "oracle_maps":
            values = np.load(spec["image"])
            with sampler:
                start = time.perf_counter()
                img = oscconv.oracle.Image(
                    width=values.shape[1], height=values.shape[0], values=values.ravel()
                )
                maps = [
                    oscconv.oracle.convolve_valid(img, filt, mode=mode).values
                    for filt in bank
                    for mode in ORACLE_MODES
                ]
                end = time.perf_counter()
            code = 0
            out.mkdir(parents=True, exist_ok=True)
            np.save(out / "maps.npy", np.stack(maps))
            np.save(out / "kernels.npy", np.stack([filt.values for filt in bank]))
        else:
            with sampler:
                start = time.perf_counter()
                code = cli.main(spec["argv"])
                end = time.perf_counter()
        result.update(
            wall_s=end - start - sampler.spent, exit_code=code,
            speed=statistics.fmean(sampler.speeds) if sampler.speeds else result["setup_speed"],
        )
        if tracer is not None:
            tracer.restore()
            layers = layer_metrics(tracer, start, end)
            layers["dynamics.derivative.us.n2"] = (derivative_us(2), "us")
            layers["dynamics.derivative.us.n25"] = (derivative_us(25), "us")
            layers["cli.csv_bytes"] = (float(sum(f.stat().st_size for f in out.glob("*.csv"))), "bytes")
            result["layers"] = layers

    result["peak_rss_mb"] = peak_rss_mb()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
