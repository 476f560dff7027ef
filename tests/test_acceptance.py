"""End-to-end acceptance suite.

Each test is one numbered behavioral guarantee with its tolerance baked
in; `pytest -v tests/test_acceptance.py` yields one pass/fail line per
criterion. Statistical thresholds were calibrated once against
brute-force reference runs and are frozen here.
"""
import math

import numpy as np
import pytest

from oscconv import (
    Fragment,
    HardwareParams,
    Image,
    OscillatorArrayConfig,
    convolve_valid,
    default_bank,
    distance_identity_check,
    edge_fragment,
    feature_map_onn,
    gabor_filter,
    integrate,
    locking_range_fraction,
    match_filters,
    measure_lock_time,
    power_per_oscillator,
    random_initial_state,
    sweep_locking,
    winner_take_all,
)
from oscconv.cli import main
from oscconv.pgm import write_pgm


@pytest.fixture(scope="module")
def bank_report():
    """Shared full-bank match of the bundled fragment, 8-seed averaging."""
    fragment = edge_fragment()
    bank = default_bank()
    cfg = OscillatorArrayConfig(n=25)
    return match_filters(fragment, bank, cfg, seeds=tuple(range(8)))


def test_criterion_01_limit_cycle():
    """A single uncoupled unit relaxes to the unit limit cycle."""
    cfg = OscillatorArrayConfig(n=1, delta_omega=0.0, epsilon=0.0, t_end=50.0)
    trace = integrate(np.array([1.0]), cfg, np.array([0.1 + 0j]))
    deviation = abs(abs(trace.states[-1, 0]) - 1.0)
    print(f"criterion 1: |amplitude - 1| = {deviation:.2e} (< 1e-3)")
    assert deviation < 1e-3


def test_criterion_02_integrator_order():
    """Halving dt shrinks the end-state error by ~2^4 (4th-order scheme)."""
    omega = np.array([1.0, 1.02])
    init = random_initial_state(2, 11)

    def end_state(dt):
        cfg = OscillatorArrayConfig(
            n=2, delta_omega=0.05, epsilon=0.05, dt=dt, t_end=20.0
        )
        return integrate(omega, cfg, init).states[-1]

    err_coarse = np.abs(end_state(0.05) - end_state(0.05 / 8)).max()
    err_fine = np.abs(end_state(0.025) - end_state(0.025 / 8)).max()
    ratio = err_coarse / err_fine
    print(f"criterion 2: error ratio = {ratio:.2f} (in [12, 20])")
    assert 12.0 <= ratio <= 20.0


def test_criterion_03_locking_boundary():
    """Two-oscillator lock/unlock boundary sits within [0.5*eps, 2*eps]."""
    eps = 0.05
    grid = 0.01 * np.arange(21)
    points = sweep_locking(eps, grid)
    assert points[0].locked
    boundary = max(p.detuning for p in points if p.locked)
    print(f"criterion 3: boundary = {boundary:g} (in [{0.5 * eps:g}, {2 * eps:g}])")
    assert 0.5 * eps <= boundary <= 2.0 * eps


def test_criterion_04_match_separation():
    """Good match outscores the anti-match on every one of 50 seeds."""
    filt = gabor_filter(5, 30.0, 0.35)
    anti = gabor_filter(5, 30.0, 0.35, phase=math.pi)
    fragment = Fragment(side=5, values=filt.values.copy())
    cfg = OscillatorArrayConfig(n=25)
    report = match_filters(
        fragment, (filt, anti), cfg, seeds=tuple(range(50))
    )
    good, bad = report.results
    wins = sum(g > b for g, b in zip(good.doms, bad.doms))
    print(
        f"criterion 4: good > bad on {wins}/50 seeds "
        f"(means {good.dom_mean:.3f} vs {bad.dom_mean:.3f})"
    )
    assert wins == 50


def test_criterion_05_dom_dot_correlation(bank_report):
    """Mean DOM across the 18-filter bank tracks the exact dot product."""
    doms = np.array([r.dom_mean for r in bank_report.results])
    dots = np.array([r.dot for r in bank_report.results])
    r = float(np.corrcoef(doms, dots)[0, 1])
    print(f"criterion 5: pearson r = {r:.4f} (>= 0.7)")
    assert len(bank_report.results) == 18
    assert r >= 0.7


def test_criterion_06_winner_overlap(bank_report):
    """Top-4 by DOM and top-4 by dot product agree on >= 3 filters."""
    top_dom = set(winner_take_all(bank_report, 4))
    by_dot = sorted(
        bank_report.results, key=lambda res: (-res.dot, res.filter_index)
    )
    top_dot = {res.filter_index for res in by_dot[:4]}
    overlap = len(top_dom & top_dot)
    print(f"criterion 6: top-4 overlap = {overlap}/4 (>= 3)")
    assert overlap >= 3


def test_criterion_07_lock_time_scaling():
    """Doubling the FSK step (and its default coupling) roughly halves
    the lock time: ratio within [1.4, 2.8]."""
    filt = gabor_filter(5, 30.0, 0.35)
    fragment = Fragment(side=5, values=filt.values.copy())
    medians = {}
    for dw in (0.05, 0.10):
        cfg = OscillatorArrayConfig(n=25, delta_omega=dw)
        omega = 1.0 + dw * (fragment.values - filt.values)
        times = []
        for seed in range(8):
            trace = integrate(omega, cfg, random_initial_state(25, seed))
            t_lock = measure_lock_time(trace)
            assert t_lock is not None
            times.append(t_lock)
        medians[dw] = float(np.median(times))
    ratio = medians[0.05] / medians[0.10]
    print(
        f"criterion 7: lock-time ratio = {ratio:.2f} (in [1.4, 2.8]; "
        f"medians {medians[0.05]:.1f} vs {medians[0.10]:.1f})"
    )
    assert 1.4 <= ratio <= 2.8


def test_criterion_08_hardware_formulas():
    """Locking-range fraction and power at the reference operating point."""
    hw = HardwareParams(i_drv=0.26e-3, vcc=0.8, f=6e9, c_coup=1e-15)
    fraction = locking_range_fraction(hw)
    power = power_per_oscillator(hw)
    print(f"criterion 8: fraction = {fraction:.6f} (0.116 +/- 1e-3), power = {power:.3e} W")
    assert abs(fraction - 0.116) < 1e-3
    assert power == pytest.approx(0.208e-3, rel=1e-12)


def test_criterion_09_oracle_identities():
    """Dot/distance identity on 1000 random pairs; sliding windows match
    an independent quadruple-loop reference."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        frag = Fragment(side=5, values=rng.uniform(-1, 1, 25))
        other = Fragment(side=5, values=rng.uniform(-1, 1, 25))
        lhs, rhs = distance_identity_check(frag, other)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-12

    def naive(grid, kernel, mode):
        gh, gw, s = len(grid), len(grid[0]), len(kernel)
        out = []
        for r in range(gh - s + 1):
            row = []
            for c in range(gw - s + 1):
                acc = 0.0
                for i in range(s):
                    for j in range(s):
                        if mode == "convolution":
                            acc += grid[r + i][c + j] * kernel[s - 1 - i][s - 1 - j]
                        else:
                            acc += grid[r + i][c + j] * kernel[i][j]
                row.append(acc)
            out.append(row)
        return np.array(out)

    worst_conv = 0.0
    for case in range(100):
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        s = int(rng.integers(2, min(h, w) + 1))
        img = Image(width=w, height=h, values=rng.uniform(-1, 1, w * h))
        filt = Fragment(side=s, values=rng.uniform(-1, 1, s * s))
        mode = "convolution" if case % 2 == 0 else "correlation"
        got = convolve_valid(img, filt, mode=mode).grid()
        ref = naive(img.grid().tolist(), filt.values.reshape(s, s).tolist(), mode)
        worst_conv = max(worst_conv, np.abs(got - ref).max())
    print(
        f"criterion 9: identity rel err = {worst:.2e} (< 1e-12), "
        f"conv vs naive = {worst_conv:.2e} (machine precision)"
    )
    assert worst_conv < 1e-12


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Identical match invocations produce byte-identical CSV files."""
    image = tmp_path / "fragment.pgm"
    raw = (edge_fragment().values.reshape(5, 5) + 1.0) / 2.0 * 255.0
    write_pgm(image, np.round(raw))
    out_dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out in out_dirs:
        code = main([
            "match", str(image), "--seeds", "0:4",
            "--dump-traces", "--out-dir", str(out),
        ])
        capsys.readouterr()
        assert code == 0
    names = sorted(p.name for p in out_dirs[0].glob("*.csv"))
    assert "report.csv" in names and "trace_filter_00.csv" in names
    identical = all(
        (out_dirs[0] / name).read_bytes() == (out_dirs[1] / name).read_bytes()
        for name in names
    )
    print(f"criterion 10: {len(names)} CSV files byte-identical = {identical}")
    assert identical


def test_criterion_11_feature_map_fidelity():
    """ONN feature map of a 16x16 grating correlates with the oracle map."""
    grating = 0.9 * gabor_filter(16, 30.0, 0.35, binarized=False).values
    img = Image(width=16, height=16, values=grating)
    filt = gabor_filter(5, 30.0, 0.35)
    cfg = OscillatorArrayConfig(n=25)
    onn = feature_map_onn(img, filt, cfg, seeds=(0, 1, 2, 3))
    oracle = convolve_valid(img, filt, mode="correlation")
    assert onn.errors == ()
    r = float(np.corrcoef(onn.values, oracle.values)[0, 1])
    print(f"criterion 11: pearson r = {r:.4f} (>= 0.6) over {onn.values.size} windows")
    assert r >= 0.6
