"""The vectorised %.17g formatter against the per-entry % oracle."""

import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from conftest import texts_match
from evqc import spinops, timedomain
from evqc.funcspace import sample_cn
from evqc.spinops import _float_table, operator_text, total_spin
from evqc.states import demo_system


def per_entry(row, columns):
    """The oracle: row % values, one row at a time."""
    return "".join(row % values for values in zip(*(c.tolist() for c in columns)))


def assert_g17_matches(x):
    x = np.asarray(x, dtype=float)
    got = _float_table("", "%.17g\n", (x,)).split("\n")
    want = per_entry("%.17g\n", (x,)).split("\n")
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert bad == [] and len(got) == len(want)


def test_random_bit_patterns_across_the_whole_exponent_range(rng):
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    assert np.unique(np.frexp(x[np.isfinite(x)])[1]).size > 2000
    assert_g17_matches(x)


def test_every_power_of_ten_and_its_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert_g17_matches(np.concatenate([x, -x]))


def test_values_whose_18th_significant_digit_is_5(rng):
    # An odd j / 2**m has m decimal places, the last a 5; with 18
    # significant digits it is an exact tie, which %.17g rounds to even.
    odd = (rng.integers(1, 2**53, 200_000) >> rng.integers(0, 53, 200_000)) | 1
    x = odd / 2.0 ** rng.integers(1, 60, odd.size)
    ties = np.array([v for v in x.tolist() if len(Decimal(v).as_tuple().digits) == 18])
    assert ties.size > 1000
    # An 18-digit numeral ending in 5 rounds to a double just off the tie.
    digits = rng.integers(10**16, 10**17, 20_000).tolist()
    near = np.array([float(f"{d}5e{e}") for d, e in zip(digits, rng.integers(-250, 250, 20_000).tolist())])
    assert_g17_matches(np.concatenate([ties, -ties, near, -near]))


def test_zeros_subnormals_infinities_and_nans(rng):
    subnormal = rng.integers(1, 2**52, 5000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, np.copysign(np.nan, -1.0),
               5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max]
    assert_g17_matches(np.concatenate([special, subnormal, -subnormal]))
    assert _float_table("", "%.17g\n", (np.array([np.copysign(np.nan, -1.0)]),)) == "nan\n"


def test_the_trace_index_column_up_to_the_sample_ceiling_reads_as_whole_numbers():
    k = np.arange(timedomain.MAX_SAMPLES, dtype=float)
    want = "".join(f"{j}\n" for j in range(timedomain.MAX_SAMPLES))
    assert texts_match(_float_table("", "%.17g\n", (k,)), want)


def test_fixed_texts_and_signal_columns_never_reach_the_per_entry_fallback(monkeypatch):
    def refuse(x):
        raise AssertionError(f"per-entry fallback reached for {x!r}")

    monkeypatch.setattr(spinops, "_g17_one", refuse)
    plain = np.array([0.0, -0.0, np.inf, -np.inf, np.nan] * 1000)
    assert texts_match(_float_table("", "%.17g\n", (plain,)), "0\n-0\ninf\n-inf\nnan\n" * 1000)
    trace = timedomain.transverse_signal(demo_system(6), sample_cn(6, 5), range(1, 7), "x", 1e-4, 2048)
    spec = timedomain.spectrum(trace)
    times = trace.times
    assert texts_match(timedomain.trace_csv(trace), "k,t,value\r\n" + per_entry(
        "%d,%.17g,%.17g\r\n", (np.arange(times.size), times, trace.samples)))
    assert texts_match(timedomain.spectrum_csv(spec),
                       "omega,magnitude\r\n" + per_entry("%.17g,%.17g\r\n", spec))
    flat = total_spin(4, "x").mat.ravel()
    assert texts_match(operator_text(total_spin(4, "x")),
                       "16\n" + per_entry("%.17g,%.17g\n", (flat.real, flat.imag)))


def test_importing_the_cli_loads_no_scipy_and_builds_no_format_table(tmp_path):
    script = (
        "import sys\n"
        "import evqc.cli\n"
        "from evqc import spinops\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'),"
        " spinops._format_tables.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"
