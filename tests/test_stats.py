"""Total variation, empirical laws, and the pooled chi-square check."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import remychain
from remychain import StatReport, chi_square, empirical_law, make_rng, tv_distance
from remychain.stats import _chi2_tail, _chi2_upper_quantile

SIGNIFICANCES = [0.1, 0.05, 0.01, 1e-3, 1e-6, 1e-9]


def test_tv_distance_identical_laws():
    p = {"a": Fraction(1, 3), "b": Fraction(2, 3)}
    assert tv_distance(p, p) == 0.0


def test_tv_distance_disjoint_supports():
    assert tv_distance({"a": 1}, {"b": 1}) == 1.0


def test_tv_distance_exact_fraction_arithmetic():
    p = {"a": Fraction(1, 3), "b": Fraction(2, 3)}
    q = {"a": Fraction(2, 3), "b": Fraction(1, 3)}
    assert tv_distance(p, q) == float(Fraction(1, 3))


def test_tv_distance_handles_missing_keys():
    p = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    q = {"a": Fraction(1, 2), "c": Fraction(1, 2)}
    assert tv_distance(p, q) == 0.5


def test_empirical_law_counts_samples():
    law = empirical_law(["x", "y", "x", "x"])
    assert law == {"x": Fraction(3, 4), "y": Fraction(1, 4)}


def test_chi_square_proportional_counts_pass():
    observed = {"a": 500, "b": 300, "c": 200}
    expected = {"a": Fraction(1, 2), "b": Fraction(3, 10), "c": Fraction(1, 5)}
    report = chi_square(observed, expected, significance=0.01, name="exact")
    assert isinstance(report, StatReport)
    assert report.statistic == 0.0
    assert report.passed
    assert report.sample_size == 1000
    assert "pass" in report.line()


def test_chi_square_detects_bias():
    observed = {"a": 900, "b": 100}
    expected = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    report = chi_square(observed, expected, significance=0.01, name="biased")
    assert not report.passed
    assert "FAIL" in report.line()


def test_chi_square_passes_honest_samples():
    rng = make_rng(4)
    expected = {k: Fraction(1, 6) for k in range(6)}
    draws = rng.integers(0, 6, size=30_000)
    observed: dict = {}
    for d in draws:
        observed[int(d)] = observed.get(int(d), 0) + 1
    assert chi_square(observed, expected).passed


def test_chi_square_pools_rare_cells():
    # each tiny cell expects 3 at n=150, so the two pool into one cell of 6
    observed = {"big": 144, "tiny1": 3, "tiny2": 3}
    expected = {
        "big": Fraction(24, 25),
        "tiny1": Fraction(1, 50),
        "tiny2": Fraction(1, 50),
    }
    report = chi_square(observed, expected)
    assert report.dof == 1  # two cells after pooling
    assert report.passed


def test_chi_square_rejects_unpoolable_law():
    # at n=100 the tiny cells drag everything into a single pool
    observed = {"big": 96, "tiny1": 2, "tiny2": 2}
    expected = {
        "big": Fraction(24, 25),
        "tiny1": Fraction(1, 50),
        "tiny2": Fraction(1, 50),
    }
    with pytest.raises(ValueError, match="pooling"):
        chi_square(observed, expected)


def test_chi_square_rejects_outside_support():
    with pytest.raises(ValueError, match="support"):
        chi_square({"a": 5, "z": 1}, {"a": Fraction(1)})


def test_chi_square_rejects_counts_on_zero_probability_cells():
    # Pooling would fold cell "a" into a neighbour and pass (statistic 1.0).
    expected = {"a": 0, "b": Fraction(1, 2), "c": Fraction(1, 2)}
    with pytest.raises(ValueError, match="support.*'a'"):
        chi_square({"a": 5, "b": 50, "c": 45}, expected)
    report = chi_square({"a": 0, "b": 50, "c": 50}, expected)
    assert report.passed and report.statistic == 0.0


def test_chi_square_rejects_bad_probabilities():
    with pytest.raises(ValueError, match="sum"):
        chi_square({"a": 5}, {"a": Fraction(1, 2)})


def test_chi_square_rejects_empty_observations():
    with pytest.raises(ValueError):
        chi_square({}, {"a": Fraction(1)})


def test_chi_square_needs_two_pooled_cells():
    with pytest.raises(ValueError):
        chi_square({"a": 100}, {"a": Fraction(1)})


def test_report_line_format():
    report = StatReport(
        name="demo", statistic=1.5, threshold=9.2, passed=True, sample_size=10, dof=3
    )
    line = report.line()
    assert "demo" in line and "1.5000" in line and "9.2000" in line


def test_import_leaves_scipy_unloaded():
    # scipy.stats costs most of a second; only chi_square needs it.
    code = "import sys, remychain; sys.exit('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(remychain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("significance", SIGNIFICANCES)
def test_chi2_quantile_at_two_dof_is_minus_twice_log(significance):
    # the two-dof tail is exp(-x/2)
    assert _chi2_upper_quantile(significance, 2) == pytest.approx(
        -2 * math.log(significance), rel=1e-14
    )


@pytest.mark.parametrize("dof", [1, 2, 3, 4, 17, 118, 119, 200])
@pytest.mark.parametrize("significance", SIGNIFICANCES)
def test_chi2_tail_at_quantile_returns_significance(dof, significance):
    x = _chi2_upper_quantile(significance, dof)
    assert _chi2_tail(x, dof) == pytest.approx(significance, rel=1e-12)


@pytest.mark.parametrize("significance", SIGNIFICANCES)
def test_chi2_quantile_matches_scipy(significance):
    chi2 = pytest.importorskip("scipy.stats").chi2
    for dof in range(1, 201):
        ref = chi2.isf(significance, dof)
        assert _chi2_upper_quantile(significance, dof) == pytest.approx(ref, rel=1e-12), dof


def test_stats_cli_runs_without_scipy(tmp_path):
    obs = tmp_path / "obs.json"
    exp = tmp_path / "exp.json"
    obs.write_text(json.dumps({"a": 334, "b": 333, "c": 333}))
    exp.write_text(json.dumps({"a": "1/3", "b": "1/3", "c": "1/3"}))
    argv = ["stats", "--mode", "chi2", "--observed", str(obs), "--expected", str(exp)]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from remychain import cli\n"
        f"sys.exit(cli.dispatch({argv!r}))"
    )
    src = os.path.dirname(os.path.dirname(remychain.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["dof"] == 2
    assert outputs["threshold"] == pytest.approx(-2 * math.log(0.01), rel=1e-14)
