"""Tests of the benchmark's references and output checks (pytest bench/).

The reference tests pin the series and the Monte Carlo to exact facts. The
check self-test feeds each check a deliberately corrupted copy of a real
output table (fixtures/ holds the tables the four workloads wrote at their
base seeds) and requires it to fail, so no check passes vacuously.
"""
from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import reference as ref
import run

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_theta_forms_agree_where_ranges_overlap():
    for x in np.linspace(0.5, 1.5, 41):
        small = ref.log_sup_ball(float(x), form="small")
        large = ref.log_sup_ball(float(x), form="large")
        assert abs(small - large) <= 1e-12 * max(1.0, abs(small))


def test_theta_series_brownian_scaling():
    for a, t in ((0.5, 4.0), (1.0, 16.0), (2.0, 2.0)):
        assert ref.log_sup_ball(a, t) == pytest.approx(ref.log_sup_ball(a / math.sqrt(t)), rel=1e-13)


@pytest.mark.parametrize("horizon", [1.0, 2.0])
def test_monte_carlo_reproduces_mean_square(horizon):
    n_steps, count = 64, 20_000
    dt = horizon / n_steps
    rng = np.random.default_rng(7)
    sq = ref.trapezoid_l2_sq(ref.brownian_paths(rng, count, n_steps, dt), dt)
    se = sq.std(ddof=1) / math.sqrt(count)
    assert abs(sq.mean() - horizon**2 / 2) <= 4 * se


def test_eigenvalues_sum_to_mean_square():
    for n in (16, 256):
        assert ref.trapezoid_l2_eigenvalues(n, 2.0).sum() == pytest.approx(2.0, rel=1e-12)


def test_saddlepoint_agrees_with_monte_carlo():
    radii = [0.3, 0.2, 0.15]
    lam = ref.trapezoid_l2_eigenvalues(256)
    for eps, (cost, hits, se) in zip(radii, ref.trapezoid_l2_costs(radii, n_paths=200_000)):
        assert hits >= 100
        gap = abs(ref.trapezoid_l2_cost_saddlepoint(eps, lam) - cost)
        assert gap <= 4 * se + checks.SADDLEPOINT_TOL


def test_radius_inverts_saddlepoint_cost():
    lam = ref.trapezoid_l2_eigenvalues(256)
    for cost in (3.0, 8.0, 14.0):
        eps = ref.trapezoid_l2_radius(cost, lam)
        assert ref.trapezoid_l2_cost_saddlepoint(eps, lam) == pytest.approx(cost, rel=1e-9)


def test_moment_bound_normal_norms():
    assert ref.normal_abs_moment_norm(2) == pytest.approx(1.0, rel=1e-14)
    assert ref.normal_abs_moment_norm(4) == pytest.approx(3.0**0.25, rel=1e-14)


@pytest.fixture(scope="module")
def fixtures():
    """(manifest, tables, ctx) per workload; ctx memoizes the slow references."""
    return {w: checks.load_outputs(FIXTURES / w) + (run.check_context(run.WORKLOADS[w]),)
            for w in checks.CHECKS}


def _set(table, col, value, row=0):
    def mutate(t):
        t[table][row][col] = value(t[table][row][col]) if callable(value) else value
    return mutate


def _swap(table, col, i, j):
    def mutate(t):
        rows = t[table]
        rows[i][col], rows[j][col] = rows[j][col], rows[i][col]
    return mutate


def _superadditivity_break(t):
    rows = sorted(t["constants_series"], key=lambda s: s["a"])
    rows[1]["value"] = 2 * rows[0]["value"] + 2.0  # a=4 well above a=2 doubled
    rows[1]["value_over_a"] = rows[1]["value"] / rows[1]["a"]


# (workload, check that must fail, corruption of a real table)
CORRUPTIONS = [
    ("quantize-lp", "check_finite", _set("quantize", "d_hat", math.nan, row=1)),
    ("sbf-split", "check_no_bound_rows", _set("sbf", "bound", True, row=2)),
    ("quantize-sup", "check_codebook_size", _set("quantize", "n_codewords", lambda v: v + 1)),
    ("quantize-lp", "check_codebook_size", _set("quantize", "n_test", 511.0, row=1)),
    ("quantize-lp", "check_distortion_decreasing", _swap("quantize", "d_hat", 0, 1)),
    ("quantize-sup", "check_quantiles_ordered", _set("quantize", "z_q25", lambda v: 10 * v)),
    ("quantize-sup", "check_ratio_band", _set("quantize", "d_hat", lambda v: 1.4 * v, row=1)),
    ("quantize-sup", "check_eps_star_inversion", _set("quantize", "eps_star", lambda v: 1.01 * v)),
    ("quantize-sup", "check_sup_gauge_jensen", _set("quantize_gauge", "mean", lambda v: 0.5 * v)),
    ("quantize-sup", "check_sup_gauge_anderson", _set("quantize_gauge", "median", lambda v: 0.4 * v)),
    ("quantize-sup", "check_moment_bounds", _set("quantize_gauge", "moment_p2_bound",
                                                 lambda v: 1.02 * v, row=3)),
    ("quantize-lp", "check_quantile_floor", _set("quantize", "z_q05", lambda v: 0.6 * v, row=1)),
    ("quantize-sup", "check_gauge_consistency", _set("quantize_gauge", "mean",
                                                     lambda v: 1.001 * v, row=5)),
    ("sbf-split", "check_phi_increasing", _swap("sbf", "phi", 1, 2)),
    ("sbf-split", "check_l2_monte_carlo", _set("sbf", "phi", lambda v: v + 0.5)),
    ("sbf-split", "check_l2_saddlepoint", _set("sbf", "phi", lambda v: 1.2 * v, row=3)),
    ("constants-both", "check_series_monotone", _swap("constants_series", "value", 1, 2)),
    ("constants-both", "check_series_centered_floor", _set("constants_series", "value", 1.0)),
    ("constants-both", "check_superadditive", _superadditivity_break),
    ("constants-both", "check_value_over_a", _set("constants_series", "value_over_a",
                                                  lambda v: v * (1 + 1e-9), row=4)),
    ("constants-both", "check_bracket", _set("constants", "bracket_hi", 8.0)),
    ("constants-both", "check_eps_fit_positive", _set("constants", "value", -0.5, row=1)),
]


@pytest.mark.parametrize("workload", sorted(checks.CHECKS))
def test_real_outputs_pass_every_check(fixtures, workload):
    manifest, tables, ctx = fixtures[workload]
    failures = checks.run_checks(workload, manifest, tables, ctx)
    assert not any(failures.values()), failures


@pytest.mark.parametrize("workload,check,mutate", CORRUPTIONS,
                         ids=[f"{w}-{c}" for w, c, _ in CORRUPTIONS])
def test_check_fails_on_corrupted_output(fixtures, workload, check, mutate):
    manifest, tables, ctx = fixtures[workload]
    bad = copy.deepcopy(tables)
    mutate(bad)
    failures = checks.run_checks(workload, manifest, bad, ctx)
    assert failures[check], f"{check} passed a corrupted table"


def test_every_check_has_a_corruption():
    names = {fn.__name__ for fns in checks.CHECKS.values() for fn in fns}
    assert names == {c for _, c, _ in CORRUPTIONS}
