"""Tests of the benchmark's references against closed forms on a flat spectrum.

    python3 -m pytest perfbench/test_refs.py

On a white source of variance s every reference has a closed form: the
SD rate (1/2) log(s/D), each slack edge's level, distortions and rate,
the stationary point of the lambda2 = 0 edge, the corner's objective,
and the entropy-power rate of a flat mask.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refs  # noqa: E402

N = 512
VAR = 1.7
FLAT = np.full(N, VAR)


@pytest.mark.parametrize("D", [0.01, 0.3, 1.0, 1.69])
def test_sd_rate_flat(D):
    assert refs.sd_rate(FLAT, D) == pytest.approx(0.5 * math.log(VAR / D), rel=1e-12)


def test_sd_rate_zero_at_variance():
    assert refs.sd_rate(FLAT, VAR) == 0.0
    assert refs.sd_rate(FLAT, 2 * VAR) == 0.0


def test_water_level_colored():
    S = refs.cosine_spectrum(N)
    for target in (0.05, 0.3, 0.9):
        level = refs.water_level(S, target)
        assert np.mean(np.minimum(level, S)) == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("w", [0.05, 0.4, 0.8])
def test_lambda2_zero_edge_flat(w):
    p = refs.edge_lambda2_zero(FLAT, w)
    assert p.d_side == pytest.approx(2 * w, rel=1e-12)
    assert p.d_central == pytest.approx(VAR * w / (VAR - w), rel=1e-12)
    assert p.rate == pytest.approx(0.5 * math.log(VAR / (2 * w)), rel=1e-12)


@pytest.mark.parametrize("v", [0.02, 0.3, 0.8])
def test_lambda1_zero_edge_flat(v):
    p = refs.edge_lambda1_zero(FLAT, v)
    assert p.d_side == pytest.approx(VAR / 2 + v, rel=1e-12)
    assert p.d_central == pytest.approx(2 * v, rel=1e-12)
    assert p.rate == pytest.approx(0.25 * math.log(VAR / (2 * v)), rel=1e-12)


def test_edges_at_corner_have_zero_rate():
    assert refs.edge_lambda2_zero(FLAT, VAR).rate == 0.0
    assert refs.edge_lambda1_zero(FLAT, VAR).rate == 0.0


def test_edge_bounds_slack_central_flat():
    # D_C of the lambda2 = 0 point at D_S = ds is s ds / (2 s - ds)
    ds = 0.8
    dc = VAR * ds / (2 * VAR - ds) * 1.05
    eb = refs.edge_bounds(FLAT, ds, dc)
    assert eb.kind == "slack_central"
    assert eb.optimum.rate == pytest.approx(0.5 * math.log(VAR / ds), rel=1e-12)
    assert eb.upper == pytest.approx(eb.optimum.rate, rel=1e-12)


def test_edge_bounds_slack_side_flat():
    # the lambda1 = 0 point with D_C = dc has D_S = s/2 + dc/2
    dc = 0.2
    ds = (VAR / 2 + dc / 2) * 1.05
    eb = refs.edge_bounds(FLAT, ds, dc)
    assert eb.kind == "slack_side"
    assert eb.optimum.rate == pytest.approx(0.25 * math.log(VAR / dc), rel=1e-12)


def test_edge_bounds_equality_flat():
    ds, dc = 0.5, 0.1
    eb = refs.edge_bounds(FLAT, ds, dc)
    assert eb.kind == "equality"
    assert eb.optimum is None
    # both edge points are feasible and bound the Ozarow rate from above
    for p in eb.feasible:
        assert p.d_side <= ds * (1 + 1e-12) and p.d_central <= dc * (1 + 1e-12)
    assert eb.upper >= _ozarow_rate(VAR, ds, dc)


def _ozarow_rate(var, ds, dc):
    """Symmetric white-source MD rate per description, non-degenerate region."""
    d, d0 = ds / var, dc / var
    assert 2 * d - d0 < 1 and d0 < d / (2 - d)
    rate_sum = 0.5 * math.log(1 / d0) + 0.5 * math.log(
        (1 - d0) ** 2 / ((1 - d0) ** 2 - (1 - 2 * d + d0) ** 2)
    )
    return 0.5 * rate_sum


def test_gradient_vanishes_on_lambda2_zero_edge():
    l1 = 0.9
    t = np.full(N, 0.25 / l1)
    g_tp, g_tm, s_tp, s_tm = refs.gradient(FLAT, t, t, l1, 0.0)
    assert np.max(np.abs(g_tp) / s_tp) < 1e-15
    assert np.max(np.abs(g_tm) / s_tm) < 1e-15


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    tm = rng.uniform(0.05, 0.8, 64) * VAR / 2
    tp = tm * rng.uniform(0.1, 0.95, 64)
    S = np.full(64, VAR)
    l1, l2 = 0.7, 1.9
    g_tp, g_tm, _, _ = refs.gradient(S, tp, tm, l1, l2)
    h = 1e-6
    fd_tp = (refs.objective(S, tp + h, tm, l1, l2) - refs.objective(S, tp - h, tm, l1, l2)) / (2 * h)
    fd_tm = (refs.objective(S, tp, tm + h, l1, l2) - refs.objective(S, tp, tm - h, l1, l2)) / (2 * h)
    np.testing.assert_allclose(g_tp, fd_tp, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(g_tm, fd_tm, rtol=1e-6, atol=1e-8)


def test_corner_objective_flat():
    l1, l2 = 0.3, 1.1
    half = FLAT / 2
    np.testing.assert_allclose(
        refs.objective(FLAT, half, half, l1, l2), refs.corner_objective(FLAT, l1, l2), rtol=1e-14
    )
    np.testing.assert_allclose(refs.corner_objective(FLAT, l1, l2), (l1 + l2) * VAR)


def test_mesh_contains_the_corner():
    # tiny multipliers make the corner optimal, and the mesh reaches it exactly
    l1, l2 = 1e-3, 1e-3
    np.testing.assert_allclose(
        refs.mesh_objective_min(FLAT[:8], l1, l2), refs.corner_objective(FLAT[:8], l1, l2), rtol=1e-14
    )


def test_entropy_power_rate_flat():
    tp, tm = np.full(N, 0.2), np.full(N, 0.5)
    want = 0.5 * math.log(VAR / (2 * math.sqrt(0.2 * 0.5)))
    assert refs.entropy_power_rate(FLAT, tp, tm) == pytest.approx(want, rel=1e-12)
