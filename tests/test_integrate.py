import numpy as np
import pytest

from vorfunc.errors import InvalidRegion
from vorfunc.integrate import Box, check_vanishes_on_boundary, mc_integrate, quad_tetra, quad_triangle, sample_box

from conftest import random_triangle

RIGHT = [(0, 0), (1, 0), (0, 1)]
CORNER = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def sq_norm(pts):
    return (pts**2).sum(axis=1)


def test_quad_triangle_quadratic():
    assert quad_triangle(RIGHT, sq_norm) == pytest.approx(1 / 6)


def test_quad_triangle_constant_is_signed_area(rng):
    for _ in range(20):
        v = random_triangle(rng).vertices()
        e1, e2 = v[1] - v[0], v[2] - v[0]
        area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
        assert quad_triangle(v, lambda p: np.ones(len(p))) == pytest.approx(float(area))


def test_quad_triangle_orientation_sign():
    rev = [(0, 0), (0, 1), (1, 0)]
    assert quad_triangle(rev, sq_norm) == pytest.approx(-1 / 6)


def test_quad_triangle_degenerate_is_zero():
    assert quad_triangle([(0, 0), (1, 1), (2, 2)], sq_norm) == 0.0


def test_quad_tetra_constant():
    assert quad_tetra(CORNER, lambda p: np.ones(len(p))) == pytest.approx(1 / 6)


def test_quad_tetra_odd_permutation_negates():
    swapped = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 0)]
    assert quad_tetra(swapped, sq_norm) == pytest.approx(-quad_tetra(CORNER, sq_norm))


def test_quad_tetra_against_mc_oracle():
    exact = quad_tetra(CORNER, sq_norm)
    est = mc_integrate(CORNER, sq_norm, 10**6, seed=42)
    assert abs(exact - est.value) <= 3 * est.std_error
    # Moments of the uniform simplex give 3 * 2/20 * vol = 1/20.
    assert exact == pytest.approx(0.05, rel=1e-12)


def test_mc_constant_over_unit_box():
    est = mc_integrate(Box((0, 0), (1, 1)), lambda p: np.ones(len(p)), 10**4, seed=1)
    assert est.value == pytest.approx(1.0)
    assert est.std_error == 0.0


def test_mc_matches_quad_on_triangle():
    est = mc_integrate(RIGHT, sq_norm, 10**6, seed=7)
    assert abs(est.value - 1 / 6) <= 3 * est.std_error


def test_mc_seed_determinism():
    f = sq_norm
    a = mc_integrate(Box((0, 0), (2, 3)), f, 50_000, seed=99)
    b = mc_integrate(Box((0, 0), (2, 3)), f, 50_000, seed=99)
    assert a == b
    c = mc_integrate(Box((0, 0), (2, 3)), f, 50_000, seed=100)
    assert c.value != a.value


def test_mc_invalid_regions():
    with pytest.raises(InvalidRegion):
        mc_integrate(Box((0, 0), (0, 1)), sq_norm, 10**4, seed=0)
    with pytest.raises(InvalidRegion):
        mc_integrate([(0, 0), (1, 1), (2, 2)], sq_norm, 10**4, seed=0)
    for corners in (np.eye(3), np.eye(4, 2)):
        with pytest.raises(InvalidRegion):
            mc_integrate(corners, sq_norm, 10**4, seed=0)
    with pytest.raises(ValueError):
        mc_integrate(Box((0, 0), (1, 1)), sq_norm, 10, seed=0)


def test_quad_linearity(rng):
    f = sq_norm
    g = lambda p: p[:, 0] * p[:, 1] - 2.0 * p[:, 1]
    for _ in range(50):
        t = random_triangle(rng).vertices()
        alpha, beta = rng.random(2) * 4 - 2
        combo = quad_triangle(t, lambda p: alpha * f(p) + beta * g(p))
        split = alpha * quad_triangle(t, f) + beta * quad_triangle(t, g)
        assert combo == pytest.approx(split, rel=1e-12, abs=1e-15)


def test_quad_vs_mc_random_quadratics(rng):
    # Degree-2 exactness cross-checked against the sampling oracle.
    for _ in range(100):
        t = random_triangle(rng).vertices()
        coef = rng.random(6) * 2 - 1

        def f(p, c=coef):
            x, y = p[:, 0], p[:, 1]
            return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

        exact = quad_triangle(t, f)
        est = mc_integrate(t, f, 10**5, seed=int(rng.integers(2**32)))
        # mc integrates over the region with positive measure; quad is signed.
        area_sign = 1.0 if quad_triangle(t, lambda p: np.ones(len(p))) > 0 else -1.0
        assert abs(exact - area_sign * est.value) <= 3 * est.std_error + 1e-12


def _sample_box_row_major(lo, hi, rng, m):
    """Reference for sample_box: the (d,) box broadcast over (m, d) rows."""
    return lo + rng.random((m, len(lo))) * (hi - lo)


BOXES = [Box((-0.5,), (2.0,)), Box((-1.5, 0.25), (2.0, 3.0)), Box((1e6, -3e-4, 0.0), (1e6 + 7.0, 2e-4, 1.0))]


@pytest.mark.parametrize("box", BOXES)
def test_sample_box_equals_the_row_major_formula(box):
    lo, hi = np.asarray(box.lo, float), np.asarray(box.hi, float)
    got = sample_box(lo, hi, np.random.default_rng(17), 1001)
    assert np.array_equal(got, _sample_box_row_major(lo, hi, np.random.default_rng(17), 1001))


@pytest.mark.parametrize("box", BOXES)
def test_mc_integrate_over_a_box_draws_the_row_major_samples(box):
    # Two streams, the second one short: every sample mc_integrate hands to
    # the integrand is the float the row-major formula gives.
    seen = []

    def f(p):
        seen.append(p.copy())
        return (p * p).sum(axis=1) - p[:, 0]

    samples = (1 << 17) + 2345
    est = mc_integrate(box, f, samples, seed=29)
    lo, hi = np.asarray(box.lo, float), np.asarray(box.hi, float)
    want = [
        _sample_box_row_major(lo, hi, np.random.default_rng(np.random.SeedSequence(29, spawn_key=(i,))), m)
        for i, m in enumerate((1 << 17, 2345))
    ]
    assert len(seen) == 2 and all(np.array_equal(a, b) for a, b in zip(seen, want))
    vals = np.concatenate([f(p) for p in want])
    assert est.value == box.measure() * ((float(vals[: 1 << 17].sum()) + float(vals[1 << 17 :].sum())) / samples)


@pytest.mark.parametrize("bad", [np.nan, 1e-300, -1e-300])
def test_boundary_check_accepts_only_exact_zeros(bad):
    box = Box((0.0, 0.0), (1.0, 1.0))
    check_vanishes_on_boundary(lambda p: np.zeros(len(p)), box)

    def field(p):
        out = np.zeros(len(p))
        out[100] = bad
        return out

    with pytest.raises(InvalidRegion, match="does not vanish"):
        check_vanishes_on_boundary(field, box)
