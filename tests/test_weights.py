from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as nppoly

import weighted_tubes
from weighted_tubes import (
    ChebyshevWeight,
    CircleArcCurve,
    ConstantWeight,
    CosineWeight,
    FourierWeight,
    NonpositiveWeightError,
    OffsetWeight,
    PolynomialWeight,
    SymmetricPiecewiseWeight,
    build_weight,
    make_stadium,
)
from weighted_tubes.weights import WEIGHT_KINDS, _horner


class TestEvaluation:
    def test_cosine_values(self):
        # cos(s/2) at s = 0: (1, 0, -1/4).
        w = CosineWeight()
        mu, d1, d2 = w.jet(0.0, 2)
        assert (mu, d1, d2) == (1.0, 0.0, -0.25)

    def test_constant(self):
        w = ConstantWeight(0.7)
        assert w.jet(3.0, 2) == (0.7, 0.0, 0.0)

    def test_polynomial_values(self):
        # 1 - s^2/8 at s = 1: (7/8, -1/4, -1/4).
        w = PolynomialWeight([1.0, 0.0, -0.125])
        mu, d1, d2 = w.jet(1.0, 2)
        assert (mu, d1, d2) == (0.875, -0.25, -0.25)

    def test_offset_shifts_value_only(self):
        base = PolynomialWeight([1.0, 0.0, -0.125])
        w = OffsetWeight(base, 0.05)
        assert w.mu(1.0) == pytest.approx(0.925)
        assert w.d1(1.0) == base.d1(1.0)
        assert w.d2(1.0) == base.d2(1.0)
        assert w.jet(1.0, 3)[3] == base.jet(1.0, 3)[3]

    def test_gradient_magnitude_matches_slope(self):
        # |mu'| is the only orientation-invariant part of the gradient.
        w = CosineWeight()
        s = np.linspace(-1.5, 1.5, 11)
        assert np.allclose(np.abs(w.d1(s)), np.abs(np.sin(s / 2) / 2))


# One parameter set per weight kind, built on the stadium (its length is
# the blend's and the Fourier weight's period, its domain the Chebyshev's).
KIND_PARAMS = {
    "constant": {"value": 0.7},
    "polynomial": {"coefficients": [1.0, 0.1, -0.05, 0.01]},
    "cosine": {"amplitude": 0.3, "frequency": 0.5, "phase": 0.2, "offset": 1.0},
    "fourier": {"coefficients": [1.5, 0.2, 0.1, 0.05, -0.03]},
    "chebyshev": {"coefficients": [1.0, 0.2, -0.1, 0.05]},
    "stadium_blend": {},
}


@pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
@pytest.mark.parametrize("offset", [False, True])
def test_jet_form_is_fixed_by_the_base(kind, offset):
    # Every kind, and an offset of it, gives np.float64 for a scalar foot
    # and float64 arrays of the feet's shape for array feet.
    assert set(KIND_PARAMS) == set(WEIGHT_KINDS)
    weight = build_weight(kind, curve=make_stadium(), **KIND_PARAMS[kind])
    if offset:
        weight = OffsetWeight(weight, -0.05)
    for s in (1, 0.3, np.float32(0.3), np.array(2.5), -4.0):
        for order in range(4):
            rows = weight.jet(s, order)
            assert len(rows) == order + 1
            assert all(type(x) is np.float64 for x in rows), (s, order, [type(x) for x in rows])
    for s in ([0.3, 1.0], np.arange(6).reshape(2, 3), np.linspace(-3.0, 3.0, 5), np.empty(0)):
        for order in range(4):
            rows = weight.jet(s, order)
            assert len(rows) == order + 1
            for x in rows:
                assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == np.shape(s)
    # A scalar foot gives the values of the one-element array.
    np.testing.assert_array_equal(weight.jet(0.3, 3), [x[0] for x in weight.jet([0.3], 3)])
    with pytest.raises(ValueError, match="order 4"):
        weight.jet(0.3, 4)


class TestValidation:
    def test_nonpositive_rejected(self):
        arc = CircleArcCurve(-1.0, 1.0)
        with pytest.raises(NonpositiveWeightError):
            PolynomialWeight([0.1, 0.0, -1.0]).validate_on(arc)

    def test_positive_accepted(self):
        arc = CircleArcCurve(-1.0, 1.0)
        PolynomialWeight([1.0, 0.0, -0.125]).validate_on(arc)

    def test_weight_whose_square_underflows_rejected(self):
        # 2^-511 squares to the smallest normal float; the next float down
        # squares to a subnormal, and so does a weight that dips below it.
        arc = CircleArcCurve(-1.0, 1.0)
        ConstantWeight(2.0**-511).validate_on(arc)
        with pytest.raises(NonpositiveWeightError, match=r"square underflows; min 1\.4916681462400412e-154 near s=-1"):
            ConstantWeight(np.nextafter(2.0**-511, 0.0)).validate_on(arc)
        with pytest.raises(NonpositiveWeightError, match=r"near s=-0\.000244200244200243\d* is below 2\^-511"):
            PolynomialWeight([1e-160, 0.0, 1e-150]).validate_on(arc)

    def test_constant_must_be_positive(self):
        with pytest.raises(NonpositiveWeightError):
            ConstantWeight(0.0)


class TestDerivativeConsistency:
    @pytest.mark.parametrize(
        "weight,period",
        [
            (CosineWeight(), 2 * np.pi),
            (PolynomialWeight([1.0, 0.1, -0.05, 0.01]), 2.0),
            (FourierWeight([1.5, 0.2, 0.1, 0.05, 0.0], 2 * np.pi), 2 * np.pi),
            (ChebyshevWeight([1.0, 0.2, -0.1, 0.05], (-1.0, 1.0)), 2.0),
        ],
    )
    def test_series_derivatives_match_fd(self, weight, period):
        s = np.linspace(-0.9, 0.9, 101)

        def gap(exact, fd):
            return float(np.max(np.abs(exact - fd) / np.maximum(1.0, np.abs(exact))))

        h = 1e-5 * period
        mu, d1, d2 = weight.jet(s, 2)
        assert gap(d1, (weight.mu(s + h) - weight.mu(s - h)) / (2.0 * h)) <= 1e-6
        # Second differences at h = 1e-5 L sit at the roundoff floor
        # (eps / h^2); a slightly larger step keeps the check meaningful.
        h = 1e-4 * period
        fd2 = (weight.mu(s + h) - 2.0 * mu + weight.mu(s - h)) / h**2
        assert gap(d2, fd2) <= 1e-6


@pytest.fixture(scope="module")
def blend():
    curve = make_stadium()
    return curve, SymmetricPiecewiseWeight(curve.length, 0.4, 0.8, 6.0, 0.2)


class TestStadiumBlend:

    def test_cos_section_exact(self, blend):
        # Exact up to the one-ulp cost of the periodic fold.
        _, w = blend
        s = np.linspace(-0.4, 0.4, 33)
        assert np.max(np.abs(w.mu(s) - np.cos(s / 2))) <= 1e-13
        assert np.max(np.abs(w.d2(s) + np.cos(s / 2) / 4)) <= 1e-13

    def test_even_and_periodic(self, blend):
        curve, w = blend
        s = np.linspace(0.1, curve.length / 2 - 0.1, 41)
        assert np.allclose(w.mu(-s), w.mu(s), atol=1e-14)
        assert np.allclose(w.d1(-s), -w.d1(s), atol=1e-14)
        assert np.allclose(w.mu(s + curve.length), w.mu(s), atol=1e-14)

    def test_c3_at_joints(self, blend):
        curve, w = blend
        h = 1e-7
        joints = [0.4, 1.2, 1.2 + 1.2, 7.2 - 1.2, 7.2, curve.length / 2]
        for u in joints:
            for d in (w.mu, w.d1, w.d2, lambda s: w.jet(s, 3)[3]):
                assert abs(float(d(u - h)) - float(d(u + h))) <= 1e-5, (u, d)

    @pytest.mark.parametrize("start", [1.2000000000000002, 2.4000000000000004, 6.0])
    def test_piece_start_is_evaluated(self, blend, start):
        # A foot exactly on an interior piece start was in no piece's open
        # mask and returned uninitialised memory (mu = 1.2 at the first
        # start, where mu is 0.846). Its jet now matches the jet one ulp
        # inside the piece, as the C^3 weight makes it.
        curve, w = blend
        assert start in [lo for lo, _, _ in w._pieces]
        inside = np.nextafter(start, np.inf)
        for s, s_in in ((start, inside), (curve.length - start, curve.length - inside)):
            at, near = w.jet(np.array([s, s_in]), 3), w.jet(s_in, 3)
            assert np.allclose([x[0] for x in at], near, rtol=0.0, atol=1e-12)
            assert [float(x) for x in w.jet(s, 3)] == [x[0] for x in at]

    def test_slope_lands_at_zero(self, blend):
        _, w = blend
        # The braking stage's slope at its end, from its own polynomial.
        lo, hi, coeffs = w._pieces[-1]
        assert abs(float(np.polynomial.polynomial.polyval(hi - lo, coeffs[1]))) <= 1e-14
        assert w.d1(7.2) == 0.0
        assert w.mu(10.0) == pytest.approx(w.plateau)

    def test_positive_throughout(self, blend):
        curve, w = blend
        s = curve.grid(4096)
        assert float(np.min(w.mu(s))) > 0.25


def horner_feet(size, seed):
    """size feet: every special value first (negative, -0.0, +-inf), then
    uniform noise on [-4, 4]."""
    special = np.array([-0.0, -1.5, np.inf, 0.0, -np.inf, -3.0, 2.0, -1e-300])
    rng = np.random.default_rng(seed)
    return np.concatenate([special, rng.uniform(-4.0, 4.0, max(size - len(special), 0))])[:size]


class TestHorner:
    ROWS = [[0.0], [2.0], [-0.0, 1.0], [1.0, 0.1, -0.05, 0.01], [0.3, -2.0, 0.0, 1e-3, -7.0, 0.25, 3.0, -0.5]]

    @pytest.mark.parametrize("size", [0, 1, 17, 4096])
    @np.errstate(invalid="ignore")  # inf * 0 at the infinite feet
    def test_polyval_bits(self, size):
        # One row at every foot, padded or not, and one row per foot (the
        # gathered tables) all give nppoly.polyval's bytes, nan included.
        x = horner_feet(size, size)
        for row in self.ROWS:
            c = np.array(row)
            want = nppoly.polyval(x, c)
            assert _horner(x, c).tobytes() == want.tobytes(), row
            assert _horner(x, np.r_[c, 0.0, 0.0, 0.0]).tobytes() == want.tobytes(), row
        table = np.zeros((8, 3))
        for j, row in enumerate(self.ROWS[2:]):
            table[:len(row), j] = row
        piece = np.random.default_rng(size).integers(0, 3, size)
        want = [nppoly.polyval(x[k], table[:, piece[k]]) for k in range(size)]
        assert _horner(x, table[:, piece]).tobytes() == np.array(want, dtype=float).tobytes()

    def test_scalar_foot(self):
        for row in self.ROWS:
            for x in (-0.0, -2.5, 1.75):
                got, want = _horner(x, np.array(row)), nppoly.polyval(x, np.array(row))
                assert type(got) is type(want) and got.tobytes() == want.tobytes()

    def test_no_polyval_in_the_package(self):
        # Every polynomial in the package is evaluated by the one helper.
        for path in Path(weighted_tubes.__file__).parent.glob("*.py"):
            assert "polyval(" not in path.read_text(), path.name


class TestFactory:
    def test_build_weight_kinds(self):
        arc = CircleArcCurve(-1.0, 1.0)
        w = build_weight("polynomial", coefficients=[1.0, 0.0, -0.125])
        assert w.mu(1.0) == 0.875
        w = build_weight("cosine", frequency=0.5)
        assert w.mu(0.0) == 1.0
        w = build_weight("chebyshev", curve=arc, coefficients=[1.0, 0.0, 0.1])
        assert w.mu(0.0) == pytest.approx(0.9)

    def test_unknown_kind(self):
        with pytest.raises(NonpositiveWeightError):
            build_weight("nope")
