"""Curve and weight jets against per-order oracles.

The oracles below are the per-order evaluators the jets replaced, copied
formula for formula (one derivative order per call, each with its own
arclength inversion or piece lookup). Every jet entry must equal them bit
for bit, on scalar and array feet, and scalar feet keep their return types.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from weighted_tubes import (
    ChebyshevCurve,
    ChebyshevWeight,
    CircleArcCurve,
    ConstantWeight,
    CosineWeight,
    EllipseCurve,
    FourierCurve,
    FourierWeight,
    OffsetWeight,
    PolynomialWeight,
    SegmentCurve,
    SymmetricPiecewiseWeight,
    make_stadium,
)
from weighted_tubes.curves import CurvatureProfileCurve, _RawCurve
from weighted_tubes.util import gauss_legendre, quintic_smoothstep, quintic_smoothstep_d1

from oracles import fourier_weight_jet, profile_advance


# ---------------------------------------------------------------------------
# Per-order curve oracles
# ---------------------------------------------------------------------------


def _circle_order(s, order, dim):
    out = np.zeros(s.shape + (dim,))
    c, si = np.cos(s), np.sin(s)
    out[..., 0], out[..., 1] = ((c, si), (-si, c), (-c, -si), (si, -c))[order]
    return out


def _segment_order(curve, s, order):
    out = np.zeros(s.shape + (curve.ambient_dim,))
    if order == 0:
        out[:] = curve._a + s[..., None] * curve._dir
    elif order == 1:
        out[:] = curve._dir
    return out


def _raw_order(curve, s, order):
    t = curve.t_of_s(s - curve.s_min)
    if order == 0:
        return curve._raw_orders(t, (0,))[0]
    g1, *higher = curve._raw_orders(t, range(1, order + 1))
    speed = np.linalg.norm(g1, axis=-1)
    inv = 1.0 / speed
    if order == 1:
        return g1 * inv[..., None]
    g2 = higher[0]
    sp1 = np.sum(g1 * g2, axis=-1) * inv
    t1 = inv
    t2 = -sp1 * inv**3
    if order == 2:
        return g2 * (t1**2)[..., None] + g1 * t2[..., None]
    g3 = higher[1]
    sp2 = (np.sum(g2 * g2, axis=-1) + np.sum(g1 * g3, axis=-1)) * inv - sp1**2 * inv
    t3 = (-sp2 * inv**4 + 3.0 * sp1**2 * inv**5)
    return g3 * (t1**3)[..., None] + 3.0 * g2 * (t1 * t2)[..., None] + g1 * t3[..., None]


def _profile_half_order(curve, s, order):
    idx = curve._piece_index(s)
    out = np.zeros(s.shape + (2,))
    for j, p in enumerate(curve._pieces):
        m = idx == j
        if not np.any(m):
            continue
        sj = s[m]
        th = p.theta0 + curve._theta_local(p, sj)
        if order == 0:
            if p.kind == "const" and p.k0 == 0.0:
                ds = sj - p.s0
                x = p.x0 + ds * np.cos(p.theta0)
                y = p.y0 + ds * np.sin(p.theta0)
            elif p.kind == "const":
                k = p.k0
                x = p.x0 + (np.sin(th) - np.sin(p.theta0)) / k
                y = p.y0 + (-np.cos(th) + np.cos(p.theta0)) / k
            else:
                nodes, wts = gauss_legendre(curve._GL_N)
                h = sj - p.s0
                ss = p.s0 + h[:, None] * nodes[None, :]
                tt = p.theta0 + curve._theta_local(p, ss)
                x = p.x0 + (np.cos(tt) * wts[None, :]).sum(axis=1) * h
                y = p.y0 + (np.sin(tt) * wts[None, :]).sum(axis=1) * h
            out[m, 0], out[m, 1] = x, y
        elif order == 1:
            out[m, 0], out[m, 1] = np.cos(th), np.sin(th)
        elif order == 2:
            k = curve._kappa_local(p, sj)
            out[m, 0], out[m, 1] = -k * np.sin(th), k * np.cos(th)
        else:
            k = curve._kappa_local(p, sj)
            kr = curve._kappa_rate_local(p, sj)
            out[m, 0] = -kr * np.sin(th) - k * k * np.cos(th)
            out[m, 1] = kr * np.cos(th) - k * k * np.sin(th)
    return out


def _profile_order(curve, s, order):
    half = curve.length / 2.0
    hi = s > half
    out = _profile_half_order(curve, np.where(hi, curve.length - s, s), order)
    sign_y = np.where(hi, -1.0, 1.0)
    sign_all = np.where(hi & (order % 2 == 1), -1.0, 1.0)
    out = out * sign_all[..., None]
    out[..., 1] *= sign_y
    return out


def curve_order(curve, s, order):
    """The per-order evaluator: wrap, evaluate one order, strip a scalar's axis."""
    s = curve.wrap(s)
    s1 = np.atleast_1d(s)
    if isinstance(curve, CircleArcCurve):
        out = _circle_order(s1, order, curve.ambient_dim)
    elif isinstance(curve, SegmentCurve):
        out = _segment_order(curve, s1, order)
    elif isinstance(curve, _RawCurve):
        out = _raw_order(curve, s1, order)
    else:
        assert isinstance(curve, CurvatureProfileCurve)
        out = _profile_order(curve, s1, order)
    return out[0] if s.ndim == 0 else out


def wobbly_3d():
    return FourierCurve(
        [[0.0, 1.0, 0.0, 0.05, 0.02], [0.0, 0.0, 1.0, -0.03, 0.04], [0.0, 0.0, 0.0, 0.15, 0.1]]
    )


CURVES = [
    ("circle", lambda: CircleArcCurve(0, 2 * np.pi, closed=True)),
    ("arc_3d", lambda: CircleArcCurve(-1.0, 2.0, ambient_dim=3)),
    ("segment", lambda: SegmentCurve([0.0, 1.0, 0.0], [3.0, 4.0, 1.0])),
    ("ellipse", lambda: EllipseCurve(2, 1)),
    ("fourier_3d", wobbly_3d),
    ("cheb", lambda: ChebyshevCurve([[0.0, 1.0, 0.1, 0.02], [0.0, 0.2, 0.5, 0.03]], (-1.0, 2.0))),
    ("stadium", make_stadium),
]


def _feet(curve, count=301):
    rng = np.random.default_rng(7)
    s = rng.uniform(curve.s_min, curve.s_max, count)
    if curve.closed:
        s = np.concatenate([s, [curve.s_min, curve.s_max, curve.s_max + 0.3, curve.s_min - 0.7]])
    else:
        s = np.concatenate([s, [curve.s_min, curve.s_max]])
    return s


@pytest.mark.parametrize("name,make", CURVES, ids=[c[0] for c in CURVES])
def test_curve_jet_equals_per_order_evaluators(name, make):
    curve = make()
    s = _feet(curve)
    jet = curve.jet(s, 3)
    for order in range(4):
        np.testing.assert_array_equal(jet[order], curve_order(curve, s, order), err_msg=f"order {order}")
        np.testing.assert_array_equal(curve.jet(s, order)[order], jet[order])
    named = (curve.point, curve.tangent, curve.second_derivative, lambda s: curve.jet(s, 3)[3])
    for order, reader in enumerate(named):
        np.testing.assert_array_equal(reader(s), jet[order])
    np.testing.assert_array_equal(curve.curvature(s), np.linalg.norm(jet[2], axis=-1))
    for x in s[::37]:
        rows = curve.jet(float(x), 3)
        for order in range(4):
            old = curve_order(curve, float(x), order)
            assert type(rows[order]) is type(old) and rows[order].shape == (curve.ambient_dim,)
            np.testing.assert_array_equal(rows[order], old)


def test_curve_jet_order_above_three_rejected():
    with pytest.raises(ValueError):
        CircleArcCurve().jet(0.0, 4)


# ---------------------------------------------------------------------------
# The Fourier evaluator against its per-coordinate form, and the speed that
# comes back with the arclength
# ---------------------------------------------------------------------------


def _fourier_raw_orders(coeffs, omega, t, orders):
    """The per-coordinate evaluator the broadcast one replaced: one
    accumulator per coordinate and order, its own modes added in order."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    kmax = max((c.size - 1) // 2 for c in coeffs)
    trig = []
    for k in range(1, kmax + 1):
        ph = (k * omega) * t
        trig.append((np.cos(ph), np.sin(ph)))
    outs = []
    for order in orders:
        out = np.zeros(t.shape + (len(coeffs),))
        for i, c in enumerate(coeffs):
            acc = np.zeros_like(t)
            if order == 0:
                acc += c[0]
            for k in range(1, (c.size - 1) // 2 + 1):
                ak, bk = c[2 * k - 1], c[2 * k]
                cos, sin = trig[k - 1]
                fac = (k * omega) ** order
                if order % 4 == 0:
                    acc += fac * (ak * cos + bk * sin)
                elif order % 4 == 1:
                    acc += fac * (-ak * sin + bk * cos)
                elif order % 4 == 2:
                    acc += fac * (-ak * cos - bk * sin)
                else:
                    acc += fac * (ak * sin - bk * cos)
            out[..., i] = acc
        outs.append(out)
    return outs


# The 2D, 3D and 4D curves of test_expmap.py (the 4D one carries two, two,
# one and two modes on its coordinates), and a planar curve with four and three
# modes on a period other than 2 pi, whose factors (k w)^order are inexact.
RAW_FOURIER = [
    ("planar", [[2.5, 0.6, 0.0], [0.3, 0.0, 0.6]], 2.0 * np.pi),
    ("3d", [[0.0, 1.0, 0.0, 0.2, 0.1], [0.0, 0.0, 1.0, -0.1, 0.2], [0.0, 0.3, 0.1, 0.0, 0.25]], 2.0 * np.pi),
    ("4d", [[0.0, 1.0, 0.0, 0.1, 0.0], [0.0, 0.0, 1.0, 0.0, 0.1], [0.2, 0.3, 0.1],
            [0.0, 0.0, 0.4, 0.2, 0.0]], 2.0 * np.pi),
    ("planar_period_3", [[0.1, 1.0, 0.0, 0.02, -0.01, 0.004, 0.003, -0.002, 0.001],
                         [-0.2, 0.0, 1.0, -0.015, 0.01, 0.003, -0.004]], 3.0),
]


@pytest.mark.parametrize("name,coeffs,period", RAW_FOURIER, ids=[c[0] for c in RAW_FOURIER])
def test_fourier_raw_orders_equal_per_coordinate_form(name, coeffs, period):
    # Bit for bit, signed zeros included (t = 0 and -0 make exact zeros),
    # and C-contiguous: reductions over the last axis depend on the layout.
    curve = FourierCurve(coeffs, period=period)
    rng = np.random.default_rng(11)
    feet = [rng.uniform(-1.0, 8.0, 500), rng.uniform(0.0, 7.0, (4, 3)), 0.7, 0.0, -0.0,
            np.array([0.0, -0.0, np.pi, 2.0 * np.pi])]
    for t in feet:
        new = curve._raw_orders(t, range(4))
        old = _fourier_raw_orders([np.asarray(c, dtype=float) for c in coeffs], curve._series.omega, t, range(4))
        for order in range(4):
            assert new[order].shape == old[order].shape and new[order].flags.c_contiguous
            np.testing.assert_array_equal(new[order].view(np.uint64), old[order].view(np.uint64),
                                          err_msg=f"order {order}")
            np.testing.assert_array_equal(curve._raw(t, order).view(np.uint64), new[order].view(np.uint64))


RAW_CURVES = [
    ("ellipse", lambda: EllipseCurve(2, 1)),
    ("fourier_3d", wobbly_3d),
    ("fourier_4d", lambda: FourierCurve(RAW_FOURIER[2][1])),
    ("cheb", lambda: ChebyshevCurve([[0.0, 1.0, 0.1, 0.02], [0.0, 0.2, 0.5, 0.03]], (-1.0, 2.0))),
]


@pytest.mark.parametrize("name,make", RAW_CURVES, ids=[c[0] for c in RAW_CURVES])
def test_s_of_t_speed_is_the_raw_speed(name, make):
    curve = make()
    rng = np.random.default_rng(12)
    t = np.concatenate([rng.uniform(curve._t0, curve._t1, 2000), curve._t_grid])
    _, speed = curve._s_of_t(t)
    np.testing.assert_array_equal(speed.view(np.uint64),
                                  np.linalg.norm(curve._raw(t, 1), axis=-1).view(np.uint64))


# ---------------------------------------------------------------------------
# Per-order weight oracles
# ---------------------------------------------------------------------------


def _fourier_weight_order(coeffs, omega, s, order):
    s = np.asarray(s, dtype=float)
    acc = np.zeros_like(s, dtype=float)
    if order == 0:
        acc = acc + coeffs[0]
    for k in range(1, (coeffs.size - 1) // 2 + 1):
        ak, bk = coeffs[2 * k - 1], coeffs[2 * k]
        w = k * omega
        ph = w * s
        fac = w**order
        if order % 4 == 0:
            acc = acc + fac * (ak * np.cos(ph) + bk * np.sin(ph))
        elif order % 4 == 1:
            acc = acc + fac * (-ak * np.sin(ph) + bk * np.cos(ph))
        elif order % 4 == 2:
            acc = acc + fac * (-ak * np.cos(ph) - bk * np.sin(ph))
        else:
            acc = acc + fac * (ak * np.sin(ph) - bk * np.cos(ph))
    return acc


def _blend_order(w, s, order):
    u, sign = w._fold(s)
    out = np.empty_like(u)
    m_cos = u <= w.u1
    m_flat = u >= w.u2
    if np.any(m_cos):
        ph = u[m_cos] / 2.0
        val = (np.cos(ph), -np.sin(ph), -np.cos(ph), np.sin(ph))[order]
        out[m_cos] = 0.5**order * val
    out[m_flat] = w.plateau if order == 0 else 0.0
    for lo, hi, coeffs in w._pieces:
        m = (u > lo) & (u < hi) & ~m_cos & ~m_flat
        if not np.any(m):
            continue
        out[m] = nppoly.polyval(u[m] - lo, coeffs[order])
    if order % 2 == 1:
        out = out * sign
    return out


def _cosine_order(w, s, order):
    ph = w.frequency * np.asarray(s, dtype=float) + w.phase
    if order == 0:
        return w.amplitude * np.cos(ph) + w.offset
    if order == 1:
        return -w.amplitude * w.frequency * np.sin(ph)
    if order == 2:
        return -w.amplitude * w.frequency**2 * np.cos(ph)
    return w.amplitude * w.frequency**3 * np.sin(ph)


def _constant_order(value, s, order):
    if order == 0:
        return np.full(np.shape(s), value, dtype=float) if np.ndim(s) else value
    return np.zeros(np.shape(s)) if np.ndim(s) else 0.0


POLY = [1.0, 0.1, -0.05, 0.01]
FOURIER = ([1.5, 0.2, 0.1, 0.05, -0.03, 0.01, 0.02], 7.0)
CHEB = ([1.0, 0.2, -0.1, 0.05], (-1.0, 2.0))


def _stadium_blend():
    curve = make_stadium()
    return SymmetricPiecewiseWeight(curve.length, 0.4, 0.8, 6.0, 0.2)


WEIGHTS = [
    ("constant", lambda: ConstantWeight(0.7), lambda s, k: _constant_order(0.7, s, k)),
    ("polynomial", lambda: PolynomialWeight(POLY),
     lambda s, k: nppoly.polyval(s, nppoly.polyder(np.asarray(POLY), k) if k else np.asarray(POLY))),
    ("cosine", lambda: CosineWeight(1.3, 0.5, 0.2, 0.1),
     lambda s, k: _cosine_order(CosineWeight(1.3, 0.5, 0.2, 0.1), s, k)),
    ("fourier", lambda: FourierWeight(*FOURIER),
     lambda s, k: _fourier_weight_order(np.asarray(FOURIER[0]), 2.0 * np.pi / FOURIER[1], s, k)),
    ("chebyshev", lambda: ChebyshevWeight(*CHEB),
     lambda s, k: npcheb.Chebyshev(np.asarray(CHEB[0]), domain=list(CHEB[1])).deriv(k)(
         np.asarray(s, dtype=float))),
    ("offset", lambda: OffsetWeight(FourierWeight(*FOURIER), -0.05),
     lambda s, k: _fourier_weight_order(np.asarray(FOURIER[0]), 2.0 * np.pi / FOURIER[1], s, k)
     + (-0.05 if k == 0 else 0.0)),
    ("stadium_blend", _stadium_blend, lambda s, k: _blend_order(_stadium_blend(), s, k)),
]


@pytest.mark.parametrize("name,make,oracle", WEIGHTS, ids=[w[0] for w in WEIGHTS])
def test_weight_jet_equals_per_order_evaluators(name, make, oracle):
    weight = make()
    rng = np.random.default_rng(11)
    s = np.concatenate([rng.uniform(-1.0, 2.0, 200), rng.uniform(-30.0, 30.0, 200), [0.0, 0.4, 7.2]])
    jet = weight.jet(s, 3)
    named = (weight.mu, weight.d1, weight.d2, lambda s: weight.jet(s, 3)[3])
    for order in range(4):
        np.testing.assert_array_equal(jet[order], oracle(s, order), err_msg=f"order {order}")
        np.testing.assert_array_equal(weight.jet(s, order)[order], jet[order])
        np.testing.assert_array_equal(named[order](s), jet[order])
    for x in (0.0, 0.37, 1.5, -0.8, 7.2, 12.0):
        rows = weight.jet(x, 3)
        for order in range(4):
            old = oracle(x, order)
            assert type(rows[order]) is type(old), (order, type(rows[order]), type(old))
            assert rows[order] == old


# ---------------------------------------------------------------------------
# One series code for curves and weights, one piece evaluator for the stadium
# ---------------------------------------------------------------------------


def test_fourier_weight_jet_is_its_per_mode_formula():
    # The weight evaluates through the curves' series code; the bits are
    # those of the weight's own loop, and a scalar foot still gives scalars.
    rng = np.random.default_rng(17)
    for _ in range(200):
        coeffs = rng.normal(0.0, 0.3, 2 * int(rng.integers(1, 9)) + 1)
        period = float(rng.uniform(0.5, 20.0))
        weight = FourierWeight(coeffs, period)
        for shape in [(1000,), (7,), (3, 5)]:
            s = rng.uniform(-30.0, 30.0, shape)
            for order in range(4):
                got, want = weight.jet(s, order), fourier_weight_jet(coeffs, period, s, order)
                assert len(got) == order + 1
                for x, y in zip(got, want):
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()
        for x in (0.0, -0.0, 1.3):
            for got, want in zip(weight.jet(x, 3), fourier_weight_jet(coeffs, period, x, 3)):
                assert type(got) is type(want) is np.float64
                assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_series_weights_are_curve_coordinates():
    # A weight is a one-coordinate series: its jet in its own parameter is
    # the matching coordinate of a series curve's raw derivatives, bit for bit.
    t = np.random.default_rng(18).uniform(-1.0, 2.0, 300)
    fourier = [[0.3, 0.2, -0.1, 0.05, 0.02], [1.5, 0.2, 0.1, 0.05, -0.03, 0.01, 0.02]]
    cheb = [[0.0, 1.0, 0.1], [1.0, 0.2, -0.1, 0.05]]
    for curve, weight in (
        (FourierCurve(fourier, period=7.0), FourierWeight(fourier[1], 7.0)),
        (ChebyshevCurve(cheb, (-1.0, 2.0)), ChebyshevWeight(cheb[1], (-1.0, 2.0))),
    ):
        raw = curve._raw_orders(t, range(4))
        for order, x in enumerate(weight.jet(t, 3)):
            assert x.tobytes() == np.ascontiguousarray(raw[order][:, 1]).tobytes()


@pytest.mark.parametrize("params", [
    {}, {"circle_turn": 0.5, "transition": 0.1, "line_length": 3.0},
    {"circle_turn": 0.2, "transition": 0.02, "line_length": 11.0},
])
def test_stadium_piece_end_states_are_the_advance(params):
    # The constructor takes each piece's end state from the piece evaluator
    # that the jets use; it is the state the per-piece advance gave.
    curve = make_stadium(**params)
    pieces = curve._pieces
    ends = [(p.x0, p.y0, p.theta0) for p in pieces[1:]] + [curve._end_state]
    for p, end in zip(pieces, ends):
        dx, dy, dth = profile_advance(curve, p, p.s1)
        want = np.array([p.x0 + dx, p.y0 + dy, p.theta0 + dth])
        assert np.array(end).tobytes() == want.tobytes()
