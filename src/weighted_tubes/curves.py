"""Curves in R^n reparametrized by arclength, with exact first three derivatives.

Closed components use truncated Fourier series in the raw parameter,
open arcs use Chebyshev series, and a few analytic presets (unit circle,
circle arcs, ellipses, and a smoothed stadium built from a curvature
profile) are evaluated in closed form. All derivatives come from series
or closed-form differentiation, never finite differences, so curvature
and the third derivative are trustworthy at machine precision.
"""

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import NonRegularCurveError, OutOfDomainError, QuadratureFailureError
from .util import (
    brent_rows,
    gauss_legendre,
    quintic_smoothstep,
    quintic_smoothstep_d1,
    quintic_smoothstep_int,
)


class ArclengthCurve:
    """A single C^3 component parametrized by arclength.

    Subclasses implement `_jet(s, order)` on arrays of in-domain,
    already-wrapped arclength values. `jet` accepts scalars or arrays,
    wraps closed components periodically and rejects out-of-domain values
    on open arcs; the named evaluators read one jet each.
    """

    def __init__(self, ambient_dim, length, closed, s_min):
        self.ambient_dim = int(ambient_dim)
        self.length = float(length)
        self.closed = bool(closed)
        self.s_min = float(s_min)
        if not (np.isfinite(self.s_min) and 0.0 < self.length < np.inf):
            raise NonRegularCurveError(f"domain needs a finite start and a finite length > 0, "
                                       f"got s_min={self.s_min}, length={self.length}")
        self.s_max = self.s_min + self.length
        self.kappa_tol = 1e-9 / self.length

    # -- domain handling ---------------------------------------------------

    def wrap(self, s):
        """Map s into the fundamental domain (periodically for closed curves)."""
        s = np.asarray(s, dtype=float)
        if self.closed:
            return self.s_min + np.mod(s - self.s_min, self.length)
        lo, hi = self.s_min, self.s_max
        tol = 1e-9 * self.length
        if np.any(s < lo - tol) or np.any(s > hi + tol):
            raise OutOfDomainError(
                f"s outside [{lo}, {hi}] for open arc (got range "
                f"[{float(np.min(s))}, {float(np.max(s))}])"
            )
        return np.clip(s, lo, hi)

    def grid(self, n):
        """n arclength samples: uniform without endpoint duplication when closed,
        endpoints included for open arcs."""
        if self.closed:
            return self.s_min + self.length * np.arange(n) / n
        return np.linspace(self.s_min, self.s_max, n)

    def periodic_distance(self, s1, s2):
        d = np.abs(np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float))
        if self.closed:
            d = np.minimum(d, self.length - np.mod(d, self.length))
            d = np.abs(d)
        return d

    # -- evaluation --------------------------------------------------------

    def jet(self, s, order):
        """(gamma, gamma', ..., gamma^(order)) at s, for order <= 3.

        s is wrapped once and every order comes from one pass over it (one
        arclength inversion, one piece lookup). A scalar s gives rows with
        no leading axis.
        """
        if order > 3:
            raise ValueError(f"order {order}")
        s = self.wrap(s)
        out = self._jet(np.atleast_1d(s), order)
        return tuple(x[0] for x in out) if s.ndim == 0 else out

    def _jet(self, s, order):
        raise NotImplementedError

    def point(self, s):
        return self.jet(s, 0)[0]

    def tangent(self, s):
        return self.jet(s, 1)[1]

    def second_derivative(self, s):
        return self.jet(s, 2)[2]

    def curvature(self, s):
        return np.linalg.norm(self.jet(s, 2)[2], axis=-1)


def _kappa_rate(jet, kappa_tol):
    """d(kappa)/ds from a jet of order 3; 0 where kappa <= kappa_tol."""
    d2, d3 = jet[2], jet[3]
    kap = np.linalg.norm(d2, axis=-1)
    dot = np.sum(d2 * d3, axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(kap > kappa_tol, dot / np.where(kap > 0, kap, 1.0), 0.0)


def collapse_ode_residual(jet):
    """|gamma''' + kappa^2 gamma'| from a jet of order 3 (`curve.jet(s, 3)`);
    zero exactly on circular arcs."""
    _, t, d2, d3 = jet
    kap = np.linalg.norm(d2, axis=-1)
    res = d3 + (np.asarray(kap)[..., None] ** 2) * t
    return np.linalg.norm(res, axis=-1)


# ---------------------------------------------------------------------------
# Analytic presets
# ---------------------------------------------------------------------------


class CircleArcCurve(ArclengthCurve):
    """Arc (or full loop) of the unit circle in the x1-x2 plane of R^n.

    Already arclength-parametrized, so all derivatives are exact trig.
    """

    def __init__(self, s_start=0.0, s_end=2.0 * np.pi, ambient_dim=2, closed=None):
        length = float(s_end) - float(s_start)
        if closed is None:
            closed = abs(length - 2.0 * np.pi) < 1e-12
        super().__init__(ambient_dim, length, closed, s_start)

    def _jet(self, s, order):
        c, si = np.cos(s), np.sin(s)
        outs = []
        for x, y in ((c, si), (-si, c), (-c, -si), (si, -c))[:order + 1]:
            out = np.zeros(s.shape + (self.ambient_dim,))
            out[..., 0], out[..., 1] = x, y
            outs.append(out)
        return tuple(outs)


class SegmentCurve(ArclengthCurve):
    """Straight segment from a to b, arclength parametrized on [0, |b-a|]."""

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        length = float(np.linalg.norm(b - a))
        super().__init__(a.size, length, False, 0.0)
        self._a = a
        self._dir = (b - a) / length

    def _jet(self, s, order):
        outs = [np.zeros(s.shape + (self.ambient_dim,)) for _ in range(order + 1)]
        outs[0][:] = self._a + s[..., None] * self._dir
        if order >= 1:
            outs[1][:] = self._dir
        return tuple(outs)


# ---------------------------------------------------------------------------
# Series curves in a raw parameter, reparametrized by arclength
# ---------------------------------------------------------------------------


class _RawCurve(ArclengthCurve):
    """Curve given by raw-parameter evaluators, reparametrized to arclength.

    The map s -> t is tabulated on a uniform raw grid: 16 Gauss-Legendre
    nodes per cell give the cumulative arclength at the knots. A foot is
    inverted from a monotone PCHIP start (`_pchip_coefficients`) by Newton
    to the roundoff floor. Each residual integrates the speed over the
    partial cell with the curve's own node count: the smallest n in
    {4, 6, 8} whose full-cell sums match every 16-node cell integral of
    the table to within 2 ulp of L, or 16 when none does (a speed that
    varies fast within a cell, as near a cusp). `_s_of_t` evaluates those
    nodes and t itself in one pass and returns the speed at t with s(t), so
    a Newton step costs one raw evaluation.
    """

    _GL_N = 16
    _TABLE_N = 1024
    _CELL_NS = (4, 6, 8)
    _CHECK_N = 2048  # cells of the first length check, doubled up to 6 times
    _LENGTH_TOL = 1e-10  # relative agreement of two successive length checks

    def __init__(self, closed, raw_domain):
        self._t0, self._t1 = float(raw_domain[0]), float(raw_domain[1])
        if self._t1 <= self._t0:
            raise NonRegularCurveError("raw domain is empty")
        tg = np.linspace(self._t0, self._t1, self._TABLE_N + 1)
        speeds = np.linalg.norm(self._raw(tg, 1), axis=-1)
        if np.min(speeds) <= 0 or not np.all(np.isfinite(speeds)):
            raise NonRegularCurveError("raw parametrization has vanishing speed")
        cell = self._cell_sums(tg, self._GL_N)
        cum = np.concatenate([[0.0], np.cumsum(cell)])
        length = float(cum[-1])
        # Budget-checked refinement of the total length (doubling rule).
        check, ok = self._length_refined(length, cell)
        if not ok:
            raise QuadratureFailureError("arclength quadrature did not stabilize")
        length = check
        cum *= length / cum[-1] if cum[-1] > 0 else 1.0
        super().__init__(self._raw(np.array([self._t0]), 0).shape[-1], length, closed, 0.0)
        self._t_grid = tg
        self._s_grid = cum
        self._pchip = _pchip_coefficients(cum, tg)
        ulps = 2.0 * np.spacing(length)
        self._cell_n = next(
            (m for m in self._CELL_NS if np.max(np.abs(self._cell_sums(tg, m) - cell)) <= ulps),
            self._GL_N,
        )

    def _cell_sums(self, tg, n):
        """Speed integrals over the cells of the knots tg, n Gauss-Legendre
        nodes each."""
        nodes, wts = gauss_legendre(n)
        h = tg[1:] - tg[:-1]
        tt = tg[:-1, None] + h[:, None] * nodes[None, :]
        sp = np.linalg.norm(self._raw(tt.ravel(), 1), axis=-1).reshape(tt.shape)
        if np.min(sp) <= 0:
            raise NonRegularCurveError("raw parametrization has vanishing speed")
        return (sp * wts[None, :]).sum(axis=1) * h

    def _length_refined(self, base, table_cells, max_doublings=6):
        """The total length from _CHECK_N cells, doubled until two
        successive sums agree to _LENGTH_TOL, and whether they did; a check
        on the table's own cells sums table_cells instead of recomputing
        them."""
        prev = base
        m = self._CHECK_N
        for _ in range(max_doublings):
            if m == len(table_cells):
                cells = table_cells
            else:
                cells = self._cell_sums(np.linspace(self._t0, self._t1, m + 1), self._GL_N)
            val = float(cells.sum())
            if abs(val - prev) <= self._LENGTH_TOL * max(1.0, abs(val)):
                return val, True
            prev = val
            m *= 2
        return prev, False

    def _raw(self, t, order):
        return self._raw_orders(t, (order,))[0]

    def _raw_orders(self, t, orders):
        """Raw-parameter derivatives of the given orders at t, one array each."""
        raise NotImplementedError

    def _s_of_t(self, t):
        """(arclength from the table start, raw speed) at t: the partial cell
        by `_cell_n`-node Gauss-Legendre, its nodes and t in one raw pass."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self._t_grid, t, side="right") - 1, 0, len(self._t_grid) - 2)
        a = self._t_grid[idx]
        nodes, wts = gauss_legendre(self._cell_n)
        tt = np.concatenate([a[:, None] + (t - a)[:, None] * nodes[None, :], t[:, None]], axis=1)
        sp = np.linalg.norm(self._raw(tt.ravel(), 1), axis=-1).reshape(tt.shape)
        return self._s_grid[idx] + (sp[:, :-1] * wts[None, :]).sum(axis=1) * (t - a), sp[:, -1]

    def t_of_s(self, s):
        # Newton is pushed to the roundoff floor: second differences of
        # downstream quantities divide by h^2 and would amplify any slack.
        # Each foot stops on its own residual, so its value does not depend
        # on the other feet of the call.
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = _pchip_eval(self._s_grid, self._pchip, np.clip(s, 0.0, self.length))
        tol = 4e-16 * self.length
        k = np.arange(len(t))
        for _ in range(6):
            s_k, speed = self._s_of_t(t[k])
            resid = s_k - s[k]
            going = ~(np.abs(resid) <= tol)
            k, resid, speed = k[going], resid[going], speed[going]
            if not len(k):
                break
            t[k] = np.clip(t[k] - resid / speed, self._t0, self._t1)
        return t

    def _jet(self, s, order):
        t = self.t_of_s(s - self.s_min)
        g = self._raw_orders(t, range(order + 1))
        out = [g[0]]
        if order >= 1:
            inv = 1.0 / np.linalg.norm(g[1], axis=-1)  # 1 / speed
            out.append(g[1] * inv[..., None])
        if order >= 2:
            sp1 = np.sum(g[1] * g[2], axis=-1) * inv  # d(speed)/dt
            t1, t2 = inv, -sp1 * inv**3
            out.append(g[2] * (t1**2)[..., None] + g[1] * t2[..., None])
        if order >= 3:
            sp2 = (np.sum(g[2] * g[2], axis=-1) + np.sum(g[1] * g[3], axis=-1)) * inv - sp1**2 * inv
            t3 = -sp2 * inv**4 + 3.0 * sp1**2 * inv**5
            out.append(
                g[3] * (t1**3)[..., None] + 3.0 * g[2] * (t1 * t2)[..., None] + g[1] * t3[..., None]
            )
        return tuple(out)


def _pchip_coefficients(x, y):
    """Cubic Hermite coefficients (4, n - 1) of the monotone PCHIP
    interpolant through the knots (x, y), row j multiplying (x - x_i)^(3 - j).

    The standard construction, operation for operation: harmonic-mean slopes
    at interior knots (Fritsch and Butland), zero where the secants change
    sign or vanish, shape-preserving one-sided slopes at the ends (Moler,
    Numerical Computing with MATLAB, 3.6), and a line through two knots.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d = np.concatenate([[0.0], np.where(flat, 0.0, 1.0 / whmean), [0.0]])
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_eval(x, c, s):
    """The Hermite cubics c on knots x at s, summed lowest power first with
    the powers of z = s - x_i built by repeated multiplication; values
    beyond the ends extend the end cubics."""
    i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
    z = s - x[i]
    z2 = z * z
    return c[3, i] + c[2, i] * z + c[1, i] * z2 + c[0, i] * (z2 * z)


class _FourierSeries:
    """Real Fourier series x_i(t) = a0 + sum_k a_k cos(k w t) + b_k sin(k w t),
    w = 2 pi / period, one per coordinate (coeffs[i] = [a0, a1, b1, ...]);
    a weight is the one-coordinate case."""

    def __init__(self, coeffs, period):
        # Per mode k: the coordinates that carry it (None: all) and their
        # (a_k, b_k) columns, so a coordinate with fewer modes gets no padded
        # term.
        self._const = np.array([c[0] for c in coeffs])[:, None]
        self._modes = []
        for k in range(1, max(c.size for c in coeffs) // 2 + 1):
            rows = [i for i, c in enumerate(coeffs) if c.size > 2 * k]
            ab = np.array([coeffs[i][2 * k - 1:2 * k + 1] for i in rows])
            sel = None if len(rows) == len(coeffs) else np.array(rows)
            self._modes.append((sel, ab[:, :1], ab[:, 1:]))
        self.omega = 2.0 * np.pi / float(period)

    def orders(self, t, orders):
        """Derivatives of the given orders at t, one t.shape + (d,) array
        each; a scalar t gives shape (1, d)."""
        # Per mode, one cos/sin pass and the two combinations every order
        # reads, even = a cos + b sin and odd = b cos - a sin: d/dt rotates
        # (cos, sin) a quarter period per order, so order n adds even, odd,
        # -even, -odd (n mod 4 = 0, 1, 2, 3) times (k w)^n. Each mode updates
        # all its coordinates at once in (d, N) order.
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tf = t.ravel()
        accs = [np.zeros((len(self._const), tf.size)) for _ in orders]
        for order, acc in zip(orders, accs):
            if order == 0:
                acc += self._const
        parities = {order % 2 for order in orders}
        for k, (sel, ak, bk) in enumerate(self._modes, 1):
            w = k * self.omega
            ph = w * tf
            cos, sin = np.cos(ph), np.sin(ph)
            if 0 in parities:
                even = ak * cos
                even += bk * sin
            if 1 in parities:
                odd = bk * cos
                odd -= ak * sin
            for order, acc in zip(orders, accs):
                x = even if order % 2 == 0 else odd
                if order:
                    # The sign rides on the factor: -(x w^n) rounds as x (-w^n).
                    x = x * (w**order if order % 4 < 2 else -(w**order))
                if sel is None:
                    acc += x
                else:
                    acc[sel] += x
        # C-contiguous (N, d) arrays, as reductions over their last axis
        # round by memory layout.
        return [np.ascontiguousarray(acc.T).reshape(t.shape + (len(acc),)) for acc in accs]


def _chebyshev_derivatives(coeffs, domain):
    """[p, p', p'', p'''] of the Chebyshev series coeffs on domain."""
    p = npcheb.Chebyshev(np.asarray(coeffs, dtype=float), domain=list(domain))
    return [p] + [p.deriv(m) for m in range(1, 4)]


class FourierCurve(_RawCurve):
    """Closed curve with one real Fourier series per coordinate.

    coefficients[i] = [a0, a1, b1, a2, b2, ...] meaning
    x_i(t) = a0 + sum_k a_k cos(k w t) + b_k sin(k w t), w = 2 pi / period.
    """

    def __init__(self, coefficients, period=2.0 * np.pi):
        coeffs = [np.asarray(c, dtype=float) for c in coefficients]
        if len(coeffs) < 2:
            raise NonRegularCurveError("need at least 2 coordinates")
        if any(c.size < 3 or c.size % 2 == 0 for c in coeffs):
            raise NonRegularCurveError("each coordinate needs [a0, a1, b1, ...]")
        if not all(np.all(np.isfinite(c)) for c in coeffs):
            raise NonRegularCurveError("non-finite Fourier coefficients")
        self._series = _FourierSeries(coeffs, period)
        super().__init__(True, (0.0, float(period)))

    def _raw_orders(self, t, orders):
        return self._series.orders(t, orders)


class ChebyshevCurve(_RawCurve):
    """Open arc with one Chebyshev series per coordinate on [t0, t1]."""

    def __init__(self, coefficients, raw_domain):
        coeffs = [np.asarray(c, dtype=float) for c in coefficients]
        if len(coeffs) < 2:
            raise NonRegularCurveError("need at least 2 coordinates")
        if any(c.size < 2 for c in coeffs):
            raise NonRegularCurveError("truncation order must be >= 1")
        if not all(np.all(np.isfinite(c)) for c in coeffs):
            raise NonRegularCurveError("non-finite Chebyshev coefficients")
        dom = [float(raw_domain[0]), float(raw_domain[1])]
        self._series = [_chebyshev_derivatives(c, dom) for c in coeffs]
        super().__init__(False, dom)

    def _raw_orders(self, t, orders):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        outs = []
        for order in orders:
            out = np.zeros(t.shape + (len(self._series),))
            for i, p in enumerate(self._series):
                out[..., i] = p[order](t)
            outs.append(out)
        return outs


class EllipseCurve(FourierCurve):
    """Ellipse (a cos t, b sin t), reparametrized by arclength."""

    _TABLE_N = 2048
    _LENGTH_TOL = 1e-12

    def __init__(self, a=2.0, b=1.0):
        if a <= 0 or b <= 0:
            raise NonRegularCurveError("ellipse semi-axes must be positive")
        self.a, self.b = float(a), float(b)
        super().__init__([[0.0, a, 0.0], [0.0, 0.0, b]], period=2.0 * np.pi)


# ---------------------------------------------------------------------------
# Curvature-profile curves (planar): used for the stadium preset
# ---------------------------------------------------------------------------


class _Piece:
    """One maximal piece of a curvature profile on [s0, s1].

    kind 'const': kappa = k0.
    kind 'step':  kappa = k0 + (k1 - k0) * S((s - s0) / (s1 - s0)) with the
    quintic smoothstep S, so the profile is C^2 and the curve C^4.
    """

    __slots__ = ("s0", "s1", "kind", "k0", "k1", "theta0", "x0", "y0")

    def __init__(self, s0, s1, kind, k0, k1):
        self.s0, self.s1, self.kind, self.k0, self.k1 = s0, s1, kind, k0, k1


class CurvatureProfileCurve(ArclengthCurve):
    """Planar closed arclength-native curve defined by a piecewise curvature
    profile over its first half, symmetric about the x-axis.

    The half starts at (1, 0) heading along +y. The tangent angle is the
    exact integral of kappa (piecewise polynomial), positions use closed
    forms on constant pieces and Gauss-Legendre on the short smoothstep
    transitions. Only [0, L/2] is stored; s in [L/2, L] is evaluated by
    mirror symmetry about the x-axis.
    """

    _GL_N = 24

    def __init__(self, pieces):
        if any(p.s1 <= p.s0 for p in pieces):
            raise NonRegularCurveError("a curvature-profile piece has zero width")
        self._pieces = pieces
        x, y, th = 1.0, 0.0, np.pi / 2.0
        for p in pieces:
            p.theta0, p.x0, p.y0 = th, x, y
            th, x, y = self._piece_state(p, p.s1)
        self._end_state = (x, y, th)
        super().__init__(2, 2.0 * pieces[-1].s1, True, 0.0)

    # -- profile primitives --------------------------------------------------

    def _theta_local(self, p, s):
        """theta(s) - theta(p.s0) for s within piece p (vectorized)."""
        ds = s - p.s0
        if p.kind == "const":
            return p.k0 * ds
        w = p.s1 - p.s0
        u = ds / w
        return p.k0 * ds + (p.k1 - p.k0) * w * quintic_smoothstep_int(u)

    def _kappa_local(self, p, s):
        if p.kind == "const":
            return np.full(np.shape(s), p.k0, dtype=float)
        u = (s - p.s0) / (p.s1 - p.s0)
        return p.k0 + (p.k1 - p.k0) * quintic_smoothstep(u)

    def _kappa_rate_local(self, p, s):
        if p.kind == "const":
            return np.zeros(np.shape(s), dtype=float)
        w = p.s1 - p.s0
        u = (s - p.s0) / w
        return (p.k1 - p.k0) / w * quintic_smoothstep_d1(u)

    # -- vectorized evaluation -------------------------------------------------

    def _piece_index(self, s):
        bounds = np.array([p.s1 for p in self._pieces])
        return np.clip(np.searchsorted(bounds, s, side="left"), 0, len(self._pieces) - 1)

    def _piece_state(self, p, s):
        """(theta, x, y) at the feet s inside piece p (a scalar or an array):
        positions in closed form on constant pieces and by Gauss-Legendre
        over [p.s0, s] on transitions."""
        th = p.theta0 + self._theta_local(p, s)
        if p.kind == "const" and p.k0 == 0.0:
            ds = s - p.s0
            return th, p.x0 + ds * np.cos(p.theta0), p.y0 + ds * np.sin(p.theta0)
        if p.kind == "const":
            k = p.k0
            return (th, p.x0 + (np.sin(th) - np.sin(p.theta0)) / k,
                    p.y0 + (-np.cos(th) + np.cos(p.theta0)) / k)
        nodes, wts = gauss_legendre(self._GL_N)
        h = np.asarray(s, dtype=float) - p.s0
        tt = p.theta0 + self._theta_local(p, p.s0 + h[..., None] * nodes)
        return (th, p.x0 + (np.cos(tt) * wts).sum(axis=-1) * h,
                p.y0 + (np.sin(tt) * wts).sum(axis=-1) * h)

    def _half_jet(self, s, order):
        """Jet on the stored half-profile domain [0, half-length]."""
        s = np.asarray(s, dtype=float)
        idx = self._piece_index(s)
        outs = [np.zeros(s.shape + (2,)) for _ in range(order + 1)]
        for j, p in enumerate(self._pieces):
            m = idx == j
            if not np.any(m):
                continue
            sj = s[m]
            th, x, y = self._piece_state(p, sj)
            outs[0][m, 0], outs[0][m, 1] = x, y
            if order == 0:
                continue
            cos, sin = np.cos(th), np.sin(th)
            outs[1][m, 0], outs[1][m, 1] = cos, sin
            if order == 1:
                continue
            k = self._kappa_local(p, sj)
            outs[2][m, 0], outs[2][m, 1] = -k * sin, k * cos
            if order == 2:
                continue
            kr = self._kappa_rate_local(p, sj)
            outs[3][m, 0] = -kr * sin - k * k * cos
            outs[3][m, 1] = kr * cos - k * k * sin
        return outs

    def _jet(self, s, order):
        hi = s > self.length / 2.0
        outs = self._half_jet(np.where(hi, self.length - s, s), order)
        # Mirror about the x-axis: gamma(L-s) = M gamma(s), M = diag(1,-1);
        # odd derivative orders pick up an extra overall sign.
        sign_y = np.where(hi, -1.0, 1.0)
        for n, out in enumerate(outs):
            out = out * np.where(hi & (n % 2 == 1), -1.0, 1.0)[..., None]
            out[..., 1] *= sign_y
            outs[n] = out
        return tuple(outs)


def make_stadium(circle_turn=0.3, transition=0.05, line_length=7.0):
    """Smoothed stadium: exact unit-circle arc |s| <= circle_turn, straight
    sides, and a far cap whose curvature is solved so the curve closes."""
    p1 = float(circle_turn)
    d2 = 2.0 * float(transition)
    ell = float(line_length)
    if p1 <= 0 or transition <= 0 or ell <= 0:
        raise NonRegularCurveError("stadium parameters must be positive")
    s1, s2 = p1, p1 + d2
    s3, s4 = s2 + ell, s2 + ell + d2
    turn_fixed = p1 + 0.5 * d2  # circle + down-transition turning

    def build(kappa2):
        cap_turn = np.pi - turn_fixed - kappa2 * 0.5 * d2
        if cap_turn <= 0:
            raise NonRegularCurveError("stadium cap turn is non-positive")
        s5 = s4 + cap_turn / kappa2
        pieces = [
            _Piece(0.0, s1, "const", 1.0, 1.0),
            _Piece(s1, s2, "step", 1.0, 0.0),
            _Piece(s2, s3, "const", 0.0, 0.0),
            _Piece(s3, s4, "step", 0.0, kappa2),
            _Piece(s4, s5, "const", kappa2, kappa2),
        ]
        return CurvatureProfileCurve(pieces)

    def end_y(kappa2):
        return np.array([build(float(k))._end_state[1] for k in kappa2])

    kappa2 = float(brent_rows(end_y, 1e-3, 0.9, 1e-14, 1e-15)[0])
    return build(kappa2)


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


# The circle kinds pin `closed`: a full loop, or an open arc of any length.
def _unit_circle(ambient_dim=2):
    return CircleArcCurve(0.0, 2.0 * np.pi, ambient_dim, closed=True)


def _circle_arc(s_start, s_end, ambient_dim=2):
    return CircleArcCurve(s_start, s_end, ambient_dim, closed=False)


# Each kind's constructor owns its parameters and their defaults.
CURVE_KINDS = {
    "fourier": FourierCurve,
    "chebyshev": ChebyshevCurve,
    "unit_circle": _unit_circle,
    "circle_arc": _circle_arc,
    "ellipse": EllipseCurve,
    "stadium": make_stadium,
    "segment": SegmentCurve,
}


def build_arclength_curve(kind, **params):
    """Build a component by kind: `CURVE_KINDS[kind](**params)`, so a
    parameter the kind does not take raises TypeError.

    Raises NonRegularCurveError / QuadratureFailureError per the contracts.
    """
    if kind not in CURVE_KINDS:
        raise NonRegularCurveError(f"unknown curve kind {kind!r}")
    return CURVE_KINDS[kind](**params)
