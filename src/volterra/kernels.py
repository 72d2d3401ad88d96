"""Kernel descriptions for the integral operator and its linearization.

A kernel bundles the integrand v(t, tau, x) with the three partial
derivatives the solvers consume (v_t, v_x, v_tx), optional growth-bound
metadata used by the certification module, and an optional triangular
domain restriction.

Evaluator convention
--------------------
Evaluators are numpy-vectorized over leading axes: t and tau are float
arrays of a common broadcast shape S, x has shape S + (dim,).  v and
v_t return shape S + (dim,); v_x and v_tx return S + (dim, dim).
Quadrature never samples tau = t, so evaluators whose time derivative is
singular on the diagonal (Example 1 below) are safe: v_t and v_tx need
only be finite on tau < t, v and v_x on tau <= t.

A walk calls an evaluator once per chunk of at most 8192 samples, with
t, tau and x read-only broadcast views (a leaf's triangle: gathered
arrays), so an evaluator must never write into its inputs.  Every walk
of a shape passes the same views, of buffers the next walk refills, so
an evaluator must not keep its inputs past a call either.
A walk may record what an evaluator returns (quadrature._walk's
recorder): neumann_solve's first walk of v_x keeps the arrays, and the
outcome of each far block's check (see "Kernels smooth in t" below), for
the length of the solve.  Every later walk of that shape replays them:
it calls no v_x and takes no far check again, and it reads none of the
walk's t, tau and x, only reducing the kept samples against the new h.
So an evaluator must not write into an array it has returned, nor
return different samples for the same inputs.  In-place
arithmetic (*=, /=, +=) on its own temporaries, each freed as soon as
it is spent, keeps few chunk-sized arrays alive at once: the allocator
then reuses the same heap pages from chunk to chunk instead of trimming
the heap top and faulting fresh pages in, which can cost a walk a fifth
of its time.  example1_kernel's evaluators are written so.
eval_checked passes 0-d input, whose arithmetic yields numpy scalars:
augmented assignment rebinds those, an out= argument raises.

Lag kernels
-----------
A kernel of the form v(t, tau, x) = w(t - tau) z(x) declares its
factors in KernelSpec.lag; lag_kernel builds the four evaluators from
them.  On the uniform grid every quadrature sum of such a kernel is a
Toeplitz product, which quadrature and the solves take by FFT.  The
route follows the field, not the evaluator objects, so a spec whose
evaluators were swapped by dataclasses.replace keeps it.  linear_kernel
and example2_kernel are lag kernels, and zero_kernel is
linear_kernel(0.0, dim) with every growth bound declared zero.

Kernels smooth in t
-------------------
KernelSpec.smooth_in_t = True promises that every evaluator is analytic
in t on tau < t, for each tau and x.  Quadrature may then take the far
columns of every row block of its tree, at every scale from a leaf of
64 rows up (the columns at least the block's width below its first row),
from 16 Chebyshev times in t per column instead of one sample per row;
a walk then takes O(N log N) samples.  The promise is checked, not
trusted: each block's far columns are also evaluated on its first row,
and a block whose interpolant misses that row by more than 1e-13 of its
largest value (or is not finite) is walked exactly, with one DEBUG
record per walk on the "volterra.quadrature" logger.  The check is a
guard against a false declaration, not a licence to declare a kernel
with a kink or a singularity in t off the diagonal: such a kernel falls
back only where the check sees it.  A lag declaration takes precedence,
and the route follows the field as the lag route does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import KernelContract, OutsideTriangle
from .function_space import PREDICATE_SLACK, _require_count, _require_interval, _require_real

# |w(0)| above this is a contract violation for convolution kernels.
_W_ANCHOR_ATOL = 1e-10


@dataclass(frozen=True)
class TriangularDomain:
    """The causal triangle alpha <= tau <= t <= beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        _require_interval(self.alpha, self.beta)

    def contains(self, t: float, tau: float) -> bool:
        s = PREDICATE_SLACK
        return (self.alpha - s <= tau <= t + s) and (t <= self.beta + s)


@dataclass(frozen=True)
class GrowthBounds:
    """Declared majorants for certification; all fields optional.

    c0, d0 bound the time derivative, |v_t(t,tau,x)| <= c0(t,tau)|x| +
    d0(t,tau), for kernels vanishing on the diagonal.  c1, d1 bound the
    diagonal value |v(t,t,x)| <= c1(t)|x| + d1(t), and c2, d2 bound v_t
    in the same style as c0, d0.  Scalar-argument callables, vectorized;
    a bound of the lag t - tau alone may be given as a LagBound, whose
    integrals certification takes as Toeplitz products; the built-in
    kernels declare each such bound so.  d0 and d2 may
    be integrably singular on the diagonal; quadrature keeps a distance
    of at least delta/4 from it.
    """

    c0: Optional[Callable] = None
    d0: Optional[Callable] = None
    c1: Optional[Callable] = None
    d1: Optional[Callable] = None
    c2: Optional[Callable] = None
    d2: Optional[Callable] = None


@dataclass(frozen=True)
class LagIntegrand:
    """The integrand f(t, tau, x) = w(t - tau) z(x), kept in factored form.

    w maps an array of lags to an array of the same shape; z maps x of
    shape S + (dim,) to S + (dim,) for a vector integrand or to
    S + (dim, dim) for a matrix one.  Calling it evaluates the product
    under the evaluator convention.
    """

    w: Callable
    z: Callable

    def __call__(self, t, tau, x):
        return _lag_product(self.w, self.z, t, tau, x)


@dataclass(frozen=True)
class SmoothInT:
    """An evaluator f(t, tau, x) declared analytic in t on tau < t.

    Calling it calls f; quadrature reads the wrapper as leave to try
    Chebyshev interpolation in t on far blocks, checked block by block.
    """

    f: Callable

    def __call__(self, t, tau, x):
        return self.f(t, tau, x)


@dataclass(frozen=True)
class LagBound:
    """A bound b(t, tau) = w(t - tau) of the lag alone, kept in factored form.

    w maps an array of lags to an array of the same shape.  Calling it
    evaluates w(t - tau) with the broadcast shape of t and tau.
    """

    w: Callable

    def __call__(self, t, tau):
        lag = np.subtract(np.asarray(t, float), tau)
        return _shaped(self.w(lag), lag.shape)


def _shaped(a, shape) -> np.ndarray:
    # a as floats of the shape; np.broadcast_to is slow on small arrays
    a = np.asarray(a, float)
    return a if a.shape == shape else np.broadcast_to(a, shape)


def _lag_product(w, z, t, tau, x):
    lag = np.subtract(np.asarray(t, float), tau)
    ws = _shaped(w(lag), lag.shape)
    zx = np.asarray(z(x), float)
    return ws.reshape(ws.shape + (1,) * (zx.ndim - np.ndim(x) + 1)) * zx


@dataclass(frozen=True)
class LagFactors:
    """Factors of v(t, tau, x) = w(t - tau) z(x) and their derivatives.

    w, w_prime and z follow LagIntegrand; z_prime maps S + (dim,) to
    S + (dim, dim).
    """

    w: Callable
    w_prime: Callable
    z: Callable
    z_prime: Callable


@dataclass(frozen=True)
class KernelSpec:
    dim: int
    v: Callable
    v_t: Callable
    v_x: Callable
    v_tx: Callable
    diagonal_zero: bool = False
    bounds: Optional[GrowthBounds] = None
    domain: Optional[TriangularDomain] = None
    name: str = "custom"
    lag: Optional[LagFactors] = None
    smooth_in_t: bool = False

    def __post_init__(self):
        _require_count(self.dim, "dim")

    def integrand(self, which: str):
        """The evaluator named which ('v', 'v_t', 'v_x' or 'v_tx') as
        quadrature takes it: a LagIntegrand built from the declared lag
        factors, else the evaluator wrapped in SmoothInT if the kernel
        declares smooth_in_t, else the evaluator itself."""
        evaluator = {"v": self.v, "v_t": self.v_t, "v_x": self.v_x, "v_tx": self.v_tx}[which]
        if self.lag is None:
            return SmoothInT(evaluator) if self.smooth_in_t else evaluator
        lag = self.lag
        w = lag.w_prime if which in ("v_t", "v_tx") else lag.w
        z = lag.z_prime if which in ("v_x", "v_tx") else lag.z
        return LagIntegrand(w, z)


_WHICH = ("v", "vt", "vx", "vtx")


def eval_checked(kernel: KernelSpec, which: str, t: float, tau: float, x) -> np.ndarray:
    """Evaluate one kernel component with domain checking.

    which is one of 'v', 'vt', 'vx', 'vtx'.  Raises OutsideTriangle when
    tau > t or when (t, tau) leaves the kernel's declared domain.
    """
    if which not in _WHICH:
        raise ValueError(f"which must be one of {_WHICH}, got {which!r}")
    dom = kernel.domain
    if not tau <= t + PREDICATE_SLACK or (dom is not None and not dom.contains(t, tau)):
        raise OutsideTriangle(f"(t, tau) = ({t}, {tau}) outside the causal triangle")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (kernel.dim,):
        raise ValueError(f"x must have shape ({kernel.dim},), got {xv.shape}")
    fn = {"v": kernel.v, "vt": kernel.v_t, "vx": kernel.v_x, "vtx": kernel.v_tx}[which]
    return np.asarray(fn(np.float64(t), np.float64(tau), xv), dtype=float)


def _wrap_scalar(f, trailing: tuple):
    """The evaluator of a scalar formula f(t, tau, xi): t and tau broadcast
    only if their shapes differ, the value shaped S + trailing, (1,) for a
    vector evaluator and (1, 1) for a matrix one."""
    def ev(t, tau, x):
        t, tau = np.asarray(t, float), np.asarray(tau, float)
        if t.shape != tau.shape:
            t, tau = np.broadcast_arrays(t, tau)
        return _shaped(f(t, tau, np.asarray(x)[..., 0]), t.shape).reshape(t.shape + trailing)

    return ev


def scalar_kernel(v, v_t, v_x, v_tx, **kwargs) -> KernelSpec:
    """Build a dim-1 KernelSpec from plain scalar formulas f(t, tau, xi)."""
    return KernelSpec(
        dim=1,
        v=_wrap_scalar(v, (1,)),
        v_t=_wrap_scalar(v_t, (1,)),
        v_x=_wrap_scalar(v_x, (1, 1)),
        v_tx=_wrap_scalar(v_tx, (1, 1)),
        **kwargs,
    )


def _const1(value):
    def f(t):
        return np.full(np.shape(np.asarray(t, float)), value)

    return f


def zero_kernel(dim: int = 1) -> KernelSpec:
    """v identically zero; the operator is the identity.

    linear_kernel(0.0, dim), so its sums take the Toeplitz route, with
    every growth bound declared zero.
    """
    zero = LagBound(np.zeros_like)
    bounds = GrowthBounds(c0=zero, d0=zero, c1=_const1(0.0), d1=_const1(0.0), c2=zero, d2=zero)
    return replace(linear_kernel(0.0, dim), bounds=bounds, name="zero")


def lag_kernel(w, w_prime, z, z_prime, dim: int = 1, **kwargs) -> KernelSpec:
    """KernelSpec of v(t, tau, x) = w(t - tau) z(x), built from its factors.

    The factors follow LagFactors.  The four evaluators are formed from
    them and the factors are kept in the spec's lag field, so the
    generic walk and the Toeplitz route evaluate one kernel.  The
    evaluators are plain callables: the route follows the field alone.
    Remaining keyword arguments go to KernelSpec.
    """
    return KernelSpec(
        dim=dim,
        v=partial(_lag_product, w, z),
        v_t=partial(_lag_product, w_prime, z),
        v_x=partial(_lag_product, w, z_prime),
        v_tx=partial(_lag_product, w_prime, z_prime),
        lag=LagFactors(w, w_prime, z, z_prime),
        **kwargs,
    )


def linear_kernel(lam: float, dim: int = 1) -> KernelSpec:
    """v(t, tau, x) = lam * x; the operator is x + lam * integral of x.
    lam must be a finite real number (ValueError otherwise)."""
    _require_real(lam, "lam")
    lam = float(lam)
    zero = LagBound(np.zeros_like)
    bounds = GrowthBounds(c1=_const1(abs(lam)), d1=_const1(0.0), c2=zero, d2=zero)
    return lag_kernel(
        w=lambda s: np.full(np.shape(s), lam),
        w_prime=lambda s: np.zeros(np.shape(s)),
        z=lambda x: np.asarray(x, float),
        z_prime=lambda x: np.broadcast_to(np.eye(dim), np.shape(x) + (dim,)),
        dim=dim, diagonal_zero=(lam == 0.0), bounds=bounds, name=f"linear({lam})",
    )


def example1_kernel(a_bar: float) -> KernelSpec:
    """Logarithmic kernel with a weak diagonal singularity in v_t.

    v(t, tau, x) = a_bar * (t - tau)^(2/3) * log(1 + 2 (t-tau)^2 x^2)
    on the triangle over [0, 1].  v vanishes on the diagonal; v_t blows
    up like (t - tau)^(-1/3) but stays integrable, which is exactly the
    regime the half-cell-offset quadrature is built for.  Declared
    bounds: |v_t| <= c0 |x| + d0 with c0 = (2 sqrt2 / 3)|a_bar| s^(2/3)
    and d0 = 2 |a_bar| s^(-1/3), s = t - tau; both depend on the lag
    alone and are LagBounds, so certification sums them as Toeplitz
    products.  Every evaluator is analytic in t for t > tau, so the
    kernel declares smooth_in_t.  a_bar must be a finite real number
    (ValueError otherwise).
    """
    _require_real(a_bar, "a_bar")
    ab = float(a_bar)

    # Each evaluator takes its fractional powers of s = t - tau from one
    # cube root c = s^(1/3), with g = 2 s^2 xi^2, and computes in place on
    # its own temporaries as the module notes describe.
    def v(t, tau, xi):
        # a c^2 log(1 + g)
        s = t - tau
        out = s * xi
        out *= out
        out *= 2.0
        out = np.log1p(out)
        c = np.cbrt(s)
        c *= c
        out *= c
        out *= ab
        return out

    def v_t(t, tau, xi):
        # (a / c) ((2/3) log(1 + g) + 2 g / (1 + g)), since 4 s^(5/3) xi^2 = 2 g / c
        s = t - tau
        g = s * xi
        g *= g
        g *= 2.0
        out = np.log1p(g)
        out *= 2.0 / 3.0
        h = g + 1.0
        g /= h
        del h
        g *= 2.0
        out += g
        del g
        out /= np.cbrt(s)
        out *= ab
        return out

    def v_x(t, tau, xi):
        # 4 a s^2 c^2 xi / (1 + g)
        s = t - tau
        q = s * xi
        g = q * q
        g *= 2.0
        g += 1.0
        q /= g
        del g
        q *= s
        c = np.cbrt(s)
        c *= c
        q *= c
        q *= 4.0 * ab
        return q

    def v_tx(t, tau, xi):
        # (8/3) a s c^2 xi (g + 4) / (1 + g)^2
        s = t - tau
        g = s * xi
        c = np.cbrt(s)
        c *= c
        c *= s
        del s
        q = c * xi
        del c
        g *= g
        g *= 2.0
        h = g + 1.0
        g += 4.0
        g /= h
        g /= h
        q *= g
        q *= (8.0 / 3.0) * ab
        return q

    c0_coef = 2.0 * math.sqrt(2.0) / 3.0 * abs(ab)
    return scalar_kernel(
        v, v_t, v_x, v_tx,
        diagonal_zero=True,
        bounds=GrowthBounds(c0=LagBound(lambda s: c0_coef * s ** (2.0 / 3.0)),
                            d0=LagBound(lambda s: 2.0 * abs(ab) * s ** (-1.0 / 3.0))),
        domain=TriangularDomain(0.0, 1.0),
        name=f"example1({a_bar})",
        smooth_in_t=True,
    )


def example2_kernel(w, w_prime, z, z_prime, A: float, B: float,
                    T: float = 1.0) -> KernelSpec:
    """Convolution-in-time feedback kernel v(t, tau, x) = w(t - tau) z(x).

    w must vanish at 0 (checked; KernelContract otherwise) and carry its
    derivative explicitly, as does z: the library never differentiates
    numerically on the caller's behalf.  A, B >= 0 must majorize z as
    |z(x)| <= A|x| + B; that contract is the caller's and is what the
    declared bounds c0 = A|w'|, d0 = B|w'| encode; both are LagBounds.
    A, B and T must be finite real numbers (ValueError otherwise), and a
    negative A or B is a KernelContract.
    """
    for value, name in ((A, "A"), (B, "B"), (T, "T")):
        _require_real(value, name)
    if not (A >= 0 and B >= 0):
        raise KernelContract(f"need A, B >= 0, got A={A}, B={B}")
    w0 = float(np.asarray(w(0.0)))
    if abs(w0) > _W_ANCHOR_ATOL:
        raise KernelContract(f"w(0) = {w0:.3e} must vanish")

    def abs_w_prime(s):
        return np.abs(np.asarray(w_prime(s), float))

    return lag_kernel(
        w, w_prime,
        z=lambda x: _shaped(z(x), np.shape(x)),
        z_prime=lambda x: _shaped(z_prime(x), np.shape(x))[..., None],
        diagonal_zero=True,
        bounds=GrowthBounds(c0=LagBound(lambda s: A * abs_w_prime(s)),
                            d0=LagBound(lambda s: B * abs_w_prime(s))),
        domain=TriangularDomain(0.0, float(T)),
        name="example2",
    )
