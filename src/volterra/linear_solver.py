"""Solvers for the linearized equation h + T h = g.

T is the Volterra integral operator with kernel v_x(t, tau, x0(tau)).
Two solvers are provided: neumann_solve, the iteration h <- g - T h
stopped by a tolerance and the a-priori bound of its factorial tail,
and collocation_solve, which solves the discrete system to rounding.
T's samples depend on x0 alone, not on h, so the Neumann iteration's
first walk of T records them and every later walk replays them
(quadrature._walk's recorder).  The tail bounds the error only where
l_rho bounds v_x and v_tx on the ball; estimate_l_rho samples them, so
it may fall short of the supremum (ROADMAP item 2(a)).  Collocation
takes a lag kernel whose discrete majorant of T's sup norm is below 1/2
by the same iteration, each step one Toeplitz product, run until the
update is at rounding; every other kernel by a direct triangular solve
by halves.  Its private form _collocate also takes a forcing term eta
and stops the contracting iteration once its residual is certified
within eta ||g||_inf, which is how solve_newton solves each
linearization inexactly.  Both solvers discretize T identically, so
they converge to the same node values and can cross-check each other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimMismatch, KernelContract, SingularBlock
from .function_space import (GridFunction, _ac_norm_of, _require_count, _require_finite_values,
                             _require_interval, _require_positive, sup_norm)
from .kernels import KernelSpec, TriangularDomain
from .quadrature import (_block_sum, _by_halves, _columns, _lattice, _LagTable, _leaf_triangle,
                         _leaves, _require_finite, _row_sums, cell_midpoint_values, node_integral)

# Same grid and dim, or GridMismatch / DimMismatch.
_require_same = GridFunction._require_compatible


def _require_kernel_dim(kernel: KernelSpec, x: GridFunction):
    if kernel.dim != x.dim:
        raise DimMismatch(f"kernel dim {kernel.dim} vs function dim {x.dim}")


def _require_budget(tol, max_iter):
    """tol positive and finite, and max_iter a count >= 1 (function_space's
    _require_positive and _require_count)."""
    _require_positive(tol, "tol")
    _require_count(max_iter, "max_iter")


def apply_T(kernel: KernelSpec, x0: GridFunction, g: GridFunction) -> GridFunction:
    """(T g)(t_i) = integral over [alpha, t_i] of v_x(t_i, tau, x0(tau)) g(tau)."""
    _require_same(x0, g)
    _require_kernel_dim(kernel, x0)
    vals = node_integral(kernel.integrand("v_x"), x0.grid, x0.values, g.values)
    return GridFunction(x0.grid, vals)


@dataclass(frozen=True)
class NeumannBound:
    """Constants of the factorial iterate bound.

    With l_rho a local bound for the linearized kernel, M = sup |g|,
    and the interval [alpha, beta]:

        C = sqrt(beta - alpha) * (1 + beta - alpha)
        D = C * M * l_rho
        A = l_rho * (beta - alpha)

    and the k-th Neumann term satisfies ||T^k g|| <= D A^(k-1) / (k-1)!.
    l_rho and M must be nonnegative, NaN is rejected; either may be inf,
    and the bounds then read inf, vacuous but true.  If either is 0 the
    iterates vanish, and so do D and the bounds.
    """

    l_rho: float
    M: float
    C: float
    D: float
    A: float

    def __post_init__(self):
        if not self.l_rho >= 0 or not self.M >= 0:
            raise ValueError(f"l_rho and M must be nonnegative, got {self.l_rho} and {self.M}")

    @classmethod
    def for_interval(cls, l_rho: float, M: float, alpha: float, beta: float) -> "NeumannBound":
        _require_interval(alpha, beta)
        length = beta - alpha
        C = math.sqrt(length) * (1.0 + length)
        l_rho, M = float(l_rho), float(M)
        return cls(l_rho=l_rho, M=M, C=C, D=C * M * l_rho if M and l_rho else 0.0,
                   A=l_rho * length)


def iterate_bound(k: int, bound: NeumannBound) -> float:
    """Bound on ||T^k g||: D * A^(k-1) / (k-1)!, where l_rho bounds
    v_x and v_tx on the ball."""
    _require_count(k, "k", 1)
    if bound.D == 0.0:
        return 0.0  # also for A = inf
    # Multiplicative evaluation keeps A = 0 and large k exact and overflow-free.
    term = bound.D
    for j in range(1, k):
        term *= bound.A / j
    return term


def tail_bound(k: int, bound: NeumannBound) -> float:
    """Sum of iterate_bound(j) over j > k: D sum_{m >= k} A^m / m!.

    The terms are summed as ratios to the first one summed and scaled
    back in log space; beyond the float range the value reads inf.  The
    terms too small to count, far below the peak at m = A and in the
    far tail, are bounded by geometric series instead, so the value is
    an upper bound in every regime.
    """
    _require_count(k, "k", 0)
    if bound.D == 0.0 or (k > 0 and bound.A == 0.0):
        return 0.0
    A, log_d = bound.A, math.log(bound.D)
    if k == 0 or A == math.inf:
        return _exp_or_inf(log_d + A)  # the whole exponential series
    # Below the peak at A the terms fall by at least m / A a step, so
    # those before m = A - 10 sqrt(A) (about e^-50 of the peak) are one
    # geometric series; this keeps the loop at O(sqrt(A)) terms.
    m = max(k, math.floor(A - 10.0 * math.sqrt(A)))
    log_lead = log_d + m * math.log(A) - math.lgamma(m + 1)
    if log_lead > 710.0:  # one term alone is past the float range
        return math.inf
    total = m / (A - m) if m > k else 0.0
    term = 1.0
    while m <= A or term >= 1e-17 * total:
        total += term
        m += 1
        term *= A / m
    # Past the peak the terms fall by at least A / (m + 1) a step.
    total += term / (1.0 - A / (m + 1))
    return _exp_or_inf(log_lead + math.log(total))


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=16)
def _halton(n: int, d: int) -> np.ndarray:
    """First n points of the unscrambled Halton sequence in [0, 1)^d:
    coordinate k is the radical inverse of the index in the k-th prime.
    Built once per (n, d) and read-only."""
    primes = [2]
    while len(primes) < d:
        primes.append(next(c for c in itertools.count(primes[-1] + 1)
                           if all(c % p for p in primes)))
    out = np.zeros((n, d))
    for k, base in enumerate(primes):
        q = np.arange(n)
        scale = 1.0 / base
        while q.any():
            out[:, k] += (q % base) * scale
            q //= base
            scale /= base
    out.flags.writeable = False
    return out


def estimate_l_rho(kernel: KernelSpec, rho: float, samples: int,
                   domain: TriangularDomain | None = None,
                   include_time_derivative: bool = False) -> float:
    """Estimate the local bound l_rho by low-discrepancy sampling.

    Takes the max of the spectral norm of v_x over a deterministic
    Halton sample of the triangle times the ball of radius rho, inflated
    by a fixed safety factor of 1.1.  With include_time_derivative the
    max also covers v_tx; the Neumann tail bound needs that joint bound
    because the derivative norm of each term runs through v_tx.  The
    result is an estimate, not a bound: a peak between the samples can
    exceed it (for example1_kernel(1.0) at rho = 10 with 2048 samples,
    2.5516 against sup |v_tx| = 2.6787).  A non-finite sample raises
    KernelContract: max() would skip a nan.
    """
    _require_positive(rho, "rho")
    _require_count(samples, "samples")
    dom = domain or kernel.domain or TriangularDomain(0.0, 1.0)
    u = _halton(samples, 2 + kernel.dim)
    t = dom.alpha + (dom.beta - dom.alpha) * u[:, 0]
    tau = dom.alpha + (t - dom.alpha) * u[:, 1]
    x = rho * (2.0 * u[:, 2:] - 1.0)
    mag = np.sqrt((x * x).sum(axis=1))
    over = mag > rho
    if np.any(over):
        x[over] *= (rho / mag[over])[:, None]

    def max_spectral(name):
        mats = np.asarray(getattr(kernel, name)(t, tau, x), float)
        if not np.isfinite(mats).all():
            raise KernelContract(f"{name} is not finite at a sample; l_rho cannot be estimated")
        if kernel.dim == 1:
            return float(np.abs(mats[..., 0, 0]).max())
        return float(np.linalg.svd(mats, compute_uv=False)[..., 0].max())

    best = max_spectral("v_x")
    if include_time_derivative:
        best = max(best, max_spectral("v_tx"))
    return 1.1 * best


@dataclass
class NeumannReport:
    iterations: int
    residual_ac: float
    tail_bound: float
    converged: bool
    l_rho: float
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)


def neumann_solve(kernel: KernelSpec, x0: GridFunction, g: GridFunction,
                  tol: float, max_iter: int = 200,
                  samples: int = 2048) -> tuple[GridFunction, NeumannReport]:
    """Solve h + T h = g by the Neumann iteration h <- g - T h.

    It starts from h = 0, whose image T 0 = 0 needs no walk, so each
    iteration takes one apply_T's walk of T.  T's v_x samples do not
    depend on h: the first walk records them, with the outcome of each
    far block's interpolation check, and every later one replays them
    (quadrature._walk's recorder).  A replay only reduces the recorded
    samples against h, interpolates the far blocks that passed and adds;
    it evaluates no v_x, checks no far block again, and gathers none of
    the grid, x0 or the far times.  So a solve walks v_x once, holding
    that walk's O(N log N) samples (O(N^2) for a kernel not smooth in t)
    until it returns, and its iterates, report and DEBUG records are
    those of walking each iteration, bit for bit.  A lag kernel keeps its
    FFT route and records nothing.
    l_rho samples the kernel itself.  Stops once the computed residual
    ||h + T h - g|| drops to tol or the a-priori factorial tail puts
    the remaining gap below tol; that tail bounds the gap only where
    the estimated l_rho bounds v_x and v_tx on the ball.  The report's
    tail_bound is the gap the stop tested, iterate_bound(m) +
    tail_bound(m) after m iterations.  On max_iter exhaustion the
    report is returned with converged=False; no exception is raised.
    """
    _require_same(x0, g)
    _require_kernel_dim(kernel, x0)
    _require_budget(tol, max_iter)
    grid = g.grid
    tri = TriangularDomain(grid.alpha, grid.beta)
    l_rho = estimate_l_rho(kernel, rho=sup_norm(x0) + 1.0, samples=samples,
                           domain=tri, include_time_derivative=True)
    bound = NeumannBound.for_interval(l_rho, sup_norm(g), grid.alpha, grid.beta)

    # on node values, each checked finite as a GridFunction would be
    f, recorded = kernel.integrand("v_x"), []  # apply_T's walk, recorded once
    Th = np.zeros_like(g.values)
    for m in range(1, max_iter + 1):
        h = _require_finite_values(g.values - Th)
        Th = _row_sums(f, grid.nodes, grid, x0.values, h, "node", recorded=recorded)
        residual = _ac_norm_of(_require_finite_values(h + Th - g.values), grid.delta)
        gap = iterate_bound(m, bound) + tail_bound(m, bound)
        if residual <= tol or gap <= tol:
            break
    report = NeumannReport(
        iterations=m,
        residual_ac=float(residual),
        tail_bound=gap,
        converged=bool(residual <= tol),
        l_rho=l_rho,
        tolerance=tol,
    )
    return GridFunction(grid, h), report


def collocation_solve(kernel: KernelSpec, x0: GridFunction,
                      g: GridFunction) -> GridFunction:
    """Solve the discrete system h + T h = g to rounding.

    v_x is bound to the grid once (quadrature._lattice) and its columns
    are taken from x0 once (quadrature._columns): with lag factors, w on
    the grid's N lags and z' at x0's midpoints.  The route follows from
    these and the grid alone:

    * With lag factors on more than one leaf, q = delta sum_k |w_k|
      max_j ||z'(x0(m_j))||_inf bounds T's sup norm, read in O(N) off
      the table and columns.  If q < 1/2, h <- g - T h contracts by q,
      each step the Toeplitz product apply_T takes
      (quadrature._block_sum), and stops once the sup-norm update is at
      rounding, 4 eps max |h|, or no longer shrinks; the accepted h then
      lies within one update of the fixed point.  No leaf is factored,
      nor could one be singular: each diagonal block is I plus a matrix
      of norm at most q.  Should ceil(log eps / log q) + 2 steps pass
      without a stop, or a product leave the float range, the solve goes
      by halves from the start.
    * Otherwise forward substitution by halves (quadrature._by_halves)
      over leaves of quadrature._LEAF nodes: a solved range of nodes
      enters the rows to its right as one quadrature._block_sum, which
      walks the tree of those rows' blocks or, with lag factors, takes
      one Toeplitz product (O(N log^2 N) in all).  A leaf's own nodes are
      one dense (leaf * dim)^2 solve, whose diagonal blocks
      I + delta/2 * v_x(t_i, m_{i-1}, x0) are checked for singularity
      first.

    Either way the residual measured with apply_T is at machine level.
    A non-finite v_x sample raises KernelContract naming where.  This is
    _collocate with the forcing term 0, which solve_newton takes with
    its own.
    """
    _require_same(x0, g)
    _require_kernel_dim(kernel, x0)
    grid = g.grid
    return _collocate(_lattice(kernel.integrand("v_x"), grid.nodes, grid.midpoints), x0, g, 0.0)


def _collocate(f, x0: GridFunction, g: GridFunction, eta: float) -> GridFunction:
    """collocation_solve on f, v_x bound to g's grid by quadrature._lattice,
    whose contracting route also stops once the returned h is certified
    to meet ||h + T h - g||_inf <= eta ||g||_inf (_contracted).  The
    route by halves solves to rounding whatever eta is, and eta = 0 is
    collocation_solve bit for bit."""
    grid = g.grid
    d, rows, cols = grid.delta, grid.nodes, grid.midpoints
    xc = _columns(f, cell_midpoint_values(x0.values), cols)  # once, for every product or leaf
    if isinstance(f, _LagTable) and _leaves(grid.n_cells + 1) > 1:
        h = _contracted(f, rows, cols, xc, g.values, d, eta)
        if h is not None:
            return GridFunction(grid, h)
    h = np.zeros_like(g.values)
    rhs = g.values.copy()  # g less the cells solved so far

    def merge(lo, mid, hi):
        # Row i reads h_i + delta sum_{j<i} W_ij (h_j + h_{j+1}) / 2 = g_i.
        rhs[mid:hi] -= d * _block_sum(f, rows[mid:hi], cols[lo - 1 : mid - 1], xc[lo - 1 : mid - 1],
                                      cell_midpoint_values(h[lo - 1 : mid]))

    def leaf(c0, c1):
        S = _leaf_triangle(f, rows[c0:c1], cols[c0 - 1 : c1 - 1], xc[c0 - 1 : c1 - 1])
        # the leaf's first cell has its left end value h_{c0-1} solved
        h[c0:c1] = _solve_leaf(S, rhs[c0:c1] - 0.5 * d * (S[:, 0] @ h[c0 - 1]), d, c0)

    _by_halves(grid.n_cells + 1, leaf, merge)
    return GridFunction(grid, h)


def _contracted(f: _LagTable, rows: np.ndarray, cols: np.ndarray, xc: np.ndarray,
                g: np.ndarray, d: float, eta: float) -> np.ndarray | None:
    """h <- g - T h from h = g while the majorant q of T's sup norm is
    below 1/2 (collocation_solve), or None where it is not, no stop
    comes within ceil(log eps / log q) + 2 steps, or an update is not
    finite.

    Besides the stops at rounding, it stops once q ||h_new - h||_inf <=
    eta ||g||_inf: the residual of h_new is (I + T) h_new - g =
    T (h_new - h), so that certifies ||(I + T) h_new - g||_inf <=
    eta ||g||_inf.  With eta = 0 it does not stop before rounding.
    """
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing q reads inf or nan
        q = d * np.abs(f.a).sum() * np.abs(xc).sum(axis=-1).max()
    if not q < 0.5:
        return None
    steps = math.ceil(math.log(eps) / math.log(q)) + 2 if q > 0.0 else 2
    forced = eta * np.abs(g).max()
    h, last = g, math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product ends the loop
        for _ in range(steps):
            new = g - d * _block_sum(f, rows, cols, xc, cell_midpoint_values(h), tri=True)
            update = float(np.abs(new - h).max())
            if not update < math.inf:
                return None
            h = new
            if update <= 4.0 * eps * np.abs(h).max() or update >= last or q * update <= forced:
                return h
            last = update
    return None


def _solve_leaf(S: np.ndarray, rhs: np.ndarray, d: float, c0: int) -> np.ndarray:
    """Solve the rows of nodes [c0, c0 + L) for their own node values.

    S[p, q] = v_x(t_{c0+p}, m_{c0-1+q}, x0) (zero for q > p), so h_k
    enters row p with (delta/2) (S[p, k - c0] + S[p, k - c0 + 1]).
    rhs holds g minus every term of the nodes below c0.  Raises
    SingularBlock at the first node whose diagonal block
    B = I + delta/2 S[p, p] has sigma_min(B) < 1e-14 max(1, sigma_max(B));
    unlike |det B|, which scales as the dim-th power of B, the test is
    relative to B's size.  A non-finite right-hand side, diagonal block
    or solution raises KernelContract at its first node: the samples
    are checked per node, not one by one.
    """
    L, n = rhs.shape
    _require_finite(rhs, "the history of the row at node", range(c0, c0 + L))
    # S[p, k] + S[p, k + 1] as one flat sum, which wraps into the next row at
    # k = L - 1, where S[p, L - 1] alone is right
    A, step = np.empty(S.shape), n * n
    np.add(S.reshape(-1)[:-step], S.reshape(-1)[step:], out=A.reshape(-1)[:-step])
    A[:, -1] = S[:, -1]
    M = A.transpose(0, 2, 1, 3).reshape(L * n, L * n)
    M *= 0.5 * d
    M.reshape(-1)[:: L * n + 1] += 1.0  # + I, without building it
    # S[p, p + 1] = 0, so M's diagonal blocks are the B
    diag = M.reshape(L, n, L, n).diagonal(0, 0, 2).transpose(2, 0, 1)
    _require_finite(diag, "the diagonal block at node", range(c0, c0 + L))
    # A 1 x 1 block is its own singular value; LAPACK's SVD costs about
    # six times a det per block, which shows on long dim-1 grids.
    sv = np.abs(diag[:, 0]) if n == 1 else np.linalg.svd(diag, compute_uv=False)
    singular = sv[:, -1] < 1e-14 * np.maximum(1.0, sv[:, 0])
    if singular.any():
        raise SingularBlock(
            f"diagonal block at node {c0 + singular.argmax()} is singular; refine the grid"
        )
    h = np.linalg.solve(M, rhs.ravel()).reshape(L, n)
    _require_finite(h, "the solution at node", range(c0, c0 + L))
    return h
