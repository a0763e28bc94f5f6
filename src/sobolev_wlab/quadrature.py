"""Monte-Carlo estimators for the weighted singular integrals, plus a
deterministic 1-d tensor-product oracle used as ground truth.

Determinism contract: the sample budget, a multiple of 64, is split into
64 equal chunks; chunk k draws from an independent Philox stream keyed by
(seed, k).  Consecutive chunks are evaluated together in groups of at
most GROUP_POINTS points (always at least one whole chunk), and the chunk
means are folded in chunk order.  Every integrand, convolved fields
included (smoothing._mollify), computes a point's value from that point
alone, so the grouping and smoothing.CONV_BLOCK bound memory without
moving a bit: two runs with the same spec return bit-identical estimates.
The groups may run at once on worker threads, one per CPU in the process's
affinity mask (WORKERS), each drawing from its own generator; a group's
chunk means depend on its own chunks' streams alone and are put back in
chunk order, so the worker count moves no bit either.
The reported standard error is the sample standard deviation of the
chunk means divided by sqrt(64).

Symmetry contract: the pair estimators require a symmetric integrand,
g(y, x) == g(x, y) bit for bit, and evaluate it once per unordered pair.
The norms pass g = |v|^p, which is symmetric because every PairField is
antisymmetric, v(y, x) == -v(x, y) (negation is exact in IEEE
arithmetic).  The oracle sums its terms block by block over the z grid
(blocks of at most 2^22 grid points), so its value depends at rounding
level on that blocking and on the order of the terms.  Within a block it
fills each sign's (m, k) arrays of terms a row group at a time (at most
ORACLE_GROUP_POINTS points, whatever WORKERS is), on the worker threads,
and contracts the whole arrays on the calling thread, in block and then
sign order, as one pass over the block would.  Every term is computed from
its own point alone, so the row groups and the worker count move no bit;
g must be safe to call from several threads.

Broadcast contract: a pair integrand takes points x and y whose shapes
broadcast against each other, (..., n), and returns values of their
broadcast leading shape, as every PairField does.  The pair estimators pass
a point shared by many pairs once: Monte Carlo evaluates g(x, [x + z, x - z])
in one call, and the oracle g(u, u +- z, z) with u of shape (rows, 1, 1)
against (rows, k, 1) and the separations z of shape (1, k).  So the lift of
a field reads u(x) once for all of them, and under the oracle computes its
kernel once per z node.  Monte Carlo passes no separation: the lift
computes |x - y| itself there.

Reflection contract: the 1-d oracle requires integrands that are even,
f(-x) == f(x) and g(-x, -y) == g(x, y), as the powers of every n = 1
field the package builds are (ScalarField, PairField).  Its weights
|x|^(-c) are even too, so it sums the x > 0 half of its grid and doubles
it.

Philox is counter-based: a stream is fixed by its key and its counter.
So each worker of an estimate builds one generator and switches it from
stream to stream by setting its state (key [seed, k], zero counter, empty
buffers); it then draws exactly what a fresh ``Philox(key=[seed, k])``
would, without the seed sequence, entropy read and lock that building one
costs.

Importance sampling is by exact radial inverse-CDF draws (power-law
radial densities are analytically invertible); no rejection sampling is
used anywhere.  The radial mixtures place mass on all of R^n (a weighted
ball component plus an unbounded Pareto tail), so the estimators are
unbiased without domain truncation; the tail_truncation_bound field of an
Estimate is 0 for that reason.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    NonNormalizableDensity,
    OracleUnavailable,
    ParameterOutOfRange,
    QuadratureFailure,
)
from .fields import ball_volume, sphere_area
from .params import row_norm

N_CHUNKS = 64
# most points evaluated in one call of an integrand (a group of chunks);
# small enough that a ball average's largest temporary, (points, 2n)
# doubles, stays under the allocator's 128 KiB mmap threshold and is reused
# from the heap instead of being mapped and faulted in afresh every group
GROUP_POINTS = 1 << 12


def _affinity_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the
    platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# threads that evaluate a fold's groups, a convolution's blocks or the pair
# oracle's row groups (_on_workers): one per CPU the process may run on
WORKERS = _affinity_cpus()
# marks a thread while it works for _on_workers, so that a fold, a
# convolution or an oracle called from inside a worker runs inline
_in_worker = threading.local()

METHOD_MONTE_CARLO = "monte_carlo"
METHOD_TENSOR_ORACLE = "tensor_oracle_1d"

# fixed grading constants of the oracle; not adaptive, for reproducibility
ORACLE_GRADING_RATIO = 1.15
ORACLE_CELL_FLOOR = 1e-8
# most (u, z) points of a row group, the pair oracle's unit of work on the
# workers: cache-sized temporaries.  A z block holds k <= 2^22 // m and
# k <= m + m // 2 + 1 nodes, so k < 2^12 and a group always holds whole rows
ORACLE_GROUP_POINTS = 1 << 16

FLAG_UNSTABLE = "EstimateUnstable"


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = METHOD_MONTE_CARLO
    samples: int = 1_000_000
    grid_points: int = 4096
    seed: int = 0
    outer_radius: Optional[float] = None  # resolved from field metadata when None

    def __post_init__(self):
        if self.method not in (METHOD_MONTE_CARLO, METHOD_TENSOR_ORACLE):
            raise ParameterOutOfRange(f"unknown quadrature method {self.method!r}")
        if self.method == METHOD_MONTE_CARLO and self.samples < 1000:
            raise ParameterOutOfRange("Monte Carlo budget must be at least 1000 samples")
        if self.samples % N_CHUNKS:
            raise ParameterOutOfRange(
                f"sample budget {self.samples} is not a multiple of the {N_CHUNKS} chunks"
            )
        if self.grid_points < 64:
            raise ParameterOutOfRange("oracle grid must have at least 64 points")
        R = self.outer_radius
        # a proposal's ball part covers B_R and its Pareto tail |x| >= 1, so
        # together they cover R^n only for a finite R >= 1
        if R is not None and not (np.isfinite(R) and R >= 1.0):
            raise ParameterOutOfRange(
                f"outer radius must be finite and at least 1 so that the proposal covers R^n, got {R}"
            )

    def digest(self, integrand_label: str) -> str:
        raw = "|".join(
            str(v)
            for v in (
                self.method,
                self.samples,
                self.grid_points,
                self.seed,
                self.outer_radius,
                # where the tail and near exponents of earlier specs stood,
                # so that every recorded digest stays valid
                None,
                None,
                integrand_label,
            )
        )
        return hashlib.sha256(raw.encode()).hexdigest()[:16]


def _merge_flags(*groups) -> tuple:
    """The flags of every group, in order of first appearance, each once."""
    return tuple(dict.fromkeys(flag for group in groups for flag in group))


@dataclass(frozen=True)
class Estimate:
    """A value and its error bar (the chunk stderr, or the oracle's
    refinement difference), flagged by ``_estimate``."""

    value: float
    stderr: float
    samples_used: int
    spec_digest: str
    tail_truncation_bound: float = 0.0
    flags: tuple = ()


def _estimate(value: float, stderr: float, samples_used: int, digest: str) -> Estimate:
    """The raw estimate, flagged EstimateUnstable when its value is not 0
    and its stderr exceeds a quarter of |value|."""
    flags = (FLAG_UNSTABLE,) if value != 0.0 and stderr > 0.25 * abs(value) else ()
    return Estimate(value=value, stderr=stderr, samples_used=samples_used, spec_digest=digest, flags=flags)


def resolve_outer_radius(spec: QuadratureSpec, support_radius: float) -> float:
    if spec.outer_radius is not None:
        return spec.outer_radius
    if np.isfinite(support_radius):
        return max(support_radius, 1.0) + 10.0
    return 50.0


def pin_outer_radius(spec: QuadratureSpec, support_radius: float) -> QuadratureSpec:
    """The spec with its outer radius resolved, so that every estimate made
    with it draws the same sample stream whatever field it integrates."""
    if spec.outer_radius is not None:
        return spec
    return replace(spec, outer_radius=resolve_outer_radius(spec, support_radius))


_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & _UINT64_MASK, chunk]))


def _switch_stream(rng: np.random.Generator, seed: int, chunk: int) -> np.random.Generator:
    """Move the Philox generator ``rng`` to the start of stream (seed, chunk),
    whatever it drew before: it then draws what ``_chunk_rng(seed, chunk)``
    would."""
    # plain tuples: the state setter copies word by word, and indexing them
    # is cheaper than indexing uint64 arrays
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _UINT64_MASK, chunk)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _to_sphere(g: np.ndarray) -> np.ndarray:
    """Rows of standard normals scaled to unit length (a zero row stays 0)."""
    norms = row_norm(g)
    norms = np.where(norms > 0.0, norms, 1.0)
    return g / norms[:, None]


def _directions(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return _to_sphere(rng.standard_normal((m, n)))


def _guard_unit(u: np.ndarray) -> np.ndarray:
    # rng.random() can return exactly 0; keep radii strictly positive
    return np.maximum(u, 1e-300)


def _ball_points(u: np.ndarray, g: np.ndarray, r: float) -> np.ndarray:
    """Uniform points of the ball B_r in R^n from uniforms u of shape (m,)
    and standard normals g of shape (m, n)."""
    radii = r * _guard_unit(u) ** (1.0 / g.shape[-1])
    return _to_sphere(g) * radii[:, None]


@dataclass(frozen=True)
class _RadialMixture:
    """50/50 mixture of a power-law ball density and a Pareto far tail.

    Ball component: density proportional to r^(-c) on B_R (requires c < n).
    Tail component: radial Pareto with index t on r >= 1.  Together they
    cover all of R^n with a strictly positive density.

    Every importance-sampling proposal of the package is one of these: the
    scalar estimator's x, the pair estimator's x and z, and lemma-4.3's.
    The pair estimator's z takes c = n - kappa and R = 1, a density
    proportional to r^(kappa - n) on B_1 (radial index kappa) matched to
    the singular kernel.
    """

    n: int
    c: float
    R: float
    t: float

    def __post_init__(self):
        if not (self.c < self.n):
            raise NonNormalizableDensity(f"ball exponent {self.c} >= dimension {self.n}")
        if self.t <= 0:
            raise NonNormalizableDensity(f"Pareto tail index {self.t} must be positive")

    def sample_radii(self, rng: np.random.Generator, m: int) -> np.ndarray:
        take_ball = rng.random(m) < 0.5
        u = _guard_unit(rng.random(m))
        r_ball = self.R * u ** (1.0 / (self.n - self.c))
        r_tail = u ** (-1.0 / self.t)
        return np.where(take_ball, r_ball, r_tail)

    def density(self, r: np.ndarray) -> np.ndarray:
        omega = sphere_area(self.n)
        z_ball = (self.n - self.c) / (omega * self.R ** (self.n - self.c))
        q_ball = np.where(r <= self.R, z_ball * r ** (-self.c), 0.0)
        q_tail = np.where(r >= 1.0, self.t / omega * r ** (-self.t - self.n), 0.0)
        return 0.5 * q_ball + 0.5 * q_tail


def _on_workers(task: Callable[[int], object], count: int) -> list:
    """``[task(i) for i in range(count)]``, on up to WORKERS threads.

    The calling thread works too.  A single task, or a call from inside a
    worker (a nested fold, convolution or oracle), runs inline.  After a task
    raises, no worker takes a new one; every task taken finishes, and then
    the exception of the first failing task is raised on the calling
    thread.  Tasks are taken in order, so that is the exception a loop
    would raise.
    """
    workers = min(WORKERS, count)
    if workers <= 1 or getattr(_in_worker, "active", False):
        return [task(i) for i in range(count)]
    results, errors = [None] * count, {}
    lock = threading.Lock()
    order = iter(range(count))

    def work() -> None:
        _in_worker.active = True
        try:
            while True:
                with lock:
                    i = None if errors else next(order, None)
                if i is None:
                    return
                try:
                    results[i] = task(i)
                except BaseException as exc:  # re-raised on the calling thread
                    with lock:
                        errors[i] = exc
        finally:
            _in_worker.active = False

    threads = [
        threading.Thread(target=work, name=f"{__name__}.worker-{w}", daemon=True) for w in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _fold_chunks(
    spec: QuadratureSpec,
    draw: Callable[[np.random.Generator, int], tuple],
    evaluate: Callable[..., np.ndarray],
) -> np.ndarray:
    """Chunk means of ``evaluate`` over the 64 chunks, in chunk order.

    ``draw(rng, m)`` returns a tuple of arrays of m rows each from a chunk's
    Philox stream.  ``evaluate`` receives the draws of consecutive chunks
    concatenated, as many as fit in GROUP_POINTS points (all axes but the
    last of the largest drawn array) and at least one, and returns values
    whose last axis runs over the rows.  It must compute each row's value
    from that row alone, so that the grouping moves no bit.

    The groups may run at once on worker threads (``_on_workers``), each
    drawing from its own generator, so ``draw`` and ``evaluate`` must be
    safe to call from several threads.  A group's chunk means depend on its
    own chunks' streams alone, so the worker count moves no bit either.
    """
    m = spec.samples // N_CHUNKS
    # each thread's own generator, moved to a chunk's stream before it draws
    rngs = threading.local()
    rngs.rng = _chunk_rng(spec.seed, 0)
    first = draw(rngs.rng, m)
    per_group = max(1, GROUP_POINTS // max(a.size // a.shape[-1] for a in first))

    def group(i: int) -> np.ndarray:
        if not hasattr(rngs, "rng"):
            rngs.rng = _chunk_rng(spec.seed, 0)
        chunks = range(i * per_group, min((i + 1) * per_group, N_CHUNKS))
        drawn = [first if k == 0 else draw(_switch_stream(rngs.rng, spec.seed, k), m) for k in chunks]
        vals = evaluate(*(np.concatenate(parts) for parts in zip(*drawn)))
        return vals.reshape(*vals.shape[:-1], len(chunks), m).mean(axis=-1)

    return np.concatenate(_on_workers(group, -(-N_CHUNKS // per_group)), axis=-1)


def _combine_chunks(chunk_means: np.ndarray, samples_used: int, digest: str) -> Estimate:
    """The mean of the chunk means and its standard error, flagged by ``_estimate``."""
    value = float(np.sum(chunk_means) / len(chunk_means))
    stderr = float(np.std(chunk_means, ddof=1) / np.sqrt(len(chunk_means)))
    return _estimate(value, stderr, samples_used, digest)


def estimate_weighted_integral_Rn(
    integrand: Callable[[np.ndarray], np.ndarray],
    n: int,
    weight_exponent: float,
    spec: QuadratureSpec,
    label: str = "",
) -> Estimate:
    """Estimate int_{R^n} f(x) |x|^(-c) dx for a nonnegative integrand f."""
    if not (0.0 <= weight_exponent < n):
        raise NonNormalizableDensity(
            f"weight exponent {weight_exponent} outside [0, {n})"
        )
    R = resolve_outer_radius(spec, np.inf)
    mix = _RadialMixture(n=n, c=weight_exponent, R=R, t=1.0)
    digest = spec.digest(f"Rn:{label}:c={weight_exponent}:n={n}")

    def draw(rng, m):
        r = mix.sample_radii(rng, m)
        return (_directions(rng, m, n) * r[:, None],)

    def evaluate(x):
        r = row_norm(x)
        return integrand(x) * r ** (-weight_exponent) / mix.density(r)

    return _combine_chunks(_fold_chunks(spec, draw, evaluate), spec.samples, digest)


def estimate_pair_integral_singular(
    pair_integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n: int,
    alpha: float,
    beta: float,
    sp: float,
    spec: QuadratureSpec,
    kappa: float,
    x_support_radius: float = np.inf,
    label: str = "",
) -> Estimate:
    """Estimate the 2n-dimensional weighted integral

        iint g(x, y) |x|^(-alpha) |y|^(-beta) dx dy

    for a nonnegative symmetric g, g(y, x) == g(x, y), concentrated near
    the diagonal (its far field must decay at least like the fractional
    kernel, radially |z|^(-n-sp) in z = y - x).  Sampling: x and z each
    from a ``_RadialMixture``, x weighted on B_R and z with density
    proportional to |z|^(kappa - n) on B_1 (ball exponent n - kappa),
    evaluated in antithetic pairs (z, -z).  The tail index of both is s*p
    shifted down by any negative weight exponent so the importance weights
    stay bounded.  By the symmetry g is evaluated once per sign and serves
    both argument orders.

    g must broadcast its arguments: it is called once per group as
    g(x, ys), x of shape (m, n) and ys = [x + z, x - z] of shape (2, m, n),
    and returns shape (2, m), so x is read once for both signs.
    """
    R = resolve_outer_radius(spec, x_support_radius)
    # the balance heuristic below scores each sample under both argument
    # orderings, so the proposal must cover the worse of the two weight
    # exponents: singular mass at the origin for max(alpha, beta) and a tail
    # heavy enough for the faster-growing weight, min(alpha, beta, 0)
    t = sp + min(alpha, beta, 0.0)
    if t <= 0:
        raise NonNormalizableDensity(f"derived tail index {t} not normalizable")
    # ball density follows the stronger weight singularity (valid below n)
    mix_x = _RadialMixture(n=n, c=max(alpha, beta), R=R, t=t)
    mix_z = _RadialMixture(n=n, c=n - kappa, R=1.0, t=t)
    digest = spec.digest(f"pair:{label}:a={alpha}:b={beta}:sp={sp}:kap={kappa}")

    def draw(rng, m):
        rx = mix_x.sample_radii(rng, m)
        x = _directions(rng, m, n) * rx[:, None]
        rz = mix_z.sample_radii(rng, m)
        return x, _directions(rng, m, n) * rz[:, None]

    def evaluate(x, z):
        rx = row_norm(x)
        rz = row_norm(z)
        qz = mix_z.density(rz)
        qx = mix_x.density(rx)
        # balance-heuristic combination of the x-anchored pair (x, x+z) and
        # the swapped y-anchored pair, both scored by the one value g(x, x+z);
        # without it the importance weight blows
        # up on the strip where one variable is far out and the other sits
        # in the support (unbounded variance)
        wx_alpha = rx ** (-alpha)
        wx_beta = wx_alpha if beta == alpha else rx ** (-beta)
        # the antithetic pair in z, y = x + z and x - z, in one call of g:
        # x broadcasts against both, so g reads it once for the two
        ys = np.stack([x + sgn * z for sgn in (1.0, -1.0)])
        vals = 0.0
        for y, g in zip(ys, pair_integrand(x, ys)):
            ry = row_norm(y)
            ry_safe = np.where(ry > 0.0, ry, 1.0)
            qsum = qz * (qx + mix_x.density(ry))
            wy_alpha = np.where(ry > 0.0, ry_safe ** (-alpha), 0.0)
            wy_beta = wy_alpha if beta == alpha else np.where(ry > 0.0, ry_safe ** (-beta), 0.0)
            both = np.where(g != 0.0, g * wx_alpha * wy_beta + g * wy_alpha * wx_beta, 0.0)
            vals = vals + 0.5 * both / qsum
        return vals

    return _combine_chunks(_fold_chunks(spec, draw, evaluate), spec.samples, digest)


def ball_average(
    integrand: Callable[[np.ndarray], np.ndarray],
    n: int,
    r: float,
    spec: QuadratureSpec,
    label: str = "",
) -> Estimate:
    """Estimate r^(-n) * int_{B_r} f(z) dz by uniform sampling in the ball."""
    if r <= 0:
        raise ParameterOutOfRange(f"ball radius must be positive, got {r}")
    digest = spec.digest(f"ball:{label}:r={r}:n={n}")

    # a chunk's draw is only its raw uniforms and normals; they are mapped to
    # ball points once per group of chunks
    def draw(rng, m):
        return rng.random(m), rng.standard_normal((m, n))

    def evaluate(u, g):
        return integrand(_ball_points(u, g, r)) * ball_volume(n)

    chunk_means = _fold_chunks(spec, draw, evaluate)
    return _combine_chunks(chunk_means, spec.samples, digest)


# ---------------------------------------------------------------------------
# deterministic 1-d tensor oracle


def _graded_half_grid(length: float, cells: int, floor: float = ORACLE_CELL_FLOOR):
    """Geometrically graded cells on (0, length], refined toward 0.

    Returns midpoints and widths, including the innermost sliver [0, b0].
    The per-cell growth ratio is capped at ORACLE_GRADING_RATIO.
    """
    q = max((floor / length) ** (1.0 / cells), 1.0 / ORACLE_GRADING_RATIO)
    bounds = length * q ** np.arange(cells, -1, -1)
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    widths = np.diff(bounds)
    mids = np.concatenate([[0.5 * bounds[0]], mids])
    widths = np.concatenate([[bounds[0]], widths])
    return mids, widths


def _oracle_weighted_1d_once(f, c: float, x_max: float, cells: int) -> float:
    """Midpoint rule for int_{-x_max}^{x_max} f(x) |x|^(-c) dx on x > 0,
    doubled: f is even, so the x < 0 half mirrors it term for term."""
    mids, widths = _graded_half_grid(x_max, cells)
    return 2.0 * float(np.sum(f(mids[:, None]) * mids ** (-c) * widths))


def _refine(once: Callable[[int], float], grid_points: int) -> tuple:
    """``once(cells)`` on a quarter, half and all of the grid, in that order.

    Small wiggles are expected when two graded axes refine together (kinked
    integrands shift relative to cell midpoints); this guard only has to
    catch catastrophic non-convergence, so it trips on a clear growth of the
    refinement difference at a non-trivial relative size.
    """
    coarse, mid, fine = (once(grid_points // k) for k in (4, 2, 1))
    d_old = abs(mid - coarse)
    d_new = abs(fine - mid)
    if d_new > 3.0 * d_old and d_new > 1e-3 * max(abs(fine), 1e-300) and d_old > 0.0:
        raise QuadratureFailure(
            f"oracle refinement did not shrink: |fine-mid|={d_new} > 3*|mid-coarse|={d_old}"
        )
    return coarse, mid, fine


def oracle_weighted_integral_1d(
    f: Callable[[np.ndarray], np.ndarray],
    c: float,
    x_max: float,
    spec: QuadratureSpec,
    label: str = "",
) -> Estimate:
    """Deterministic estimate of int_R f(x) |x|^(-c) dx with graded midpoint
    cells, on the spec's grid.  f must be even, f(-x) == f(x): the rule
    evaluates it on x > 0 only and doubles the sum.  Its stderr is
    |fine - mid|, flagged by ``_estimate`` as a chunk stderr is."""
    _, mid, fine = _refine(lambda cells: _oracle_weighted_1d_once(f, c, x_max, cells), spec.grid_points)
    digest = spec.digest(f"oracle1d:{label}:c={c}:xmax={x_max}")
    return _estimate(fine, abs(fine - mid), 2 * (spec.grid_points + 1), digest)


def _oracle_pair_1d_once(g, alpha, beta, x_max, z_max, cells) -> float:
    """Tensor midpoint rule for iint g(x, y) |x|^(-alpha) |y|^(-beta).

    Relies on g vanishing when both arguments lie outside B_{x_max} (the
    resolved effective support), which splits the plane exactly into
    {|x| <= x_max} and {|x| > x_max, |y| <= x_max}.  Each part is computed
    on a (bounded variable, z) grid with y = x + z resp. x = y - z; the z
    axis is graded toward the diagonal singularity and extended to infinity
    by an inverse-transform far segment.

    g is symmetric, so part 2's value g(u - z, u) at z is part 1's value
    g(u, u - z) at -z.  The loop runs over z > 0 only, and each value
    g(u, t), t = u +- z, feeds part 1 at y = t and part 2 at x = t.

    g is also even, g(-x, -y) == g(x, y), and both weights are even, so the
    term at (-u, z, -sign) equals the term at (u, z, sign): the bounded
    variable runs over u > 0 only, and its weights count each term twice.

    The separation of a grid point (u, z) is the node z itself, so g is
    called as g(u, t, d) with d = z of shape (1, k), one row for the
    block's k nodes: a lift computes its kernel k times per row group.  The
    points u and t = u +- z are rounded, so d matches |u - t| to rounding.
    """
    zm, zw = _graded_half_grid(z_max, cells)
    # far segment: w = 1/z mapped onto (0, 1/z_max], covering [z_max, inf)
    wm, ww = _graded_half_grid(1.0 / z_max, cells // 2)
    z = np.concatenate([zm, 1.0 / wm])
    wz = np.concatenate([zw, ww / (wm * wm)])

    u, uw = _graded_half_grid(x_max, cells, floor=1e-6)
    m = len(u)
    w1 = 2.0 * u ** (-alpha) * uw
    w2 = 2.0 * u ** (-beta) * uw

    def weighted(vals, abs_t, exponent):
        if exponent == 0.0:  # |t|^0 is 1, as in params._pow_weight
            return vals
        return vals * np.maximum(abs_t, 1e-300) ** (-exponent)

    total = 0.0
    block = max(1, (1 << 22) // m)
    for start in range(0, len(z), block):
        zb = z[start : start + block]
        wzb = wz[start : start + block]
        rows = ORACLE_GROUP_POINTS // len(zb)
        part1, part2 = np.empty((m, len(zb))), np.empty((m, len(zb)))

        def fill(i: int, sgn: float) -> None:
            r = slice(i * rows, (i + 1) * rows)
            t = u[r, None] + sgn * zb[None, :]
            abs_t = np.abs(t)
            # u (rows, 1, 1) broadcasts against t (rows, k, 1): g reads each u
            # once, and takes each node's separation |u - t| = z as (1, k)
            vals = g(u[r, None, None], t[:, :, None], zb[None, :])
            # part 1: x = u bounded, y = t anywhere
            part1[r] = weighted(vals, abs_t, beta)
            # part 2: y = u bounded, x = t restricted to |x| > x_max
            part2[r] = np.where(abs_t > x_max, part1[r] if alpha == beta else weighted(vals, abs_t, alpha), 0.0)

        for sgn in (1.0, -1.0):
            _on_workers(lambda i: fill(i, sgn), -(-m // rows))
            total += float(w1 @ part1 @ wzb)
            total += float(w2 @ part2 @ wzb)
    return total


def oracle_pair_integral_1d(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: float,
    beta: float,
    x_max: float,
    z_max: float,
    spec: QuadratureSpec,
    label: str = "",
) -> Estimate:
    """Deterministic estimate of iint g(x, y) |x|^(-alpha) |y|^(-beta) dx dy
    in n = 1 for a symmetric g, g(y, x) == g(x, y), on the (x, z) plane
    with y = x + z and graded grids toward 0, on the spec's grid.  g must
    also be even, g(-x, -y) == g(x, y): the bounded variable runs over
    x > 0 only and the sum is doubled.  g must broadcast its arguments: it
    is called as g(u, t, d) with bounded points u of shape (rows, 1, 1),
    t = u +- z of shape (rows, k, 1) and the nodes' separations d = z of
    shape (1, k), and returns shape (rows, k), so each u is read once per
    sign and block of k z nodes, not once per node.  g may read d in place
    of |u - t|, as a PairField does (the separation contract): the two
    agree to rounding.

    Each call covers one row group of at most ORACLE_GROUP_POINTS points,
    so memory does not grow with the grid.  The row groups of a block run
    on the worker threads (``_on_workers``), so g must be safe to call from
    several threads; their terms are contracted on the calling thread in
    the order of a whole-block pass, so the value does not depend on the
    worker count.  Its stderr is |fine - mid| + |mid - coarse|, flagged by
    ``_estimate`` as a chunk stderr is."""
    coarse, mid, fine = _refine(
        lambda cells: _oracle_pair_1d_once(g, alpha, beta, x_max, z_max, cells), spec.grid_points
    )
    digest = spec.digest(f"oracle2d:{label}:a={alpha}:b={beta}:xmax={x_max}:zmax={z_max}")
    return _estimate(fine, abs(fine - mid) + abs(mid - coarse), (2 * (spec.grid_points + 1)) ** 2, digest)


def tensor_oracle_1d_available(n: int) -> None:
    if n != 1:
        raise OracleUnavailable(f"the tensor oracle is only available in n=1, got n={n}")
