import os
from dataclasses import asdict, replace
import subprocess
import sys

import numpy as np
import pytest

from sobolev_wlab import (
    QuadratureSpec,
    gaussian_field,
    hat_1d_field,
    lift_difference_quotient,
    norm_full,
    norm_lpaa_2n,
    norm_lpstar_a,
    seminorm_general,
    seminorm_wspa,
    smooth_bump_field,
    validate_general_weights,
    validate_params,
    zero_field,
)
from sobolev_wlab.fields import ScalarField
from sobolev_wlab.quadrature import FLAG_UNSTABLE


def test_bridge_identity_bit_exact(params1d, fast_spec):
    u = smooth_bump_field(1.0)
    semi = seminorm_wspa(u, params1d, fast_spec)
    pair = norm_lpaa_2n(lift_difference_quotient(u, params1d), params1d, fast_spec)
    assert semi.value == pair.value
    assert semi.stderr == pair.stderr


def test_zero_field_norms(params1d, fast_spec):
    z = zero_field()
    rep = norm_full(z, params1d, fast_spec)
    assert rep.seminorm.value == 0.0
    assert rep.lpstar.value == 0.0
    assert rep.full == 0.0


def test_homogeneity_crn(params1d, fast_spec):
    """||c*u|| = |c| * ||u|| exactly under common random numbers."""
    u = smooth_bump_field(1.0)
    scaled_u = ScalarField(f"scale(-3.0,{u.label})", lambda x: -3.0 * u(x), u.support_radius, u.smoothness)
    base = seminorm_wspa(u, params1d, fast_spec)
    scaled = seminorm_wspa(scaled_u, params1d, fast_spec)
    assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-12)
    lp_base = norm_lpstar_a(u, params1d, fast_spec)
    lp_scaled = norm_lpstar_a(scaled_u, params1d, fast_spec)
    assert lp_scaled.value == pytest.approx(3.0 * lp_base.value, rel=1e-12)


def test_mc_agrees_with_oracle(params1d, oracle_spec):
    u = smooth_bump_field(1.0)
    mc = QuadratureSpec(samples=256000, seed=11)
    for fn in (seminorm_wspa, norm_lpstar_a):
        em = fn(u, params1d, mc)
        eo = fn(u, params1d, oracle_spec)
        assert abs(em.value - eo.value) <= 4 * (em.stderr + eo.stderr)


def test_seminorm_oracle_against_scipy_reference(params1d, oracle_spec):
    # adaptive-quadrature reference computed independently for
    # u = smooth_bump(1), n=1, s=0.3, p=2, a=0.1
    u = smooth_bump_field(1.0)
    est = seminorm_wspa(u, params1d, oracle_spec)
    assert est.value == pytest.approx(1.1623243, abs=2e-4)


def test_seminorm_general_symmetric_in_swapped_weights(params1d, fast_spec):
    u = smooth_bump_field(1.0)
    gw1 = validate_general_weights(params1d, -0.3, 0.5)
    gw2 = validate_general_weights(params1d, 0.5, -0.3)
    e1 = seminorm_general(u, params1d, gw1, fast_spec)
    e2 = seminorm_general(u, params1d, gw2, fast_spec)
    # the energy is symmetric under (alpha, beta) swap for symmetric kernels
    assert abs(e1.value - e2.value) <= 4 * (e1.stderr + e2.stderr)


def test_general_seminorm_matches_pair_norm_at_a(params1d, fast_spec):
    """At alpha = beta = a the general energy equals the seminorm^p."""
    u = hat_1d_field()
    gw = validate_general_weights(params1d, params1d.a, params1d.a)
    raw = seminorm_general(u, params1d, gw, fast_spec)
    semi = seminorm_wspa(u, params1d, fast_spec)
    assert raw.value == pytest.approx(semi.value ** params1d.p, rel=1e-10)


def test_root_passes_flags_on():
    """Instability is decided on the raw estimate, where it is made; the
    root passes the raw flags on and adds none, however wide the bar."""
    from sobolev_wlab.norms import _root
    from sobolev_wlab.quadrature import Estimate

    noisy = _root(Estimate(value=1.0, stderr=0.9, samples_used=10, spec_digest="d"), 2.0)
    assert noisy.flags == ()
    assert noisy.stderr == pytest.approx(0.45)
    flagged = Estimate(value=1.0, stderr=0.3, samples_used=10, spec_digest="d", flags=(FLAG_UNSTABLE,))
    assert _root(flagged, 2.0).flags == (FLAG_UNSTABLE,)
    assert _root(replace(flagged, value=0.0), 2.0).flags == (FLAG_UNSTABLE,)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_headline_critical_norm_unbiased():
    """The n = 3 critical norm of the gaussian at a = 0 lies within 4 chunk
    stderrs of its closed form (pi/p*)^(n/(2 p*)) = 1.14690, unflagged.  It
    reads about 0.5647 +- 0.0011: the proposal's fixed length scales 1 and
    R = 50 sample the unit-width field almost nowhere."""
    params = validate_params(3, 0.3, 2.0, 0.0)
    est = norm_lpstar_a(gaussian_field(), params, QuadratureSpec(samples=262_144, seed=0))
    exact = (np.pi / params.p_star) ** (params.n / (2.0 * params.p_star))
    assert abs(est.value - exact) <= 4.0 * est.stderr
    assert est.flags == ()


def test_norm_report_shape(params1d, fast_spec):
    u = smooth_bump_field(1.0)
    rep = norm_full(u, params1d, fast_spec)
    assert rep.full == rep.seminorm.value + rep.lpstar.value
    d = asdict(rep)
    assert set(d) == {"seminorm", "lpstar", "full", "params", "field_id"}


# norm_full of smooth_bump(R=1) at s=0.3, p=2, a=0.1, 262,144 samples, seed 7:
# (seminorm value, stderr, lpstar value, stderr) as float.hex
GOLDEN_NORM_FULL = {
    1: ("0x1.278097aa7eff2p+0", "0x1.c5a1a83027c70p-9", "0x1.bc8f3e926fc55p-2", "0x1.fa26b46c4f45cp-12"),
    2: ("0x1.f74551659239cp+0", "0x1.ab615115856e7p-6", "0x1.76dbd47dd0bf9p-2", "0x1.1108296e83ee3p-8"),
    3: ("0x1.2c28af2e5f54fp+1", "0x1.b744a06eeda1fp-4", "0x1.3cc0f1d5db3e2p-2", "0x1.209e631a1448bp-6"),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_full_golden(n):
    """At this budget the chunks are evaluated in several groups; the
    estimates must not depend on how the chunks are grouped."""
    params = validate_params(n, 0.3, 2.0, 0.1)
    rep = norm_full(smooth_bump_field(1.0), params, QuadratureSpec(samples=262_144, seed=7))
    got = (rep.seminorm.value, rep.seminorm.stderr, rep.lpstar.value, rep.lpstar.stderr)
    assert tuple(v.hex() for v in got) == GOLDEN_NORM_FULL[n]


MEMORY_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (700 << 20, 700 << 20))
from sobolev_wlab import QuadratureSpec, norm_full, pipeline_rho, smooth_bump_field, validate_params
from sobolev_wlab.fields import default_cutoff, default_mollifier, subtract
u = smooth_bump_field(1.0)
rho = pipeline_rho(u, 1.0, 0.1, default_cutoff(), default_mollifier(2), 128)
rep = norm_full(subtract(u, rho), validate_params(2, 0.3, 2.0, 0.1), QuadratureSpec(samples=16_384, seed=7))
print(rep.full)
"""


def _memory_child(code: str) -> list:
    """The numbers a child interpreter prints, after it ran ``code`` (which
    sets its own address-space limit) to completion."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [float(v) for v in proc.stdout.split()]


def test_norm_memory_bounded():
    """The approximation error of the n=2 mollified bump at 16,384 samples
    (what approx computes) must run in 700 MB of address space, because
    chunks are processed in bounded groups and the table of rho is built
    in bounded batches."""
    assert _memory_child(MEMORY_CHILD)[0] > 0.0


CONVOLUTION_MEMORY_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (700 << 20, 700 << 20))
import numpy as np
from sobolev_wlab import convolve_field, gaussian_field, pipeline_rho, smooth_bump_field
from sobolev_wlab.fields import default_cutoff, default_mollifier
x = np.random.default_rng(7).uniform(-1.2, 1.2, (4096, 3))
rho = pipeline_rho(smooth_bump_field(1.0), 1.0, 0.1, default_cutoff(), default_mollifier(3), 512)
direct = convolve_field(gaussian_field(), 0.1, default_mollifier(3), 512)
print(np.max(rho(x)), np.max(direct(x)))
"""


def test_convolution_memory_bounded():
    """At conv_grid 512 in n=3 (K = 8,192 nodes) the table of a convolved
    bump (1,088 radii x K) and the direct convolution of the gaussian at
    4,096 points (4,096 x K) must each run in 700 MB of address space,
    because the table convolves its radii in batches and direct convolution
    takes its points in bounded blocks."""
    assert all(v > 0.0 for v in _memory_child(CONVOLUTION_MEMORY_CHILD))


def test_hat_lpstar_against_closed_form():
    # unweighted case a=0: int_{-1}^{1} (1-|x|)^{p*} dx = 2/(p*+1)
    params = validate_params(1, 0.3, 2.0, 0.0)
    u = hat_1d_field()
    est = norm_lpstar_a(u, params, QuadratureSpec(samples=256000, seed=13))
    exact = (2.0 / (params.p_star + 1.0)) ** (1.0 / params.p_star)
    assert abs(est.value - exact) <= 4 * est.stderr + 1e-4


FLAG_ORDER_CHILD = """
from sobolev_wlab import verification, validate_params
from sobolev_wlab.norms import NormReport, _root
from sobolev_wlab.quadrature import FLAG_UNSTABLE, Estimate
rooted = _root(Estimate(1.0, 0.9, 64, "d", flags=("b", FLAG_UNSTABLE)), 2.0)
semi = Estimate(1.0, 0.1, 64, "d", flags=("a", FLAG_UNSTABLE))
lp = Estimate(1.0, 0.1, 64, "e", flags=(FLAG_UNSTABLE, "b"))
params = validate_params(1, 0.3, 2.0, 0.1)
verification.norm_full = lambda u, p, spec: NormReport(semi, lp, 2.0, p, "f")
print(rooted.flags, verification._full_norm_estimate(None, params, None).flags)
"""


def test_flag_order_independent_of_hash_seed():
    """Merged flags keep their first-appearance order, so a record's flags
    do not depend on string hashing.  "a" and "b" stand in for any flags
    beside EstimateUnstable."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = set()
    for hash_seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", FLAG_ORDER_CHILD], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.add(proc.stdout)
    assert outputs == {"('b', 'EstimateUnstable') ('a', 'EstimateUnstable', 'b')\n"}
