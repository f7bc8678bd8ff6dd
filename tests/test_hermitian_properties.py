"""Property tests: every field a constructor builds is exactly Hermitian,
and one time step keeps it exactly Hermitian, divergence-free and the
nonlinear term energy-neutral.

Fields come from `random_field`, `taylor_green` and `from_physical` of
random noise, on 2-D and 3-D lattices with small even n.  Exactness means
`== 0.0`, not a tolerance: the transforms run in the rfftn half layout,
and `full_layout` fills the other half by conjugation.

Energy neutrality is drawn on n not divisible by 3.  When 3 divides n the
dealias band |kappa_i| <= floor(n/3) = n/3 is one mode too wide: the sum
of two band-edge modes, 2n/3, aliases to -n/3, inside the band.  The
strict xfail below keeps that defect in view until the band is fixed.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperns.dynamics import (Stepper, TrajectoryState, nonlinear_term,
                              random_field, taylor_green)
from hyperns.lattice import (DIV_TOL, SobolevIndex, SpectralVelocity,
                             WavenumberLattice, dealias, inner_product,
                             leray_project, sobolev_norm)
from hyperns.symbols import power_symbol

# criterion 3's bound on the normalized pairing <B(u), u>
NEUTRALITY_TOL = 1e-12
CONSTRUCTORS = ("random_field", "taylor_green", "from_physical")
# n per dim, and those without the 3 | n dealias defect
SIZES = {2: [8, 10, 12, 16], 3: [8, 10, 12]}
SIZES_NOT_3 = {dim: [n for n in ns if n % 3] for dim, ns in SIZES.items()}


@st.composite
def fields(draw, sizes=SIZES):
    """(constructor name, field as built, lattice)."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from(sizes[dim]))
    seed = draw(st.integers(0, 2 ** 16))
    kind = draw(st.sampled_from(CONSTRUCTORS))
    lat = WavenumberLattice(n, dim)
    if kind == "random_field":
        u = random_field(lat, seed, 2.0, 3.0, 1.0)
    elif kind == "taylor_green":
        u = taylor_green(lat)
    else:
        noise = np.random.default_rng(seed).standard_normal(
            (dim,) + lat.grid_shape)
        u = SpectralVelocity.from_physical(lat, noise)
    return kind, u, lat


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(fields())
def test_constructed_fields_are_exactly_hermitian(case):
    _, u, lat = case
    assert u.hermitian_defect() == 0.0
    assert np.array_equal(lat.full_layout(lat.half(u.coeffs)), u.coeffs)


def neutrality(u: SpectralVelocity) -> float:
    """Criterion 3's normalized pairing |<B(u), u>| / (||u||^2 ||u||_H1)."""
    grad = sobolev_norm(u, SobolevIndex(1.0, "homogeneous"))
    return abs(inner_product(nonlinear_term(u), u)) / (u.l2_norm() ** 2 * grad)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(fields(sizes=SIZES_NOT_3))
def test_step_keeps_invariants(case):
    _, u, lat = case
    u = dealias(leray_project(u))
    assert neutrality(u) <= NEUTRALITY_TOL
    stepper = Stepper(lat, power_symbol(lat, 1.0, 1.25), 1e-2, 1e-4, 1e-3)
    u1 = stepper.step(TrajectoryState(u=u, t=0.0, step_index=0)).u
    assert u1.hermitian_defect() == 0.0
    assert u1.divergence_max() <= DIV_TOL


@pytest.mark.xfail(strict=True, reason="floor(n/3) band aliases when 3 | n")
@pytest.mark.parametrize("dim", [2, 3])
def test_energy_neutrality_when_3_divides_n(dim):
    u = random_field(WavenumberLattice(12, dim), 1, 2.0, 3.0, 1.0)
    assert neutrality(u) <= NEUTRALITY_TOL
