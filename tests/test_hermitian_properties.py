"""Property tests: every field a constructor builds is exactly Hermitian,
and one time step keeps it exactly Hermitian, divergence-free and the
nonlinear term energy-neutral.  A step through the band transforms
equals, byte for byte, the step through the full ones.

Fields come from `random_field`, `taylor_green` and `from_physical` of
random noise, on 2-D and 3-D lattices with small even n.  Exactness means
`== 0.0`, not a tolerance: the transforms run in the rfftn half layout,
and `full_layout` fills the other half by conjugation.

Energy neutrality is drawn on every size.  The dealias band keeps
|kappa_i| < n/3, so the sum of two kept modes never aliases into the band;
a test on n = 12 keeps the case 3 | n in view, where a band |kappa_i| <= n/3
would alias.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_irfftn, full_rfftn
from hyperns.dynamics import (Stepper, TrajectoryState, nonlinear_term,
                              random_field, taylor_green)
from hyperns.lattice import (DIV_TOL, SobolevIndex, SpectralVelocity,
                             WavenumberLattice, dealias, inner_product,
                             leray_project, sobolev_norm)
from hyperns.symbols import power_symbol

# criterion 3's bound on the normalized pairing <B(u), u>
NEUTRALITY_TOL = 1e-12
CONSTRUCTORS = ("random_field", "taylor_green", "from_physical")
# n per dim
SIZES = {2: [8, 10, 12, 16], 3: [8, 10, 12]}


@st.composite
def fields(draw):
    """(constructor name, field as built, lattice)."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from(SIZES[dim]))
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
@given(fields())
def test_step_keeps_invariants(case):
    _, u, lat = case
    u = dealias(leray_project(u))
    assert neutrality(u) <= NEUTRALITY_TOL
    stepper = Stepper(power_symbol(lat, 1.0, 1.25), 1e-2, 1e-4, 1e-3)
    u1 = stepper.step(TrajectoryState.start(u)).u
    assert u1.hermitian_defect() == 0.0
    assert u1.divergence_max() <= DIV_TOL


@st.composite
def noise_fields(draw):
    """A dealiased divergence-free field from noise; 3 | n is drawn too."""
    dim = draw(st.sampled_from([2, 3]))
    lat = WavenumberLattice(draw(st.sampled_from([8, 10, 12, 16])), dim)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    noise = rng.standard_normal((dim,) + lat.grid_shape)
    u = leray_project(SpectralVelocity.from_physical(lat, noise))
    return dealias(u)


def full_transforms():
    """Patch the lattice so that its transforms are numpy's full ones; the
    forward one then gives the band of the full transform."""
    return mock.patch.multiple(
        WavenumberLattice,
        forward=lambda self, a: self.gather_band(full_rfftn(self, a)),
        inverse=full_irfftn)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(noise_fields())
def test_band_step_is_the_full_step_bit_for_bit(u):
    stepper = Stepper(power_symbol(u.lattice, 1.0, 1.25), 1e-2, 1e-4, 1e-3)
    state = TrajectoryState.start(u)
    band = stepper.step(state)
    with full_transforms():
        full = stepper.step(state)
    assert band.u.coeffs.tobytes() == full.u.coeffs.tobytes()
    assert band.cfl_estimate == full.cfl_estimate


@pytest.mark.parametrize("dim", [2, 3])
def test_energy_neutrality_when_3_divides_n(dim):
    u = random_field(WavenumberLattice(12, dim), 1, 2.0, 3.0, 1.0)
    assert neutrality(u) <= NEUTRALITY_TOL
