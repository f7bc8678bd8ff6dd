"""Fuzzed per-mode symbol tables: tabulated_symbol raises only ValueError,
every symbol it accepts has finite wavenumbers that list each mode once and
a finite, nonnegative, even dissipative part, and every table with those
properties is accepted."""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperns.lattice import WavenumberLattice, negate_kappa
from hyperns.symbols import tabulated_symbol

LAT = WavenumberLattice(8, 2)
FLAT = np.arange(LAT.n_modes).reshape(LAT.grid_shape)
# one mode of each pair +/-kappa: the other takes its value when mirrored
CANONICAL = FLAT <= negate_kappa(FLAT, LAT.dim)
SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0,
                           -1e-13, -1e300, 1e308, 1.7976931348623157e308])
K_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def tables(draw):
    """(k, m, im): the wavenumber columns k1, k2 per row, and the intended
    dissipative part -re_ell and im_ell per mode."""
    size = LAT.n_modes
    k = LAT.k.reshape(LAT.dim, size).copy()
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, size - 1))
        if draw(st.booleans()):
            k[draw(st.integers(0, LAT.dim - 1)), row] = draw(K_SPECIAL)
        else:
            # the row takes another row's mode (or keeps its own)
            k[:, row] = k[:, draw(st.integers(0, size - 1))]
    m = np.array(draw(st.lists(st.floats(0.0, 1e300), min_size=size,
                               max_size=size)))
    im = np.zeros(size)
    for _ in range(draw(st.integers(0, 3))):
        part = (m, im)[draw(st.integers(0, 1))]
        part[draw(st.integers(0, size - 1))] = draw(SPECIAL)
    m = m.reshape(LAT.grid_shape)
    if draw(st.booleans()):
        m = np.where(CANONICAL, m, negate_kappa(m, LAT.dim))
    return k, m, im.reshape(LAT.grid_shape)


def write_table(path, k, m, im):
    rows = ["k1,k2,k3,re_ell,im_ell"]
    for row, idx in enumerate(np.ndindex(LAT.grid_shape)):
        vals = (k[0, row], k[1, row], 0.0, -m[idx], im[idx])
        rows.append(",".join(repr(float(v)) for v in vals))
    path.write_text("\n".join(rows) + "\n")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tables())
def test_tabulated_symbol_raises_only_value_error(table):
    k, m, im = table
    modes_once = (np.all(np.isfinite(k))
                  and len({tuple(mode) for mode in k.T}) == LAT.n_modes)
    valid = (modes_once and np.all(np.isfinite(m)) and np.all(np.isfinite(im))
             and np.min(m) >= 0 and np.array_equal(m, negate_kappa(m, LAT.dim)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sym.csv"
        write_table(path, k, m, im)
        try:
            sym = tabulated_symbol(LAT, path)
        except ValueError:
            assert not valid
            return
    assert modes_once
    assert np.all(np.isfinite(sym.ell))
    assert np.all(np.isfinite(sym.m)) and np.min(sym.m) >= 0.0
    odd = np.max(np.abs(sym.m - negate_kappa(sym.m, LAT.dim)))
    assert odd <= 1e-10 * max(np.max(sym.m), 1.0)
