"""Config grammar, canonicalization/hashing, snapshot persistence."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bandlimited_field
from hyperns.config import (ConfigError, SimConfig, canonical_text,
                            config_hash, parse_config)
from hyperns.dynamics import run, taylor_green
from hyperns.lattice import DIV_TOL, WavenumberLattice
from hyperns.snapshot import SnapshotError, read_snapshot, write_snapshot

MINIMAL = """\
# minimal run configuration
nu = 1
eps = 1e-2
symbol = power
alpha = 1.25
mu = 1
n = 64
dim = 2
dt = 1e-3
t_end = 1
ic = taylor-green-2d
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.nu == 1.0 and cfg.eps == 1e-2
        assert cfg.alpha == 1.25 and cfg.n == 64
        assert cfg.eta == 0.5 and cfg.output_every == 10  # defaults

    def test_alpha_at_one_rejected(self):
        text = MINIMAL.replace("alpha = 1.25", "alpha = 1.0")
        with pytest.raises(ConfigError, match="alpha must exceed 1"):
            parse_config(text)

    def test_duplicate_key_names_line(self):
        text = MINIMAL + "nu = 2\n"
        with pytest.raises(ConfigError, match="line 12: duplicate key 'nu'"):
            parse_config(text)

    def test_unknown_key_names_line(self):
        text = MINIMAL + "viscosity = 2\n"
        with pytest.raises(ConfigError, match="line 12: unknown key"):
            parse_config(text)

    def test_missing_required_key(self):
        text = "\n".join(l for l in MINIMAL.splitlines()
                         if not l.startswith("dt"))
        with pytest.raises(ConfigError, match="missing required keys: dt"):
            parse_config(text)

    def test_type_mismatch_names_line(self):
        text = MINIMAL.replace("n = 64", "n = sixty-four")
        with pytest.raises(ConfigError, match="line 7: cannot parse"):
            parse_config(text)

    def test_negative_eps_rejected(self):
        text = MINIMAL.replace("eps = 1e-2", "eps = -1e-2")
        with pytest.raises(ConfigError, match="eps"):
            parse_config(text)

    def test_unknown_symbol_kind(self):
        text = MINIMAL.replace("symbol = power", "symbol = fractal")
        with pytest.raises(ConfigError, match="symbol"):
            parse_config(text)

    @pytest.mark.parametrize("ic,dim", [("taylor-green-2d", 3),
                                        ("taylor-green-3d", 2)])
    def test_preset_needs_its_dimension(self, ic, dim):
        text = MINIMAL.replace("dim = 2", f"dim = {dim}").replace(
            "ic = taylor-green-2d", f"ic = {ic}")
        with pytest.raises(ConfigError, match="needs dim"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["s", "nonlinear"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(MINIMAL + f"{key} = 3\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + MINIMAL + "\n# trailer\n"
        assert parse_config(text) == parse_config(MINIMAL)


class TestCanonicalization:
    def test_fixpoint(self):
        cfg = parse_config(MINIMAL)
        echoed = parse_config(canonical_text(cfg))
        assert echoed == cfg
        assert canonical_text(echoed) == canonical_text(cfg)

    def test_hash_stability_and_sensitivity(self):
        cfg = parse_config(MINIMAL)
        assert config_hash(cfg) == config_hash(parse_config(MINIMAL))
        other = parse_config(MINIMAL.replace("seed", "seed"))
        assert config_hash(other) == config_hash(cfg)
        changed = parse_config(MINIMAL.replace("nu = 1", "nu = 2"))
        assert config_hash(changed) != config_hash(cfg)


class TestSnapshot:
    def test_round_trip_bit_exact(self, tmp_path):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 1, 5)
        u.t = 0.75
        path = tmp_path / "field.hypf"
        write_snapshot(u, path, nu=0.1, eps=1e-3, symbol_spec="power")
        back, header = read_snapshot(path)
        assert np.array_equal(back.coeffs, u.coeffs)
        assert back.t == 0.75
        assert header["symbol"] == "power"
        assert float(header["nu"]) == 0.1

    def test_corrupt_payload_detected(self, tmp_path):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 2, 5)
        path = tmp_path / "field.hypf"
        write_snapshot(u, path)
        blob = bytearray(path.read_bytes())
        blob[-9] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_truncated_file(self, tmp_path):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 3, 5)
        path = tmp_path / "field.hypf"
        write_snapshot(u, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.hypf"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxx")
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_version_mismatch(self, tmp_path):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 4, 5)
        path = tmp_path / "field.hypf"
        write_snapshot(u, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    def test_snapshot_as_initial_condition(self, tmp_path):
        lat = WavenumberLattice(32, 2)
        u = bandlimited_field(lat, 5, 5, amplitude=0.3)
        u.t = 0.5
        path = tmp_path / "restart.hypf"
        write_snapshot(u, path)
        cfg = SimConfig(nu=1e-2, eps=1e-3, symbol="power", alpha=1.25,
                        n=32, dim=2, dt=5e-3, t_end=0.1,
                        ic=f"snapshot:{path}", output_every=5)
        final, records = run(cfg)
        # the run resumes from the stored time tag
        assert records[0].t == 0.5
        assert final.t == pytest.approx(0.6, abs=1e-12)

    def test_snapshot_lattice_mismatch(self, tmp_path):
        lat = WavenumberLattice(16, 2)
        u = bandlimited_field(lat, 6, 5)
        path = tmp_path / "small.hypf"
        write_snapshot(u, path)
        cfg = SimConfig(nu=1e-2, eps=1e-3, symbol="power", alpha=1.25,
                        n=32, dim=2, dt=5e-3, t_end=0.1,
                        ic=f"snapshot:{path}")
        with pytest.raises(ValueError, match="lattice"):
            run(cfg)

    @pytest.mark.parametrize("n,dim", [(16, 2), (32, 2), (16, 3)])
    def test_unprojected_taylor_green_round_trip(self, tmp_path, n, dim):
        # divergence-free in closed form, transformed in floating point
        u = taylor_green(WavenumberLattice(n, dim))
        path = tmp_path / "tg.hypf"
        write_snapshot(u, path)
        back, _ = read_snapshot(path)
        assert np.array_equal(back.coeffs, u.coeffs)

    def test_invalid_header_lattice(self, tmp_path):
        path = tmp_path / "field.hypf"
        write_snapshot(bandlimited_field(WavenumberLattice(16, 2), 7, 5), path)
        path.write_bytes(path.read_bytes().replace(b"n_per_dim=16",
                                                   b"n_per_dim=15"))
        with pytest.raises(SnapshotError, match="invalid lattice"):
            read_snapshot(path)

    def test_read_onto_a_given_lattice(self, tmp_path):
        lat = WavenumberLattice(16, 2)
        path = tmp_path / "field.hypf"
        write_snapshot(bandlimited_field(lat, 7, 5), path)
        run_lat = WavenumberLattice(16, 2)
        back, _ = read_snapshot(path, run_lat)
        assert back.lattice is run_lat
        with pytest.raises(SnapshotError, match="does not match"):
            read_snapshot(path, WavenumberLattice(16, 2, box_length=1.0))

    def test_header_not_utf8(self, tmp_path):
        path = tmp_path / "field.hypf"
        write_snapshot(bandlimited_field(WavenumberLattice(16, 2), 8, 5), path)
        path.write_bytes(path.read_bytes().replace(b"dim=2", b"dim=\xff"))
        with pytest.raises(SnapshotError, match="UTF-8"):
            read_snapshot(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_payload(self, tmp_path, value):
        path = tmp_path / "field.hypf"
        write_snapshot(bandlimited_field(WavenumberLattice(16, 2), 9, 5), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, len(blob) - 8, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="non-finite"):
            read_snapshot(path)


@pytest.fixture(scope="module")
def snapshot_file(tmp_path_factory):
    """(path, bytes, payload offset) of a small valid 2-D n=8 snapshot."""
    path = tmp_path_factory.mktemp("fuzz") / "field.hypf"
    u = bandlimited_field(WavenumberLattice(8, 2), 10, 2)
    u.t = 0.25
    write_snapshot(u, path, nu=0.1, eps=1e-3, symbol_spec="power")
    blob = path.read_bytes()
    return path, blob, 12 + struct.unpack_from("<I", blob, 8)[0]


# (in the header?, position, XOR mask): a header byte, or a payload byte
FLIPS = st.lists(st.tuples(st.booleans(), st.integers(0, 1 << 16),
                           st.integers(1, 255)), max_size=3)
# (8-byte float slot of the payload, value written there)
PATCHES = st.lists(st.tuples(st.integers(0, 1 << 16),
                             st.sampled_from([math.nan, math.inf, -math.inf])),
                   max_size=2)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(flips=FLIPS, patches=PATCHES, cut=st.one_of(st.none(),
                                                   st.integers(0, 1 << 16)))
def test_mutated_snapshot_raises_only_snapshot_error(snapshot_file, flips,
                                                     patches, cut):
    path, blob, start = snapshot_file
    data = bytearray(blob)
    for slot, value in patches:
        struct.pack_into("<d", data, start + 8 * (slot % ((len(data) - start)
                                                          // 8)), value)
    for in_header, pos, mask in flips:
        data[pos % start if in_header
             else start + pos % (len(data) - start)] ^= mask
    if cut is not None:
        del data[cut % (len(data) + 1):]
    path.write_bytes(bytes(data))
    try:
        u, _ = read_snapshot(path)
    except SnapshotError:
        return
    assert np.all(np.isfinite(u.coeffs)) and math.isfinite(u.t)
    assert u.hermitian_defect() <= 1e-12
    assert u.divergence_max() <= DIV_TOL
