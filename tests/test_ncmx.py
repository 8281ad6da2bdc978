import struct

import numpy as np
import pytest

from netcm.ncmx import MAGIC, NcmxError, read_matrix, write_matrix


def test_roundtrip(tmp_path, rng):
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "m.ncmx"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


def test_byte_layout(tmp_path):
    m = np.array([[1.0 + 2.0j, -3.0]])
    path = tmp_path / "m.ncmx"
    write_matrix(path, m)
    data = path.read_bytes()
    assert data[:4] == MAGIC
    version, rows, cols = struct.unpack_from("<IQQ", data, 4)
    assert (version, rows, cols) == (1, 1, 2)
    floats = struct.unpack_from("<4d", data, 24)
    assert floats == (1.0, 2.0, -3.0, 0.0)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ncmx"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(NcmxError, match="magic"):
        read_matrix(path)


def test_rejects_truncation(tmp_path, rng):
    path = tmp_path / "m.ncmx"
    write_matrix(path, rng.standard_normal((4, 4)).astype(complex))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(NcmxError, match="bytes"):
        read_matrix(path)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                 complex(np.inf, 0.0), complex(1.0, -np.inf)])
def test_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "m.ncmx"
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    write_matrix(path, m)
    with pytest.raises(NcmxError, match="non-finite"):
        read_matrix(path)
