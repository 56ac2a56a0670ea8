import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxdeblur.pgmio import read_pgm, write_pgm


def pgm_bytes(levels, maxval, binary):
    """A PGM file holding integer samples: P5 (big-endian above 255) or P2."""
    height, width = levels.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n".encode("ascii")
    if binary:
        return header + levels.astype(">u2" if maxval > 255 else "u1").tobytes()
    return header + "\n".join(" ".join(map(str, row)) for row in levels).encode("ascii") + b"\n"


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [7, 255, 65535])
def test_round_trip_of_quantized_values(tmp_path, rng, binary, maxval):
    # samples read back as exactly sample / maxval
    levels = rng.integers(0, maxval + 1, (9, 13))
    path = tmp_path / "img.pgm"
    path.write_bytes(pgm_bytes(levels, maxval, binary))
    assert np.array_equal(read_pgm(str(path)), levels / maxval)


def test_p2_and_p5_parse_identically(tmp_path, rng):
    levels = rng.integers(0, 256, (12, 8))
    pa = tmp_path / "a.pgm"
    pb = tmp_path / "b.pgm"
    pa.write_bytes(pgm_bytes(levels, 255, True))
    pb.write_bytes(pgm_bytes(levels, 255, False))
    assert np.array_equal(read_pgm(str(pa)), read_pgm(str(pb)))


def test_write_clamps_out_of_range(tmp_path):
    img = np.array([[-0.5, 0.0], [1.0, 2.0]])
    path = str(tmp_path / "c.pgm")
    write_pgm(path, img)
    back = read_pgm(path)
    assert np.array_equal(back, [[0.0, 0.0], [1.0, 1.0]])


def test_rounding_is_half_away_from_zero(tmp_path):
    # 0.5/255 and 1.5/255 sit exactly between levels; both round up
    img = np.array([[0.5 / 255, 1.5 / 255, 100.49 / 255, 100.51 / 255]])
    path = str(tmp_path / "r.pgm")
    write_pgm(path, img)
    levels = np.round(read_pgm(path) * 255).astype(int)
    assert levels.tolist() == [[1, 2, 100, 101]]


def test_comments_and_whitespace_tolerated(tmp_path):
    path = tmp_path / "w.pgm"
    path.write_bytes(b"P2 # magic\n# a comment line\n 3\t2 # dims\n255\n"
                     b"0 128 255\n10 20 30\n")
    img = read_pgm(str(path))
    assert img.shape == (2, 3)
    assert img[0, 2] == 1.0
    assert img[0, 1] == 128 / 255


def test_sixteen_bit_binary_is_big_endian(tmp_path):
    path = tmp_path / "b16.pgm"
    raster = (258).to_bytes(2, "big") + (65535).to_bytes(2, "big")
    path.write_bytes(b"P5\n2 1\n65535\n" + raster)
    img = read_pgm(str(path))
    assert img[0, 0] == pytest.approx(258 / 65535)
    assert img[0, 1] == 1.0


@pytest.mark.parametrize("content,fragment", [
    (b"P3\n2 2\n255\n0 0 0 0", "magic"),
    (b"P2\n-3 2\n255\n0 0", "dimensions"),
    (b"P2\nxx 2\n255\n0 0", "width"),
    (b"P2\n2 2\n0\n0 0 0 0", "maxval"),
    (b"P2\n2 2\n70000\n0 0 0 0", "maxval"),
    (b"P2\n2 2\n255\n0 1 2", "end of file"),
    (b"P2\n2 2\n255\n0 1 2 900", "out of range"),
    (b"P5\n2 2\n255\nab", "truncated"),
    (b"P5\n3 1\n255", "whitespace"),
])
def test_malformed_files_error_with_byte_offset(tmp_path, content, fragment):
    path = tmp_path / "bad.pgm"
    path.write_bytes(content)
    with pytest.raises(OSError, match=fragment) as err:
        read_pgm(str(path))
    assert "byte" in str(err.value)


def test_p2_raster_too_short_for_its_header_is_rejected_before_allocation(tmp_path):
    # 65535x65535 samples would take 32 GiB; each needs at least 2 bytes
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P2\n65535 65535\n255\n0\n")
    with pytest.raises(OSError, match=r"raster truncated.*byte 21.*from byte 18"):
        read_pgm(str(path))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pgm(str(tmp_path / "nope.pgm"))


def test_write_validation(tmp_path):
    path = str(tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        write_pgm(path, np.ones(4))


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    maxval=st.sampled_from([1, 3, 255, 4095, 65535]),
    binary=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_round_trip_property(h, w, maxval, binary, seed):
    r = np.random.default_rng(seed)
    levels = r.integers(0, maxval + 1, (h, w))
    q = r.integers(0, 256, (h, w))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "p.pgm")
        with open(path, "wb") as f:
            f.write(pgm_bytes(levels, maxval, binary))
        assert np.array_equal(read_pgm(path), levels / maxval)
        # the writer's 8-bit P5 reads back exactly
        write_pgm(path, q / 255)
        with open(path, "rb") as f:
            assert f.read() == pgm_bytes(q, 255, True)
        assert np.array_equal(read_pgm(path), q / 255)
