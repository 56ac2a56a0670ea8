"""Minimal PGM image I/O.

Images are exchanged with the solvers as float arrays in [0, 1].  Reading
takes P2 (ASCII) or P5 (binary) files with 8- or 16-bit samples and
normalizes by the declared maxval; malformed files raise OSError with the
byte offset of the problem.  Writing produces 8-bit P5, clamping to [0, 1]
and quantizing with round-half-away-from-zero.
"""

import numpy as np

__all__ = ["read_pgm", "write_pgm"]

_WS = b" \t\r\n\x0b\x0c"


def _next_token(data, pos, path):
    """Return (token, start, end) skipping whitespace and # comments."""
    n = len(data)
    while True:
        while pos < n and data[pos] in _WS:
            pos += 1
        if pos < n and data[pos] == 0x23:
            while pos < n and data[pos] != 0x0A:
                pos += 1
            continue
        break
    if pos >= n:
        raise OSError(f"{path}: unexpected end of file at byte {n}")
    start = pos
    while pos < n and data[pos] not in _WS and data[pos] != 0x23:
        pos += 1
    return data[start:pos], start, pos


def _int_token(data, pos, path, what):
    tok, start, end = _next_token(data, pos, path)
    try:
        value = int(tok)
    except ValueError:
        raise OSError(
            f"{path}: malformed {what} {tok!r} at byte {start}") from None
    return value, start, end


def read_pgm(path):
    """Read a P2 or P5 PGM file into a float array scaled to [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    magic, mstart, pos = _next_token(data, 0, path)
    if magic not in (b"P2", b"P5"):
        raise OSError(f"{path}: not a P2/P5 PGM, magic {magic!r} at byte {mstart}")
    width, wstart, pos = _int_token(data, pos, path, "width")
    height, hstart, pos = _int_token(data, pos, path, "height")
    if width < 1 or height < 1:
        raise OSError(
            f"{path}: bad dimensions {width}x{height} at byte {wstart}")
    maxval, vstart, pos = _int_token(data, pos, path, "maxval")
    if not 1 <= maxval <= 65535:
        raise OSError(
            f"{path}: maxval {maxval} out of range [1, 65535] at byte {vstart}")
    count = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WS:
            raise OSError(
                f"{path}: missing whitespace before raster at byte {pos}")
        pos += 1
        bpp = 1 if maxval < 256 else 2
        need = count * bpp
        if len(data) - pos < need:
            raise OSError(
                f"{path}: raster truncated at byte {len(data)}"
                f" (expected {need} bytes from byte {pos})")
        dtype = np.dtype(">u2") if bpp == 2 else np.dtype("u1")
        raw = np.frombuffer(data[pos:pos + need], dtype=dtype)
        samples = raw.astype(float)
    else:
        # each sample takes at least a separator and a digit
        if len(data) - pos < 2 * count:
            raise OSError(
                f"{path}: raster truncated, end of file at byte {len(data)}"
                f" (expected at least {2 * count} bytes from byte {pos})")
        samples = np.empty(count, dtype=float)
        for i in range(count):
            value, start, pos = _int_token(data, pos, path, "sample")
            if not 0 <= value <= maxval:
                raise OSError(
                    f"{path}: sample {value} out of range [0, {maxval}]"
                    f" at byte {start}")
            samples[i] = value
    bad = samples > maxval
    if bad.any():
        raise OSError(
            f"{path}: raster sample exceeds maxval {maxval}"
            f" (first at index {int(np.argmax(bad))})")
    return samples.reshape(height, width) / maxval


def write_pgm(path, img):
    """Write a float image in [0, 1] as 8-bit P5 PGM; values outside [0, 1] clamp."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"image must be 2D, got shape {img.shape}")
    q = np.floor(np.clip(img, 0.0, 1.0) * 255 + 0.5).astype(np.uint8)
    height, width = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(q.tobytes())
