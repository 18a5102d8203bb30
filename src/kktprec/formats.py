"""File formats: PGM images (P2 ascii in and out, P5 binary in), observation
point files, and atomic writes.

All writes go through a temp-file-plus-rename so partially written artifacts
never appear under their final name.
"""

from __future__ import annotations

import os

import numpy as np

from .mesh import ObservationSet, TriMesh


class PgmFormatError(ValueError):
    """Malformed PGM header or truncated pixel data."""


class ObservationFileError(ValueError):
    """Malformed observation point file."""


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write payload to path through a temp file in the same directory. The
    temp file is created with mode 0o666 less the umask, the mode open()
    gives a new file, which the rename keeps (mkstemp would give 0o600)."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _pgm_header_tokens(data: bytes, count: int):
    """Pull `count` whitespace-separated tokens, skipping # comments.
    Returns the tokens and the offset just past the final separator."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
            i += 1
        if start == i:
            raise PgmFormatError("truncated PGM header")
        tokens.append(data[start:i])
    if i >= n or not data[i : i + 1].isspace():
        raise PgmFormatError("PGM header must end with whitespace")
    return tokens, i + 1


def read_pgm(path: str) -> np.ndarray:
    """Read a P2 (ascii) or P5 (binary) PGM; returns float64 array (rows, cols).

    maxval up to 65535 is supported; P5 pixels wider than one byte are
    big-endian per the format.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    tokens, offset = _pgm_header_tokens(blob, 4)
    magic = tokens[0]
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise PgmFormatError(f"non-integer PGM header field: {exc}") from exc
    if width <= 0 or height <= 0:
        raise PgmFormatError("PGM dimensions must be positive")
    if not (0 < maxval <= 65535):
        raise PgmFormatError(f"PGM maxval {maxval} outside (0, 65535]")

    count = width * height
    if magic == b"P2":
        fields = blob[offset:].split()
        if len(fields) < count:
            raise PgmFormatError(f"expected {count} pixels, found {len(fields)}")
        try:
            pixels = np.array([int(f) for f in fields[:count]], dtype=np.int64)
        except ValueError as exc:
            raise PgmFormatError(f"non-integer pixel: {exc}") from exc
    elif magic == b"P5":
        width_bytes = 1 if maxval < 256 else 2
        raw = blob[offset : offset + count * width_bytes]
        if len(raw) < count * width_bytes:
            raise PgmFormatError("truncated P5 pixel data")
        dtype = np.dtype(np.uint8) if width_bytes == 1 else np.dtype(">u2")
        pixels = np.frombuffer(raw, dtype=dtype).astype(np.int64)
    else:
        raise PgmFormatError(f"unsupported PGM magic {magic!r}")

    if pixels.min() < 0 or pixels.max() > maxval:
        raise PgmFormatError("pixel value outside [0, maxval]")
    return pixels.reshape(height, width).astype(np.float64)


def write_pgm(path: str, pixels: np.ndarray, comments: tuple[str, ...] = ()) -> None:
    """Write integer pixels (rows, cols) in [0, 255] as ascii P2."""
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise PgmFormatError("pixel array must be 2-D")
    ints = np.rint(arr).astype(np.int64)
    if ints.min() < 0 or ints.max() > 255:
        raise PgmFormatError("P2 writer expects values in [0, 255]")
    lines = ["P2"]
    for comment in comments:
        if "\n" in comment:
            raise PgmFormatError("PGM comments must be single lines")
        lines.append(f"# {comment}")
    lines.append(f"{ints.shape[1]} {ints.shape[0]}")
    lines.append("255")
    for row in ints:
        lines.append(" ".join(str(int(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def field_to_pixels(values: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Rasterize vertex values onto the structured grid as [0, 255] pixels.

    Row 0 of the image is the top of the domain. The value range maps
    linearly min to 0 and max to 255; a constant field rasterizes to zeros.
    """
    grid = np.asarray(values, dtype=np.float64).reshape(ny + 1, nx + 1)
    grid = grid[::-1]  # vertex row iy=ny is image row 0
    lo = float(grid.min())
    hi = float(grid.max())
    if hi > lo:
        return np.rint((grid - lo) * (255.0 / (hi - lo)))
    return np.zeros_like(grid)


def write_observations(path: str, obs: ObservationSet) -> None:
    """One "x y" pair per line at 17 significant digits (lossless for float64)."""
    lines = [f"{x:.17g} {y:.17g}" for x, y in obs.points]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_observations(path: str, lx: float, ly: float) -> ObservationSet:
    points = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ObservationFileError(f"{path}:{lineno}: expected 'x y'")
            try:
                points.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ObservationFileError(f"{path}:{lineno}: {exc}") from exc
    if not points:
        raise ObservationFileError(f"{path}: no observation points")
    return ObservationSet(points=np.array(points), lx=lx, ly=ly)


def write_field_pgm(
    path: str, mesh: TriMesh, values: np.ndarray, comments: tuple[str, ...] = ()
) -> None:
    write_pgm(path, field_to_pixels(values, mesh.nx, mesh.ny), comments=comments)
