import os
import stat

import numpy as np
import pytest

from kktprec.formats import (
    ObservationFileError,
    PgmFormatError,
    atomic_write_bytes,
    atomic_write_text,
    field_to_pixels,
    read_observations,
    read_pgm,
    write_field_pgm,
    write_observations,
    write_pgm,
)
from kktprec.harness import generate_observations
from kktprec.mesh import build_mesh


def test_pgm_p2_round_trip(tmp_path):
    path = str(tmp_path / "img.pgm")
    pixels = np.array([[0, 128, 255], [5, 7, 9]])
    write_pgm(path, pixels, comments=("a comment", "another"))
    back = read_pgm(path)
    assert np.array_equal(back, pixels.astype(float))


def test_pgm_p2_parser_tolerates_comments(tmp_path):
    path = str(tmp_path / "c.pgm")
    path_bytes = b"P2\n# hello\n2 2 # trailing\n255\n0 1\n2 3\n"
    with open(path, "wb") as f:
        f.write(path_bytes)
    assert np.array_equal(read_pgm(path), [[0.0, 1.0], [2.0, 3.0]])


def test_pgm_p5_single_byte(tmp_path):
    path = str(tmp_path / "b.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n3 2\n255\n" + bytes([0, 1, 2, 3, 4, 5]))
    assert np.array_equal(read_pgm(path), [[0, 1, 2], [3, 4, 5]])


def test_pgm_p5_two_byte_big_endian(tmp_path):
    path = str(tmp_path / "wide.pgm")
    vals = np.array([[256, 65535], [0, 513]], dtype=">u2")
    with open(path, "wb") as f:
        f.write(b"P5\n2 2\n65535\n" + vals.tobytes())
    assert np.array_equal(read_pgm(path), [[256, 65535], [0, 513]])


def test_pgm_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.pgm")
    with open(path, "wb") as f:
        f.write(b"P6\n1 1\n255\n\x00")
    with pytest.raises(PgmFormatError):
        read_pgm(path)


def test_pgm_rejects_truncated_p5(tmp_path):
    path = str(tmp_path / "trunc.pgm")
    with open(path, "wb") as f:
        f.write(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(PgmFormatError):
        read_pgm(path)


def test_pgm_rejects_pixel_above_maxval(tmp_path):
    path = str(tmp_path / "over.pgm")
    with open(path, "wb") as f:
        f.write(b"P2\n2 1\n10\n5 11\n")
    with pytest.raises(PgmFormatError):
        read_pgm(path)


def test_pgm_writer_rejects_out_of_range(tmp_path):
    with pytest.raises(PgmFormatError):
        write_pgm(str(tmp_path / "x.pgm"), np.array([[300]]))


def test_field_to_pixels_linear_map():
    values = np.arange(6.0)  # 3x2 grid of vertices: nx=2, ny=1
    px = field_to_pixels(values, 2, 1)
    assert px.shape == (2, 3)
    assert px.min() == 0.0 and px.max() == 255.0
    # top image row is the iy=1 vertex row
    assert np.array_equal(px[0], np.rint((np.array([3.0, 4.0, 5.0]) / 5.0) * 255))


def test_field_to_pixels_constant_field():
    assert np.array_equal(field_to_pixels(np.full(4, 2.5), 1, 1), np.zeros((2, 2)))


def test_write_field_pgm_round_trip(tmp_path):
    mesh = build_mesh(1.0, 1.0, 3, 2)
    values = np.linspace(0.0, 1.0, mesh.n_vertices)
    path = str(tmp_path / "field.pgm")
    write_field_pgm(path, mesh, values, comments=("field",))
    img = read_pgm(path)
    assert img.shape == (mesh.ny + 1, mesh.nx + 1)


def test_observations_round_trip_exact(tmp_path):
    obs = generate_observations(42, 25, 1.45, 1.0)
    path = str(tmp_path / "obs.txt")
    write_observations(path, obs)
    back = read_observations(path, 1.45, 1.0)
    # 17 significant digits reproduce float64 bit for bit
    assert np.array_equal(back.points, obs.points)


def test_observations_rejects_malformed_line(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as f:
        f.write("0.5 0.5 0.5\n")
    with pytest.raises(ObservationFileError):
        read_observations(path, 1.0, 1.0)


def test_observations_rejects_empty_file(tmp_path):
    path = str(tmp_path / "empty.txt")
    with open(path, "w") as f:
        f.write("\n")
    with pytest.raises(ObservationFileError):
        read_observations(path, 1.0, 1.0)


def test_observations_rejects_outside_domain(tmp_path):
    from kktprec.mesh import PointLocationError

    path = str(tmp_path / "out.txt")
    with open(path, "w") as f:
        f.write("2.0 0.5\n")
    with pytest.raises(PointLocationError):
        read_observations(path, 1.0, 1.0)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "hello")
    atomic_write_bytes(path, b"world")  # overwrite
    assert open(path, "rb").read() == b"world"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_atomic_write_gives_the_umask_mode(tmp_path, umask):
    path = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        atomic_write_bytes(str(path), b"x")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask
