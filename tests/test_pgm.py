import time

import numpy as np
import pytest

from oscconv import InputError
from oscconv.pgm import read_pgm, write_pgm


def test_write_read_roundtrip(tmp_path):
    raw = np.arange(12, dtype=np.float64).reshape(3, 4) * 20
    path = tmp_path / "img.pgm"
    write_pgm(path, raw, maxval=255)
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, raw)


def test_read_ascii_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n# a comment\n2 3\n# another\n255\n0 10\n20 30\n40 50\n")
    raw, maxval = read_pgm(path)
    assert raw.shape == (3, 2)
    assert maxval == 255
    assert np.array_equal(raw, [[0, 10], [20, 30], [40, 50]])


def test_read_binary(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30]))
    raw, maxval = read_pgm(path)
    assert raw.shape == (2, 3)
    assert np.array_equal(raw, [[0, 128, 255], [10, 20, 30]])


def test_binary_raster_may_contain_whitespace_bytes(tmp_path):
    # 0x20 and 0x0a are valid pixel values in P5 raster data
    path = tmp_path / "ws.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0x20, 0x0A, 0x00, 0xFF]))
    raw, _ = read_pgm(path)
    assert np.array_equal(raw, [[32, 10], [0, 255]])


def test_small_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P2\n2 2\n15\n0 5\n10 15\n")
    raw, maxval = read_pgm(path)
    assert maxval == 15
    assert raw.max() == 15


@pytest.mark.parametrize(
    "payload",
    [
        b"P3\n2 2\n255\n0 0 0 0\n",          # wrong magic
        b"P2\n2 2\n255\n0 0 0\n",            # too few pixels
        b"P2\n2 2\n255\n0 0 0 0 0\n",        # too many pixels
        b"P2\n2 2\n65535\n0 0 0 0\n",        # 16-bit depth
        b"P2\n0 2\n255\n\n",                 # zero dimension
        b"P2\n2 2\n255\n0 0 0 abc\n",        # non-numeric pixel
        b"P2\n2 x\n255\n0 0 0 0\n",          # non-numeric header
        b"P2\n2 2\n255\n0 0 0 300\n",        # pixel above maxval
        b"P5\n2 2\n255\n\x00\x01",           # truncated raster
        b"P2\n2 2",                          # truncated header
    ],
)
def test_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(InputError):
        read_pgm(path)


@pytest.mark.parametrize(
    "payload",
    [
        b"P2\r\n1 1\r\n255\r\n9\r\n",  # CRLF line ends
        b"P2#c\n1 1 255\n9\n",           # a comment right after the magic
        b"P2 1#c\n1 255\n9\n",           # a comment right after a token
    ],
)
def test_header_separators(tmp_path, payload):
    path = tmp_path / "s.pgm"
    path.write_bytes(payload)
    raw, maxval = read_pgm(path)
    assert np.array_equal(raw, [[9]])
    assert maxval == 255


@pytest.mark.parametrize(
    "payload",
    [
        b"P2\n2 2",                  # truncated
        b"P2 1 # no newline",        # unterminated comment
        b"P21 1 1 255\n9\n",         # a magic token longer than two bytes
    ],
)
def test_malformed_header_names_the_file(tmp_path, payload):
    path = tmp_path / "h.pgm"
    path.write_bytes(payload)
    with pytest.raises(InputError) as exc:
        read_pgm(path)
    assert str(exc.value) == f"{path}: truncated or malformed PGM header"


@pytest.mark.parametrize(
    "payload",
    [
        b"P2" + b" " * 2_000_000,
        b"P2 " + b"1" * 2_000_000,
        b"P2 1" + b"#" * 1_000_000,  # quadratic if a token could take the '#'
        b"P2 #" + b"c" * 2_000_000,
    ],
    ids=["whitespace", "token", "hashes", "comment"],
)
def test_pathological_header_is_rejected_quickly(tmp_path, payload):
    path = tmp_path / "p.pgm"
    path.write_bytes(payload)
    start = time.perf_counter()
    with pytest.raises(InputError):
        read_pgm(path)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "payload",
    [
        b"P2\n" + b"1" * 5_000 + b" 1\n255\n0\n",
        b"P2\n1 1\n" + b"9" * 2_000_000 + b"\n0\n",
        b"P2\n" + b"1" * 1_000 + b" 1\n255\n0\n",  # a whole number, of 10**999 pixels
    ],
    ids=["width-5000-digits", "maxval-2MB", "width-1000-digits"],
)
def test_oversized_header_token_gives_short_error(tmp_path, payload):
    path = tmp_path / "t.pgm"
    path.write_bytes(payload)
    with pytest.raises(InputError) as exc:
        read_pgm(path)
    assert len(str(exc.value).encode()) <= 200


def test_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_pgm(tmp_path / "nope.pgm")


def test_write_rejects_bad_data(tmp_path):
    path = tmp_path / "w.pgm"
    with pytest.raises(InputError):
        write_pgm(path, np.zeros(4), maxval=255)
    with pytest.raises(InputError):
        write_pgm(path, np.zeros((2, 2)), maxval=300)
    with pytest.raises(InputError):
        write_pgm(path, np.full((2, 2), -1.0), maxval=255)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_write_rejects_non_finite(tmp_path, bad):
    with pytest.raises(InputError):
        write_pgm(tmp_path / "n.pgm", np.array([[0.0, bad]]))


def test_written_file_is_ascii_readable(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(path, np.array([[0.0, 255.0]]), maxval=255)
    text = path.read_bytes()
    assert text.startswith(b"P2")
    assert b"255" in text
