"""Matrix file formats."""

import numpy as np
import pytest

from svshrink import matrixio
from svshrink.errors import DomainError

from helpers import write_matrix_binary


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    y = rng.standard_normal((5, 3))
    path = tmp_path / "y.csv"
    matrixio.write_matrix_csv(path, y, header="test matrix")
    back = matrixio.read_matrix_csv(path)
    np.testing.assert_allclose(back, y, rtol=1e-15)


def test_csv_skips_comment_lines(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("# a comment\n1.0,2.0\n# another\n3.0,4.0\n")
    back = matrixio.read_matrix_csv(path)
    np.testing.assert_array_equal(back, [[1.0, 2.0], [3.0, 4.0]])


def test_binary_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    y = rng.standard_normal((7, 2))
    path = tmp_path / "y.ssmx"
    write_matrix_binary(path, y)
    back = matrixio.read_matrix_binary(path)
    assert np.array_equal(back, y)


def test_binary_layout(tmp_path):
    path = tmp_path / "y.ssmx"
    write_matrix_binary(path, np.array([[1.0, 2.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"SSMX"
    assert int.from_bytes(raw[4:12], "little") == 1
    assert int.from_bytes(raw[12:20], "little") == 2
    assert np.frombuffer(raw, dtype="<f8", offset=20).tolist() == [1.0, 2.0]


def test_read_matrix_sniffs_format(tmp_path):
    y = np.arange(6, dtype=float).reshape(2, 3)
    csv_path, bin_path = tmp_path / "a.csv", tmp_path / "b.ssmx"
    matrixio.write_matrix_csv(csv_path, y)
    write_matrix_binary(bin_path, y)
    np.testing.assert_allclose(matrixio.read_matrix(csv_path), y)
    np.testing.assert_array_equal(matrixio.read_matrix(bin_path), y)


def test_truncated_binary_rejected(tmp_path):
    path = tmp_path / "bad.ssmx"
    path.write_bytes(b"SSMX" + (8).to_bytes(8, "little") + (8).to_bytes(8, "little") + b"\x00" * 16)
    with pytest.raises(DomainError):
        matrixio.read_matrix_binary(path)


def test_malformed_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,oops\n")
    with pytest.raises(DomainError):
        matrixio.read_matrix_csv(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [b"", b"\n\n", b"# only\n# comments\n", b"\r\n# a comment\r\n"])
def test_csv_without_rows_raises_the_domain_error_alone(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_bytes(text)
    with pytest.raises(DomainError, match="contains no data rows"):
        matrixio.read_matrix_csv(path)


def test_csv_line_of_blanks_is_a_row_that_fails_to_parse(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_bytes(b"# a comment\n   \n")
    with pytest.raises(DomainError, match="could not parse"):
        matrixio.read_matrix_csv(path)
