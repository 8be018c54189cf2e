import re

import numpy as np
import pytest

import spectramap as sm
from spectramap.errors import ConfigurationError, ParseError


class TestGenBlobs:
    def test_single_sample(self):
        ds = sm.gen_blobs(1, [(0.0, 0.0)], 1.0, 7)
        assert ds.data.n == 1
        assert ds.data.dim == 2
        assert ds.labels.tolist() == [0]

    def test_cluster_means_near_centers(self):
        ds = sm.gen_blobs(50, [(0.0, 0.0), (10.0, 0.0)], 0.5, 42)
        assert ds.data.n == 100
        # law of large numbers: sample mean within 3 * std / sqrt(50)
        tol = 3 * 0.5 / np.sqrt(50)
        for label, center in [(0, (0.0, 0.0)), (1, (10.0, 0.0))]:
            mean = ds.data.points[ds.labels == label].mean(axis=0)
            assert np.all(np.abs(mean - np.asarray(center)) < tol)

    def test_deterministic(self):
        a = sm.gen_blobs(50, [(0, 0), (10, 0)], 0.5, 42)
        b = sm.gen_blobs(50, [(0, 0), (10, 0)], 0.5, 42)
        assert np.array_equal(a.data.points, b.data.points)
        assert np.array_equal(a.labels, b.labels)

    def test_empty_centers_rejected(self):
        with pytest.raises(ConfigurationError):
            sm.gen_blobs(5, [], 1.0, 0)

    @pytest.mark.parametrize("n_per,std", [(0, 1.0), (5, 0.0), (5, -1.0)])
    def test_bad_parameters_rejected(self, n_per, std):
        with pytest.raises(ConfigurationError):
            sm.gen_blobs(n_per, [(0, 0)], std, 0)


def _distance_to_half_circle(points, center, upper):
    """Min distance to an arc, by fine discretization (oracle)."""
    t = np.linspace(0.0, np.pi, 20001)
    arc_y = np.sin(t) if upper else -np.sin(t)
    arc = np.column_stack([center[0] + np.cos(t), center[1] + arc_y])
    d = np.sqrt(((points[:, None, :] - arc[None, :, :]) ** 2).sum(-1))
    return d.min(axis=1)


class TestGenTwoMoons:
    def test_noiseless_points_on_curves(self):
        ds = sm.gen_two_moons(2, 0.0, 0)
        outer = ds.data.points[ds.labels == 0]
        inner = ds.data.points[ds.labels == 1]
        np.testing.assert_allclose(np.linalg.norm(outer, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(inner - np.array([1.0, 0.5]), axis=1), 1.0, atol=1e-12
        )

    def test_noisy_points_stay_near_curves(self):
        ds = sm.gen_two_moons(200, 0.05, 1)
        pts = ds.data.points
        d_outer = _distance_to_half_circle(pts, (0.0, 0.0), upper=True)
        d_inner = _distance_to_half_circle(pts, (1.0, 0.5), upper=False)
        assert np.all(np.minimum(d_outer, d_inner) < 0.3)  # 6 sigma

    def test_deterministic(self):
        a = sm.gen_two_moons(100, 0.05, 3)
        b = sm.gen_two_moons(100, 0.05, 3)
        assert np.array_equal(a.data.points, b.data.points)

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            sm.gen_two_moons(1, 0.0, 0)


class TestCsvRoundTrip:
    def test_small_numeric_file(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        ds = sm.load_csv(f)
        assert ds.data.n == 3 and ds.data.dim == 2
        assert np.all(ds.labels == 0)

    def test_header_autodetected(self, tmp_path):
        f = tmp_path / "pts.csv"
        f.write_text("x0,x1\n1.0,2.0\n3.0,4.0\n")
        ds = sm.load_csv(f)
        assert ds.data.n == 2

    def test_non_numeric_cell_cites_position(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1.0,2.0\nx,4.0\n5.0,6.0\n")
        with pytest.raises(ParseError, match="row 2"):
            sm.load_csv(f)

    def test_ragged_row_cites_row(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1,2\n3,4,5\n6,7\n")
        with pytest.raises(ParseError, match="row 2"):
            sm.load_csv(f)

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "tiny.csv"
        f.write_text("1.0,2.0\n")
        with pytest.raises(ParseError, match="2 data rows"):
            sm.load_csv(f)

    def test_label_column(self, tmp_path):
        f = tmp_path / "lab.csv"
        f.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        ds = sm.load_csv(f, has_labels=True)
        assert ds.data.dim == 2
        assert ds.labels.tolist() == [0, 1]

    def test_fractional_label_rejected(self, tmp_path):
        f = tmp_path / "lab.csv"
        f.write_text("1.0,2.0,0.5\n3.0,4.0,1\n")
        with pytest.raises(ParseError, match="integer"):
            sm.load_csv(f, has_labels=True)

    NOT_A_NUMBER = "row 3, column 2: not a number"
    NOT_AN_INTEGER = "row 3, column 3: label must be an integer"

    @pytest.mark.parametrize("token,column,outcome", [
        (" 1e3 ", "x1", 1000.0),
        (" 1e3 ", "label", 1000),
        ("1_0", "x1", 10.0),
        ("1_0", "label", 10),
        ("\x1c7\x1c", "x1", 7.0),  # float() rejects it unstripped
        ("nan", "x1", (ConfigurationError, "finite")),
        ("inf", "x1", (ConfigurationError, "finite")),
        ("nan", "label", (ParseError, NOT_AN_INTEGER)),
        ("inf", "label", (ParseError, NOT_AN_INTEGER)),
        ("2.5", "label", (ParseError, NOT_AN_INTEGER)),
        ("0x1", "x1", (ParseError, NOT_A_NUMBER + ": '0x1'")),
        ("", "x1", (ParseError, NOT_A_NUMBER + ": ''")),
        ("0x1", "label", (ParseError, NOT_A_NUMBER.replace("2", "3") + ": '0x1'")),
    ])
    def test_tricky_tokens(self, tmp_path, token, column, outcome):
        # the token sits in the second data row (file row 3), under a header
        cells = {"x0": "5", "x1": "6", "label": "1"}
        cells[column] = token
        f = tmp_path / "tokens.csv"
        f.write_text("x0,x1,label\n1,2,0\n" + ",".join(cells.values()) + "\n3,4,0\n")
        if isinstance(outcome, tuple):
            with pytest.raises(outcome[0], match=outcome[1]):
                sm.load_csv(f, has_labels=True)
            return
        ds = sm.load_csv(f, has_labels=True)
        assert ds.data.n == 3
        if column == "label":
            assert ds.labels.tolist() == [0, outcome, 0]
        else:
            assert ds.data.points[1].tolist() == [5.0, outcome]

    @pytest.mark.parametrize("token,header", [
        ("0x1", True), ("", True), ("\x1c7\x1c", True), (" 7 ", False),
    ])
    def test_first_row_token_decides_header(self, tmp_path, token, header):
        # the first row is a header when a cell fails float() unstripped
        f = tmp_path / "first.csv"
        f.write_text(f"1,{token}\n1,2\n3,4\n")
        assert sm.load_csv(f).data.n == (2 if header else 3)

    @pytest.mark.parametrize("text,n", [
        ("1.0,2.0\n3.0,4.0\n5.0,6.0\n", 3),
        ("x0,x1\n1.0,2.0\n3.0,4.0\n", 2),
    ])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, text, n):
        # float() rejects a leading U+FEFF, so a kept mark turns row 1 into a header
        f = tmp_path / "bom.csv"
        f.write_text(text, encoding="utf-8-sig")
        assert f.read_bytes().startswith(b"\xef\xbb\xbf")
        ds = sm.load_csv(f)
        assert ds.data.n == n
        assert ds.data.points[0].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("token", ["1e300", "9223372036854775808"])
    def test_label_outside_int64_rejected(self, tmp_path, token):
        f = tmp_path / "lab.csv"
        f.write_text(f"x0,label\n1.0,0\n2.0,{token}\n3.0,1\n")
        with pytest.raises(ParseError, match="row 3, column 2: label must be an integer "
                                             "in the int64 range"):
            sm.load_csv(f, has_labels=True)

    def test_undecodable_byte_is_a_parse_error(self, tmp_path):
        # the offset counts from the file's first byte, byte-order mark included
        f = tmp_path / "latin1.csv"
        f.write_bytes(b"\xef\xbb\xbfx0,x1\n1,2\n\xff3,4\n5,6\n")
        with pytest.raises(ParseError, match=re.escape(f"{f}: not UTF-8 text: byte 0xff "
                                                       "at offset 13")):
            sm.load_csv(f)

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        # the line counts the file's lines, the blank one included
        f = tmp_path / "long.csv"
        f.write_text("x0,x1\n1,2\n\n3," + "4" * 200_000 + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{f}: line 4: field larger than "
                                                       "field limit")):
            sm.load_csv(f)

    @pytest.mark.parametrize("text,message", [
        ("x0,x1\n1,2\n\n3,4\n5,abc\n", "row 5, column 2: not a number: 'abc'"),
        ('x0,x1\n1,"2\n"\n3,4\n5,6,7\n', "row 5 has 3 fields, expected 2"),
    ], ids=["blank-line", "quoted-newline"])
    def test_errors_name_the_file_line(self, tmp_path, text, message):
        # a blank line and a quoted field spanning two lines both count
        f = tmp_path / "lines.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{f}: {message}")):
            sm.load_csv(f)

    def test_write_then_load_reproduces_coordinates(self, tmp_path):
        ds = sm.gen_blobs(20, [(0, 0, 0), (5, 5, 5)], 1.3, 11)
        f = tmp_path / "roundtrip.csv"
        sm.save_csv(ds, f)
        back = sm.load_csv(f, has_labels=True)
        np.testing.assert_allclose(
            back.data.points, ds.data.points, rtol=0, atol=1e-12
        )
        assert np.array_equal(back.labels, ds.labels)


class TestDataMatrixInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            sm.DataMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ConfigurationError):
            sm.DataMatrix(np.array([[np.inf, 0.0]]))

    def test_label_length_must_match(self):
        data = sm.DataMatrix(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError):
            sm.LabeledDataset(data, np.array([0, 1]))
