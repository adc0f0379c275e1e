import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from smfpca import InputError, ParseError, serialize
from smfpca.serialize import (
    arrays_from_result,
    arrays_from_truth,
    load_json,
    read_data_csv,
    write_data_csv,
    write_json,
    write_matrix_csv,
    write_metric_rows,
)


# -- data matrices ----------------------------------------------------


def test_data_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((7, 5))
    path = tmp_path / "data.csv"
    write_data_csv(path, values)
    back = read_data_csv(path)
    np.testing.assert_array_equal(back, values)


def test_csv_writers_pin_float_text(tmp_path):
    # Round trips cannot see a change of float text; these bytes can.
    values = np.array([[-0.0, 5e-324, 1e308], [1e-07, 123456789.0, np.nan]])
    write_data_csv(tmp_path / "data.csv", values)
    assert (tmp_path / "data.csv").read_bytes() == (
        b"0,1,2\n-0.0,5e-324,1e+308\n1e-07,123456789.0,\n"
    )
    write_matrix_csv(tmp_path / "scores.csv", values[:, :2].T)
    assert (tmp_path / "scores.csv").read_bytes() == (
        b"pc_1,pc_2\n-0.0,1e-07\n5e-324,123456789.0\n"
    )


def test_data_csv_missing_cells_roundtrip(tmp_path):
    values = np.array([[1.0, np.nan], [np.nan, 4.0]])
    path = tmp_path / "data.csv"
    write_data_csv(path, values)
    text = path.read_text()
    assert "nan" not in text.lower()
    assert ",\n" in text or text.endswith(",")
    back = read_data_csv(path)
    assert np.isnan(back[0, 1]) and np.isnan(back[1, 0])
    assert back[0, 0] == 1.0 and back[1, 1] == 4.0


def test_data_csv_headerless_accepted(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1.5,2.5\n3.5,4.5\n")
    back = read_data_csv(path)
    np.testing.assert_array_equal(back, [[1.5, 2.5], [3.5, 4.5]])


def test_data_csv_numeric_first_row_kept(tmp_path):
    # a first row of 0,1,...,s-1 is a header; 0,2 is data
    path = tmp_path / "tricky.csv"
    path.write_text("0,2\n3,4\n")
    assert read_data_csv(path).shape == (2, 2)
    path.write_text("0,1\n3,4\n")
    assert read_data_csv(path).shape == (1, 2)


def test_data_csv_bad_cell_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,2\n1.0,2.0,3.0\n4.0,oops,6.0\n")
    with pytest.raises(ParseError, match=r"row 3, column 2"):
        read_data_csv(path)


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity", "1e999"])
def test_data_csv_non_finite_cell_reports_position(tmp_path, token):
    # only an empty cell marks a missing value
    path = tmp_path / "bad.csv"
    path.write_text(f"0,1,2\n1.0,2.0,3.0\n4.0,,{token}\n")
    with pytest.raises(ParseError, match=r"row 3, column 3"):
        read_data_csv(path)


def test_data_csv_mixed_rows_match_cell_by_cell(tmp_path):
    # rows without empty cells, rows with empty or blank cells, padding
    path = tmp_path / "mixed.csv"
    path.write_text("0,1,2\n1.5, 2 ,3e2\n,4.0,\n 5.0 , ,-6\n\n7,8,9\n")
    expected = [[1.5, 2.0, 300.0], [np.nan, 4.0, np.nan],
                [5.0, np.nan, -6.0], [7.0, 8.0, 9.0]]
    np.testing.assert_array_equal(read_data_csv(path), expected)


@pytest.mark.parametrize("rows, match", [
    ("1,2,3\n4,5,nan\n", r"non-finite value 'nan' at row 3, column 3"),
    ("1,2,3\n4,1e999,x\n", r"non-numeric value 'x' at row 3, column 3"),
    ("1,,3\n4,5,inf\n7,x,\n", r"non-finite value 'inf' at row 3"),
    ("1,2,3\n4,,x\n7,8,nan\n", r"non-numeric value 'x' at row 3"),
    ("1,2,3\n4,5\n7,x,9\n", r"row at line 3 has 2 cells, expected 3"),
])
def test_data_csv_first_faulty_row_reported(tmp_path, rows, match):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,2\n" + rows)
    with pytest.raises(ParseError, match=match):
        read_data_csv(path)


def test_data_csv_not_utf8_rejected(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"0,1\n1.0,\xe92.0\n")
    with pytest.raises(ParseError, match="UTF-8"):
        read_data_csv(path)


def test_data_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        read_data_csv(path)


def test_data_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_data_csv(path)


# -- streamed reading and writing -------------------------------------


def twenty_rows(rng):
    """A 20 x 4 matrix with blank cells, and its CSV text with padding."""
    values = rng.standard_normal((20, 4))
    values[[2, 9, 15], [1, 0, 3]] = np.nan
    lines = ["0,1,2,3"] + [
        ",".join("" if x != x else f" {x!r} " for x in row)
        for row in values.tolist()]
    return values, "\n".join(lines) + "\n"


def test_data_csv_blocks_match_one_block_read(tmp_path, monkeypatch):
    values, text = twenty_rows(np.random.default_rng(50))
    path = tmp_path / "data.csv"
    path.write_text(text)
    whole = read_data_csv(path)
    monkeypatch.setattr(serialize, "_READ_BLOCK", 200)
    assert len(list(serialize._text_blocks(
        serialize._numbered_rows(text.splitlines(True))))) >= 3
    blocked = read_data_csv(path)
    assert blocked.tobytes() == whole.tobytes()
    np.testing.assert_array_equal(blocked, values)


@pytest.mark.parametrize("blank, bad, first", [
    # a faulty row with a blank cell before a bad cell in a full row,
    # then the other way round; each in its own block
    ("4,,nan,1", "5,x,6,7", "non-finite value 'nan' at row 4,"),
    ("4,x,6,7", "5,,nan,1", "non-numeric value 'x' at row 4,"),
])
def test_data_csv_first_fault_across_blocks(tmp_path, monkeypatch,
                                            blank, bad, first):
    rows = ["1,2,3,4"] * 20
    rows[2], rows[15] = blank, bad
    path = tmp_path / "bad.csv"
    path.write_text("0,1,2,3\n" + "\n".join(rows) + "\n")
    monkeypatch.setattr(serialize, "_READ_BLOCK", 20)
    with pytest.raises(ParseError, match=re.escape(first)):
        read_data_csv(path)


def test_data_csv_line_numbers_count_as_splitlines(tmp_path, monkeypatch):
    # header, blank lines, CRLF, a lone CR and a form feed, after a BOM
    text = ("0,1\r\n1,2\r\n\r\n3,4\r5,6\x0c7,8\n\n" +
            "".join(f"{k},{k}\n" for k in range(12)) + "9,oops\n1,1\n")
    path = tmp_path / "lines.csv"
    path.write_bytes(text.encode("utf-8-sig"))
    lineno = text.splitlines().index("9,oops") + 1
    for block in (serialize._READ_BLOCK, 8):
        monkeypatch.setattr(serialize, "_READ_BLOCK", block)
        with pytest.raises(ParseError, match=rf"at row {lineno}, column 2$"):
            read_data_csv(path)
    path.write_bytes(text.replace("9,oops", "9,9").encode("utf-8-sig"))
    back = read_data_csv(path)
    assert back.shape == (18, 2)
    np.testing.assert_array_equal(back[:4], [[1, 2], [3, 4], [5, 6], [7, 8]])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_data_csv_read_from_a_pipe(tmp_path, monkeypatch):
    values, text = twenty_rows(np.random.default_rng(52))
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    monkeypatch.setattr(serialize, "_READ_BLOCK", 200)
    try:
        back = read_data_csv(fifo)
    finally:
        writer.join()
    np.testing.assert_array_equal(back, values)


def peak_bytes(call):
    """Peak memory traced while ``call()`` runs, above what it started at."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_csv_memory_is_bounded(tmp_path):
    # rows stream: a level-4 study matrix (200 x 2562, 4.1 MB) is read in
    # at most 2.5 times its size, and written within 1 MB
    values = np.random.default_rng(51).standard_normal((200, 2562))
    path = tmp_path / "data.csv"
    assert peak_bytes(lambda: write_data_csv(path, values)) < 1e6
    assert peak_bytes(lambda: write_matrix_csv(tmp_path / "m.csv", values)) < 1e6
    back = []
    assert peak_bytes(lambda: back.append(read_data_csv(path))) <= 2.5 * values.nbytes
    assert back[0].tobytes() == values.tobytes()


# -- json documents ---------------------------------------------------


def test_json_roundtrip_stable_bytes(tmp_path):
    doc = {"b": [1.0, 2.5], "a": {"nested": True}}
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    write_json(p1, doc)
    write_json(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert load_json(p1) == doc


def test_json_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(path)


def test_json_not_utf8_rejected(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xe9"}')
    with pytest.raises(ParseError, match="UTF-8"):
        load_json(path)


# -- auxiliary tables -------------------------------------------------


def test_matrix_csv_header(tmp_path):
    path = tmp_path / "scores.csv"
    write_matrix_csv(path, np.arange(6.0).reshape(3, 2))
    lines = path.read_text().splitlines()
    assert lines[0] == "pc_1,pc_2"
    assert len(lines) == 4


def test_metric_rows_schema(tmp_path):
    path = tmp_path / "metrics.csv"
    rows = [
        (0, "smfpca", "pcFunctionMse", 1, 0.5),
        (0, "smfpca", "signalMse", None, 0.25),
    ]
    write_metric_rows(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "replicate,method,metric,component,value"
    assert lines[1] == "0,smfpca,pcFunctionMse,1,0.5"
    assert lines[2].split(",")[3] == ""


# -- result and truth array extraction --------------------------------


def test_arrays_from_documents_roundtrip(ops1, tmp_path):
    from smfpca import fit, generate_sphere_dataset
    from smfpca.serialize import result_to_dict, truth_to_dict

    ds = generate_sphere_dataset(ops1.mesh, 12, (4.0, 2.0), 0.0, 0)
    result = fit(
        ds.X, 2, [1e-6], ops1, selection="fixed"
    )
    doc = result_to_dict(result)
    values, scores, norms, curve = arrays_from_result(doc)
    assert values.shape == (ops1.vertex_count, 2)
    assert scores.shape == (12, 2)
    np.testing.assert_allclose(
        values[:, 0], result.components[0].f_coefficients, rtol=1e-15
    )
    assert norms[1] == result.components[1].function_norm
    assert curve == list(result.cumulative_variance)

    tdoc = truth_to_dict(ds)
    tvalues, tscores = arrays_from_truth(tdoc)
    np.testing.assert_allclose(tvalues, ds.true_components, rtol=1e-15)
    np.testing.assert_allclose(tscores, ds.true_scores, rtol=1e-15)
    # documents survive a disk trip
    write_json(tmp_path / "truth.json", tdoc)
    assert load_json(tmp_path / "truth.json") == json.loads(json.dumps(tdoc))


def result_doc():
    component = {"vertexValues": [0.0, 1.0, 2.0], "scores": [0.6, 0.8],
                 "functionNorm": 1.5}
    return {"components": [dict(component), dict(component)],
            "cumulativeVariance": [1.0, 2.0]}


@pytest.mark.parametrize("key, value, match", [
    ("vertexValues", None, "component 2 lacks 'vertexValues'"),
    ("functionNorm", None, "component 2 lacks 'functionNorm'"),
    ("scores", [[0.6, 0.8]], "scores must be vectors of one length"),
    ("vertexValues", [0.0, 1.0], r"shapes \[\(2,\), \(3,\)\]"),
    ("vertexValues", ["a", "b", "c"], "vertexValues must hold numbers"),
])
def test_arrays_from_result_names_bad_field(key, value, match):
    # value None removes the key from the second component
    doc = result_doc()
    if value is None:
        del doc["components"][1][key]
    else:
        doc["components"][1][key] = value
    with pytest.raises(InputError, match=match):
        arrays_from_result(doc)


def test_arrays_from_truth_checks_score_width():
    doc = {"trueComponents": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]],
           "trueScores": [[1.0, 2.0, 3.0]]}
    with pytest.raises(InputError, match="3 scores for 2 trueComponents"):
        arrays_from_truth(doc)
    with pytest.raises(InputError, match="lacks components or scores"):
        arrays_from_truth({"trueComponents": doc["trueComponents"]})
