"""File formats: result JSON, data CSV, truth JSON, run manifests.

All writers are deterministic (sorted keys, shortest-roundtrip float
text), so re-running an identical configuration reproduces output files
byte for byte.

CSV files stream row by row. A writer holds the text of one row at a
time; the reader parses about 1 MiB of text per block and stacks the
parsed blocks once at the end, so reading a data matrix takes about
twice the matrix's memory and never the whole file's text.
"""

import itertools
import json

import numpy as np

from .errors import DimensionMismatch, InputError, ParseError


def _float_list(values):
    return [float(v) for v in np.asarray(values).ravel()]


def _finite_or_none(values):
    return [float(v) if np.isfinite(v) else None for v in np.asarray(values).ravel()]


def trace_to_dict(trace):
    if trace is None:
        return None
    doc = {
        "method": trace.method,
        "lambdaGrid": _float_list(trace.lambda_grid),
        "scores": _finite_or_none(trace.scores),
        "chosen": int(trace.chosen),
        "chosenLambda": float(trace.lambda_grid[trace.chosen]),
    }
    if trace.history is not None:
        doc["history"] = _float_list(trace.history)
    return doc


def result_to_dict(result):
    """The result JSON document: components with their selection traces,
    variance accounting, and the centering field."""
    components = []
    for comp, trace in zip(result.components, result.selection_traces):
        components.append(
            {
                "lambda": float(comp.lam),
                "functionNorm": float(comp.function_norm),
                "iterations": int(comp.iterations),
                "converged": bool(comp.converged),
                "scores": _float_list(comp.scores),
                "vertexValues": _float_list(comp.f_coefficients),
                "gCoefficients": _float_list(comp.g_coefficients),
                "objectiveTrace": _float_list(comp.objective_trace),
                "selection": trace_to_dict(trace),
            }
        )
    return {
        "components": components,
        "adjustedVariance": _float_list(result.adjusted_variance),
        "cumulativeVariance": _float_list(result.cumulative_variance),
        "meanField": None if result.mean_field is None
        else _float_list(result.mean_field),
    }


def report_to_dict(report):
    return {
        "pcFunctionMse": _float_list(report.pc_function_mse),
        "scoreMse": _float_list(report.score_mse),
        "signalMse": float(report.signal_mse),
        "principalAngle": float(report.principal_angle),
        "explainedVarianceCurve": _float_list(report.explained_variance_curve),
    }


def truth_to_dict(dataset):
    return {
        "generator": dataset.generator,
        "noiseSigma": float(dataset.noise_sigma),
        "seed": int(dataset.seed),
        "trueComponents": [
            _float_list(dataset.true_components[:, l])
            for l in range(dataset.true_components.shape[1])
        ],
        "trueScores": [
            _float_list(row) for row in np.asarray(dataset.true_scores)
        ],
    }


def write_json(path, document):
    with open(path, "w", encoding="ascii") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


# -- data matrices ----------------------------------------------------


def _cells(row):
    """One CSV line of shortest-roundtrip floats; NaN becomes an empty cell."""
    return ",".join("" if x != x else repr(x) for x in row.tolist())


def _write_lines(path, lines):
    """Write each of ``lines`` and a newline, one line at a time."""
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(f"{line}\n" for line in lines)


def write_data_csv(path, values):
    """A header of location indices 0, 1, ..., then one row per function;
    NaN entries become empty cells (partially observed data)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DimensionMismatch("data matrix must be 2-d")
    header = ",".join(str(j) for j in range(values.shape[1]))
    _write_lines(path, itertools.chain([header], map(_cells, values)))


def _is_index_header(cells):
    try:
        numbers = [int(c) for c in cells]
    except ValueError:
        return False
    return numbers == list(range(len(cells)))


# Characters of CSV text the reader gathers for one parse; it holds one
# such block of text at a time besides the rows already parsed.
_READ_BLOCK = 1 << 20


def read_data_csv(path):
    """Read a data matrix; empty cells come back as NaN.

    An optional first row of consecutive location indices (0, 1, ...)
    is recognized as a header and skipped. Malformed cells, including
    spelled-out non-finite values such as ``nan`` or ``inf``, raise
    :class:`ParseError` naming the row and column; only an empty cell
    marks a missing value. The file is read once, front to back, in
    blocks of text (so ``path`` may name a pipe).
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            rows = _numbered_rows(handle)
            first = next(rows, None)
            if first is None:
                raise ParseError(f"{path}: no data rows")
            cells = [c.strip() for c in first[1].split(",")]
            if not _is_index_header(cells):
                rows = itertools.chain([first], rows)
            blocks = [_parse_block(block, len(cells))
                      for block in _text_blocks(rows)]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if not blocks:
        raise ParseError(f"{path}: no data rows")
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _numbered_rows(handle):
    """(line number, line) of each non-blank line of ``handle``, numbered
    as ``str.splitlines`` numbers the lines of the whole text."""
    lineno = 0
    for physical in handle:
        for line in physical.splitlines():
            lineno += 1
            if line.strip():
                yield lineno, line


def _text_blocks(rows):
    """``rows`` in lists of about `_READ_BLOCK` characters each."""
    block, size = [], 0
    for row in rows:
        block.append(row)
        size += len(row[1])
        if size >= _READ_BLOCK:
            yield block
            block, size = [], 0
    if block:
        yield block


def _parse_block(rows, width):
    """The values of ``rows``, (line number, line) pairs.

    Rows without empty cells are parsed together in C. Rows with empty
    cells, all rows if that fails, and rows it read as non-finite are
    parsed one at a time, in file order, so the first fault is the one
    reported.
    """
    values = np.empty((len(rows), width))
    pending = np.ones(len(rows), dtype=bool)
    full = [k for k, (_, line) in enumerate(rows) if not (
        ",," in line or line.startswith(",") or line.endswith(","))]
    if full:
        try:
            parsed = np.loadtxt([rows[k][1] for k in full], delimiter=",",
                                comments=None, ndmin=2)
        except ValueError:
            parsed = None
        if parsed is not None and parsed.shape[1] == width:
            values[full] = parsed
            pending[full] = ~np.isfinite(parsed).all(axis=1)
    for k in np.flatnonzero(pending):
        values[k] = _scan_row(*rows[k], width)
    return values


def _scan_row(lineno, line, width):
    """One row's values, empty cells as NaN; raises :class:`ParseError`
    naming the row and column of its first fault."""
    cells = line.split(",")
    if len(cells) != width:
        raise ParseError(
            f"row at line {lineno} has {len(cells)} cells, expected {width}"
        )
    try:
        row = np.array([float(c) if c else np.nan for c in cells])
        if np.isfinite(row).sum() + cells.count("") == width:
            return row
    except ValueError:
        pass
    # A fault, or a cell of spaces, which is blank too: scan cell by cell.
    cells = [c.strip() for c in cells]
    parsed = np.empty(width)
    for col, cell in enumerate(cells):
        try:
            parsed[col] = float(cell) if cell else np.nan
        except ValueError:
            raise ParseError(
                f"non-numeric value {cell!r} at row {lineno}, "
                f"column {col + 1}"
            ) from None
    for col in np.flatnonzero(~np.isfinite(parsed)):
        if cells[col] != "":
            raise ParseError(
                f"non-finite value {cells[col]!r} at row {lineno}, "
                f"column {col + 1}; leave the cell empty to mark it missing"
            )
    return parsed


def write_matrix_csv(path, matrix):
    """Columns labeled ``pc_1..m``, one per component; one row per index."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    header = ",".join(f"pc_{j + 1}" for j in range(matrix.shape[1]))
    _write_lines(path, itertools.chain([header], map(_cells, matrix)))


def _metric_line(replicate, method, metric, component, value):
    comp = "" if component is None else str(int(component))
    return f"{replicate},{method},{metric},{comp},{float(value)!r}"


def write_metric_rows(path, rows):
    """Long-format metric rows: replicate, method, metric, component,
    value. Component is empty for aggregate metrics."""
    lines = ["replicate,method,metric,component,value"]
    _write_lines(path, lines + [_metric_line(*row) for row in rows])


# -- loaded documents -------------------------------------------------


def _vectors(entries, what):
    """Equal-length numeric vectors, stacked as columns."""
    try:
        columns = [np.asarray(e, dtype=np.float64) for e in entries]
    except (TypeError, ValueError):
        raise InputError(f"{what} must hold numbers") from None
    shapes = sorted({c.shape for c in columns})
    if len(shapes) != 1 or len(shapes[0]) != 1:
        raise InputError(
            f"{what} must be vectors of one length, got shapes {shapes}"
        )
    return np.stack(columns, axis=1)


def _field(comps, key):
    """``key`` of every result component, which must all carry it."""
    for index, comp in enumerate(comps, start=1):
        if not isinstance(comp, dict) or key not in comp:
            raise InputError(f"result component {index} lacks {key!r}")
    return [comp[key] for comp in comps]


def arrays_from_result(document):
    """Vertex values, scores, norms and the cumulative variance curve from
    a result JSON document; a missing key or a bad shape raises
    :class:`InputError` naming it."""
    document = document if isinstance(document, dict) else {}
    comps = document.get("components")
    if not comps or not isinstance(comps, list):
        raise InputError("result document holds no components")
    values = _vectors(_field(comps, "vertexValues"), "vertexValues")
    scores = _vectors(_field(comps, "scores"), "scores")
    norms = _vectors([_field(comps, "functionNorm")], "functionNorm")[:, 0]
    curve = _vectors([document.get("cumulativeVariance", [])],
                     "cumulativeVariance")[:, 0].tolist()
    return values, scores, norms, curve


def arrays_from_truth(document):
    """True component fields and scores from a truth JSON document; a
    missing key or a bad shape raises :class:`InputError` naming it."""
    document = document if isinstance(document, dict) else {}
    comps = document.get("trueComponents")
    scores = document.get("trueScores")
    if not comps or not isinstance(comps, list) or not isinstance(scores, list):
        raise InputError("truth document lacks components or scores")
    values = _vectors(comps, "trueComponents")
    scores = _vectors(scores, "trueScores").T
    if scores.shape[1] != values.shape[1]:
        raise InputError(
            f"trueScores rows hold {scores.shape[1]} scores for "
            f"{values.shape[1]} trueComponents"
        )
    return values, scores
