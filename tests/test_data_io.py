import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr import data_io
from pmvr.benchmarks import PortfolioData
from pmvr.data_io import (
    AGGREGATE_CRITERIA,
    AGGREGATE_HEADER,
    MAX_FLOATS,
    SAMPLES_OVERFLOW,
    TRACE_COLUMNS,
    TRACE_HEADER,
    ConfigError,
    LoadReport,
    ParseError,
    TraceRow,
    load_french_csv,
    load_run_config,
    read_trace_csv,
    resolve_schedule,
    validate_config,
    write_aggregate_csv,
    write_csv,
    write_trace_csv,
)
from pmvr.solvers import ScheduleConstants

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURE10 = os.path.join(DATA, "industry10_fixture.txt")
FIXTURE12 = os.path.join(DATA, "industry12_sentinels.csv")
FIXTURE_BLOCKS = os.path.join(DATA, "industry3_blocks.txt")


class TestFrenchLoader:
    def test_percent_conversion(self):
        data = load_french_csv(FIXTURE10)
        assert data.returns[0, 0] == pytest.approx(0.0145)
        assert data.returns[0, 1] == pytest.approx(-0.0033)

    def test_header_names(self):
        data = load_french_csv(FIXTURE10)
        assert data.names[:3] == ["Agric", "Food", "Beer"]
        assert data.d == 10

    def test_line_accounting_is_total(self):
        data = load_french_csv(FIXTURE10)
        with open(FIXTURE10) as fh:
            n_lines = len(fh.read().splitlines())
        assert data.report.total == n_lines
        assert data.report.parsed == 5
        assert data.report.rejected == 0

    def test_column_means_by_independent_summation(self):
        data = load_french_csv(FIXTURE10)
        with open(FIXTURE10) as fh:
            rows = [
                [float(t) / 100 for t in ln.split()[1:]]
                for ln in fh.read().splitlines()
                if ln.strip() and ln.split()[0].isdigit()
            ]
        for j in range(10):
            want = sum(r[j] for r in rows) / len(rows)
            assert data.rbar[j] == pytest.approx(want, abs=1e-12)

    def test_sentinels_error_by_default(self):
        with pytest.raises(ParseError, match="sentinel"):
            load_french_csv(FIXTURE12)

    def test_sentinels_dropped_on_request(self):
        data = load_french_csv(FIXTURE12, sentinel_policy="drop")
        assert data.report.rejected == 2
        assert data.periods == 3
        assert data.d == 12

    def test_comma_delimited_variant(self):
        data = load_french_csv(FIXTURE12, sentinel_policy="drop")
        assert data.names[0] == "Agric" and data.names[-1] == "Steel"

    def test_only_the_first_data_block_is_read(self):
        # the equal-weighted block holds a sentinel and the firm-count block
        # 50/60/70; neither is read as returns
        data = load_french_csv(FIXTURE_BLOCKS)
        want = np.array([[1.45, -0.33, 2.50], [2.10, 1.15, -0.40], [-0.85, 2.05, 1.10]])
        assert np.array_equal(data.returns, want / 100.0)
        assert data.names == ["Agric", "Food", "Beer"]
        with open(FIXTURE_BLOCKS) as fh:
            n_lines = len(fh.read().splitlines())
        assert (data.report.parsed, data.report.rejected) == (3, 0)
        assert data.report.total == n_lines

    def test_a_comma_in_a_whitespace_preamble_keeps_whitespace_mode(self, tmp_path):
        path = tmp_path / "copyright.txt"
        path.write_text(
            "  Copyright 2024, Kenneth R. French\n"
            "          Agric   Food\n"
            "192607     1.45  -0.33\n"
            "192608     2.10   1.15\n"
        )
        data = load_french_csv(str(path))
        assert np.array_equal(data.returns, np.array([[1.45, -0.33], [2.10, 1.15]]) / 100.0)
        assert data.names == ["Agric", "Food"]
        assert (data.report.parsed, data.report.skipped) == (2, 2)

    def test_malformed_field_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("192607  1.0  oops  2.0\n")
        with pytest.raises(ParseError, match="column 2"):
            load_french_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("no data here\n")
        with pytest.raises(ParseError, match="no usable"):
            load_french_csv(str(path))


def _write(tmp_path, text):
    path = tmp_path / "returns.txt"
    path.write_text(text)
    return str(path)


class TestFrenchLoaderErrorOrder:
    """The first offending line in file order is the one reported."""

    def test_sentinel_before_malformed_reports_the_sentinel(self, tmp_path):
        path = _write(tmp_path, "192607 1.0 2.0\n192608 -99.99 2.0\n192609 1.0 oops\n")
        with pytest.raises(ParseError) as err:
            load_french_csv(path)
        assert str(err.value) == f"{path}:2: sentinel value in row dated 192608"

    def test_malformed_before_sentinel_reports_the_field(self, tmp_path):
        path = _write(tmp_path, "192607 1.0 2.0\n192608 1.0 oops\n192609 -999 2.0\n")
        for policy in ("error", "drop"):
            with pytest.raises(ParseError) as err:
                load_french_csv(path, sentinel_policy=policy)
            assert str(err.value) == f"{path}:2: malformed numeric field in column 2: 'oops'"

    def test_drop_reports_a_malformed_row_after_a_sentinel_row(self, tmp_path):
        path = _write(tmp_path, "192607 -99.99 2.0\n192608 1.0 2.0\n192609 x 2.0\n")
        with pytest.raises(ParseError) as err:
            load_french_csv(path, sentinel_policy="drop")
        assert str(err.value) == f"{path}:3: malformed numeric field in column 1: 'x'"

    def test_a_sentinel_first_row_fixes_the_block_width(self, tmp_path):
        path = _write(
            tmp_path,
            "192607 -99.99 1.0 2.0\n192608 1.0 2.0 3.0\n192609 1.0 2.0\n192610 4.0 5.0 6.0\n",
        )
        data = load_french_csv(path, sentinel_policy="drop")
        assert np.array_equal(data.returns, np.array([[1.0, 2.0, 3.0]]) / 100.0)
        assert (data.report.parsed, data.report.skipped, data.report.rejected) == (1, 2, 1)
        # so a shorter second row ends the block before any row is kept
        path = _write(tmp_path, "192607 -999 1.0 2.0\n192608 1.0 2.0\n192609 1.0 2.0\n")
        with pytest.raises(ParseError, match="no usable data rows"):
            load_french_csv(path, sentinel_policy="drop")

    def test_only_sentinel_rows_leave_no_usable_data(self, tmp_path):
        path = _write(tmp_path, "  Agric Food\n192607 -99.99 1.0\n192608 2.0 -999\n\nfooter\n")
        with pytest.raises(ParseError) as err:
            load_french_csv(path, sentinel_policy="drop")
        assert str(err.value) == f"{path}: no usable data rows"

    def test_sentinel_message_names_line_and_date(self):
        with pytest.raises(ParseError) as err:
            load_french_csv(FIXTURE12)
        assert str(err.value) == f"{FIXTURE12}:3: sentinel value in row dated 192608"


# --- property test: the loader against a plain line-by-line reference ------

def _ref_tokens(line, comma):
    line = line.strip()
    if not comma:
        return line.split()
    tokens = [t.strip() for t in line.split(",")]
    return tokens[1:] if tokens[0] == "" else tokens


def _ref_is_row(tokens):
    return len(tokens) > 1 and tokens[0].isdigit() and 4 <= len(tokens[0]) <= 8


def _ref_numeric(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


def reference_load(path, policy):
    """The documented loader semantics, one line and one value at a time."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comma = any("," in ln and _ref_is_row(_ref_tokens(ln, True)) for ln in lines)
    report = LoadReport()
    header = names = width = None
    ended = False
    rows = []
    for lineno, line in enumerate(lines, start=1):
        tokens = _ref_tokens(line, comma)
        if ended or not _ref_is_row(tokens):
            if width is None and tokens and not any(_ref_numeric(t) for t in tokens):
                header = tokens
            ended = width is not None
            report.skipped += 1
            continue
        values = []
        for col, tok in enumerate(tokens[1:], start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: malformed numeric field in column {col}: {tok!r}"
                ) from None
        if width is None:
            width = len(values)
            if header is not None and len(header) == width:
                names = header
        elif len(values) != width:
            ended = True
            report.skipped += 1
            continue
        if any(abs(v - s) <= 1e-9 for v in values for s in (-99.99, -999.0)):
            if policy == "error":
                raise ParseError(f"{path}:{lineno}: sentinel value in row dated {tokens[0]}")
            report.rejected += 1
            continue
        rows.append(values)
        report.parsed += 1
    if not rows:
        raise ParseError(f"{path}: no usable data rows")
    if names is None:
        names = [f"asset_{j + 1}" for j in range(width)]
    return PortfolioData(returns=np.array(rows) / 100.0, names=names, report=report)


def _outcome(load, path, policy):
    try:
        data = load(path, policy)
    except ValueError as exc:  # ParseError, or PortfolioData's non-finite check
        return type(exc).__name__, str(exc)
    return _summary(data)


def _summary(data):
    r = data.report
    return (data.returns.shape, data.returns.tobytes(), list(data.names),
            (r.parsed, r.skipped, r.rejected))


PREAMBLE = [
    "  This file was created by CMPT_IND_RETS using the 202401 CRSP database.",
    "  Copyright 2024, Kenneth R. French",
    "  Missing data are indicated by -99.99 or -999.",
    "",
    "  Average Value Weighted Returns -- Monthly",
]
SENTINEL_CELLS = ("-99.99", "-999", "-999.00", "-99.990")
near_miss = st.builds(
    lambda s, off: repr(s + off), st.sampled_from((-99.99, -999.0)), st.floats(-2e-9, 2e-9)
)
plain_cell = st.floats(-60.0, 80.0).map(lambda v: f"{v:.2f}")
# per cell: 1 in 40 non-finite, 1 in 20 a sentinel, 1 in 20 a near miss
cell = st.integers(0, 39).flatmap(lambda k: (
    st.sampled_from(("nan", "inf", "-inf")) if k == 0
    else st.sampled_from(SENTINEL_CELLS) if k <= 2
    else near_miss if k <= 4
    else plain_cell
))
bad_cell = st.sampled_from(("oops", "1.2.3", "", "--5", "12%"))


@st.composite
def french_files(draw):
    """A French-layout file: preamble, header, block, footer, later block."""
    comma = draw(st.booleans())
    sep = "," if comma else "  "
    width = draw(st.integers(1, 4))
    dates = iter(range(192607, 199999))

    def row(n):
        return sep.join([str(next(dates))] + draw(st.lists(cell, min_size=n, max_size=n)))

    lines = draw(st.lists(st.sampled_from(PREAMBLE), max_size=4))
    if draw(st.booleans()):
        n_names = max(1, width + draw(st.sampled_from((0, 0, -1, 1))))
        lines.append(("," if comma else "     ") + sep.join(f"Ind{j}" for j in range(n_names)))
    block = [row(width) for _ in range(draw(st.integers(0, 6)))]
    if block and draw(st.booleans()):  # a malformed token somewhere in the block
        i = draw(st.integers(0, len(block) - 1))
        parts = block[i].split(sep)
        parts[draw(st.integers(1, width))] = draw(bad_cell)
        block[i] = sep.join(parts)
    lines += block
    if draw(st.booleans()):  # a footer of a different width, which may hold a bad cell
        n = width + draw(st.sampled_from((-1, 1, 2)))
        parts = row(n).split(sep)
        if n and draw(st.booleans()):  # its fields are parsed before its width is compared
            parts[draw(st.integers(1, n))] = draw(bad_cell)
        lines.append(sep.join(parts))
    lines += draw(st.lists(st.sampled_from(("", "  Annual footer, text")), max_size=2))
    if draw(st.booleans()):  # a later block of the same width
        lines += [row(width) for _ in range(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            lines.append(sep.join([str(next(dates))] + [draw(bad_cell)] * width))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=french_files())
def test_loader_matches_the_line_by_line_reference(text, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("french") / "returns.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for policy in ("error", "drop"):
        want = _outcome(reference_load, path, policy)
        # a success fills the slot, so a second load is answered from it
        assert [_outcome(load_french_csv, path, policy) for _ in range(2)] == [want, want]


@settings(max_examples=100, deadline=None)
@given(text=french_files(), endings=st.lists(st.sampled_from(("\r\n", "\r", "\n")), min_size=1))
def test_crlf_and_lone_cr_files_load_as_a_text_mode_read_splits_them(
    text, endings, tmp_path_factory
):
    """The loader splits the decoded bytes; the reference reads text mode,
    which turns CRLF and a lone CR into a newline."""
    ends = itertools.cycle(endings)
    path = str(tmp_path_factory.mktemp("french") / "returns.txt")
    with open(path, "wb") as fh:
        fh.write("".join(next(ends) if c == "\n" else c for c in text).encode("utf-8"))
    for policy in ("error", "drop"):
        assert _outcome(load_french_csv, path, policy) == _outcome(reference_load, path, policy)


class TestLoadSlot:
    """A load parses only bytes or a policy that differ from the last
    successful load's, and hands out copies of what the slot keeps."""

    def test_a_caller_may_change_what_a_load_returns(self):
        load_french_csv(FIXTURE_BLOCKS)  # so the next load is a miss
        want = _outcome(reference_load, FIXTURE10, "error")
        for _ in range(3):  # the miss's result, then two hits'
            data = load_french_csv(FIXTURE10)
            assert _summary(data) == want
            data.returns[:] = 0.0
            data.names[0] = "changed"
            data.names.append("extra")
            data.report.parsed = data.report.skipped = 0

    def test_new_bytes_of_the_same_size_and_mtime_are_parsed(self, tmp_path):
        path = _write(tmp_path, "192607 1.00 2.00\n192608 3.00 4.00\n")
        stamp = os.stat(path)
        assert load_french_csv(path).returns[0, 0] == 0.01
        _write(tmp_path, "192607 5.00 2.00\n192608 3.00 4.00\n")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        now = os.stat(path)
        assert (now.st_size, now.st_mtime_ns) == (stamp.st_size, stamp.st_mtime_ns)
        assert load_french_csv(path).returns[0, 0] == 0.05

    def test_the_sentinel_policy_is_part_of_the_key(self):
        with pytest.raises(ParseError, match="sentinel value"):
            load_french_csv(FIXTURE12)
        assert load_french_csv(FIXTURE12, sentinel_policy="drop").report.rejected == 2
        with pytest.raises(ParseError, match="sentinel value"):
            load_french_csv(FIXTURE12)

    def test_a_parse_runs_only_for_bytes_or_a_policy_not_in_the_slot(self, tmp_path, monkeypatch):
        calls = []
        parse = data_io._parse_french

        def counted(raw, path, policy):
            calls.append(policy)
            return parse(raw, path, policy)

        load_french_csv(FIXTURE10)  # so the first load below is a miss
        monkeypatch.setattr(data_io, "_parse_french", counted)
        good = "192607 1.0 2.0\n"
        path = _write(tmp_path, good)
        for policy in ("error", "error", "drop", "drop", "error"):
            load_french_csv(path, sentinel_policy=policy)
        assert calls == ["error", "drop", "error"]
        _write(tmp_path, "192607 1.0 oops\n")
        for _ in range(2):  # a failed load is parsed every time and leaves the slot as it was
            with pytest.raises(ParseError, match="malformed"):
                load_french_csv(path)
        _write(tmp_path, good)
        load_french_csv(path)
        assert calls == ["error", "drop", "error", "error", "error"]

    def test_bytes_that_are_not_utf8_are_located(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"       Food  Beer\n192607  0.5  \xff1.0\n")
        with pytest.raises(ParseError) as err:
            load_french_csv(str(path))
        assert str(err.value) == f"{path}: not UTF-8 text at byte offset 31: invalid start byte"


class TestTraceRoundTrip:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv([], str(path))
        assert path.read_text().startswith("iter,stage,seconds")
        assert read_trace_csv(str(path)) == []

    def test_single_row_bit_identical(self, tmp_path):
        row = TraceRow(3, 1, 0.12345678901234567, 10, 2, -0.5, 1e-7, 2e-9, 1.0, None)
        path = tmp_path / "t.csv"
        write_trace_csv([row], str(path))
        (back,) = read_trace_csv(str(path))
        assert back == row

    def test_large_trace_field_exact(self, tmp_path):
        gen = np.random.default_rng(0)
        rows = [
            TraceRow(
                iteration=i,
                stage=i % 3,
                seconds=float(gen.random()),
                sfo=int(gen.integers(0, 10**9)),
                lmo=i,
                objective=float(gen.standard_normal() * 10.0 ** float(gen.integers(-8, 8))),
                fw_gap=float(abs(gen.standard_normal())),
                grad_map=float(abs(gen.standard_normal())),
                beta=1.0,
                opt_gap=None if i % 5 == 0 else float(gen.standard_normal()),
            )
            for i in range(1000)
        ]
        path = tmp_path / "t.csv"
        write_trace_csv(rows, str(path))
        back = read_trace_csv(str(path))
        assert back == rows

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("iter,bogus\n")
        with pytest.raises(ParseError, match="header"):
            read_trace_csv(str(path))

    def test_headers_are_pinned(self):
        assert TRACE_HEADER == (
            "iter,stage,seconds,sfo,lmo,objective,fw_gap,grad_map,beta,opt_gap"
        )
        assert AGGREGATE_HEADER == (
            "iter,stage,sfo,lmo,seconds_mean,objective_mean,objective_std,"
            "fw_gap_mean,fw_gap_std,grad_map_mean,grad_map_std,opt_gap_mean,opt_gap_std"
        )
        assert len(TRACE_COLUMNS) == len(vars(TraceRow(0, 0, 0.0, 0, 0, 0.0, 0.0, 0.0, 1.0)))

    def test_malformed_cell_is_located(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [TraceRow(i, 0, 0.5, 4 * i, i, -1.0, 0.1, 0.2, 1.0, None) for i in range(3)]
        write_trace_csv(rows, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("-1", "x")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_trace_csv(str(path))
        assert str(err.value) == f"{path}:3: malformed objective in column 6: 'x'"

    @pytest.mark.parametrize("cells", [9, 11])
    def test_wrong_field_count_is_located(self, tmp_path, cells):
        path = tmp_path / "t.csv"
        row = ",".join(["1"] * cells)
        path.write_text(f"{TRACE_HEADER}\n\n0,0,0.5,0,0,1,0,0,1,\n{row}\n")
        with pytest.raises(ParseError, match=rf"t\.csv:4: expected 10 fields, got {cells}"):
            read_trace_csv(str(path))


class TestAggregate:
    @staticmethod
    def trace(objectives, opt_gaps):
        return [TraceRow(i, 0, 0.25 * (i + 1), 10 * i, i, obj, 0.5, 0.25, 1.0, gap)
                for i, (obj, gap) in enumerate(zip(objectives, opt_gaps))]

    def test_rows_are_mean_and_std_in_header_order(self, tmp_path):
        path = tmp_path / "agg.csv"
        traces = [self.trace([1.0, 2.0], [0.5, 0.25]), self.trace([3.0, 2.0], [1.5, 0.75])]
        write_aggregate_csv(traces, str(path))
        assert path.read_text().splitlines() == [
            AGGREGATE_HEADER,
            "0,0,0,0,0.25,2,1,0.5,0,0.25,0,1,0.5",
            "1,0,10,1,0.5,2,0,0.5,0,0.25,0,0.5,0.25",
        ]

    def test_an_opt_gap_one_repetition_left_empty_stays_empty(self, tmp_path):
        path = tmp_path / "agg.csv"
        traces = [self.trace([1.0, 2.0], [0.5, None]), self.trace([3.0, 2.0], [1.5, 0.75])]
        write_aggregate_csv(traces, str(path))
        lines = path.read_text().splitlines()
        assert lines[1:] == [
            "0,0,0,0,0.25,2,1,0.5,0,0.25,0,1,0.5",
            "1,0,10,1,0.5,2,0,0.5,0,0.25,0,,",
        ]

    def test_different_iteration_grids_are_refused(self, tmp_path):
        traces = [self.trace([1.0, 2.0], [None, None]), self.trace([1.0], [None])]
        with pytest.raises(RuntimeError, match="different iteration grids"):
            write_aggregate_csv(traces, str(tmp_path / "agg.csv"))

    @staticmethod
    def per_row_aggregate(rows):
        """One aggregate row by a per-row mean and std, the writer's formula
        before it reduced whole columns."""
        first = rows[0]
        out = [first.iteration, first.stage, first.sfo, first.lmo,
               float(np.mean([r.seconds for r in rows]))]
        for name in AGGREGATE_CRITERIA:
            values = [getattr(r, name) for r in rows]
            arr = None if None in values else np.asarray(values, dtype=np.float64)
            out += [None, None] if arr is None else [float(arr.mean()), float(arr.std())]
        return out

    @pytest.mark.parametrize("reps", [1, 2, 5, 8, 9, 17, 33])
    def test_column_reductions_write_the_per_row_formula_bytes(self, tmp_path, reps):
        draw = np.random.default_rng(reps)

        def values(n):
            # magnitudes from 1e-8 to 1e8, both signs, and signed zeros
            v = np.where(draw.random(n) < 0.5, -1.0, 1.0) * 10.0 ** draw.uniform(-8, 8, n)
            v[draw.random(n) < 0.1] = 0.0
            v[draw.random(n) < 0.1] = -0.0
            return v.tolist()

        traces = []
        for _ in range(reps):
            cols = [values(201) for _ in range(5)]
            gaps = [None if draw.random() < 0.2 else g for g in values(201)]
            traces.append([TraceRow(i, i // 50, abs(cols[0][i]), 8 * i, i, *(c[i] for c in cols[1:]),
                                    gaps[i]) for i in range(201)])
        traces[0][-1].opt_gap = 1.5  # a row no repetition leaves empty, at reps 1 too
        for t in traces[1:]:
            t[-1].opt_gap = -0.0
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_aggregate_csv(traces, str(got))
        write_csv(str(want), AGGREGATE_HEADER, (self.per_row_aggregate(rows) for rows in zip(*traces)))
        assert got.read_bytes() == want.read_bytes()
        lines = got.read_text().splitlines()
        assert any(ln.endswith(",,") for ln in lines) and not lines[-1].endswith(",,")


MINIMAL = {
    "problem": {"name": "mean_variance"},
    "algorithm": "pmvr",
    "schedule": {"theorem": "thm1", "eps": 0.1},
    "seed": 1,
}

STAGES = {"stages": [{"eta": 0.1, "alpha": 0.1, "b1": 1, "t": 5}]}
HUGE = 10**400  # an integer beyond float range
BEYOND_FLOAT = "expected a finite number, got an integer beyond float range"
LAST_SEED = "the last seed, seed + reps - 1, must be below 2**64"


class TestConfigValidation:
    def test_minimal_config_fills_defaults(self):
        cfg = validate_config(dict(MINIMAL))
        assert cfg.problem["lambda"] == 1.0
        assert cfg.problem["source"]["d"] == 10
        assert cfg.reps == 1 and cfg.beta == 1.0

    def test_zero_eps_names_the_field(self):
        bad = dict(MINIMAL, schedule={"theorem": "thm1", "eps": 0.0})
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.path == "schedule.eps"

    def test_stagewise_needs_theorem_or_stages(self):
        bad = dict(MINIMAL, algorithm="stagewise", schedule={})
        with pytest.raises(ConfigError, match="theorem"):
            validate_config(bad)

    def test_stagewise_rejects_single_run_theorem(self):
        bad = dict(MINIMAL, algorithm="stagewise",
                   schedule={"theorem": "thm1", "eps": 0.1})
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.path == "schedule.theorem"

    @pytest.mark.parametrize("algorithm, schedule, path", [
        ("pmvr-v2", {"theorem": "thm1", "eps": 0.1}, "schedule.theorem"),
        ("pmvr-v2", {"theorem": "thm2", "eps": 0.1}, "schedule.theorem"),
        ("pmvr", {"theorem": "thm3", "eps": 0.1}, "schedule.theorem"),
        ("pmvr", {"theorem": "thm4", "eps": 0.1}, "schedule.theorem"),
        ("stagewise", {"theorem": "thm7", "eps": 0.1, "modulus": 1.0}, "schedule.theorem"),
        ("stagewise", {"theorem": "thm8", "eps": 0.1, "modulus": 1.0}, "schedule.theorem"),
        ("stagewise-v2", {"theorem": "thm5", "eps": 0.1}, "schedule.theorem"),
        ("stagewise-v2", {"theorem": "thm6", "eps": 0.1}, "schedule.theorem"),
        ("stagewise", dict(STAGES, n=3, coeff=1.0), "schedule.n"),
        ("stagewise", dict(STAGES, n=3), "schedule.n"),
        ("stagewise", dict(STAGES, coeff=1.0), "schedule.coeff"),
    ])
    def test_subsolver_mismatch_names_the_field(self, algorithm, schedule, path):
        bad = dict(MINIMAL, algorithm=algorithm, schedule=schedule)
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.path == path

    def test_an_eps_whose_count_overflows_is_refused(self):
        with pytest.raises(ConfigError) as err:
            validate_config(dict(MINIMAL, schedule={"theorem": "thm1", "eps": 1e-200}))
        assert err.value.args == ("schedule.eps", "the iteration count overflows")

    def test_schedules_of_2_20_iterations_or_more_validate(self):
        validate_config(dict(MINIMAL, schedule={"theorem": "thm1", "eps": 0.0098}))
        validate_config(dict(
            MINIMAL, schedule={"theorem": "thm1", "eps": 0.1, "overrides": {"t": 2**20}}
        ))
        stage = {"eta": 0.1, "alpha": 0.1, "b1": 1, "t": 2**19}
        validate_config(dict(MINIMAL, algorithm="stagewise", schedule={"stages": [stage, stage]}))

    @pytest.mark.parametrize("seed, reps", [(2**64 - 1, 1), (2**64 - 2, 2), (0, 2**64)])
    def test_seeds_up_to_2_64_minus_1_validate(self, seed, reps):
        cfg = validate_config(dict(MINIMAL, seed=seed, reps=reps))
        assert (cfg.seed, cfg.reps) == (seed, reps)

    @pytest.mark.parametrize("seed, reps", [(2**64 - 1, 2), (2**64 - 5, 6), (1, 2**64)])
    def test_seeds_of_2_64_or_more_over_the_repetitions_are_refused(self, seed, reps):
        with pytest.raises(ConfigError) as err:
            validate_config(dict(MINIMAL, seed=seed, reps=reps))
        assert err.value.args == ("reps", LAST_SEED)

    def test_unknown_key_rejected_with_locator(self):
        bad = dict(MINIMAL, schedule={"theorem": "thm1", "eps": 0.1, "oops": 1})
        with pytest.raises(ConfigError) as err:
            validate_config(bad)
        assert err.value.path == "schedule.oops"
        bad2 = dict(MINIMAL, problem={"name": "mean_variance", "bogus": 2})
        with pytest.raises(ConfigError) as err2:
            validate_config(bad2)
        assert err2.value.path == "problem.bogus"

    def test_exclusive_schedule_modes(self):
        bad = dict(
            MINIMAL,
            schedule={
                "theorem": "thm1", "eps": 0.1,
                "explicit": {"eta": 0.1, "alpha": 0.1, "b1": 1, "t": 5},
            },
        )
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(bad)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            validate_config(dict(MINIMAL, algorithm="sgd"))

    def test_baseline_needs_explicit_params(self):
        bad = dict(MINIMAL, algorithm="baseline")
        with pytest.raises(ConfigError, match="explicit"):
            validate_config(bad)

    def test_load_from_file(self, tmp_path):
        import json

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = load_run_config(str(path))
        assert cfg.name == "cfg"
        assert cfg.algorithm == "pmvr"

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(str(path))

    def test_an_integer_python_will_not_parse_is_invalid_json(self, tmp_path):
        # Python parses an integer of at most 4300 digits by default
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match="invalid JSON: Exceeds the limit") as err:
            load_run_config(str(path))
        assert err.value.path == ""

    def test_a_config_that_is_not_utf8_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "cfg.json"
        text = json.dumps(dict(MINIMAL, name="caf\u00e9"), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))  # the one byte 0xe9 for the e-acute
        offset = text.index("\u00e9")
        with pytest.raises(ConfigError) as err:
            load_run_config(str(path))
        assert err.value.path == ""
        assert err.value.args[1] == (
            f"not UTF-8 text at byte offset {offset}: invalid continuation byte")

    def test_a_config_path_naming_a_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read the config file") as err:
            load_run_config(str(tmp_path))
        assert err.value.path == ""

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "/abs", "a\0b"])
    def test_a_name_holding_a_path_separator_or_nul_is_refused(self, name):
        with pytest.raises(ConfigError, match="holds a path separator or a NUL") as err:
            validate_config(dict(MINIMAL, name=name))
        assert err.value.path == "name"


def _problem_with(section, field, value):
    """``section`` with the dotted ``field`` (``source.d``) set to ``value``."""
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in section.items()}
    *parents, key = field.split(".")
    inner = out
    for part in parents:
        inner = inner[part]
    inner[key] = value
    return out


def _problem_error(section):
    with pytest.raises(ConfigError) as err:
        validate_config(dict(MINIMAL, problem=section))
    return err.value.path, err.value.args[1]


SYNTHETIC = {"kind": "synthetic"}
FRENCH = {"kind": "french_csv", "path": "returns.csv"}
# every numeric problem field: (section holding it, dotted field, type, least value)
NUMERIC_FIELDS = [
    ({"name": "mean_variance"}, "lambda", float, 0.0),
    ({"name": "mean_deviation"}, "lambda", float, 0.0),
    ({"name": "mean_variance", "source": SYNTHETIC}, "source.d", int, 2),
    ({"name": "mean_variance", "source": SYNTHETIC}, "source.periods", int, 1),
    ({"name": "mean_deviation", "source": SYNTHETIC}, "source.data_seed", int, 0),
    ({"name": "single_index"}, "m", int, 2),
    ({"name": "single_index"}, "n", int, 2),
    ({"name": "single_index"}, "s", float, 1.0),
    ({"name": "single_index"}, "sigma", float, 0.0),
    ({"name": "single_index"}, "data_seed", int, 0),
    ({"name": "quadratic_distance"}, "noise", float, 0.0),
]


def _numeric_cases():
    for section, field, kind, least in NUMERIC_FIELDS:
        path = f"problem.{field}"
        below = least - (1 if kind is int else 0.5)
        yield section, field, below, path, f"value {below} out of range"
        if kind is int:
            yield section, field, 2.5, path, "expected an integer, got 2.5"
            yield section, field, True, path, "expected an integer, got True"
            yield section, field, float("inf"), path, "expected an integer, got inf"
        else:
            yield section, field, "1", path, "expected a number, got '1'"
            yield section, field, float("nan"), path, "expected a finite number, got nan"
            yield section, field, float("-inf"), path, "expected a finite number, got -inf"
    for section, field, kind, _ in NUMERIC_FIELDS:  # a boolean is not a number either
        if kind is float:
            yield section, field, True, f"problem.{field}", "expected a number, got True"
            yield section, field, HUGE, f"problem.{field}", BEYOND_FLOAT
        elif field.endswith("data_seed"):  # a seed is one 64-bit word
            yield section, field, 2**64, f"problem.{field}", f"value {2**64} out of range"
        else:  # a dimension: past numpy's largest float64 array
            for value in (MAX_FLOATS + 1, HUGE):
                yield section, field, value, f"problem.{field}", f"value {value} out of range"


def _short_id(value):
    """pytest's own test id, but HUGE for HUGE, in a message too."""
    if isinstance(value, str) and str(HUGE) in value:
        return value.replace(str(HUGE), "HUGE")
    return "HUGE" if value == HUGE else None


class TestProblemValidation:
    """Every problem field's locator and message, and the order faults are found in."""

    @pytest.mark.parametrize("section, field, value, path, message", list(_numeric_cases()),
                             ids=_short_id)
    def test_bad_numeric_field(self, section, field, value, path, message):
        assert _problem_error(_problem_with(section, field, value)) == (path, message)

    @pytest.mark.parametrize("section, field", [
        ({"name": "mean_deviation", "source": SYNTHETIC}, "source.data_seed"),
        ({"name": "single_index"}, "data_seed"),
    ])
    def test_the_largest_data_seed_is_accepted(self, section, field):
        validate_config(dict(MINIMAL, problem=_problem_with(section, field, 2**64 - 1)))

    @pytest.mark.parametrize("section, field, kind, least", NUMERIC_FIELDS)
    def test_numeric_field_at_its_bound_is_accepted(self, section, field, kind, least):
        problem = validate_config(
            dict(MINIMAL, problem=_problem_with(section, field, least))
        ).problem
        for part in field.split("."):
            problem = problem[part]
        assert problem == least and type(problem) is kind

    def test_numpy_refuses_an_array_one_past_the_dimension_bound(self):
        # refused without allocating: the size in bytes overflows an intp
        with pytest.raises(ValueError, match="array is too big"):
            np.empty(MAX_FLOATS + 1)

    # validation only: at or under the bound, building the problem would
    # allocate gigabytes
    @pytest.mark.parametrize("section, first, second", [
        ({"name": "single_index"}, "m", "n"),
        ({"name": "mean_variance", "source": SYNTHETIC}, "source.d", "source.periods"),
    ])
    def test_a_product_past_the_dimension_bound_is_refused_under_its_second_field(
        self, section, first, second
    ):
        section = _problem_with(section, first, 3)
        validate_config(dict(MINIMAL, problem=_problem_with(section, second, MAX_FLOATS // 3)))
        path, message = _problem_error(_problem_with(section, second, MAX_FLOATS // 3 + 1))
        assert path == f"problem.{second}"
        assert message.startswith(
            f"{first.split('.')[-1]} * {second.split('.')[-1]} = {3 * (MAX_FLOATS // 3 + 1)} entries exceed")
        path, _ = _problem_error(_problem_with(_problem_with(section, first, 2**31), second, 2**31))
        assert path == f"problem.{second}"

    @pytest.mark.parametrize("section, path, message", [
        ([], "problem", "expected an object"),
        ({"lambda": 1.0}, "problem.name", "required key is missing"),
        ({"name": "bogus"}, "problem.name", "unknown problem 'bogus'"),
        ({"name": 3}, "problem.name", "unknown problem 3"),
        ({"name": None}, "problem.name", "unknown problem None"),
        ({"name": ["mean_variance"]}, "problem.name", "unknown problem ['mean_variance']"),
        ({"name": {"a": 1}}, "problem.name", "unknown problem {'a': 1}"),
        ({"name": "mean_variance", "m": 4}, "problem.m", "unknown key"),
        ({"name": "mean_deviation", "c": [1, 2]}, "problem.c", "unknown key"),
        ({"name": "single_index", "lambda": 1.0}, "problem.lambda", "unknown key"),
        ({"name": "quadratic_distance", "source": {}}, "problem.source", "unknown key"),
        # unknown keys come first, then the fields in their order
        ({"name": "single_index", "m": 1, "zz": 0}, "problem.zz", "unknown key"),
        ({"name": "single_index", "sigma": -1, "m": 1}, "problem.m", "value 1 out of range"),
        ({"name": "mean_variance", "source": 5, "lambda": -1},
         "problem.lambda", "value -1.0 out of range"),
        ({"name": "mean_variance", "source": {"zz": 1}, "lambda": -1},
         "problem.lambda", "value -1.0 out of range"),
        ({"name": "quadratic_distance", "noise": -1, "c": 5},
         "problem.c", "expected a list of at least 2 numbers"),
        ({"name": "quadratic_distance", "c": [1.0]},
         "problem.c", "expected a list of at least 2 numbers"),
        ({"name": "quadratic_distance", "c": []},
         "problem.c", "expected a list of at least 2 numbers"),
        ({"name": "quadratic_distance", "c": "21"},
         "problem.c", "expected a list of at least 2 numbers"),
        ({"name": "quadratic_distance", "c": {"a": 1, "b": 2}},
         "problem.c", "expected a list of at least 2 numbers"),
        # c follows set.lower's rule: finite numbers, one level deep
        ({"name": "quadratic_distance", "c": ["a", 1]},
         "problem.c", "expected a list of numbers, got ['a', 1]"),
        ({"name": "quadratic_distance", "c": ["2", 1]},
         "problem.c", "expected a list of numbers, got ['2', 1]"),
        ({"name": "quadratic_distance", "c": [[1], 2]},
         "problem.c", "expected a list of numbers, got [[1], 2]"),
        ({"name": "quadratic_distance", "c": [[1, 2], [3, 4]]},
         "problem.c", "expected a list of numbers, got [[1, 2], [3, 4]]"),
        ({"name": "quadratic_distance", "c": [float("nan"), 1]},
         "problem.c", "expected finite numbers"),
        ({"name": "quadratic_distance", "c": [float("inf"), 1], "noise": -1},
         "problem.c", "expected finite numbers"),
        ({"name": "quadratic_distance", "data_seed": 0}, "problem.data_seed", "unknown key"),
    ])
    def test_problem_section_fault(self, section, path, message):
        assert _problem_error(section) == (path, message)

    @pytest.mark.parametrize("source, path, message", [
        ("synthetic", "problem.source", "expected an object"),
        ([SYNTHETIC], "problem.source", "expected an object"),
        ({"kind": "csv"}, "problem.source.kind", "unknown source kind 'csv'"),
        ({"kind": None}, "problem.source.kind", "unknown source kind None"),
        ({"kind": ["synthetic"]}, "problem.source.kind", "unknown source kind ['synthetic']"),
        ({"kind": "csv", "zz": 1}, "problem.source.kind", "unknown source kind 'csv'"),
        ({"kind": "synthetic", "path": "a.csv"}, "problem.source.path", "unknown key"),
        ({"d": 4, "lambda": 1.0}, "problem.source.lambda", "unknown key"),
        ({"kind": "french_csv", "path": "a.csv", "d": 4}, "problem.source.d", "unknown key"),
        ({"kind": "french_csv", "d": 4}, "problem.source.d", "unknown key"),
        (dict(FRENCH, sentinel_policy="skip"),
         "problem.source.sentinel_policy", "unknown policy 'skip'"),
        (dict(FRENCH, sentinel_policy=None),
         "problem.source.sentinel_policy", "unknown policy None"),
        (dict(FRENCH, sentinel_policy=["drop"]),
         "problem.source.sentinel_policy", "unknown policy ['drop']"),
        ({"kind": "french_csv"}, "problem.source.path", "required key is missing"),
        (dict(FRENCH, path=5), "problem.source.path", "expected a string path"),
        (dict(FRENCH, path=None), "problem.source.path", "expected a string path"),
        ({"kind": "french_csv", "sentinel_policy": "skip"},
         "problem.source.sentinel_policy", "unknown policy 'skip'"),
        ({"kind": "synthetic", "periods": 0, "d": 1}, "problem.source.d", "value 1 out of range"),
    ])
    @pytest.mark.parametrize("name", ["mean_variance", "mean_deviation"])
    def test_source_fault(self, name, source, path, message):
        assert _problem_error({"name": name, "source": source}) == (path, message)

    @pytest.mark.parametrize("section, resolved", [
        ({"name": "mean_variance"},
         {"name": "mean_variance", "lambda": 1.0,
          "source": {"kind": "synthetic", "d": 10, "periods": 500, "data_seed": 0}}),
        ({"name": "mean_deviation"},
         {"name": "mean_deviation", "lambda": 1.0,
          "source": {"kind": "synthetic", "d": 10, "periods": 500, "data_seed": 0}}),
        ({"name": "single_index"},
         {"name": "single_index", "m": 20, "n": 20, "s": 1.0, "sigma": 0.1, "data_seed": 0}),
        ({"name": "quadratic_distance"},
         {"name": "quadratic_distance", "c": [2.0, -1.0], "noise": 0.05}),
        ({"name": "mean_variance", "lambda": 2, "source": {"d": 3}},
         {"name": "mean_variance", "lambda": 2.0,
          "source": {"kind": "synthetic", "d": 3, "periods": 500, "data_seed": 0}}),
        ({"name": "mean_deviation", "source": FRENCH},
         {"name": "mean_deviation", "lambda": 1.0,
          "source": {"kind": "french_csv", "path": "returns.csv", "sentinel_policy": "error"}}),
        ({"name": "mean_deviation", "source": dict(FRENCH, sentinel_policy="drop")},
         {"name": "mean_deviation", "lambda": 1.0,
          "source": {"kind": "french_csv", "path": "returns.csv", "sentinel_policy": "drop"}}),
        ({"name": "single_index", "m": 3, "s": 2, "sigma": 0},
         {"name": "single_index", "m": 3, "n": 20, "s": 2.0, "sigma": 0.0, "data_seed": 0}),
        ({"name": "quadratic_distance", "c": [1, 0, -1], "noise": 0},
         {"name": "quadratic_distance", "c": [1.0, 0.0, -1.0], "noise": 0.0}),
    ])
    def test_resolved_section(self, section, resolved):
        problem = validate_config(dict(MINIMAL, problem=section)).problem
        # the sidecar's text: an integer where a float belongs would show
        assert json.dumps(problem, sort_keys=True) == json.dumps(resolved, sort_keys=True)


def _set_error(set_spec):
    with pytest.raises(ConfigError) as err:
        validate_config(dict(MINIMAL, set=set_spec))
    return err.value.path, err.value.args[1]


BALL = {"kind": "nuclear_ball", "m": 2, "n": 3, "radius": 1.5}
BOX = {"kind": "box", "lower": [0, 0], "upper": [1, 1]}


def _number_cases():
    # each number's value just below its range: m, n >= 1 and radius > 0
    for key, kind, below in (("m", int, 0), ("n", int, 0), ("radius", float, 0)):
        path = f"set.{key}"
        missing = {k: v for k, v in BALL.items() if k != key}
        yield missing, path, "required key is missing"
        yield dict(BALL, **{key: below}), path, f"value {kind(below)} out of range"
        yield dict(BALL, **{key: -1}), path, f"value {kind(-1)} out of range"
        if kind is int:
            yield dict(BALL, **{key: 2.5}), path, "expected an integer, got 2.5"
            yield dict(BALL, **{key: True}), path, "expected an integer, got True"
            yield dict(BALL, **{key: "2"}), path, "expected an integer, got '2'"
            yield dict(BALL, **{key: float("inf")}), path, "expected an integer, got inf"
        else:
            yield dict(BALL, **{key: "1"}), path, "expected a number, got '1'"
            yield dict(BALL, **{key: [1.0]}), path, "expected a number, got [1.0]"
            yield dict(BALL, **{key: float("nan")}), path, "expected a finite number, got nan"
            yield dict(BALL, **{key: float("inf")}), path, "expected a finite number, got inf"
    yield dict(BALL, radius=True), "set.radius", "expected a number, got True"
    yield dict(BALL, radius=HUGE), "set.radius", BEYOND_FLOAT


def _bounds_cases():
    for key in ("lower", "upper"):
        path = f"set.{key}"
        yield {k: v for k, v in BOX.items() if k != key}, path, "required key is missing"
        for bad in ("low", 3, None, [], [[0, 1], [2]], [True, False], ["0", 1], [None, 1],
                    {"a": 0, "b": 1}):
            yield dict(BOX, **{key: bad}), path, f"expected a list of numbers, got {bad!r}"
        for bad in ([float("nan"), 1], [0, float("-inf")], [[0, 1], [float("inf"), 1]]):
            yield dict(BOX, **{key: bad}), path, "expected finite numbers"


class TestSetValidation:
    """Every ``set`` fault's locator and message, and the order faults are found in."""

    @pytest.mark.parametrize("set_spec, path, message", [
        ([], "set", "expected an object"),
        ("simplex", "set", "expected an object"),
        (5, "set", "expected an object"),
        ({}, "set.kind", "unknown set kind None"),
        ({"m": 2}, "set.kind", "unknown set kind None"),
        ({"kind": None}, "set.kind", "unknown set kind None"),
        ({"kind": "ball"}, "set.kind", "unknown set kind 'ball'"),
        ({"kind": 3}, "set.kind", "unknown set kind 3"),
        ({"kind": ["simplex"]}, "set.kind", "unknown set kind ['simplex']"),
        ({"kind": {"a": 1}}, "set.kind", "unknown set kind {'a': 1}"),
        # the kind is checked before the keys it allows
        ({"kind": "ball", "zz": 1}, "set.kind", "unknown set kind 'ball'"),
        ({"kind": "simplex", "d": 3}, "set.d", "unknown key"),
        ({"kind": "simplex", "lower": [0]}, "set.lower", "unknown key"),
        (dict(BOX, m=2), "set.m", "unknown key"),
        (dict(BOX, radius=1.0), "set.radius", "unknown key"),
        (dict(BALL, lower=[0]), "set.lower", "unknown key"),
        (dict(BALL, d=3), "set.d", "unknown key"),
    ])
    def test_set_section_fault(self, set_spec, path, message):
        assert _set_error(set_spec) == (path, message)

    @pytest.mark.parametrize("set_spec, path, message", list(_number_cases()))
    def test_ball_number_fault(self, set_spec, path, message):
        assert _set_error(set_spec) == (path, message)

    @pytest.mark.parametrize("set_spec, path, message", list(_bounds_cases()))
    def test_box_bounds_fault(self, set_spec, path, message):
        assert _set_error(set_spec) == (path, message)

    @pytest.mark.parametrize("set_spec, path, message", [
        ({"kind": "box", "lower": [0, 0], "upper": [1, 1, 1]},
         "set.lower", "shape (2,) differs from upper's (3,)"),
        ({"kind": "box", "lower": [[0, 0]], "upper": [0, 0]},
         "set.lower", "shape (1, 2) differs from upper's (2,)"),
        ({"kind": "box", "lower": [0, 2], "upper": [1, 1]},
         "set.lower", "lower must not exceed upper coordinatewise"),
        ({"kind": "box", "lower": [[0, 0], [0, 1.5]], "upper": [[1, 1], [1, 1]]},
         "set.lower", "lower must not exceed upper coordinatewise"),
    ])
    def test_box_cross_fault(self, set_spec, path, message):
        assert _set_error(set_spec) == (path, message)

    @pytest.mark.parametrize("set_spec, path, message", [
        # unknown keys first, then the fields in order, then the box's cross checks
        ({"kind": "box", "lower": "x", "zz": 1}, "set.zz", "unknown key"),
        ({"kind": "nuclear_ball", "radius": 0, "zz": 1}, "set.zz", "unknown key"),
        ({"kind": "nuclear_ball", "radius": 0, "n": 0, "m": 0},
         "set.m", "value 0 out of range"),
        ({"kind": "nuclear_ball", "radius": 0, "m": 2}, "set.n", "required key is missing"),
        ({"kind": "nuclear_ball", "radius": 0, "n": 2, "m": 2},
         "set.radius", "value 0.0 out of range"),
        ({"kind": "box", "upper": "x"}, "set.lower", "required key is missing"),
        ({"kind": "box", "upper": [0], "lower": "x"},
         "set.lower", "expected a list of numbers, got 'x'"),
        ({"kind": "box", "lower": [2, 2, 2], "upper": "x"},
         "set.upper", "expected a list of numbers, got 'x'"),
        ({"kind": "box", "lower": [2, 2, 2]}, "set.upper", "required key is missing"),
        ({"kind": "box", "lower": [2, 2], "upper": [1, 1, 1]},
         "set.lower", "shape (2,) differs from upper's (3,)"),
    ])
    def test_fault_order(self, set_spec, path, message):
        assert _set_error(set_spec) == (path, message)

    @pytest.mark.parametrize("set_spec", [
        {"kind": "simplex"},
        {"kind": "nuclear_ball", "m": 1, "n": 1, "radius": 1e-300},
        BALL,
        BOX,
        {"kind": "box", "lower": [0.5, -1], "upper": [0.5, 2]},
        {"kind": "box", "lower": [[0, 0], [0, 0]], "upper": [[1, 1], [1, 1.5]]},
        {"kind": "box", "lower": [[[-1]]], "upper": [[[1]]]},
    ])
    def test_accepted_set_keeps_its_values(self, set_spec):
        assert validate_config(dict(MINIMAL, set=set_spec)).set_spec == set_spec

    def test_no_set_is_none(self):
        assert validate_config(dict(MINIMAL)).set_spec is None
        assert validate_config(dict(MINIMAL, set=None)).set_spec is None


def _schedule_error(algorithm, schedule, **top):
    with pytest.raises(ConfigError) as err:
        validate_config(dict(MINIMAL, algorithm=algorithm, schedule=schedule, **top))
    return err.value.path, err.value.args[1]


EXPLICIT = {"eta": 0.1, "alpha": 0.1, "b1": 1, "t": 5}
EXPLICIT_V2 = dict(EXPLICIT, n=2, coeff=1.0)
STAGE = {"eta": 0.1, "alpha": 0.1, "b1": 1, "t": 5}
# a first stage that every in-range later stage follows in order
FIRST = {"eta": 1.0, "alpha": 1.0, "b1": 1, "t": 1}
STAGES_V2 = {"stages": [STAGE], "n": 2, "coeff": 1.0}
RUNS = {"pmvr": ("thm1", "thm2"), "pmvr-v2": ("thm3", "thm4"),
        "stagewise": ("thm5", "thm6"), "stagewise-v2": ("thm7", "thm8")}
THEOREM_NAMES = [f"thm{i}" for i in range(1, 9)]
OVERFLOW = "the iteration count overflows"


def _theorem(thm, **keys):
    """A theorem schedule at eps 0.5; thm7 and thm8 get a modulus."""
    modulus = {"modulus": 2.0} if thm in ("thm7", "thm8") else {}
    return {"theorem": thm, "eps": 0.5, **modulus, **keys}


def _pairing_cases():
    for algorithm in ("pmvr", "pmvr-v2", "stagewise", "stagewise-v2", "baseline"):
        for thm in THEOREM_NAMES:
            if algorithm == "baseline":
                fault = ("schedule", "the baseline takes explicit parameters only")
            elif thm in RUNS[algorithm]:
                fault = None
            else:
                fault = ("schedule.theorem",
                         f"{algorithm} runs {' or '.join(RUNS[algorithm])}, not {thm}")
            yield algorithm, thm, fault


# every schedule number: (algorithm, schedule holding the value V, locator,
# type, range as _check_range's (lo, hi, lo_open))
def _number_fields():
    yield "pmvr", lambda v: {"theorem": "thm1", "eps": v}, "eps", float, (0.0, 1.0, True)
    for key in ("eta", "alpha", "b0", "b1", "t", "n", "eps1"):
        yield ("pmvr", lambda v, k=key: _theorem("thm1", constants={k: v}),
               f"constants.{key}", float, (0.0, None, True))
    params = {"eta": (float, (0.0, 1.0, False)), "alpha": (float, (0.0, 1.0, True)),
              "b0": (int, (1, None, False)), "b1": (int, (1, None, False)),
              "t": (int, (1, None, False)), "n": (int, (1, None, False)),
              "coeff": (float, (0.0, None, True))}
    for key in ("eta", "alpha", "b0", "b1", "t", "n"):
        yield ("pmvr-v2", lambda v, k=key: _theorem("thm3", overrides={k: v}),
               f"overrides.{key}", *params[key])
    yield ("stagewise-v2", lambda v: {"theorem": "thm7", "eps": 0.5, "modulus": v},
           "modulus", float, (0.0, None, True))
    for key, (kind, bound) in params.items():
        yield ("pmvr-v2", lambda v, k=key: {"explicit": dict(EXPLICIT_V2, **{k: v})},
               f"explicit.{key}", kind, bound)
    for key in ("b0", "n", "coeff"):
        yield ("stagewise-v2", lambda v, k=key: dict(STAGES_V2, **{k: v}), key, *params[key])
    for key in ("eta", "alpha", "b1", "t"):
        yield ("stagewise", lambda v, k=key: {"stages": [FIRST, dict(STAGE, **{k: v})]},
               f"stages[1].{key}", *params[key])


NUMBER_FIELDS = list(_number_fields())


def _number_faults():
    for algorithm, schedule, field, kind, (lo, hi, lo_open) in NUMBER_FIELDS:
        path = f"schedule.{field}"
        below = kind(lo if lo_open else lo - (1 if kind is int else 0.5))
        yield algorithm, schedule(below), path, f"value {below} out of range"
        if hi is not None:
            yield algorithm, schedule(hi + 0.5), path, f"value {hi + 0.5} out of range"
        if kind is int:
            for bad in (2.5, True, float("inf"), "2", None):
                yield algorithm, schedule(bad), path, f"expected an integer, got {bad!r}"
        else:
            for bad in ("0.5", None, [0.5], True, False):
                yield algorithm, schedule(bad), path, f"expected a number, got {bad!r}"
            for bad in (float("nan"), float("-inf")):
                yield algorithm, schedule(bad), path, f"expected a finite number, got {bad!r}"
            yield algorithm, schedule(-HUGE), path, BEYOND_FLOAT


def _number_bounds():
    """Each number at the ends of its range that the range admits."""
    for algorithm, schedule, field, kind, (lo, hi, lo_open) in NUMBER_FIELDS:
        if not lo_open:
            yield algorithm, schedule(kind(lo)), field
        if hi is not None:
            yield algorithm, schedule(kind(hi)), field


class TestScheduleValidation:
    """Every ``schedule`` fault's locator and message, and the order faults are found in."""

    @pytest.mark.parametrize("algorithm, schedule, path, message", [
        ("pmvr", [], "schedule", "expected an object"),
        ("pmvr", "thm1", "schedule", "expected an object"),
        ("pmvr", None, "schedule", "expected an object"),
        # exactly one mode
        ("pmvr", {}, "schedule", "exactly one of theorem | explicit | stages is required"),
        ("pmvr", {"eps": 0.1}, "schedule",
         "exactly one of theorem | explicit | stages is required"),
        ("pmvr", {"theorem": "thm1", "eps": 0.1, "explicit": EXPLICIT}, "schedule",
         "exactly one of theorem | explicit | stages is required"),
        ("stagewise", {"theorem": "thm5", "eps": 0.1, "stages": [STAGE]}, "schedule",
         "exactly one of theorem | explicit | stages is required"),
        ("stagewise", {"explicit": EXPLICIT, "stages": [STAGE]}, "schedule",
         "exactly one of theorem | explicit | stages is required"),
        # the mode against the algorithm
        ("stagewise", {"explicit": EXPLICIT}, "schedule.explicit",
         "stage-wise algorithms take a theorem or stages"),
        ("stagewise-v2", {"explicit": EXPLICIT_V2}, "schedule.explicit",
         "stage-wise algorithms take a theorem or stages"),
        ("pmvr", {"stages": [STAGE]}, "schedule.stages", "pmvr is not stage-wise"),
        ("pmvr-v2", STAGES_V2, "schedule.stages", "pmvr-v2 is not stage-wise"),
        ("baseline", {"stages": [STAGE]}, "schedule.stages", "baseline is not stage-wise"),
        # unknown keys, per mode
        ("pmvr", _theorem("thm1", oops=1), "schedule.oops", "unknown key"),
        ("pmvr", _theorem("thm1", b0=1), "schedule.b0", "unknown key"),
        ("pmvr-v2", _theorem("thm3", coeff=1.0), "schedule.coeff", "unknown key"),
        ("pmvr", {"explicit": EXPLICIT, "eps": 0.1}, "schedule.eps", "unknown key"),
        ("pmvr", {"explicit": EXPLICIT, "b0": 1}, "schedule.b0", "unknown key"),
        ("stagewise", {"stages": [STAGE], "eps": 0.1}, "schedule.eps", "unknown key"),
        ("stagewise", {"stages": [STAGE], "t": 5}, "schedule.t", "unknown key"),
        ("pmvr", {"explicit": dict(EXPLICIT, zz=1)}, "schedule.explicit.zz", "unknown key"),
        ("pmvr", {"explicit": dict(EXPLICIT, eps=0.1)}, "schedule.explicit.eps",
         "unknown key"),
        ("stagewise", {"stages": [dict(STAGE, b0=1)]}, "schedule.stages[0].b0", "unknown key"),
        ("stagewise-v2", dict(STAGES_V2, stages=[STAGE, dict(STAGE, n=2)]),
         "schedule.stages[1].n", "unknown key"),
        ("pmvr", _theorem("thm1", constants={"zz": 1.0}), "schedule.constants.zz",
         "unknown key"),
        ("pmvr-v2", _theorem("thm3", overrides={"coeff": 1.0}), "schedule.overrides.coeff",
         "unknown key"),
        ("pmvr", _theorem("thm1", overrides={"eps1": 1.0}), "schedule.overrides.eps1",
         "unknown key"),
        # theorem names
        ("pmvr", {"theorem": "thm9", "eps": 0.1}, "schedule.theorem", "unknown theorem 'thm9'"),
        ("pmvr", {"theorem": "THM1", "eps": 0.1}, "schedule.theorem", "unknown theorem 'THM1'"),
        ("pmvr", {"theorem": None, "eps": 0.1}, "schedule.theorem", "unknown theorem None"),
        ("pmvr", {"theorem": 1, "eps": 0.1}, "schedule.theorem", "unknown theorem 1"),
        ("pmvr", {"theorem": ["thm1"], "eps": 0.1}, "schedule.theorem",
         "unknown theorem ['thm1']"),
        # required keys
        ("pmvr", {"theorem": "thm1"}, "schedule.eps", "required key is missing"),
        *[("pmvr", {"explicit": {k: v for k, v in EXPLICIT.items() if k != key}},
           f"schedule.explicit.{key}", "required key is missing") for key in EXPLICIT],
        *[("stagewise", {"stages": [STAGE, {k: v for k, v in STAGE.items() if k != key}]},
           f"schedule.stages[1].{key}", "required key is missing") for key in STAGE],
        # blocks that are not objects, and empty stage lists
        ("pmvr", _theorem("thm1", constants=[]), "schedule.constants", "expected an object"),
        ("pmvr", _theorem("thm1", constants=None), "schedule.constants", "expected an object"),
        ("pmvr", _theorem("thm1", overrides=[]), "schedule.overrides", "expected an object"),
        ("pmvr", _theorem("thm1", overrides=5), "schedule.overrides", "expected an object"),
        ("pmvr", {"explicit": []}, "schedule.explicit", "expected an object"),
        ("pmvr", {"explicit": None}, "schedule.explicit", "expected an object"),
        ("stagewise", {"stages": []}, "schedule.stages", "expected a non-empty list"),
        ("stagewise", {"stages": STAGE}, "schedule.stages", "expected a non-empty list"),
        ("stagewise", {"stages": None}, "schedule.stages", "expected a non-empty list"),
        ("stagewise", {"stages": [5]}, "schedule.stages[0]", "expected an object"),
        ("stagewise", {"stages": [STAGE, []]}, "schedule.stages[1]", "expected an object"),
        # overrides are for single-run schedules
        ("stagewise", _theorem("thm5", overrides={"t": 5}), "schedule.overrides",
         "overrides apply to single-run schedules only"),
        ("stagewise-v2", _theorem("thm7", overrides={"eta": 0.5}), "schedule.overrides",
         "overrides apply to single-run schedules only"),
        # n and coeff: the -v2 algorithms need both, the others take neither
        ("pmvr", {"explicit": EXPLICIT_V2}, "schedule.explicit.n", "pmvr runs no subsolver for n"),
        ("pmvr", {"explicit": dict(EXPLICIT, coeff=1.0)}, "schedule.explicit.coeff",
         "pmvr runs no subsolver for coeff"),
        ("baseline", {"explicit": dict(EXPLICIT, n=2)}, "schedule.explicit.n",
         "baseline runs no subsolver for n"),
        ("pmvr-v2", {"explicit": EXPLICIT}, "schedule.explicit.n", "pmvr-v2 needs n"),
        ("pmvr-v2", {"explicit": dict(EXPLICIT, n=2)}, "schedule.explicit.coeff",
         "pmvr-v2 needs coeff"),
        ("pmvr-v2", {"explicit": dict(EXPLICIT, coeff=1.0)}, "schedule.explicit.n",
         "pmvr-v2 needs n"),
        ("stagewise", dict(STAGES_V2), "schedule.n", "stagewise runs no subsolver for n"),
        ("stagewise", {"stages": [STAGE], "coeff": 1.0}, "schedule.coeff",
         "stagewise runs no subsolver for coeff"),
        ("stagewise-v2", {"stages": [STAGE]}, "schedule.n", "stagewise-v2 needs n"),
        ("stagewise-v2", {"stages": [STAGE], "n": 2}, "schedule.coeff",
         "stagewise-v2 needs coeff"),
        # one message for a count too large to compute, also under a set length
        ("pmvr", {"theorem": "thm1", "eps": 1e-200}, "schedule.eps", OVERFLOW),
        ("pmvr", {"theorem": "thm1", "eps": 1e-320, "overrides": {"t": 10}},
         "schedule.eps", OVERFLOW),
        ("stagewise-v2", {"theorem": "thm8", "eps": 1e-320, "modulus": 2.0},
         "schedule.eps", OVERFLOW),
        # and for a rate that rounds to zero: thm1's alpha, 1e-320 * eps**2, and
        # thm7's subsolver coefficient, modulus / 2
        ("pmvr", {"theorem": "thm1", "eps": 1e-5, "constants": {"alpha": 1e-320}},
         "schedule.eps", "a rate rounds to zero: alpha must lie in (0, 1], got 0.0"),
        ("stagewise-v2", {"theorem": "thm7", "eps": 0.5, "modulus": 5e-324},
         "schedule.modulus", "modulus / 2, the subsolver's coefficient, rounds to zero"),
        # keys that nothing would read
        ("pmvr", _theorem("thm1", overrides={"n": 5}), "schedule.overrides.n",
         "pmvr runs no subsolver for n"),
        ("pmvr", _theorem("thm2", overrides={"t": 5, "n": 5}), "schedule.overrides.n",
         "pmvr runs no subsolver for n"),
        ("baseline", _theorem("thm1", overrides={"n": 5}), "schedule.overrides.n",
         "baseline runs no subsolver for n"),
        *[(algorithm, _theorem(thm, modulus=2.0), "schedule.modulus", f"{thm} takes no modulus")
          for algorithm, thms in RUNS.items() for thm in thms if thm not in ("thm7", "thm8")],
        ("baseline", _theorem("thm1", modulus=2.0), "schedule.modulus", "thm1 takes no modulus"),
        # a baseline's theorem is refused before it is resolved
        ("baseline", _theorem("thm5", overrides={"t": 5}), "schedule",
         "the baseline takes explicit parameters only"),
    ])
    def test_schedule_fault(self, algorithm, schedule, path, message):
        assert _schedule_error(algorithm, schedule) == (path, message)

    @pytest.mark.parametrize("algorithm, schedule, total", [
        ("pmvr", {"explicit": dict(EXPLICIT, t=2**20)}, 2**20),
        ("baseline", {"explicit": dict(EXPLICIT, t=2**21)}, 2**21),
        ("stagewise", {"stages": [dict(STAGE, t=2**19), dict(STAGE, t=2**19)]}, 2**20),
        ("pmvr", _theorem("thm1", overrides={"t": 2**20}), 2**20),
        ("pmvr", {"theorem": "thm1", "eps": 0.0098}, 1062483),
        ("stagewise", {"theorem": "thm5", "eps": 0.0005}, 5592404),
        ("stagewise-v2", {"theorem": "thm7", "eps": 4.76837158203125e-07, "modulus": 2.0},
         2097151),
    ])
    def test_counts_of_2_20_iterations_or_more_resolve_in_full(self, algorithm, schedule, total):
        """Every way of asking for 2**20 iterations or more validates, and
        the schedule resolves to the whole count, whatever its locator."""
        cfg = validate_config(dict(MINIMAL, algorithm=algorithm, schedule=schedule))
        resolved = resolve_schedule(cfg.schedule, cfg.beta)
        stages = getattr(resolved, "stages", [resolved])
        assert sum(p.iters for p in stages) == total

    @pytest.mark.parametrize("algorithm, schedule, path", [
        # thm1's rates at eps 1e-100 ask for about 1e100 samples per batch
        ("pmvr", {"theorem": "thm1", "eps": 1e-100}, "schedule.eps"),
        # a theorem's own rates are checked before the overrides replace them
        ("pmvr", {"theorem": "thm1", "eps": 1e-100, "overrides": {"t": 10, "b0": 1, "b1": 1}},
         "schedule.eps"),
        ("stagewise-v2", {"theorem": "thm8", "eps": 1e-60, "modulus": 2.0}, "schedule.eps"),
        ("pmvr", _theorem("thm1", overrides={"t": 2**62, "b1": 2}), "schedule.overrides"),
        ("pmvr", _theorem("thm1", overrides={"b0": 2**63}), "schedule.overrides"),
        ("pmvr", {"explicit": dict(EXPLICIT, b0=2**63 - 5)}, "schedule.explicit"),
        ("baseline", {"explicit": dict(EXPLICIT, t=2**61, b1=4)}, "schedule.explicit"),
        ("stagewise", {"stages": [dict(STAGE, t=2**62), dict(STAGE, t=2**62)]},
         "schedule.stages"),
    ])
    def test_a_level_drawing_2_63_samples_or_more_is_refused(self, algorithm, schedule, path):
        assert _schedule_error(algorithm, schedule) == (path, SAMPLES_OVERFLOW)

    def test_a_level_drawing_just_under_2_63_samples_validates(self):
        # B0 + T * B1 = 2**63 - 1
        explicit = dict(EXPLICIT, b0=2**63 - 6)
        cfg = validate_config(dict(MINIMAL, schedule={"explicit": explicit}))
        assert resolve_schedule(cfg.schedule, cfg.beta).b0 == 2**63 - 6

    @pytest.mark.parametrize("algorithm, thm, fault", list(_pairing_cases()))
    def test_algorithm_theorem_pairing(self, algorithm, thm, fault):
        raw = dict(MINIMAL, algorithm=algorithm, schedule=_theorem(thm))
        if fault is None:
            assert validate_config(raw).schedule["theorem"] == thm
        else:
            assert _schedule_error(algorithm, _theorem(thm)) == fault

    @pytest.mark.parametrize("algorithm, schedule, path, message", list(_number_faults()))
    def test_number_fault(self, algorithm, schedule, path, message):
        assert _schedule_error(algorithm, schedule) == (path, message)

    @pytest.mark.parametrize("algorithm, schedule, field", list(_number_bounds()))
    def test_number_at_its_bound_is_accepted(self, algorithm, schedule, field):
        validate_config(dict(MINIMAL, algorithm=algorithm, schedule=schedule))

    @pytest.mark.parametrize("algorithm, schedule, top, path, message", [
        # the algorithm, then the schedule, then the fields after it
        ("sgd", [], {}, "algorithm", "unknown algorithm 'sgd'"),
        (["pmvr"], [], {}, "algorithm", "unknown algorithm ['pmvr']"),
        ("pmvr", [], {"seed": -1, "beta": 0}, "schedule", "expected an object"),
        ("pmvr", {"theorem": "thm1", "eps": 0}, {"set": 5, "beta": "x"},
         "schedule.eps", "value 0.0 out of range"),
        ("pmvr", {"theorem": "thm1", "eps": 1e-200}, {"set": 5, "seed": -1, "beta": 0},
         "schedule.eps", OVERFLOW),
        ("baseline", _theorem("thm1"), {"set": 5, "beta": 0},
         "schedule", "the baseline takes explicit parameters only"),
        ("pmvr", _theorem("thm1"), {"set": 5, "beta": 0}, "set", "expected an object"),
        ("pmvr", _theorem("thm1"), {"seed": -1, "beta": 0}, "seed", "value -1 out of range"),
        ("pmvr-v2", _theorem("thm3"), {"beta": 0}, "beta", "value 0.0 out of range"),
        ("pmvr-v2", _theorem("thm3"), {"beta": True}, "beta", "expected a number, got True"),
        ("pmvr", _theorem("thm1"), {"beta": "1"}, "beta", "expected a number, got '1'"),
        ("pmvr", _theorem("thm1"), {"beta": HUGE}, "beta", BEYOND_FLOAT),
        ("pmvr", _theorem("thm1"), {"seed": 2**64, "beta": HUGE}, "seed",
         f"value {2**64} out of range"),
        ("pmvr", _theorem("thm1"), {"seed": HUGE}, "seed", f"value {HUGE} out of range"),
        ("pmvr", _theorem("thm1"), {"seed": 2**64 - 2, "reps": 3}, "reps", LAST_SEED),
        ("pmvr", _theorem("thm1"), {"seed": 2**64 - 1, "reps": 2, "beta": 0}, "beta",
         "value 0.0 out of range"),
        # within the section: the mode, then its keys, then the values in order
        ("stagewise", {"explicit": [], "theorem": "thm1"}, {}, "schedule",
         "exactly one of theorem | explicit | stages is required"),
        ("stagewise", {"explicit": []}, {}, "schedule.explicit",
         "stage-wise algorithms take a theorem or stages"),
        ("pmvr", {"stages": [], "zz": 1}, {}, "schedule.stages", "pmvr is not stage-wise"),
        ("pmvr", {"theorem": "thm9", "eps": 0, "zz": 1}, {}, "schedule.zz", "unknown key"),
        ("pmvr", {"theorem": "thm9", "eps": 0}, {}, "schedule.theorem", "unknown theorem 'thm9'"),
        ("pmvr", {"theorem": "thm3", "eps": 0}, {}, "schedule.theorem",
         "pmvr runs thm1 or thm2, not thm3"),
        ("pmvr", {"theorem": "thm1", "eps": 0, "constants": []}, {}, "schedule.eps",
         "value 0.0 out of range"),
        ("pmvr", _theorem("thm1", constants={"eta": 0}, overrides=[]), {},
         "schedule.constants.eta", "value 0.0 out of range"),
        ("pmvr", _theorem("thm1", constants={"zz": 0, "eta": 0}), {},
         "schedule.constants.zz", "unknown key"),
        ("pmvr", _theorem("thm1", overrides={"t": 0, "eta": 2}), {},
         "schedule.overrides.t", "value 0 out of range"),
        ("pmvr", _theorem("thm1", overrides={"eta": 2, "t": 0}), {},
         "schedule.overrides.eta", "value 2.0 out of range"),
        ("stagewise", _theorem("thm5", overrides={"t": 0}), {},
         "schedule.overrides.t", "value 0 out of range"),
        ("stagewise-v2", {"theorem": "thm7", "eps": 0.5, "overrides": {"t": 5}, "modulus": 0},
         {}, "schedule.overrides", "overrides apply to single-run schedules only"),
        ("stagewise", {"theorem": "thm7", "eps": 0.5, "modulus": 0}, {},
         "schedule.theorem", "stagewise runs thm5 or thm6, not thm7"),
        ("pmvr", {"explicit": {"eta": 2, "zz": 1}}, {}, "schedule.explicit.zz", "unknown key"),
        ("pmvr", {"explicit": {"t": 0}}, {}, "schedule.explicit.eta", "required key is missing"),
        ("pmvr", {"explicit": dict(EXPLICIT, t=0, eta=2)}, {},
         "schedule.explicit.eta", "value 2.0 out of range"),
        ("pmvr", {"explicit": dict(EXPLICIT_V2, t=2**20)}, {},
         "schedule.explicit.n", "pmvr runs no subsolver for n"),
        ("pmvr-v2", {"explicit": dict(EXPLICIT, n=0)}, {},
         "schedule.explicit.n", "value 0 out of range"),
        ("stagewise", {"stages": [], "b0": 0}, {}, "schedule.stages",
         "expected a non-empty list"),
        ("stagewise", {"stages": [5], "b0": 0}, {}, "schedule.b0", "value 0 out of range"),
        ("stagewise", {"stages": [dict(STAGE, t=0), 5]}, {}, "schedule.stages[0].t",
         "value 0 out of range"),
        ("stagewise", dict(STAGES_V2, stages=[dict(STAGE, t=2**20)]), {},
         "schedule.n", "stagewise runs no subsolver for n"),
        # the keys nothing reads are refused after the pairing and the ranges
        ("stagewise", {"theorem": "thm7", "eps": 0.5, "modulus": 1.0}, {},
         "schedule.theorem", "stagewise runs thm5 or thm6, not thm7"),
        ("pmvr", {"theorem": "thm3", "eps": 0.5, "overrides": {"n": 5}}, {},
         "schedule.theorem", "pmvr runs thm1 or thm2, not thm3"),
        ("pmvr", _theorem("thm1", overrides={"n": 5, "eta": 2}), {},
         "schedule.overrides.eta", "value 2.0 out of range"),
        ("stagewise", _theorem("thm5", overrides={"n": 5}), {},
         "schedule.overrides", "overrides apply to single-run schedules only"),
        ("pmvr", _theorem("thm1", overrides={"n": 5}, modulus=0), {},
         "schedule.overrides.n", "pmvr runs no subsolver for n"),
        ("pmvr", _theorem("thm1", constants={"eta": 0}, modulus=2.0), {},
         "schedule.constants.eta", "value 0.0 out of range"),
        ("pmvr", _theorem("thm1", modulus=0), {}, "schedule.modulus", "thm1 takes no modulus"),
        ("pmvr", {"theorem": "thm1", "eps": 0.0098, "modulus": 2.0}, {},
         "schedule.modulus", "thm1 takes no modulus"),
    ], ids=_short_id)
    def test_fault_order(self, algorithm, schedule, top, path, message):
        assert _schedule_error(algorithm, schedule, **top) == (path, message)

    @pytest.mark.parametrize("algorithm, schedule, resolved", [
        ("pmvr", {"theorem": "thm1", "eps": 1},
         {"mode": "theorem", "theorem": "thm1", "eps": 1.0, "constants": {}, "overrides": {}}),
        ("pmvr-v2", _theorem("thm3", constants={"n": 2}, overrides={"eta": 1, "n": 3}),
         {"mode": "theorem", "theorem": "thm3", "eps": 0.5, "constants": {"n": 2.0},
          "overrides": {"eta": 1.0, "n": 3}}),
        ("stagewise-v2", {"theorem": "thm8", "eps": 0.5, "modulus": 3},
         {"mode": "theorem", "theorem": "thm8", "eps": 0.5, "constants": {}, "overrides": {},
          "modulus": 3.0}),
        ("stagewise-v2", {"theorem": "thm8", "eps": 0.5},
         {"mode": "theorem", "theorem": "thm8", "eps": 0.5, "constants": {}, "overrides": {}}),
        ("baseline", {"explicit": {"eta": 1, "alpha": 1, "b1": 2, "t": 3}},
         {"mode": "explicit", "explicit": {"eta": 1.0, "alpha": 1.0, "b1": 2, "t": 3, "b0": 1}}),
        ("pmvr-v2", {"explicit": dict(EXPLICIT_V2, coeff=2)},
         {"mode": "explicit", "explicit": dict(EXPLICIT_V2, coeff=2.0, b0=1)}),
        ("stagewise", {"stages": [STAGE], "b0": 4},
         {"mode": "stages", "b0": 4, "stages": [STAGE]}),
        ("stagewise-v2", STAGES_V2,
         {"mode": "stages", "n": 2, "coeff": 1.0, "b0": 1, "stages": [STAGE]}),
    ])
    def test_validated_section(self, algorithm, schedule, resolved):
        cfg = validate_config(dict(MINIMAL, algorithm=algorithm, schedule=schedule))
        # RunConfig.schedule keeps the validated section, with its numbers typed
        assert json.dumps(cfg.schedule, sort_keys=True) == json.dumps(resolved, sort_keys=True)


@pytest.mark.parametrize("raw, path, message", [
    ([], "", "configuration root must be an object"),
    (dict(MINIMAL, out=5), "out", "expected a string path"),
    (dict(MINIMAL, out=""), "out", "expected a non-empty path without a NUL, got ''"),
    (dict(MINIMAL, out="a\0b"), "out", "expected a non-empty path without a NUL, got 'a\\x00b'"),
    (dict(MINIMAL, name=5), "name", "expected a string"),
])
def test_a_root_out_or_name_of_the_wrong_kind_is_located(raw, path, message):
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.args == (path, message)


def test_an_unknown_sentinel_policy_is_refused():
    with pytest.raises(ValueError, match="^unknown sentinel policy 'keep'$"):
        load_french_csv(FIXTURE10, sentinel_policy="keep")


# what a schedule number may be given: each other JSON type, zero and a
# negative, numbers that round to zero or overflow once a rate scales them,
# the ends of float range, or nothing (DROP: the key left out)
DROP = object()
ODD_NUMBERS = [True, False, None, "1", [1], 0, -1, 5e-324, 1e-320, 1e300, 1e308, HUGE,
               float("nan"), float("inf"), float("-inf"), DROP]


def _base_sections():
    """(algorithm, a schedule) for every algorithm, mode and theorem it runs,
    each holding every key the algorithm reads, and a single-run and a
    stage-wise theorem for the baseline, which refuses both. The theorems
    target eps 1e-5."""
    constants = dict.fromkeys(vars(ScheduleConstants()), 1.0)
    for algorithm, entry in data_io.ALGORITHMS.items():
        subsolver = {"n": 2, "coeff": 1.0} if entry.subsolver else {}
        for thm in entry.theorems or ("thm1", "thm7"):
            section = {"theorem": thm, "eps": 1e-5, "constants": constants}
            if not entry.stagewise:
                section["overrides"] = {"t": 5, "n": 2} if subsolver else {"t": 5}
            if thm in ("thm7", "thm8"):
                section["modulus"] = 2.0
            yield algorithm, section
        if entry.stagewise:
            yield algorithm, {"stages": [FIRST, STAGE], "b0": 2, **subsolver}
        else:
            yield algorithm, {"explicit": dict(EXPLICIT, b0=2, **subsolver)}


def _leaves(block, path=()):
    """The path of every number in a schedule section."""
    items = enumerate(block) if isinstance(block, list) else block.items()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, (*path, key))
        elif not isinstance(value, str):
            yield (*path, key)


def _with_faults(base, faults):
    """A copy of ``base`` with each (path, value) of ``faults`` set, or the
    key left out for DROP."""
    section = json.loads(json.dumps(base))
    for path, value in faults:
        *parents, key = path
        block = section
        for part in parents:
            block = block[part]
        if value is DROP:
            block.pop(key, None)
        else:
            block[key] = value
    return section


# each base section with the strategy of its faults: one or two of its
# numbers replaced from ODD_NUMBERS
FAULTY_BASES = [
    (algorithm, base, st.lists(
        st.tuples(st.sampled_from(list(_leaves(base))), st.sampled_from(ODD_NUMBERS)),
        min_size=1, max_size=2,
    ))
    for algorithm, base in _base_sections()
]


@st.composite
def schedule_sections(draw):
    """(algorithm, schedule): a base section with its faults."""
    algorithm, base, faults = draw(st.sampled_from(FAULTY_BASES))
    return algorithm, _with_faults(base, draw(faults))


@settings(max_examples=1000, deadline=None)
@given(case=schedule_sections())
def test_a_schedule_section_validates_or_is_a_config_error(case):
    algorithm, schedule = case
    try:
        cfg = validate_config(dict(MINIMAL, algorithm=algorithm, schedule=schedule))
    except ConfigError:
        return
    assert isinstance(cfg, data_io.RunConfig)
