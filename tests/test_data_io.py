import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvr.benchmarks import PortfolioData
from pmvr.data_io import (
    ConfigError,
    LoadReport,
    ParseError,
    TraceRow,
    load_french_csv,
    load_run_config,
    read_trace_csv,
    validate_config,
    write_trace_csv,
)

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
    if draw(st.booleans()):  # a footer of a different width
        lines.append(row(width + draw(st.sampled_from((-1, 1, 2)))))
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
        assert _outcome(load_french_csv, path, policy) == want


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


MINIMAL = {
    "problem": {"name": "mean_variance"},
    "algorithm": "pmvr",
    "schedule": {"theorem": "thm1", "eps": 0.1},
    "seed": 1,
}

STAGES = {"stages": [{"eta": 0.1, "alpha": 0.1, "b1": 1, "t": 5}]}


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

    @pytest.mark.parametrize("schedule, path", [
        ({"theorem": "thm1", "eps": 0.1, "overrides": {"t": 2**20}}, "schedule.overrides.t"),
        ({"theorem": "thm1", "eps": 0.0098}, "schedule.eps"),
        ({"theorem": "thm1", "eps": 1e-200}, "schedule.eps"),
        ({"explicit": {"eta": 0.1, "alpha": 0.1, "b1": 1, "t": 2**20}}, "schedule.explicit.t"),
    ])
    def test_schedule_of_stride_length_is_refused(self, schedule, path):
        with pytest.raises(ConfigError, match="stream stride") as err:
            validate_config(dict(MINIMAL, schedule=schedule))
        assert err.value.path == path

    def test_stages_summing_to_the_stride_are_refused(self):
        stage = {"eta": 0.1, "alpha": 0.1, "b1": 1, "t": 2**19}
        schedule = {"stages": [stage, dict(stage, t=2**19 - 1)]}
        validate_config(dict(MINIMAL, algorithm="stagewise", schedule=schedule))
        schedule["stages"][1]["t"] = 2**19
        with pytest.raises(ConfigError, match="stream stride") as err:
            validate_config(dict(MINIMAL, algorithm="stagewise", schedule=schedule))
        assert err.value.path == "schedule.stages"

    def test_schedule_just_below_the_stride_is_accepted(self):
        validate_config(dict(MINIMAL, schedule={"theorem": "thm1", "eps": 0.0099}))
        validate_config(dict(
            MINIMAL, schedule={"theorem": "thm1", "eps": 0.1, "overrides": {"t": 2**20 - 1}}
        ))

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
