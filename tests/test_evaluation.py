"""Aggregation conventions, baselines, and the prediction-file format."""

import csv
import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dva.data import FEATURE_DIM, R_INDEX, WindowPair
from dva.errors import ContractError, DataError, ParseError
from dva.evaluation import (
    PREDICTION_HEADER,
    Report,
    StockAggregate,
    StockRunResult,
    aggregate,
    load_predictions,
    mse,
    persistence_baseline,
    report_as_dict,
    uncertainty_improvement,
    write_predictions,
    write_uncertainty_csv,
)
from dva.portfolio import load_prediction_frames


def make_window(r_values, t_out=3, anchor=dt.date(2021, 1, 15)):
    t = len(r_values)
    x = np.zeros((t, FEATURE_DIM))
    x[:, R_INDEX] = r_values
    y = np.linspace(0.9, 1.1, t_out)
    return WindowPair(x=x, y=y, anchor_date=anchor, anchor_index=t - 1)


# ---------------------------------------------------------------------------
# mse / persistence
# ---------------------------------------------------------------------------


class TestMse:
    def test_hand_value(self):
        assert mse([1.0, 2.0], [1.5, 1.0]) == pytest.approx((0.25 + 1.0) / 2)

    def test_perfect(self):
        assert mse([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_mean_over_all_elements(self):
        pred = np.zeros((2, 3))
        target = np.ones((2, 3))
        assert mse(pred, target) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            mse(np.zeros(3), np.zeros(4))

    def test_empty(self):
        with pytest.raises(ContractError):
            mse([], [])


class TestPersistence:
    def test_repeats_last_return(self):
        w = make_window([1.01, 0.99, 1.05])
        np.testing.assert_array_equal(
            persistence_baseline(w.x, 4), np.full(4, 1.05)
        )

    def test_horizon_one(self):
        w = make_window([1.2])
        np.testing.assert_array_equal(persistence_baseline(w.x, 1), [1.2])

    def test_rejects_bad_window(self):
        with pytest.raises(ContractError):
            persistence_baseline(np.zeros((4, FEATURE_DIM + 1)), 3)

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            persistence_baseline(np.zeros((0, FEATURE_DIM)), 3)
        with pytest.raises(ContractError):
            persistence_baseline(np.zeros((4, FEATURE_DIM)), 0)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class TestAggregate:
    def test_sample_sd_hand_value(self):
        # runs {0.9, 1.1}: mean 1.0, sample SD sqrt(0.02) with divisor n-1
        rep = aggregate(
            [StockRunResult("AAA", 0, 0.9), StockRunResult("AAA", 1, 1.1)]
        )
        (agg,) = rep.stocks
        assert agg.mse_mean == pytest.approx(1.0)
        assert agg.mse_sd == pytest.approx(0.1414213562373095, abs=1e-15)

    def test_two_stock_hand_example(self):
        # the Table-2-style convention: per-stock mean/SD, then plain means
        rows = [
            StockRunResult("A", 0, 1.0),
            StockRunResult("A", 1, 2.0),
            StockRunResult("A", 2, 3.0),
            StockRunResult("B", 0, 4.0),
            StockRunResult("B", 1, 4.0),
            StockRunResult("B", 2, 7.0),
        ]
        rep = aggregate(rows)
        a, b = rep.stocks
        assert (a.stock, b.stock) == ("A", "B")
        assert a.mse_mean == 2.0 and a.mse_sd == pytest.approx(1.0)
        assert b.mse_mean == 5.0 and b.mse_sd == pytest.approx(np.sqrt(3.0))
        assert rep.mean_of_means == pytest.approx(3.5)
        assert rep.mean_of_sds == pytest.approx((1.0 + np.sqrt(3.0)) / 2)

    def test_single_run_sd_zero(self):
        rep = aggregate([StockRunResult("A", 0, 0.5)])
        assert rep.stocks[0].mse_sd == 0.0

    def test_duplicate_run_rejected(self):
        with pytest.raises(ContractError, match="duplicate"):
            aggregate([StockRunResult("A", 0, 0.5), StockRunResult("A", 0, 0.6)])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            aggregate([])

    def test_invalid_mse_rejected(self):
        with pytest.raises(ContractError):
            aggregate([StockRunResult("A", 0, -0.1)])
        with pytest.raises(ContractError):
            aggregate([StockRunResult("A", 0, float("nan"))])

    def test_runs_ordered_by_run_index(self):
        rep = aggregate(
            [StockRunResult("A", 1, 2.0), StockRunResult("A", 0, 1.0)]
        )
        assert rep.stocks[0].runs == (1.0, 2.0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["X", "Y", "Z"]),
                st.integers(0, 4),
                st.floats(0.0, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=15,
            unique_by=lambda t: (t[0], t[1]),
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, rows, rand):
        results = [StockRunResult(s, r, m) for s, r, m in rows]
        shuffled = list(results)
        rand.shuffle(shuffled)
        assert aggregate(results) == aggregate(shuffled)

    def test_report_as_dict_shape(self):
        rep = aggregate(
            [StockRunResult("A", 0, 1.0), StockRunResult("A", 1, 3.0)]
        )
        d = report_as_dict(rep)
        assert d["per_stock"]["A"]["mse_mean"] == 2.0
        assert d["per_stock"]["A"]["runs"] == [1.0, 3.0]
        assert d["aggregate"]["mean_of_stock_means"] == 2.0
        assert d["aggregate"]["mean_of_stock_sds"] == pytest.approx(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# uncertainty-vs-improvement export
# ---------------------------------------------------------------------------


def small_report(means_sds):
    stocks = tuple(
        StockAggregate(stock=s, mse_mean=m, mse_sd=sd, runs=(m,))
        for s, (m, sd) in sorted(means_sds.items())
    )
    return Report(
        stocks=stocks,
        mean_of_means=float(np.mean([s.mse_mean for s in stocks])),
        mean_of_sds=float(np.mean([s.mse_sd for s in stocks])),
    )


class TestUncertainty:
    def test_pct_change_and_sorting(self):
        a = small_report({"A": (2.0, 0.5), "B": (4.0, 0.1)})
        b = small_report({"A": (1.0, 0.0), "B": (5.0, 0.0)})
        rows = uncertainty_improvement(a, b)
        # sorted ascending by the before-SD: B (0.1) first, then A (0.5)
        assert [r.stock for r in rows] == ["B", "A"]
        assert rows[0].pct_mse_change == pytest.approx(25.0)
        assert rows[1].pct_mse_change == pytest.approx(-50.0)

    def test_tie_breaks_by_stock(self):
        a = small_report({"B": (2.0, 0.3), "A": (2.0, 0.3)})
        b = small_report({"B": (2.0, 0.3), "A": (2.0, 0.3)})
        rows = uncertainty_improvement(a, b)
        assert [r.stock for r in rows] == ["A", "B"]

    def test_stock_set_mismatch(self):
        a = small_report({"A": (1.0, 0.1)})
        b = small_report({"B": (1.0, 0.1)})
        with pytest.raises(ContractError, match="different stock sets"):
            uncertainty_improvement(a, b)

    def test_zero_baseline(self):
        a = small_report({"A": (0.0, 0.1)})
        with pytest.raises(ContractError, match="zero baseline"):
            uncertainty_improvement(a, a)

    def test_csv_export(self, tmp_path):
        rows = uncertainty_improvement(
            small_report({"A": (2.0, 0.5)}), small_report({"A": (1.0, 0.0)})
        )
        path = tmp_path / "unc.csv"
        write_uncertainty_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "stock,sd_before,pct_mse_change"
        assert lines[1] == "A,0.5,-50.0"


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------


class TestPredictionFiles:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        pairs = [
            make_window([1.0, 1.1, 0.9], anchor=dt.date(2021, 1, 15)),
            make_window([1.2, 0.8, 1.0], anchor=dt.date(2021, 1, 16)),
        ]
        y_hat = rng.normal(size=(2, 3)) + 1.0
        path = tmp_path / "p.csv"
        write_predictions(path, pairs, y_hat)
        got_hat, got_true, dates = load_predictions(path)
        np.testing.assert_array_equal(got_hat, y_hat.ravel())
        np.testing.assert_array_equal(got_true, np.concatenate([p.y for p in pairs]))
        assert dates[0] == dt.date(2021, 1, 15) and dates[3] == dt.date(2021, 1, 16)

    def test_steps_one_based(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions(path, [make_window([1.0, 1.0, 1.0])], np.ones((1, 3)))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(PREDICTION_HEADER)
        assert [ln.split(",")[1] for ln in lines[1:]] == ["1", "2", "3"]

    def test_write_shape_checks(self, tmp_path):
        with pytest.raises(ContractError):
            write_predictions(tmp_path / "p.csv", [make_window([1.0])], np.ones((2, 3)))
        with pytest.raises(ContractError, match="horizon"):
            write_predictions(
                tmp_path / "p.csv", [make_window([1.0], t_out=3)], np.ones((1, 2))
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing artifact"):
            load_predictions(tmp_path / "absent.csv")

    def test_bad_header_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("nope,nope\n")
        with pytest.raises(ParseError) as err:
            load_predictions(path)
        assert err.value.line == 1

    def test_bad_row_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            ",".join(PREDICTION_HEADER)
            + "\n2021-01-15,1,1.0,1.0\n2021-01-15,2,not-a-float,1.0\n"
        )
        with pytest.raises(ParseError) as err:
            load_predictions(path)
        assert err.value.line == 3

    def test_zero_step_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(",".join(PREDICTION_HEADER) + "\n2021-01-15,0,1.0,1.0\n")
        with pytest.raises(ParseError, match="step"):
            load_predictions(path)

    @pytest.mark.parametrize(
        "steps, line",
        [((2, 1, 3), 2), ((1, 3, 2), 3), ((1, 1, 1), 3), ((1, 2), 4)],
        ids=["swapped", "skipped", "all-ones", "second-anchor-not-1"],
    )
    def test_steps_out_of_order_name_the_line(self, tmp_path, steps, line):
        rows = [f"2021-01-15,{k},1.0,1.0" for k in steps]
        if len(steps) == 2:  # a second anchor that starts at step 2
            rows.append("2021-01-18,2,1.0,1.0")
        path = tmp_path / "p.csv"
        path.write_text("\n".join([",".join(PREDICTION_HEADER)] + rows) + "\n")
        with pytest.raises(ParseError, match="out of order") as err:
            load_predictions(path)
        assert err.value.line == line and str(path) in str(err.value)

    def test_header_only_is_missing_artifact(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(",".join(PREDICTION_HEADER) + "\n")
        with pytest.raises(DataError, match="missing artifact"):
            load_predictions(path)


def csv_reference_bytes(pairs, y_hat) -> bytes:
    """The prediction file as ``csv.writer`` writes it, row by row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(PREDICTION_HEADER)
    for pair, row in zip(pairs, y_hat):
        for step in range(row.size):
            writer.writerow(
                [pair.anchor_date.isoformat(), step + 1, repr(float(row[step])),
                 repr(float(pair.y[step]))]
            )
    return buf.getvalue().encode()


def reference_load(path):
    """Row-by-row ``csv.reader`` parse of a prediction file: the reference
    for the values, errors and line numbers of ``load_predictions``. The
    rows are parsed first; then each anchor's steps must count 1, 2, ..."""
    y_hat, y_true, dates, steps = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PREDICTION_HEADER:
            raise ParseError(
                f"header must be {','.join(PREDICTION_HEADER)}, got {header}", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
            try:
                dates.append(dt.date.fromisoformat(row[0]))
                steps.append(int(row[1]))
                y_hat.append(float(row[2]))
                y_true.append(float(row[3]))
            except ValueError as err:
                raise ParseError(str(err), line=lineno) from None
    if not y_hat:
        raise DataError(f"missing artifact: prediction file {path} has no rows")
    expected = 0
    for lineno, (step, date, prev) in enumerate(zip(steps, dates, [None] + dates), start=2):
        expected = expected + 1 if date == prev else 1
        if step != expected:
            raise ParseError(
                f"{path}: step {step} out of order, expected {expected}", line=lineno
            )
    return np.array(y_hat), np.array(y_true), dates


def outcome(load, path):
    """What a reader makes of a file: the error, or the bits it returns."""
    try:
        y_hat, y_true, dates = load(path)
    except DataError as err:
        return type(err).__name__, str(err), getattr(err, "line", None)
    return y_hat.tobytes(), y_true.tobytes(), dates


AWKWARD = [-0.0, 1e-300, 1.0000000000000002, float("nan"), float("inf"),
           float("-inf"), 5e-324, 1.7976931348623157e308, 0.1, -1.0]

finite_or_inf = st.floats(allow_nan=False, width=64)


class TestPredictionBytes:
    def test_bytes_equal_csv_writer(self, tmp_path):
        pairs = [
            make_window([1.0], t_out=5, anchor=dt.date(2021, 1, 15)),
            make_window([1.0], t_out=5, anchor=dt.date(2021, 2, 1)),
        ]
        pairs[1] = WindowPair(
            x=pairs[1].x, y=np.array(AWKWARD[5:]), anchor_date=pairs[1].anchor_date,
            anchor_index=pairs[1].anchor_index,
        )
        y_hat = np.array([AWKWARD[:5], AWKWARD[5:][::-1]])
        path = tmp_path / "p.csv"
        write_predictions(path, pairs, y_hat)
        assert path.read_bytes() == csv_reference_bytes(pairs, y_hat)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda t_out: st.lists(
                st.tuples(
                    st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31)),
                    st.lists(finite_or_inf, min_size=t_out, max_size=t_out),
                    st.lists(finite_or_inf, min_size=t_out, max_size=t_out),
                ),
                min_size=1,
                max_size=6,
                unique_by=lambda row: row[0],  # one window per anchor date
            )
        )
    )
    def test_round_trip_keeps_bits_and_dates(self, tmp_path_factory, rows):
        pairs = [
            WindowPair(x=np.zeros((1, FEATURE_DIM)), y=np.array(y, dtype=float),
                       anchor_date=d, anchor_index=0)
            for d, _, y in rows
        ]
        y_hat = np.array([h for _, h, _ in rows], dtype=float)
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        write_predictions(path, pairs, y_hat)
        assert path.read_bytes() == csv_reference_bytes(pairs, y_hat)
        got_hat, got_true, dates = load_predictions(path)
        t_out = y_hat.shape[1]
        assert got_hat.tobytes() == y_hat.ravel().tobytes()
        assert got_true.tobytes() == np.concatenate([p.y for p in pairs]).tobytes()
        assert dates == [p.anchor_date for p in pairs for _ in range(t_out)]

    # per column: tokens both readers accept, then tokens only csv accepts
    # (quoted) or neither does
    DATES = ["2021-01-15", "2021-01-16", '"2021-01-15"', " 2021-01-16", "2021-13-01"]
    STEPS = ["1", "2", " 3", "0", "-3", '"4"', "x"]
    FLOATS = ["0.5", "-0.0", "nan", "inf", "1e5", " 7", '"1.25"', ""]
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(DATES), st.sampled_from(STEPS),
                    st.sampled_from(FLOATS), st.sampled_from(FLOATS),
                ).map(",".join),
                st.lists(
                    st.sampled_from(DATES + STEPS + FLOATS + ['"a,b"']), max_size=5
                ).map(",".join),
            ),
            max_size=4,
        ),
        st.sampled_from(["\r\n", "\n"]),
    )
    def test_reads_like_the_row_reader(self, tmp_path_factory, rows, newline):
        path = tmp_path_factory.mktemp("rr") / "p.csv"
        lines = [",".join(PREDICTION_HEADER)] + rows
        path.write_bytes("".join(line + newline for line in lines).encode())
        assert outcome(load_predictions, path) == outcome(reference_load, path)


class TestScanPredictions:
    """A prediction directory read as ``dva evaluate`` reads it."""

    def write(self, path, y_hat, y_true):
        pair = make_window([1.0] * 3, t_out=len(y_true))
        pair = WindowPair(
            x=pair.x, y=np.asarray(y_true, dtype=float),
            anchor_date=pair.anchor_date, anchor_index=pair.anchor_index,
        )
        write_predictions(path, [pair], np.asarray(y_hat, dtype=float)[None, :])

    def test_collects_stock_runs(self, tmp_path):
        self.write(tmp_path / "AAA_run0.csv", [1.0, 1.0], [1.0, 1.0])
        self.write(tmp_path / "AAA_run1.csv", [2.0, 2.0], [1.0, 1.0])
        self.write(tmp_path / "BB_B_run0.csv", [1.5, 1.5], [1.0, 1.0])
        (tmp_path / "notes.txt").write_text("ignored")
        (tmp_path / "other.csv").write_text("ignored,також\n")
        frames = load_prediction_frames(tmp_path)
        assert [(f.stock, f.run) for f in frames] == [
            ("AAA", 0), ("AAA", 1), ("BB_B", 0),
        ]
        mses = [mse(f.y_hat, f.y_true) for f in frames]
        assert mses[0] == 0.0
        assert mses[1] == pytest.approx(1.0)
        assert mses[2] == pytest.approx(0.25)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (7, 10), (147, 10), (513, 7)])
    def test_frame_mse_equals_flat_mse_bitwise(self, shape):
        # the per-window frame and the flat file rows give one MSE, bit for bit
        r = np.random.default_rng(shape[0])
        y_hat = 1.0 + 0.01 * r.standard_normal(shape)
        y_true = 1.0 + 0.01 * r.standard_normal(shape)
        assert mse(y_hat, y_true) == mse(y_hat.ravel(), y_true.ravel())

    @pytest.mark.parametrize("y_hat, y_true", [([1.0, np.inf], [1.0, 1.0]),
                                               ([1.0, 1.0], [np.nan, 1.0])])
    def test_a_non_finite_value_names_file_and_line(self, tmp_path, y_hat, y_true):
        self.write(tmp_path / "AAA_run0.csv", y_hat, y_true)
        line = 2 + int(np.isfinite(y_hat[0] + y_true[0]))
        with pytest.raises(DataError, match=f"AAA_run0.csv: line {line} holds a non-finite"):
            load_prediction_frames(tmp_path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(DataError, match="missing artifact"):
            load_prediction_frames(tmp_path)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError, match="missing artifact"):
            load_prediction_frames(tmp_path / "absent")
