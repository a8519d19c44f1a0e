import numpy as np
import numpy.testing as npt
import pytest

from emocnn.evaluation import (
    ConfigSweepRow,
    EvalReport,
    ParamSweepRow,
    config_sweep_to_csv,
    confusion_matrix,
    evaluate,
    export_curve,
    param_sweep_to_csv,
    parse_curve,
    report_from_predictions,
    report_to_csv,
    sweep_configs,
    sweep_params,
)
from emocnn.labels import LABEL_NAMES
from emocnn.text import DataError
from emocnn.training import TrainConfig, TrainLog

from support import make_marker_dataset, randomized_tiny_model


def test_confusion_diagonal_for_perfect_predictions():
    truths = np.array([0, 1, 2, 3, 4, 0, 1])
    counts = confusion_matrix(truths, truths)
    npt.assert_array_equal(counts, np.diag([2, 2, 1, 1, 1]))


def test_confusion_empty():
    npt.assert_array_equal(confusion_matrix([], []), np.zeros((5, 5), dtype=np.int64))


def test_confusion_single_off_diagonal():
    counts = confusion_matrix(preds=[0], truths=[3])
    expected = np.zeros((5, 5), dtype=np.int64)
    expected[3, 0] = 1
    npt.assert_array_equal(counts, expected)


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion_matrix([0, 1], [0])


def test_confusion_range_check():
    with pytest.raises(ValueError):
        confusion_matrix([5], [0])


def test_report_perfect_predictor():
    truths = np.array([0, 1, 2, 3, 4] * 4)
    report = report_from_predictions(truths, truths)
    assert report.overall_top1 == 1.0
    assert set(report.per_class_top1) == set(LABEL_NAMES)
    assert all(v == 1.0 for v in report.per_class_top1.values())
    assert report.n_examples == 20


def test_report_only_present_classes():
    truths = np.array([0, 0, 1])
    preds = np.array([0, 1, 1])
    report = report_from_predictions(preds, truths)
    assert set(report.per_class_top1) == {"positive", "negative"}
    assert report.per_class_top1["positive"] == 0.5
    assert report.per_class_top1["negative"] == 1.0


def test_report_trace_identity():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 5, 200)
    truths = rng.integers(0, 5, 200)
    report = report_from_predictions(preds, truths)
    assert report.overall_top1 == np.trace(report.confusion) / 200


def test_report_weighted_average_identity():
    rng = np.random.default_rng(1)
    preds = rng.integers(0, 5, 300)
    truths = rng.integers(0, 5, 300)
    report = report_from_predictions(preds, truths)
    row_sums = report.confusion.sum(axis=1)
    recombined = sum(
        report.per_class_top1[LABEL_NAMES[i]] * row_sums[i]
        for i in range(5)
        if row_sums[i]
    ) / report.n_examples
    assert abs(recombined - report.overall_top1) < 1e-12


def test_evaluate_with_callable_predictor():
    codes, labels = make_marker_dataset(50, seed=2)
    report = evaluate(lambda x: np.full(len(x), 1), (codes, labels))
    assert report.n_examples == 50
    assert abs(report.overall_top1 - (labels == 1).mean()) < 1e-12


def test_evaluate_with_model():
    model = randomized_tiny_model(3, dtype=np.float32)
    codes = np.random.default_rng(4).integers(0, 256, size=(10, 5))
    labels = np.random.default_rng(5).integers(0, 5, size=10)
    report = evaluate(model, (codes, labels))
    assert 0.0 <= report.overall_top1 <= 1.0


def test_evaluate_invariant_under_permutation():
    model = randomized_tiny_model(6, dtype=np.float32)
    rng = np.random.default_rng(7)
    codes = rng.integers(0, 256, size=(30, 5))
    labels = rng.integers(0, 5, size=30)
    perm = rng.permutation(30)
    a = evaluate(model, (codes, labels))
    b = evaluate(model, (codes[perm], labels[perm]))
    assert a.overall_top1 == b.overall_top1
    npt.assert_array_equal(a.confusion, b.confusion)


def test_evaluate_empty_dataset():
    with pytest.raises(ValueError):
        evaluate(lambda x: x, (np.zeros((0, 144)), np.zeros(0)))


def test_report_csv_format(tmp_path):
    truths = np.array([0, 0, 1, 1])
    preds = np.array([0, 1, 1, 1])
    report = report_from_predictions(preds, truths)
    out = tmp_path / "report.csv"
    report_to_csv(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "class,examples,top1"
    assert lines[1] == "positive,2,0.5"
    assert lines[2] == "negative,2,1.0"
    assert lines[-1] == "overall,4,0.75"


def test_export_curve_empty_log(tmp_path):
    out = tmp_path / "curve.csv"
    export_curve(TrainLog(), out)
    assert out.read_text() == "step,loss\nepoch,val_top1\n"


def test_export_curve_roundtrip(tmp_path):
    log = TrainLog(
        steps=[(1, 1.60943791243), (2, 0.123456789012345), (3, 7e-300)],
        val_top1=[(1, 0.25), (2, 1.0 / 3.0)],
    )
    out = tmp_path / "curve.csv"
    export_curve(log, out)
    parsed = parse_curve(out)
    assert parsed.steps == log.steps
    assert parsed.val_top1 == log.val_top1


def test_sweep_params_single_and_duplicate_cells():
    codes, labels = make_marker_dataset(20, seed=8)
    budget = TrainConfig(epochs=0, batches_per_epoch=4, seed=5, eval_fraction=0.25)
    rows = sweep_params((codes, labels), [(5e-6, 1.5e-4), (5e-6, 1.5e-4)], budget, variant="B")
    assert len(rows) == 2
    assert rows[0].val_top1 == rows[1].val_top1  # identical cells, identical results
    assert rows[0].learning_rate == 5e-6 and rows[0].l2_strength == 1.5e-4


def test_sweep_params_empty_grid():
    codes, labels = make_marker_dataset(10, seed=9)
    with pytest.raises(ValueError):
        sweep_params((codes, labels), [], TrainConfig(epochs=0), variant="B")


def test_sweep_configs_zero_epoch_budget():
    codes, labels = make_marker_dataset(20, seed=10)
    budget = TrainConfig(epochs=0, batches_per_epoch=4, seed=6, eval_fraction=0.25)
    rows = sweep_configs((codes, labels), ["A", "B"], budget)
    assert [r.variant for r in rows] == ["A", "B"]
    for row in rows:
        assert 0.0 <= row.val_top1 <= 0.8  # untrained: near chance
        assert row.seconds >= 0.0
    again = sweep_configs((codes, labels), ["A", "B"], budget)
    assert [r.val_top1 for r in rows] == [r.val_top1 for r in again]


# Each CSV writer on fixed inputs, byte for byte. Floats are written with
# repr: 1/3 keeps all 17 digits and 7e-300 its exponent.
CSV_GOLDEN = {
    "report_to_csv": (
        lambda path: report_to_csv(
            EvalReport(
                overall_top1=1 / 3,
                per_class_top1={"positive": 1 / 3, "wondering": 7e-300},
                confusion=np.diag([3, 0, 2, 0, 0]),
                n_examples=5,
            ),
            path,
        ),
        "class,examples,top1\npositive,3,0.3333333333333333\nwondering,2,7e-300\noverall,5,0.3333333333333333\n",
    ),
    "config_sweep_to_csv": (
        lambda path: config_sweep_to_csv([ConfigSweepRow("A", 1 / 3, 7e-300), ConfigSweepRow("D", 1.0, 2.5)], path),
        "variant,val_top1,seconds\nA,0.3333333333333333,7e-300\nD,1.0,2.5\n",
    ),
    "param_sweep_to_csv": (
        lambda path: param_sweep_to_csv([ParamSweepRow(5e-6, 1.5e-4, 1 / 3), ParamSweepRow(1e-5, 0.0, 7e-300)], path),
        "learning_rate,l2_strength,val_top1\n5e-06,0.00015,0.3333333333333333\n1e-05,0.0,7e-300\n",
    ),
    "export_curve": (
        lambda path: export_curve(TrainLog(steps=[(1, 1 / 3), (2, 7e-300)], val_top1=[(1, 0.1), (2, 2 / 3)]), path),
        "step,loss\n1,0.3333333333333333\n2,7e-300\nepoch,val_top1\n1,0.1\n2,0.6666666666666666\n",
    ),
}


@pytest.mark.parametrize("writer", sorted(CSV_GOLDEN))
def test_csv_writer_golden_bytes(tmp_path, writer):
    write, expected = CSV_GOLDEN[writer]
    out = tmp_path / "out.csv"
    write(out)
    assert out.read_bytes() == expected.encode()


def test_empty_dataset_is_a_data_error():
    with pytest.raises(DataError, match="empty dataset"):
        evaluate(lambda x: np.zeros(len(x), dtype=np.int64), (np.zeros((0, 144)), np.zeros(0)))
