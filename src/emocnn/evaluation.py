"""Evaluation metrics, sweep harnesses, and training-curve export."""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .atomic import atomic_write
from .labels import LABEL_NAMES, N_CLASSES
from .network import NetworkConfig, build_model, predict_batch
from .tensor import Prng
from .training import TrainConfig, TrainLog, split_encoded, train


def confusion_matrix(preds, truths) -> np.ndarray:
    """5x5 count grid, rows = true class, columns = predicted class."""
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape or preds.ndim != 1:
        raise ValueError(f"prediction/truth length mismatch: {preds.shape} vs {truths.shape}")
    if preds.size and not (
        0 <= preds.min() and preds.max() < N_CLASSES and 0 <= truths.min() and truths.max() < N_CLASSES
    ):
        raise ValueError(f"labels must be in 0..{N_CLASSES - 1}")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(counts, (truths, preds), 1)
    return counts


@dataclass
class EvalReport:
    overall_top1: float
    per_class_top1: dict[str, float]  # only classes with at least one example
    confusion: np.ndarray
    n_examples: int


def report_from_predictions(preds, truths) -> EvalReport:
    confusion = confusion_matrix(preds, truths)
    n = int(confusion.sum())
    if n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    row_sums = confusion.sum(axis=1)
    per_class = {
        LABEL_NAMES[i]: float(confusion[i, i] / row_sums[i])
        for i in range(N_CLASSES)
        if row_sums[i] > 0
    }
    return EvalReport(
        overall_top1=float(np.trace(confusion) / n),
        per_class_top1=per_class,
        confusion=confusion,
        n_examples=n,
    )


def evaluate(model, dataset) -> EvalReport:
    """Top-1 accuracy report over (codes, labels).

    ``model`` is either a built Model or any callable mapping the code array
    to predicted class indices (useful for baselines).
    """
    codes, truths = dataset
    if len(codes) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    preds = model(codes) if callable(model) else predict_batch(model, codes)
    return report_from_predictions(preds, truths)


def report_to_csv(report: EvalReport, path) -> None:
    """Rows of ``class,examples,top1`` plus a final overall row."""
    row_sums = report.confusion.sum(axis=1)
    with atomic_write(path) as fh:
        fh.write("class,examples,top1\n")
        for i, name in enumerate(LABEL_NAMES):
            if name in report.per_class_top1:
                fh.write(f"{name},{int(row_sums[i])},{report.per_class_top1[name]!r}\n")
        fh.write(f"overall,{report.n_examples},{report.overall_top1!r}\n")


@dataclass
class ConfigSweepRow:
    variant: str
    val_top1: float
    seconds: float


@dataclass
class ParamSweepRow:
    learning_rate: float
    l2_strength: float
    val_top1: float


def _train_and_score(config: NetworkConfig, dataset, budget: TrainConfig):
    codes, labels = dataset
    model = build_model(config, Prng(budget.seed))
    started = time.perf_counter()
    model, _ = train(model, dataset, budget)
    elapsed = time.perf_counter() - started
    _, eval_idx = split_encoded(codes, labels, budget.eval_fraction, budget.seed)
    report = evaluate(model, (codes[eval_idx], np.asarray(labels)[eval_idx]))
    return report.overall_top1, elapsed


def sweep_configs(
    dataset, variants, budget: TrainConfig, l2_strength: float = NetworkConfig.l2_strength
) -> list[ConfigSweepRow]:
    """Train each variant under an identical seed, budget and L2 strength;
    report held-out accuracy and wall time per variant."""
    rows = []
    for variant in variants:
        config = NetworkConfig.for_variant(variant, l2_strength=l2_strength)
        top1, seconds = _train_and_score(config, dataset, budget)
        rows.append(ConfigSweepRow(variant=str(variant).upper(), val_top1=top1, seconds=seconds))
    return rows


def sweep_params(dataset, grid, budget: TrainConfig, variant: str = "B") -> list[ParamSweepRow]:
    """Train one model per (learning_rate, l2_strength) cell, identical
    data and seed in every cell."""
    grid = list(grid)
    if not grid:
        raise ValueError("parameter grid must be non-empty")
    rows = []
    for lr, l2 in grid:
        config = NetworkConfig.for_variant(variant, l2_strength=l2)
        top1, _ = _train_and_score(config, dataset, replace(budget, learning_rate=lr))
        rows.append(ParamSweepRow(learning_rate=lr, l2_strength=l2, val_top1=top1))
    return rows


def config_sweep_to_csv(rows: list[ConfigSweepRow], path) -> None:
    with atomic_write(path) as fh:
        fh.write("variant,val_top1,seconds\n")
        for r in rows:
            fh.write(f"{r.variant},{r.val_top1!r},{r.seconds!r}\n")


def param_sweep_to_csv(rows: list[ParamSweepRow], path) -> None:
    with atomic_write(path) as fh:
        fh.write("learning_rate,l2_strength,val_top1\n")
        for r in rows:
            fh.write(f"{r.learning_rate!r},{r.l2_strength!r},{r.val_top1!r}\n")


def export_curve(log: TrainLog, path) -> None:
    """Loss-per-step then validation-per-epoch sections, as plain CSV."""
    with atomic_write(path) as fh:
        fh.write("step,loss\n")
        for step, loss in log.steps:
            fh.write(f"{step},{loss!r}\n")
        fh.write("epoch,val_top1\n")
        for epoch, acc in log.val_top1:
            fh.write(f"{epoch},{acc!r}\n")


def parse_curve(path) -> TrainLog:
    """Inverse of export_curve; floats written via repr round-trip exactly."""
    log = TrainLog()
    section = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line == "step,loss":
                section = "steps"
                continue
            if line == "epoch,val_top1":
                section = "val"
                continue
            left, right = line.split(",")
            if section == "steps":
                log.steps.append((int(left), float(right)))
            elif section == "val":
                log.val_top1.append((int(left), float(right)))
            else:
                raise ValueError(f"unrecognized curve line: {line!r}")
    return log
