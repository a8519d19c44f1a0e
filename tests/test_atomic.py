import builtins
import itertools
import os

import numpy as np
import pytest

from emocnn import atomic
from emocnn.atomic import atomic_write
from emocnn.checkpoint import save_checkpoint
from emocnn.cli import EXIT_DATA, main
from emocnn.evaluation import (
    ConfigSweepRow,
    ParamSweepRow,
    config_sweep_to_csv,
    export_curve,
    param_sweep_to_csv,
    report_from_predictions,
    report_to_csv,
)
from emocnn.training import TrainLog

from support import randomized_tiny_model, write_marker_tsv

OLD = b"old contents\n"


@pytest.fixture()
def target(tmp_path):
    path = tmp_path / "out.dat"
    path.write_bytes(OLD)
    return path


def _assert_untouched(path):
    assert path.read_bytes() == OLD
    assert os.listdir(path.parent) == [path.name], "a temporary file was left behind"


@pytest.mark.parametrize("binary", [False, True])
def test_writer_that_raises_leaves_the_old_file(target, binary):
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(target, binary=binary) as fh:
            fh.write(b"new" if binary else "new")
            fh.flush()
            raise RuntimeError("mid-write")
    _assert_untouched(target)


def test_completed_write_replaces_the_file(target):
    with atomic_write(target) as fh:
        fh.write("新\n")
    assert target.read_text(encoding="utf-8") == "新\n"
    assert os.listdir(target.parent) == [target.name]


def _write_checkpoint(path):
    save_checkpoint(randomized_tiny_model(0), path)


def _write_report(path):
    truths = np.arange(10) % 5
    report_to_csv(report_from_predictions(truths, truths), path)


def _write_preprocess(path):
    # the CLI reports the failed write as a data error, exit 2
    data = write_marker_tsv(path.parent.parent / "data.tsv", n=4, seed=0)
    assert main(["preprocess", "--data", str(data), "--out", str(path)]) == EXIT_DATA
    raise OSError("preprocess exited 2")


WRITERS = {
    "save_checkpoint": _write_checkpoint,
    "report_to_csv": _write_report,
    "config_sweep_to_csv": lambda path: config_sweep_to_csv([ConfigSweepRow("B", 0.5, 1.0)], path),
    "param_sweep_to_csv": lambda path: param_sweep_to_csv([ParamSweepRow(1e-5, 1e-4, 0.5)], path),
    "export_curve": lambda path: export_curve(TrainLog(steps=[(1, 0.5)], val_top1=[(1, 0.25)]), path),
    "preprocess": _write_preprocess,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_every_file_writer_is_atomic(tmp_path, monkeypatch, writer):
    # The final rename fails, as it would if the process died just before
    # it: a writer that went through atomic_write leaves the target alone.
    target = tmp_path / "out" / "out.dat"
    target.parent.mkdir()
    target.write_bytes(OLD)

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(atomic.os, "replace", interrupted)
    with pytest.raises(OSError):
        WRITERS[writer](target)
    _assert_untouched(target)


def test_an_interrupt_inside_a_write_leaves_no_temporary_file(target, monkeypatch):
    # Ctrl-C raises KeyboardInterrupt, which is no Exception: here inside
    # save_checkpoint's third write, the first tensor's, after two landed.
    def interrupting_open(file, mode, **kwargs):
        fh = builtins.open(file, mode, **kwargs)
        writes, write = itertools.count(1), fh.write

        def interrupted_write(data):
            if next(writes) == 3:
                raise KeyboardInterrupt
            return write(data)

        fh.write = interrupted_write
        return fh

    monkeypatch.setattr(atomic, "open", interrupting_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        _write_checkpoint(target)
    _assert_untouched(target)
