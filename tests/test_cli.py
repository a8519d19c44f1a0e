import contextlib
import errno
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import emocnn
from emocnn import cli, training
from emocnn.checkpoint import load_checkpoint, save_checkpoint
from emocnn.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_INTERRUPTED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_TERMINATED,
    EXIT_USAGE,
    main,
)
from emocnn.network import build_model, predict
from emocnn.tensor import Prng
from emocnn.text import encode_dialogue, load_dataset

from support import (
    CHECKPOINT_LAYOUT_FAULTS,
    CHECKPOINT_META_FAULTS,
    randomized_tiny_model,
    rewrite_checkpoint_meta,
    tiny_config,
    write_deeply_nested_checkpoint,
    write_marker_tsv,
)


@pytest.fixture()
def data_tsv(tmp_path):
    return str(write_marker_tsv(tmp_path / "data.tsv", n=10, seed=0))


def _train_args(data_tsv, out, epochs=1, extra=()):
    return [
        "train", "--data", data_tsv, "--variant", "B",
        "--epochs", str(epochs), "--batches", "2", "--lr", "1e-4",
        "--seed", "1", "--eval-fraction", "0.2", "--out", str(out),
        *extra,
    ]


def test_preprocess_writes_hex_lines(tmp_path, data_tsv):
    out = tmp_path / "seqs.hex"
    assert main(["preprocess", "--data", data_tsv, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    assert all(len(line) == 288 for line in lines)  # 144 bytes, 2 hex chars each
    assert all(set(line) <= set("0123456789abcdef") for line in lines)


def test_preprocess_with_stopwords(tmp_path, data_tsv):
    # Stop words that hit, nest and join. The file is one hex line of
    # encode_dialogue per dialogue, the form preprocess always wrote.
    stop_list = ("丆", "丆丆", "丈丆", "丅")
    stops = tmp_path / "stops.txt"
    stops.write_text("\n".join(stop_list) + "\n", encoding="utf-8")
    out = tmp_path / "seqs.hex"
    assert main(["preprocess", "--data", data_tsv, "--stopwords", str(stops), "--out", str(out)]) == EXIT_OK
    assert "06" not in {line[i : i + 2] for line in out.read_text().splitlines() for i in range(0, 288, 2)}
    want = "".join(bytes(encode_dialogue(d.text, stop_list)).hex() + "\n" for d in load_dataset(data_tsv))
    assert out.read_text(encoding="utf-8") == want


def test_train_eval_predict_roundtrip(tmp_path, data_tsv):
    ckpt = tmp_path / "model.ckpt"
    curve = tmp_path / "curve.csv"
    assert main(_train_args(data_tsv, ckpt, extra=["--curve", str(curve)])) == EXIT_OK
    assert ckpt.exists()
    curve_lines = curve.read_text().splitlines()
    assert curve_lines[0] == "step,loss" and "epoch,val_top1" in curve_lines

    report = tmp_path / "report.csv"
    assert main(["eval", "--data", data_tsv, "--ckpt", str(ckpt), "--report", str(report)]) == EXIT_OK
    lines = report.read_text().splitlines()
    assert lines[0] == "class,examples,top1"
    assert lines[-1].startswith("overall,10,")

    assert main(["predict", "--ckpt", str(ckpt), "--text", "丁丁丁"]) == EXIT_OK


def test_predict_output_format(tmp_path, data_tsv, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(_train_args(data_tsv, ckpt, epochs=0)) == EXIT_OK
    capsys.readouterr()
    assert main(["predict", "--ckpt", str(ckpt), "--text", "丁"]) == EXIT_OK
    fields = capsys.readouterr().out.strip().split()
    assert fields[0] in ("positive", "negative", "wondering", "neutral", "meaningless")
    probs = [float(f) for f in fields[1:]]
    assert len(probs) == 5
    assert abs(sum(probs) - 1.0) < 1e-4


@pytest.fixture()
def tiny_ckpt(tmp_path):
    """A small model that takes the 144-byte encoding."""
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(randomized_tiny_model(3, dtype=np.float32, input_len=144), ckpt)
    return str(ckpt)


@pytest.mark.parametrize("text", ["-x", "-- 好", "--text", "-"])
def test_predict_text_after_text_flag_is_the_dialogue(tiny_ckpt, capsys, text):
    assert main(["predict", "--ckpt", tiny_ckpt, f"--text={text}"]) == EXIT_OK
    want = capsys.readouterr().out
    assert main(["predict", "--ckpt", tiny_ckpt, "--text", text]) == EXIT_OK
    assert capsys.readouterr().out == want
    assert main(["predict", "--text", text, "--ckpt", tiny_ckpt]) == EXIT_OK
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [["--text=--"], ["--text", "--"], ["--tex=--"], ["--te", "--"]])
def test_predict_text_double_dash_is_the_dialogue(tiny_ckpt, capsys, argv):
    label, probs = predict(load_checkpoint(tiny_ckpt), encode_dialogue("--"))
    assert main(["predict", "--ckpt", tiny_ckpt, *argv]) == EXIT_OK
    assert capsys.readouterr().out == label.name.lower() + " " + " ".join(f"{p:.6f}" for p in probs) + "\n"


def test_predict_text_flag_without_value_exits_1(tiny_ckpt):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--ckpt", tiny_ckpt, "--text"])
    assert exc.value.code == EXIT_USAGE


def test_predict_with_lone_surrogate_in_text(tiny_ckpt, capsys):
    # argv carries undecodable bytes as lone surrogates; they are dropped
    assert main(["predict", "--ckpt", tiny_ckpt, "--text=丁"]) == EXIT_OK
    want = capsys.readouterr().out
    assert main(["predict", "--ckpt", tiny_ckpt, "--text=\udcff丁"]) == EXIT_OK
    assert capsys.readouterr().out == want


def test_usage_errors_exit_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x.tsv"])  # missing --out
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x.tsv", "--out", "y", "--variant", "Z"])
    assert exc.value.code == EXIT_USAGE


def test_bad_flag_value_exits_1(tmp_path, data_tsv):
    out = tmp_path / "m.ckpt"
    code = main([
        "train", "--data", data_tsv, "--out", str(out),
        "--epochs", "1", "--batches", "2", "--eval-fraction", "1.5",
    ])
    assert code == EXIT_USAGE


def test_missing_data_file_exits_2(tmp_path):
    assert main(["preprocess", "--data", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o")]) == EXIT_DATA


def test_malformed_data_exits_2(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("angry\thello\n", encoding="utf-8")
    assert main(["preprocess", "--data", str(bad), "--out", str(tmp_path / "o")]) == EXIT_DATA


def test_corrupt_checkpoint_exits_2(tmp_path, data_tsv):
    ckpt = tmp_path / "model.ckpt"
    assert main(_train_args(data_tsv, ckpt, epochs=0)) == EXIT_OK
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob[: len(blob) // 2])
    assert main(["eval", "--data", data_tsv, "--ckpt", str(ckpt), "--report", str(tmp_path / "r.csv")]) == EXIT_DATA


@pytest.mark.parametrize("entry", ["no-dims", "not-a-dict"])
def test_malformed_checkpoint_directory_predict_exits_2(tmp_path, capsys, entry):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(tiny_config(), Prng(0), dtype=np.float32), ckpt)

    def edit(meta):
        if entry == "no-dims":
            del meta["tensors"][0]["dims"]
        else:
            meta["tensors"][0] = 0

    rewrite_checkpoint_meta(ckpt, edit)
    assert main(["predict", "--ckpt", str(ckpt), "--text", "丁"]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_deeply_nested_checkpoint_metadata_predict_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    write_deeply_nested_checkpoint(ckpt)
    assert main(["predict", "--ckpt", str(ckpt), "--text", "丁"]) == EXIT_DATA
    assert "unreadable metadata" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(CHECKPOINT_META_FAULTS))
def test_bad_checkpoint_metadata_predict_exits_2(tmp_path, capsys, case):
    ckpt = tmp_path / "model.ckpt"
    # A full-length input, so that a checkpoint which loads also predicts.
    save_checkpoint(build_model(tiny_config(input_len=144), Prng(0), dtype=np.float32), ckpt)
    rewrite_checkpoint_meta(ckpt, CHECKPOINT_META_FAULTS[case])
    assert main(["predict", "--ckpt", str(ckpt), "--text", "丁"]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(CHECKPOINT_LAYOUT_FAULTS))
def test_checkpoint_layout_fault_predict_exits_2(tmp_path, capsys, case):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(tiny_config(input_len=144), Prng(0), dtype=np.float32), ckpt)
    rewrite_checkpoint_meta(ckpt, *CHECKPOINT_LAYOUT_FAULTS[case])
    assert main(["predict", "--ckpt", str(ckpt), "--text", "丁"]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_checkpoint_input_len_not_144_exits_2(tmp_path, capsys, data_tsv, command):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(tiny_config(), Prng(0), dtype=np.float32), ckpt)  # input_len 5
    tail = ["--text", "丁"] if command == "predict" else ["--data", data_tsv, "--report", str(tmp_path / "r.csv")]
    assert main([command, "--ckpt", str(ckpt), *tail]) == EXIT_DATA
    assert "input_len" in capsys.readouterr().err


def test_divergent_training_exits_3(tmp_path, data_tsv):
    # an absurd learning rate overflows float32 within two steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([
            "train", "--data", data_tsv, "--out", str(tmp_path / "m.ckpt"),
            "--epochs", "2", "--batches", "2", "--lr", "1e30", "--seed", "0",
        ])
    assert code == EXIT_NUMERIC


def test_non_finite_parameters_exit_3_without_a_checkpoint(tmp_path, capsys, data_tsv):
    # One step at this rate makes the parameters inf and NaN; the epoch's
    # parameter check stops the run before it validates or saves. No
    # warnings filter here: numpy's own warnings must not set the exit code.
    out = tmp_path / "m.ckpt"
    args = _train_args(data_tsv, out)
    args[args.index("--lr") + 1] = "1e300"
    args[args.index("--batches") + 1] = "1"
    assert main(args) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "numerical fault: non-finite parameter augmentation.W after step 1\n"
    assert not out.exists()


def test_predict_with_an_overflowing_forward_exits_3(tmp_path, capsys):
    # Finite weights, but far too large for float32 activations.
    ckpt = tmp_path / "model.ckpt"
    model = build_model(tiny_config(input_len=144), Prng(0), dtype=np.float32)
    for _, p in model.named_parameters():
        p[...] = 1e30
    save_checkpoint(model, ckpt)
    assert main(["predict", "--ckpt", str(ckpt), "--text", "丁"]) == EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("numerical fault:")


def test_train_flag_defaults_are_the_train_config_defaults():
    args = cli.build_parser().parse_args(["train", "--data", "d.tsv", "--out", "m.ckpt"])
    assert cli._train_config(args) == training.TrainConfig()


@pytest.mark.parametrize("command", [["train"], ["sweep-params", "--grid", "5e-6:1.5e-4"]])
def test_variant_flag_takes_either_case(command):
    # sweep-config --variants reads "b" as B; --variant does the same.
    args = cli.build_parser().parse_args([*command, "--data", "d.tsv", "--out", "o", "--variant", "b"])
    assert args.variant == "B"


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_exits_1(tmp_path, capsys, data_tsv, lr):
    out = tmp_path / "m.ckpt"
    args = _train_args(data_tsv, out)
    args[args.index("--lr") + 1] = lr
    assert main(args) == EXIT_USAGE
    assert "learning_rate" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_params_cli(tmp_path, data_tsv):
    out = tmp_path / "grid.csv"
    code = main([
        "sweep-params", "--data", data_tsv, "--grid", "5e-6:1.5e-4",
        "--epochs", "0", "--batches", "2", "--seed", "0", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "learning_rate,l2_strength,val_top1"
    assert len(lines) == 2


def test_sweep_params_bad_grid_exits_1(tmp_path, data_tsv):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-params", "--data", data_tsv, "--grid", "not-a-grid", "--out", str(tmp_path / "g.csv")])
    assert exc.value.code == EXIT_USAGE


def test_sweep_config_cli(tmp_path, data_tsv):
    out = tmp_path / "variants.csv"
    code = main([
        "sweep-config", "--data", data_tsv, "--variants", "A,B",
        "--epochs", "0", "--batches", "2", "--seed", "0", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,val_top1,seconds"
    assert lines[1].startswith("A,") and lines[2].startswith("B,")


def test_sweep_config_without_variants_exits_1(tmp_path, capsys, data_tsv):
    out = tmp_path / "variants.csv"
    code = main(["sweep-config", "--data", data_tsv, "--variants", ",,", "--epochs", "0", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "variant list" in capsys.readouterr().err
    assert not out.exists()


def _raise_unexpected(*args, **kwargs):
    raise RuntimeError("not a data, usage or numerical fault\non two lines")


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_unexpected_exception_exits_4_in_one_line(tmp_path, data_tsv, tiny_ckpt, monkeypatch, capsys, command):
    # The last-resort guard: any other exception is one stderr line, no traceback.
    target, argv = {
        "train": ((cli, "train"), _train_args(data_tsv, tmp_path / "m.ckpt")),
        "eval": ((cli, "evaluate"), ["eval", "--data", data_tsv, "--ckpt", tiny_ckpt, "--report", str(tmp_path / "r.csv")]),
        "predict": ((cli, "predict"), ["predict", "--ckpt", tiny_ckpt, "--text", "丁"]),
    }[command]
    monkeypatch.setattr(*target, _raise_unexpected)
    assert main(argv) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("internal error: RuntimeError(")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("sweep-config", ["--variants", "A", "--variant", "C"]),
        ("sweep-params", ["--grid", "5e-6:1.5e-4", "--lr", "nan"]),
        ("sweep-params", ["--grid", "5e-6:1.5e-4", "--l2", "0"]),
    ],
)
def test_sweep_flags_the_command_never_reads_exit_1(tmp_path, data_tsv, command, flags):
    # sweep-config sets the variant from --variants, and sweep-params the
    # rate and the L2 strength from --grid.
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", data_tsv, *flags, "--epochs", "0", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()


def test_train_whose_validation_overflows_exits_3_without_a_checkpoint(tmp_path, capsys, data_tsv):
    # One step at this rate leaves finite parameters whose forward overflows;
    # NaN logits are no labels, so the run ends at its validation.
    out = tmp_path / "m.ckpt"
    argv = ["train", "--data", data_tsv, "--lr", "1e30", "--epochs", "1", "--batches", "1", "--out", str(out)]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical fault: non-finite logits")
    assert not out.exists()


def test_train_with_no_held_out_rows_exits_3_when_its_forward_overflows(tmp_path, capsys):
    # Four rows at fraction 0.1 hold out round(0.4) = 0, so no validation
    # runs; the step leaves finite parameters whose forward overflows.
    data = write_marker_tsv(tmp_path / "data.tsv", n=4, seed=0, n_classes=2)
    out = tmp_path / "m.ckpt"
    argv = ["train", "--data", str(data), "--lr", "1e30", "--epochs", "1", "--batches", "1",
            "--eval-fraction", "0.1", "--out", str(out)]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical fault: non-finite logits")
    assert [p.name for p in tmp_path.iterdir()] == ["data.tsv"]


def test_eval_of_an_overflowing_forward_exits_3_without_a_report(tmp_path, capsys, data_tsv):
    ckpt, report = tmp_path / "model.ckpt", tmp_path / "r.csv"
    model = build_model(tiny_config(input_len=144), Prng(0), dtype=np.float32)
    for _, p in model.named_parameters():
        p[...] = 1e30
    save_checkpoint(model, ckpt)
    assert main(["eval", "--data", data_tsv, "--ckpt", str(ckpt), "--report", str(report)]) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical fault: non-finite logits")
    assert not report.exists()


def test_eval_on_an_empty_data_file_exits_2(tmp_path, capsys, tiny_ckpt):
    data, report = tmp_path / "empty.tsv", tmp_path / "r.csv"
    data.write_text("")
    assert main(["eval", "--data", str(data), "--ckpt", tiny_ckpt, "--report", str(report)]) == EXIT_DATA
    assert capsys.readouterr().err == "data error: cannot evaluate an empty dataset\n"
    assert not report.exists()


def _rows_of_two_classes(data_tsv, per_class):
    """The first ``per_class`` rows of each of two classes of ``data_tsv``."""
    lines = Path(data_tsv).read_text(encoding="utf-8").splitlines()
    labels = sorted({line.split("\t")[0] for line in lines})[:2]
    return [[line for line in lines if line.startswith(label + "\t")][:n] for label, n in zip(labels, per_class)]


def test_a_class_with_one_example_exits_2(tmp_path, capsys, data_tsv):
    data, out = tmp_path / "one.tsv", tmp_path / "m.ckpt"
    many, one = _rows_of_two_classes(data_tsv, (2, 1))
    data.write_text("\n".join(many + one) + "\n", encoding="utf-8")
    assert main(_train_args(str(data), out)) == EXIT_DATA
    assert "at least 2 examples" in capsys.readouterr().err
    assert not out.exists()


def test_more_batches_than_training_rows_exits_1(tmp_path, capsys, data_tsv):
    # A budget the training split cannot fill: the flags, not the file, are
    # what to change.
    data, out = tmp_path / "four.tsv", tmp_path / "m.ckpt"
    first, second = _rows_of_two_classes(data_tsv, (2, 2))
    data.write_text("\n".join(first + second) + "\n", encoding="utf-8")  # 3 training rows, 1 held out
    args = _train_args(str(data), out)
    args[args.index("--batches") + 1] = "4"
    assert main(args) == EXIT_USAGE
    assert "cannot make 4 batches from 3 examples" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_leaves_out_concurrent_futures():
    # Every emocnn predict process pays for its imports, and
    # concurrent.futures brings logging with it.
    src = str(Path(emocnn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, emocnn.cli; print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'logging'))))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout == "[]\n"


def _open_when_read(fifo, child, timeout=120):
    """A write end of the named pipe ``fifo``, opened once ``child`` has
    opened its read end, or None if the child ends first."""
    deadline = time.monotonic() + timeout
    while child.poll() is None and time.monotonic() < deadline:
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            if exc.errno != errno.ENXIO:  # ENXIO: no reader yet
                raise
            time.sleep(0.01)
            continue
        os.set_blocking(fd, True)
        return fd
    return None


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
@pytest.mark.parametrize(
    "sig, code, line",
    [(signal.SIGINT, EXIT_INTERRUPTED, "interrupted (SIGINT)"), (signal.SIGTERM, EXIT_TERMINATED, "terminated (SIGTERM)")],
    ids=["SIGINT", "SIGTERM"],
)
def test_a_signal_ends_train_in_one_line_and_its_exit_code(tmp_path, sig, code, line):
    # The data file is a named pipe, so the command opens it inside main,
    # where both handlers are in place, before the test sends the signal.
    data = tmp_path / "data.tsv"
    os.mkfifo(data)
    rows = write_marker_tsv(tmp_path / "rows.tsv", n=20, seed=0).read_bytes()
    out = tmp_path / "m.ckpt"
    src = str(Path(emocnn.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "emocnn.cli", *_train_args(str(data), out, epochs=1000)]
    # A shell starts a background job with SIGINT ignored, and Python then
    # leaves it ignored; the child takes the default, as from a terminal.
    child = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        fd = _open_when_read(data, child)
        assert fd is not None, child.communicate()[1]
        with os.fdopen(fd, "wb") as fh:
            fh.write(rows)
        # 1000 epochs take minutes; a second puts the signal in training
        # on most machines, and the outcome is the same wherever it lands.
        time.sleep(1.0)
        child.send_signal(sig)
        stdout, stderr = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert (child.returncode, stdout, stderr) == (code, "", line + "\n")
    assert not out.exists()
    assert set(os.listdir(tmp_path)) == {"data.tsv", "rows.tsv"}


# The data and stop-word files that the boundary tests draw: valid records
# with blank, CRLF and long lines and a BOM, or those mixed with random
# bytes, invalid UTF-8 and stray tabs.
_RECORDS = [
    b"\xef\xbb\xbf", "positive\t丁丁\n".encode(), "neutral\t好\r\n".encode(), b"meaningless\t\n",
    ("wondering\t" + "丆" * 3000 + "\n").encode(), b"\n", b"\r\n", "丆\n".encode(),
]
_PIECES = st.one_of(
    st.binary(max_size=16),
    st.sampled_from([*_RECORDS, b"\t", b"\t\t", b"#", b"\xff\xfe", b"\x80", b"\xed\xa0\x80", b"x" * 5000]),
)
_FILES = st.one_of(st.lists(st.sampled_from(_RECORDS), max_size=8), st.lists(_PIECES, max_size=12)).map(b"".join)


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    """A directory with a tiny 144-byte checkpoint and a valid data file."""
    path = tmp_path_factory.mktemp("boundary")
    save_checkpoint(randomized_tiny_model(3, dtype=np.float32, input_len=144), path / "tiny.ckpt")
    write_marker_tsv(path / "data.tsv", n=10, seed=0)
    return path


def _assert_a_clean_exit(argv):
    """Runs ``main(argv)`` in process: it returns 0, 2 or 3 and prints no
    traceback, and an exit-0 ``predict`` prints one line of a label and
    five finite probabilities. The flags are valid, so a fault in a file is
    a data error (2), not a usage error (1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK and argv[0] == "predict":
        line, rest = out.getvalue().split("\n", 1)
        _, *probs = line.split(" ")
        assert rest == "" and len(probs) == 5 and all(math.isfinite(float(p)) for p in probs)


@settings(max_examples=150, deadline=None)
@given(data=_FILES, stops=_FILES, command=st.sampled_from(["preprocess", "eval", "predict"]), text=st.text(max_size=20))
def test_any_data_or_stop_word_file_ends_in_an_exit_code(boundary_dir, data, stops, command, text):
    work = Path(tempfile.mkdtemp(dir=boundary_dir))
    (work / "data.tsv").write_bytes(data)
    (work / "stops.txt").write_bytes(stops)
    ckpt, data_flag = str(boundary_dir / "tiny.ckpt"), ["--data", str(work / "data.tsv")]
    tail = {
        "preprocess": [*data_flag, "--out", str(work / "out.hex")],
        "eval": [*data_flag, "--ckpt", ckpt, "--report", str(work / "report.csv")],
        "predict": ["--ckpt", ckpt, "--text", text],
    }[command]
    _assert_a_clean_exit([command, *tail, "--stopwords", str(work / "stops.txt")])


@settings(max_examples=150, deadline=None)
@given(draw=st.data())
def test_any_truncated_or_flipped_checkpoint_ends_in_an_exit_code(boundary_dir, draw):
    blob = bytearray((boundary_dir / "tiny.ckpt").read_bytes())
    if draw.draw(st.booleans(), label="truncate"):
        blob = blob[: draw.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        # Half the flips land in the header and its JSON, which the data outweighs.
        header = 10 + int.from_bytes(blob[6:10], "little")
        at = st.one_of(st.integers(0, header - 1), st.integers(0, len(blob) - 1))
        for i, bits in draw.draw(st.lists(st.tuples(at, st.integers(1, 255)), min_size=1, max_size=4), label="flips"):
            blob[i] ^= bits
    # A fresh file each time: a loaded model maps its file, which must not change under it.
    work = Path(tempfile.mkdtemp(dir=boundary_dir))
    (work / "m.ckpt").write_bytes(blob)
    ckpt, data = str(work / "m.ckpt"), str(boundary_dir / "data.tsv")
    _assert_a_clean_exit(["predict", "--ckpt", ckpt, "--text", "丁丁"])
    _assert_a_clean_exit(["eval", "--data", data, "--ckpt", ckpt, "--report", str(work / "r.csv")])
