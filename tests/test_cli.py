import warnings

import numpy as np
import pytest

from emocnn.checkpoint import save_checkpoint
from emocnn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from emocnn.network import build_model
from emocnn.tensor import Prng
from emocnn.text import encode_dialogue, load_dataset

from support import (
    CHECKPOINT_LAYOUT_FAULTS,
    CHECKPOINT_META_FAULTS,
    rewrite_checkpoint_meta,
    tiny_config,
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
