"""Command-line interface.

Subcommands: preprocess, train, eval, predict, sweep-config, sweep-params.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical fault (a
non-finite loss, gradient, parameter or logit), 4 internal error (any other
exception; a bug, reported in one line), 130 interrupted by SIGINT (Ctrl-C)
and 143 terminated by SIGTERM: 128 plus the signal number, as a shell
reports a process that a signal killed. Each is reported in one line.
"""
from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading

import numpy as np

from .atomic import atomic_write
from .checkpoint import CheckpointConfigError, CheckpointError, load_checkpoint, save_checkpoint
from .evaluation import (
    config_sweep_to_csv,
    evaluate,
    export_curve,
    param_sweep_to_csv,
    report_to_csv,
    sweep_configs,
    sweep_params,
)
from .network import NetworkConfig, VARIANTS, build_model, predict
from .tensor import Prng
from .text import SEQUENCE_LENGTH, DataError, encode_dataset, encode_dialogue, load_dataset, load_stop_words
from .training import NumericalFault, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 128 + signal.SIGINT
EXIT_TERMINATED = 128 + signal.SIGTERM


class _Terminated(KeyboardInterrupt):
    """Raised by the SIGTERM handler that ``main`` installs."""


def _raise_terminated(signum, frame):
    raise _Terminated


@contextlib.contextmanager
def _sigterm_raises():
    """While the block runs, SIGTERM raises _Terminated, as SIGINT raises
    KeyboardInterrupt; the handler before it is restored after. Python
    handles signals only in the main thread, so elsewhere this does nothing."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this artifact reserves
    # 2 for data errors, so route to 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str):
    """Comma-separated lr:l2 pairs, e.g. '5e-6:1.5e-4,1e-5:1.5e-4'."""
    cells = []
    for token in text.split(","):
        try:
            lr, l2 = token.split(":")
            cells.append((float(lr), float(l2)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid cell {token!r}, expected lr:l2") from None
    return cells


def _add_train_flags(p, *unread):
    """The training flags, less those in ``unread``, which the command sets itself."""
    for flag, kwargs in (
        ("--variant", dict(type=str.upper, choices=VARIANTS, default="B")),
        ("--epochs", dict(type=int, default=TrainConfig.epochs)),
        ("--lr", dict(type=float, default=TrainConfig.learning_rate)),
        ("--l2", dict(type=float, default=NetworkConfig.l2_strength)),
        ("--batches", dict(type=int, default=TrainConfig.batches_per_epoch)),
        ("--seed", dict(type=int, default=TrainConfig.seed)),
        ("--eval-fraction", dict(type=float, default=TrainConfig.eval_fraction)),
    ):
        if flag not in unread:
            p.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emocnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="encode dialogues as hex byte sequences")
    p.add_argument("--data", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model and save a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--stopwords")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--curve")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled data")
    p.add_argument("--data", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one dialogue string")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True, help="the dialogue; taken whole, even if it starts with '-'")
    p.add_argument("--stopwords")
    p.set_defaults(func=cmd_predict)

    # No abbreviations here, or train's --variant would pass for --variants.
    p = sub.add_parser("sweep-config", help="compare variants under one budget", allow_abbrev=False)
    p.add_argument("--data", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--variants", default="A,B,C,D")
    _add_train_flags(p, "--variant")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_config)

    p = sub.add_parser("sweep-params", help="grid-search learning rate and L2 strength")
    p.add_argument("--data", required=True)
    p.add_argument("--stopwords")
    p.add_argument("--grid", type=_parse_grid, required=True)
    _add_train_flags(p, "--lr", "--l2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_params)
    return parser


def _load_encoded(args):
    stops = load_stop_words(args.stopwords) if args.stopwords else ()
    return encode_dataset(load_dataset(args.data), stops)


def _load_model(args):
    """The checkpoint of ``--ckpt``; it must take the 144-byte encoding."""
    model = load_checkpoint(args.ckpt)
    if model.config.input_len != SEQUENCE_LENGTH:
        raise CheckpointConfigError(
            f"{args.ckpt}: input_len is {model.config.input_len}, the encoder makes {SEQUENCE_LENGTH}"
        )
    return model


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batches_per_epoch=args.batches,
        learning_rate=getattr(args, "lr", TrainConfig.learning_rate),  # sweep-params sets it per cell
        seed=args.seed,
        eval_fraction=args.eval_fraction,
    )


def cmd_preprocess(args) -> int:
    codes, _ = _load_encoded(args)
    with atomic_write(args.out) as fh:
        for row in codes:
            fh.write(row.tobytes().hex() + "\n")
    print(f"encoded {len(codes)} dialogues -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    codes, labels = _load_encoded(args)
    config = NetworkConfig.for_variant(args.variant, l2_strength=args.l2)
    model = build_model(config, Prng(args.seed))
    model, log = train(model, (codes, labels), _train_config(args))
    save_checkpoint(model, args.out)
    if args.curve:
        export_curve(log, args.curve)
    if log.val_top1:
        print(f"final validation top-1: {log.val_top1[-1][1]:.4f}")
    print(f"saved checkpoint -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    codes, labels = _load_encoded(args)
    model = _load_model(args)
    report = evaluate(model, (codes, labels))
    report_to_csv(report, args.report)
    print(f"overall top-1: {report.overall_top1:.4f} over {report.n_examples} examples")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = _load_model(args)
    stops = load_stop_words(args.stopwords) if args.stopwords else ()
    label, probs = predict(model, encode_dialogue(args.text, stops))
    print(label.name.lower() + " " + " ".join(f"{p:.6f}" for p in probs))
    return EXIT_OK


def cmd_sweep_config(args) -> int:
    codes, labels = _load_encoded(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    rows = sweep_configs((codes, labels), variants, _train_config(args), args.l2)
    config_sweep_to_csv(rows, args.out)
    for r in rows:
        print(f"{r.variant}: val_top1={r.val_top1:.4f} seconds={r.seconds:.2f}")
    return EXIT_OK


def cmd_sweep_params(args) -> int:
    codes, labels = _load_encoded(args)
    rows = sweep_params((codes, labels), args.grid, _train_config(args), variant=args.variant)
    param_sweep_to_csv(rows, args.out)
    for r in rows:
        print(f"lr={r.learning_rate:g} l2={r.l2_strength:g}: val_top1={r.val_top1:.4f}")
    return EXIT_OK


def _take_text(argv):
    """(``argv`` with ``--text=`` in place of ``--text <t>`` or ``--text=<t>``,
    or of a prefix such as ``--tex`` that argparse also takes, and ``t`` or
    None). The argument after ``--text`` is always the dialogue, as the one
    after ``grep -e`` is always the pattern, even when it starts with '-' or
    is '--', which argparse would drop. argparse still sees the flag, so it
    requires it where it belongs and rejects it elsewhere."""
    out, text = [], None
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if len(flag) > 2 and "--text".startswith(flag):
            text = value if eq else next(tokens, None)
            if text is not None:
                token = "--text="
        out.append(token)
    return out, text


def main(argv=None) -> int:
    parser = build_parser()
    argv, text = _take_text(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if text is not None:
        args.text = text
    try:
        # numpy's floating-point warnings are silenced: the commands check
        # for non-finite values themselves, so a filter that turns warnings
        # into errors cannot change the exit code.
        with _sigterm_raises(), np.errstate(all="ignore"):
            return args.func(args)
    except KeyboardInterrupt as exc:
        terminated = isinstance(exc, _Terminated)
        print("terminated (SIGTERM)" if terminated else "interrupted (SIGINT)", file=sys.stderr)
        return EXIT_TERMINATED if terminated else EXIT_INTERRUPTED
    except NumericalFault as exc:
        print(f"numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, CheckpointError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # the last resort: no traceback leaves the CLI
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
