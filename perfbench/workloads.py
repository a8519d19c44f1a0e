"""The three workloads: set-up, measured rounds and output checks.

Each workload is a class with ``setup(seed, workdir)``; ``round(tracer)``,
one whole round of operations, returning how many it attempted and how
many failed; ``results()``, its end-to-end and named metrics;
``peak_rss_mb()``; ``samples()``, the per-operation times; ``checks()``,
(name, passed, detail) triples; and ``traced_modules()``, the module
functions a traced run wraps in spans. Checks compare the program against
the oracles in ``reference.py`` or against properties of the method, never
against stored output.
"""
from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import inputs
import reference as ref
from tracing import patched

from emocnn import Prng, checkpoint, evaluation, layers, network, text, training
from emocnn.labels import LABEL_NAMES, EmotionLabel

VARIANT = "B"
# The served model's weights are drawn wider than the training default
# (0.01), so every top-two logit gap sits far above float32 noise and a
# label comparison against the float64 reference is not a coin flip.
SERVE_INIT_STD = 0.05
LOGIT_RTOL = 1e-4  # max |program - reference| over max |reference|
PROB_ATOL = 1e-4   # printed probabilities against the reference softmax
FD_PARAM_STD = 0.05  # spread of every parameter, biases too, at the gradient check's point


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _params_bits_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k].view(np.uint32), b[k].view(np.uint32)) for k in a
    )


def _decisive(ref_logits):
    """Rows whose reference top-two gap is larger than float32 noise; only
    there must the program's label equal the reference's."""
    return ref.top_gap(ref_logits) > LOGIT_RTOL * max(1.0, float(np.abs(ref_logits).max()))


def _reference_logits(model, codes):
    cfg = model.config
    return ref.forward(dict(model.named_parameters()), cfg.conv_groups, cfg.aug_side, cfg.aug_channels, codes)


def _logit_error(logits, ref_logits) -> float:
    return float(np.abs(logits - ref_logits).max() / max(1e-12, np.abs(ref_logits).max()))


def _scaled(codes, dtype=np.float32):
    return (np.asarray(codes, dtype=np.float64) / 255.0).astype(dtype)


class Train:
    """``training.train`` on variant B, batch 32, with per-epoch validation,
    then ``checkpoint.save_checkpoint``. One round is one epoch."""

    BATCH_SIZE = 32
    BATCHES = 4  # steps per epoch
    N_EXAMPLES = BATCH_SIZE * BATCHES * 5 // 4  # a fifth of them held out for validation
    FD_EXAMPLES = 4

    def setup(self, seed, workdir):
        self.seed = seed
        self.codes, self.labels = inputs.marker_dataset(self.N_EXAMPLES, seed)
        self.model = network.build_model(network.NetworkConfig.for_variant(VARIANT), Prng(seed))
        self.config = training.TrainConfig(epochs=1, batches_per_epoch=self.BATCHES, seed=seed)
        self.ckpt = workdir / "train.ckpt"
        self.step_ms, self.rest_ms, self.save_ms, self.losses = [], [], [], []

    def _step_clock(self):
        """Time each step from the start of ``loss_and_grads`` to the end of
        ``adam_step``: two clock reads per step."""
        started = []
        lag, adam = training.loss_and_grads, training.adam_step

        def loss_and_grads(*args, **kwargs):
            started.append(time.perf_counter())
            return lag(*args, **kwargs)

        def adam_step(*args, **kwargs):
            out = adam(*args, **kwargs)
            self.step_ms.append((time.perf_counter() - started[-1]) * 1e3)
            return out

        return patched(training, {"loss_and_grads": loss_and_grads, "adam_step": adam_step})

    def round(self, tracer):
        n_ops = self.BATCHES + 2  # steps, validation, save
        try:
            steps_before = len(self.step_ms)
            with self._step_clock():
                t0 = time.perf_counter()
                _, log = tracer.timed("training.train", training.train, self.model, (self.codes, self.labels), self.config)
                epoch_ms = (time.perf_counter() - t0) * 1e3
            self.rest_ms.append(epoch_ms - sum(self.step_ms[steps_before:]))
            t0 = time.perf_counter()
            tracer.timed("checkpoint.save_checkpoint", checkpoint.save_checkpoint, self.model, self.ckpt)
            self.save_ms.append((time.perf_counter() - t0) * 1e3)
        except (training.NumericalFault, ValueError, OSError):
            return n_ops, n_ops
        self.losses += [loss for _, loss in log.steps]
        return n_ops, 0

    def peak_rss_mb(self):
        return _peak_rss_mb()

    def traced_modules(self):
        return ((training, ("loss_and_grads", "adam_step", "make_batches", "predict_batch")),)

    def results(self):
        # An epoch is BATCHES steps plus the rest of the call: validation,
        # the split and the Adam state. Medians of each keep one slow step
        # from moving the whole epoch.
        epoch_ms = self.BATCHES * median(self.step_ms) + median(self.rest_ms)
        per_s = self.BATCHES * self.BATCH_SIZE / epoch_ms * 1e3
        return {
            "latency_ms": median(self.step_ms),
            "examples_per_s": per_s,
        }, {
            "train_step_ms": (median(self.step_ms), "ms"),
            "train_examples_per_s": (per_s, "examples/s"),
            "ckpt_save_ms": (median(self.save_ms), "ms"),
            "epoch_rest_ms": (median(self.rest_ms), "ms"),
            "steps": (len(self.step_ms), "count"),
        }

    def samples(self):
        return {"step_ms": self.step_ms, "rest_ms": self.rest_ms, "save_ms": self.save_ms}

    def checks(self):
        out = [("losses_finite", bool(self.losses) and bool(np.isfinite(self.losses).all()),
                f"{len(self.losses)} logged losses")]
        loss_gap, per_tensor = self._directional_fd()
        # The 1e-9 floor covers rounding in the difference quotient.
        missed = [(k, a, fd) for k, a, fd in per_tensor if abs(a - fd) > 1e-3 * max(abs(a), abs(fd)) + 1e-9]
        worst = max(per_tensor, key=lambda r: abs(r[1] - r[2]) / max(abs(r[1]), abs(r[2]), 1e-300))
        out.append(("grad_matches_directional_fd", not missed and loss_gap <= 1e-12,
                    f"{len(missed)} of {len(per_tensor)} tensors miss, worst {worst[0]}: analytic {worst[1]:.9e}, "
                    f"difference {worst[2]:.9e}; loss off loss_and_grads by {loss_gap:.1e}"))
        saved = checkpoint.load_checkpoint(self.ckpt).parameters()
        out.append(("checkpoint_reloads_bit_identical", _params_bits_equal(saved, self.model.parameters()),
                    f"{len(saved)} tensors"))
        return out

    def _directional_fd(self):
        """Per tensor, the (name, analytic, central difference) derivative of
        the test-mode loss along a random unit direction confined to that
        tensor, in float64; and the relative gap
        between the loss differenced here and the one ``loss_and_grads``
        returns. A direction per tensor keeps an error in a tensor with a
        small share of the gradient, such as a bias, from being drowned.

        The point is drawn for the check, every parameter N(0, 0.05**2): at
        the trained point of a 0.01 init, with zero biases, most
        pre-activations sit within a step of a ReLU or max-pool kink. The
        differenced loss is the test-mode forward, mean cross-entropy and the
        L2 term, which costs a forward pass only. A bias direction moves a
        whole channel, so even here step 1e-6 straddles a kink on some seeds
        (off by up to 2% on conv1.bias). Step 1e-7 is used, step 1e-8 where
        it misses, and the closer result is kept: a wrong gradient misses
        both.
        """
        m64 = network.allocate_model(self.model.config, dtype=np.float64)
        params = m64.parameters()
        rng = np.random.default_rng(self.seed)
        base = {k: FD_PARAM_STD * rng.standard_normal(p.shape) for k, p in params.items()}
        for k, p in params.items():
            p[...] = base[k]
        x = _scaled(self.codes[: self.FD_EXAMPLES], np.float64)
        y = self.labels[: self.FD_EXAMPLES]
        l2 = m64.config.l2_strength

        def loss():
            value = layers.softmax_cross_entropy(network.forward(m64, x, mode="test"), y)[0]
            for name in m64.weight_names():
                value += l2 * float(np.vdot(params[name], params[name]))
            return value

        program_loss, grads = network.loss_and_grads(m64, x, y, mode="test")
        loss_gap = abs(loss() - program_loss) / abs(program_loss)
        out = []
        for k, p in params.items():
            d = rng.standard_normal(p.shape)
            d /= np.linalg.norm(d)
            analytic = float(np.vdot(grads[k], d))
            best = None
            for h in (1e-7, 1e-8):
                np.add(base[k], h * d, out=p)
                up = loss()
                np.subtract(base[k], h * d, out=p)
                fd = (up - loss()) / (2 * h)
                if best is None or abs(fd - analytic) < abs(best - analytic):
                    best = fd
                if abs(best - analytic) <= 1e-3 * max(abs(analytic), abs(best)) + 1e-9:
                    break
            p[...] = base[k]
            out.append((k, analytic, best))
        return loss_gap, out


class Serve:
    """Checkpoint load, ``encode_dataset`` without and with about 1,000 stop
    words, then ``evaluate`` at its default chunk. One round is one pass."""

    N_DIALOGUES = 256
    N_STOPS = 1000
    REF_LOGIT_ROWS = 32
    STAGES = ("load", "load_stops", "encode_plain", "encode_stops", "evaluate")

    def setup(self, seed, workdir):
        texts = inputs.dialogue_texts(self.N_DIALOGUES, seed)
        labels = inputs.dialogue_labels(self.N_DIALOGUES, seed)
        self.dialogues = [text.RawDialogue(t, EmotionLabel(int(l))) for t, l in zip(texts, labels)]
        self.stop_list = inputs.stop_words(self.N_STOPS, seed)
        self.stops_path = workdir / "stops.txt"
        self.stops_path.write_text("\n".join(self.stop_list) + "\n", encoding="utf-8")
        config = network.NetworkConfig.for_variant(VARIANT, init_std=SERVE_INIT_STD)
        self.model = network.build_model(config, Prng(seed))
        self.ckpt = workdir / "serve.ckpt"
        checkpoint.save_checkpoint(self.model, self.ckpt)
        self.stage_ms = {k: [] for k in (*self.STAGES, "data", "pass")}

    def round(self, tracer):
        n_ops = 5
        t = [time.perf_counter()]
        try:
            model = tracer.timed("checkpoint.load_checkpoint", checkpoint.load_checkpoint, self.ckpt)
            t.append(time.perf_counter())
            stops = tracer.timed("text.load_stop_words", text.load_stop_words, self.stops_path)
            t.append(time.perf_counter())
            plain, truths = tracer.timed("text.encode_dataset", text.encode_dataset, self.dialogues)
            t.append(time.perf_counter())
            with_stops, _ = tracer.timed("text.encode_dataset", text.encode_dataset, self.dialogues, stops)
            t.append(time.perf_counter())
            report = tracer.timed("evaluation.evaluate", evaluation.evaluate, model, (plain, truths))
            t.append(time.perf_counter())
        except (checkpoint.CheckpointError, text.DataError, ValueError, OSError):
            return n_ops, n_ops
        for key, a, b in zip(self.STAGES, t, t[1:]):
            self.stage_ms[key].append((b - a) * 1e3)
        self.stage_ms["data"].append((t[4] - t[0]) * 1e3)  # everything before evaluate
        self.stage_ms["pass"].append((t[-1] - t[0]) * 1e3)
        self.last = (stops, plain, truths, with_stops, report)
        return n_ops, 0

    def peak_rss_mb(self):
        return _peak_rss_mb()

    def traced_modules(self):
        return (
            (text, ("encode_dialogue", "remove_stop_words")),
            (evaluation, ("predict_batch",)),
            (network, ("forward",)),
        )

    def results(self):
        # The two gated metrics do not overlap: latency_ms is the data path
        # (checkpoint and stop-list loads, both encodings), examples_per_s
        # is evaluate alone, which would otherwise hide the rest of the pass.
        # The data path is mostly pure Python, which this kind of shared
        # machine runs at one speed or near half of it in phases of seconds;
        # the median of a run's few passes jumps between the two, so the
        # data path is reported as its mean over the passes.
        ms = {k: median(v) for k, v in self.stage_ms.items()}
        ms["data"] = sum(self.stage_ms["data"]) / len(self.stage_ms["data"])
        n = self.N_DIALOGUES
        return {
            "latency_ms": ms["data"],
            "examples_per_s": n / ms["evaluate"] * 1e3,
        }, {
            "serve_data_ms": (ms["data"], "ms"),
            "serve_pass_ms": (ms["pass"], "ms"),
            "ckpt_load_ms": (ms["load"], "ms"),
            "encode_plain_per_s": (n / ms["encode_plain"] * 1e3, "dialogues/s"),
            "encode_stops_per_s": (n / ms["encode_stops"] * 1e3, "dialogues/s"),
            "infer_examples_per_s": (n / ms["evaluate"] * 1e3, "examples/s"),
            "passes": (len(self.stage_ms["pass"]), "count"),
        }

    def samples(self):
        return self.stage_ms

    def checks(self):
        stops, plain, truths, with_stops, report = self.last
        out = []
        texts = [d.text for d in self.dialogues]
        want = np.stack([ref.encode(t) for t in texts])
        out.append(("plain_encoding_matches_reference", np.array_equal(plain, want),
                    f"{int((plain != want).any(axis=1).sum())} of {len(texts)} rows differ"))
        bad_stop = bad_subseq = bad_kept = bad_code = 0
        for i, t in enumerate(texts):
            kept = text.remove_stop_words(text.normalize_width(t), stops)
            want_kept = ref.remove_stop_words(ref.normalize(t), self.stop_list)
            bad_stop += any(w in kept for w in stops)
            it = iter(ref.normalize(t))
            bad_subseq += not all(c in it for c in kept)
            bad_kept += kept != want_kept
            bad_code += not np.array_equal(with_stops[i], ref.encode(want_kept))
        out.append(("stop_encoding_has_no_stop_word", bad_stop == 0, f"{bad_stop} texts keep a stop word"))
        out.append(("stop_text_is_subsequence", bad_subseq == 0, f"{bad_subseq} texts are not subsequences"))
        out.append(("stop_removal_matches_reference", bad_kept == 0, f"{bad_kept} texts differ"))
        out.append(("stop_encoding_matches_reference", bad_code == 0, f"{bad_code} rows differ"))
        c = report.confusion
        n = len(texts)
        out.append(("confusion_sums_to_n", int(c.sum()) == n == report.n_examples, f"sum {int(c.sum())}, n {n}"))
        out.append(("trace_over_n_is_top1", np.trace(c) / n == report.overall_top1,
                    f"trace/n {np.trace(c) / n}, top1 {report.overall_top1}"))
        ref_logits = _reference_logits(self.model, plain)
        logits = network.forward(self.model, _scaled(plain[: self.REF_LOGIT_ROWS]))
        err = _logit_error(logits, ref_logits[: self.REF_LOGIT_ROWS])
        out.append(("logits_match_reference", err <= LOGIT_RTOL, f"relative error {err:.2e}"))
        expected = evaluation.confusion_matrix(ref_logits.argmax(axis=1), truths)
        near_ties = int((~_decisive(ref_logits)).sum())
        moved = int(np.abs(c - expected).sum())
        out.append(("confusion_matches_reference_labels", moved <= 2 * near_ties,
                    f"{moved} cells moved, {near_ties} near-tie rows"))
        return out


class PredictCold:
    """Repeated ``emocnn predict`` subprocesses, one at a time: a closed loop
    with one client. One round is one request for each of 16 texts."""

    N_TEXTS = 16

    def __init__(self, root, env):
        self.root, self.env = root, env

    def setup(self, seed, workdir):
        self.texts = inputs.dialogue_texts(self.N_TEXTS, seed, max_len=120)
        config = network.NetworkConfig.for_variant(VARIANT, init_std=SERVE_INIT_STD)
        self.model = network.build_model(config, Prng(seed))
        self.ckpt = workdir / "predict.ckpt"
        checkpoint.save_checkpoint(self.model, self.ckpt)
        self.latency_ms, self.outputs = [], []
        self.attempted = 0
        self.round_per_s = []
        self.peak_kb = 0

    def round(self, tracer):
        # "--text=<t>": some dialogues start with "-", which the separate-value
        # form would read as an option.
        requests = [[sys.executable, "-m", "emocnn.cli", "predict", "--ckpt", str(self.ckpt), f"--text={t}"]
                    for t in self.texts]
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                              input=json.dumps(requests), capture_output=True, text=True,
                              cwd=self.root, env=self.env, timeout=600, check=True)
        *replies, summary = [json.loads(line) for line in proc.stdout.splitlines()]
        self.peak_kb = max(self.peak_kb, summary["peak_rss_kb"])
        self.attempted += len(requests)
        failed = 0
        for i, reply in enumerate(replies):
            tracer.add("cli.predict_subprocess", reply["start_ns"], reply["end_ns"])
            if reply["returncode"] != 0:
                failed += 1
                continue
            self.latency_ms.append((reply["end_ns"] - reply["start_ns"]) / 1e6)
            self.outputs.append((i, reply["stdout"]))
        busy_s = sum(r["end_ns"] - r["start_ns"] for r in replies) / 1e9
        self.round_per_s.append((len(replies) - failed) / busy_s)
        return len(requests), failed

    def peak_rss_mb(self):
        """Largest resident set of any request process."""
        return self.peak_kb / 1024.0

    def traced_modules(self):
        return ()

    def results(self):
        lat = sorted(self.latency_ms)
        named = {
            "predict_cold_ms": (median(lat), "ms"),
            "requests": (len(lat), "count"),
        }
        # The highest of these percentiles with at least ten samples above it.
        for q in (99, 95, 90, 75):
            if len(lat) * (100 - q) / 100 >= 10:
                named[f"predict_cold_ms_p{q}"] = (float(np.percentile(lat, q)), "ms")
                break
        return {
            "latency_ms": median(lat),
            "examples_per_s": median(self.round_per_s),
        }, named

    def samples(self):
        return {"latency_ms": self.latency_ms}

    def checks(self):
        ref_logits = _reference_logits(self.model, np.stack([ref.encode(t) for t in self.texts]))
        ref_probs = ref.softmax(ref_logits)
        bad_format = bad_sum = bad_argmax = bad_prob = 0
        labels = []
        for i, stdout in self.outputs:
            fields = stdout.split()
            if len(fields) != 6 or fields[0] not in LABEL_NAMES:
                bad_format += 1
                continue
            probs = np.array([float(f) for f in fields[1:]])
            label = LABEL_NAMES.index(fields[0])
            bad_sum += abs(probs.sum() - 1.0) > 1e-5
            bad_argmax += probs[label] != probs.max()
            bad_prob += np.abs(probs - ref_probs[i]).max() > PROB_ATOL
            labels.append((i, label))
        idx = np.array([i for i, _ in labels], dtype=np.int64)
        printed = np.array([lab for _, lab in labels], dtype=np.int64)
        wrong = int(((printed != ref_logits[idx].argmax(axis=1)) & _decisive(ref_logits)[idx]).sum())
        n = len(self.outputs)
        return [
            ("every_request_exits_0", 0 < n == self.attempted, f"{n} of {self.attempted} requests exit 0"),
            ("output_format", bad_format == 0, f"{bad_format} malformed outputs"),
            ("probabilities_sum_to_1", bad_sum == 0, f"{bad_sum} outputs off by more than 1e-5"),
            ("printed_label_is_argmax", bad_argmax == 0, f"{bad_argmax} outputs"),
            ("probabilities_match_reference", bad_prob == 0, f"{bad_prob} outputs off by more than {PROB_ATOL}"),
            ("labels_match_reference", wrong == 0, f"{wrong} decisive label mismatches"),
        ]
