"""Per-layer probe of a traced run.

Calls ``emocnn``'s public functions at the shapes variant B produces, each
inside a span, and turns the span durations into the per-layer metrics.
Every metric is the median of its spans. The layer steps below apply the
public layer functions in the order ``network.forward`` does, so their sum
can be set against the whole-network call (``network.layer_coverage_*``).
"""
from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np

import inputs
import reference as ref

from emocnn import Prng, checkpoint, cli, evaluation, layers as L, network, text, training
from emocnn.labels import EmotionLabel

# Repeats per batch size; each repeat runs the whole chain.
REPEATS = {"b32": 3, "b256": 2, "b1": 10}
N_TRAIN, BATCHES, N_VALIDATION = 128, 4, 32  # as in the train workload
N_DIALOGUES, N_STOPS = 256, 1000              # as in the serve workload
CLI_REPEATS = 5
ALLOC_LAYERS = ("conv1", "conv2", "conv3", "conv4", "conv5", "pool1", "pool2", "pool3")


def layer_steps(model, mode, rng, labels=None):
    """[(name, forward, backward)] for the augmentation layer, each conv
    (with its ReLU), each pool and each fc (with ReLU and dropout).

    ``forward(x) -> (y, ctx)``; ``backward(dy, ctx) -> dx``. With labels,
    fc3's forward also runs ``softmax_cross_entropy`` and returns dlogits.
    """
    cfg = model.config
    drop_in = L.DropoutSpec(cfg.dropout_keep_input)
    drop_hidden = L.DropoutSpec(cfg.dropout_keep_hidden)
    hidden_active = mode == "train" and cfg.dropout_keep_hidden < 1.0
    grid = (cfg.aug_side, cfg.aug_side, cfg.aug_channels)

    def aug_fwd(x):
        x, _ = L.dropout_forward(x, drop_in, mode, rng)
        return L.affine_forward(x, model.augmentation).reshape(len(x), *grid), x

    def aug_bwd(g, x):
        return L.affine_backward(g.reshape(len(g), -1), x, model.augmentation)[0]

    def conv(p):
        def fwd(h):
            z = L.conv2d_forward(h, p)
            return L.relu(z), (h, z)

        def bwd(g, ctx):
            h, z = ctx
            return L.conv2d_backward(L.relu_backward(g, z), h, p)[0]

        return fwd, bwd

    def pool(spec):
        return (lambda h: (L.maxpool_forward(h, spec), h)), (lambda g, h: L.maxpool_backward(g, h, spec))

    def fc(p, last):
        def fwd(h):
            z = L.affine_forward(h.reshape(len(h), -1), p)
            if last:
                return (z, h) if labels is None else (L.softmax_cross_entropy(z, labels)[2], h)
            a, mask = L.dropout_forward(L.relu(z), drop_hidden, mode, rng)
            return a, (h, z, mask)

        def bwd(g, ctx):
            h = ctx if last else ctx[0]
            if not last:
                _, z, mask = ctx
                if hidden_active:
                    g = L.dropout_backward(g, mask, drop_hidden)
                g = L.relu_backward(g, z)
            return L.affine_backward(g, h.reshape(len(h), -1), p)[0].reshape(h.shape)

        return fwd, bwd

    steps = [("aug", aug_fwd, aug_bwd)]
    ci = 0
    for gi, group in enumerate(cfg.conv_groups):
        for _ in group:
            steps.append((f"conv{ci + 1}", *conv(model.convs[ci])))
            ci += 1
        spec = network.POOL_REDUCE if gi == len(cfg.conv_groups) - 1 else network.POOL_SAME
        steps.append((f"pool{gi + 1}", *pool(spec)))
    for li, p in enumerate(model.fcs):
        steps.append((f"fc{li + 1}", *fc(p, li == len(model.fcs) - 1)))
    return steps


def _chain(tracer, steps, x, tag, backward, alloc=None):
    """Forward through every step, then optionally backward; one span per
    step. With ``alloc`` (a dict), the backward allocation peak of each
    layer in ALLOC_LAYERS is recorded under tracemalloc instead."""
    ctxs = []
    h = x
    for name, fwd, _ in steps:
        with tracer.span(f"layers.{name}.fwd_{tag}"):
            h, ctx = fwd(h)
        ctxs.append(ctx)
    if not backward:
        return
    g = h
    for (name, _, bwd), ctx in zip(reversed(steps), reversed(ctxs)):
        if alloc is not None and name in ALLOC_LAYERS:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            g = bwd(g, ctx)
            alloc[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        else:
            with tracer.span(f"layers.{name}.bwd_{tag}"):
                g = bwd(g, ctx)


def _run_child(tracer, name, cmd, env, root):
    with tracer.span(name):
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def run(tracer, seed, workdir, root, env):
    """Run every probe; returns {metric: (value, unit)}."""
    out = {}
    model = network.build_model(network.NetworkConfig.for_variant("B"), Prng(seed))
    codes32, labels32 = inputs.marker_dataset(N_TRAIN, seed)
    texts = inputs.dialogue_texts(N_DIALOGUES, seed)
    codes256 = np.stack([ref.encode(t) for t in texts])
    labels256 = inputs.dialogue_labels(N_DIALOGUES, seed)
    x32 = (codes32[:32] / 255.0).astype(np.float32)
    y32 = labels32[:32]
    x256 = (codes256 / 255.0).astype(np.float32)

    with tracer.span("probe.layers"):
        for tag, x, mode, labels in (("b32", x32, "train", y32), ("b256", x256, "test", None),
                                     ("b1", x256[:1], "test", None)):
            steps = layer_steps(model, mode, Prng(seed), labels)
            for _ in range(REPEATS[tag]):
                _chain(tracer, steps, x, tag, backward=tag == "b32")
        alloc = {}
        tracemalloc.start()
        try:
            _chain(tracer, layer_steps(model, "train", Prng(seed), y32), x32, "alloc", True, alloc)
        finally:
            tracemalloc.stop()
    names = [name for name, _, _ in steps]
    for name in names:
        for tag in REPEATS:
            out[f"layers.{name}.fwd_{tag}_ms"] = (tracer.median_ms(f"layers.{name}.fwd_{tag}"), "ms")
        out[f"layers.{name}.bwd_b32_ms"] = (tracer.median_ms(f"layers.{name}.bwd_b32"), "ms")
    for name in ALLOC_LAYERS:
        out[f"layers.{name}.bwd_alloc_b32_mb"] = (alloc[name], "MB")

    with tracer.span("probe.network"):
        for _ in range(REPEATS["b32"]):
            tracer.timed("network.loss_and_grads_b32", network.loss_and_grads, model, x32, y32,
                         mode="train", rng=Prng(seed))
        for _ in range(REPEATS["b256"]):
            tracer.timed("network.forward_b256", network.forward, model, x256)
        for _ in range(REPEATS["b1"]):
            tracer.timed("network.forward_b1", network.forward, model, x256[:1])
    for tag, whole, parts in (("b32", "loss_and_grads_b32", ("fwd_b32", "bwd_b32")),
                              ("b256", "forward_b256", ("fwd_b256",)), ("b1", "forward_b1", ("fwd_b1",))):
        total = tracer.median_ms(f"network.{whole}")
        layer_sum = sum(out[f"layers.{n}.{part}_ms"][0] for n in names for part in parts)
        out[f"network.{whole}_ms"] = (total, "ms")
        out[f"network.layer_sum_{tag}_ms"] = (layer_sum, "ms")
        out[f"network.layer_coverage_{tag}"] = (layer_sum / total, "ratio")

    with tracer.span("probe.training"):
        params = model.parameters()
        _, grads = network.loss_and_grads(model, x32, y32, mode="train", rng=Prng(seed))
        state = training.AdamState.for_params(params, learning_rate=5e-6)
        for _ in range(REPEATS["b32"]):
            tracer.timed("training.adam_step", training.adam_step, params, grads, state)
        for _ in range(20):
            tracer.timed("training.make_batches", training.make_batches, N_TRAIN, BATCHES, Prng(seed))
        for _ in range(REPEATS["b32"]):
            tracer.timed("training.validation", network.predict_batch, model, codes32[:N_VALIDATION])
    for name in ("adam_step", "make_batches", "validation"):
        out[f"training.{name}_ms"] = (tracer.median_ms(f"training.{name}"), "ms")

    with tracer.span("probe.evaluation"):
        for _ in range(REPEATS["b256"]):
            tracer.timed("evaluation.evaluate", evaluation.evaluate, model, (codes256, labels256))
    out["evaluation.evaluate_ms"] = (tracer.median_ms("evaluation.evaluate"), "ms")

    stops_path = workdir / "probe_stops.txt"
    stops_path.write_text("\n".join(inputs.stop_words(N_STOPS, seed)) + "\n", encoding="utf-8")
    dialogues = [text.RawDialogue(t, EmotionLabel(int(l))) for t, l in zip(texts, labels256)]
    with tracer.span("probe.text"):
        for _ in range(5):
            stops = tracer.timed("text.load_stop_words", text.load_stop_words, stops_path)
        for _ in range(3):
            tracer.timed("text.encode_plain", text.encode_dataset, dialogues)
            tracer.timed("text.encode_stops", text.encode_dataset, dialogues, stops)
        normalized = [text.normalize_width(t) for t in texts]
        for t in normalized:
            tracer.timed("text.remove_stop_words", text.remove_stop_words, t, stops)
    out["text.encode_plain_us"] = (tracer.median_ms("text.encode_plain") * 1e3 / N_DIALOGUES, "us")
    out["text.encode_stops_us"] = (tracer.median_ms("text.encode_stops") * 1e3 / N_DIALOGUES, "us")
    out["text.remove_stop_words_us"] = (statistics.mean(tracer.durations_ms("text.remove_stop_words")) * 1e3, "us")
    out["text.load_stop_words_ms"] = (tracer.median_ms("text.load_stop_words"), "ms")

    ckpt = workdir / "probe.ckpt"
    with tracer.span("probe.checkpoint"):
        for _ in range(3):
            tracer.timed("checkpoint.save", checkpoint.save_checkpoint, model, ckpt)
            tracer.timed("checkpoint.load", checkpoint.load_checkpoint, ckpt)
    out["checkpoint.save_ms"] = (tracer.median_ms("checkpoint.save"), "ms")
    out["checkpoint.load_ms"] = (tracer.median_ms("checkpoint.load"), "ms")
    out["checkpoint.bytes"] = (float(ckpt.stat().st_size), "bytes")

    import_code = ("import time; t = time.perf_counter(); import emocnn.cli; "
                   "print((time.perf_counter() - t) * 1e3)")
    import_ms = []
    predict_argv = ["predict", "--ckpt", str(ckpt), f"--text={texts[0]}"]
    with tracer.span("probe.cli"):
        for _ in range(CLI_REPEATS):
            _run_child(tracer, "cli.interpreter", [sys.executable, "-c", "pass"], env, root)
            import_ms.append(float(_run_child(tracer, "cli.import", [sys.executable, "-c", import_code], env, root)))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(predict_argv)  # warm-up: the first call pays the imports
            for _ in range(CLI_REPEATS):
                tracer.timed("cli.predict_inproc", cli.main, predict_argv)
    out["cli.interpreter_ms"] = (tracer.median_ms("cli.interpreter"), "ms")
    # The child times its own import, so interpreter start-up is left out.
    out["cli.import_ms"] = (statistics.median(import_ms), "ms")
    out["cli.predict_inproc_ms"] = (tracer.median_ms("cli.predict_inproc"), "ms")
    return out
