"""Independent reference implementations the tests check the engine against.

Everything here deliberately avoids the library's vectorized code paths:
scalar loops for the forward pass, central finite differences for
gradients, per-coordinate contributor collection for aggregation, the
momentum-SGD update written out inline per parameter for the strategies
that train part of a model per step, and per-parameter `np.ix_` regions for
extraction, scatter and normalize (the engine's flat index maps must match
them bit for bit). The parameter names and shapes are written out here once
more, independently of `nn.param_layout`. The helpers at the end exist only
for the tests.
"""

from __future__ import annotations

import numpy as np

from hetfed import seeding
from hetfed.datasets import Dataset
from hetfed.extract import (
    SubModelMap,
    extract_channels,
    extract_width,
    full_map,
    new_accumulator,
    normalize,
    scatter_update,
    width_channels,
)
from hetfed.nn import (
    BlockNetModel,
    BlockNetSpec,
    LossSpec,
    SGDConfig,
    _loss_value,
    _run_forward,
    backward,
    param_layout,
)
from hetfed.resources import estimate_flops, fedepth_segments


# ---------------------------------------------------------------------------
# the network's parameters, spelled out independently of `nn.param_layout`


def block_keys(spec: BlockNetSpec, index: int) -> tuple[str, ...]:
    if spec.block_kind == "bottleneck":
        return (
            f"block{index}.w1",
            f"block{index}.b1",
            f"block{index}.w2",
            f"block{index}.b2",
        )
    return (f"block{index}.w", f"block{index}.b")


def head_keys(attach: int) -> tuple[str, ...]:
    return (
        f"head{attach}.neck.w",
        f"head{attach}.neck.b",
        f"head{attach}.fc.w",
        f"head{attach}.fc.b",
    )


def param_shapes(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> dict[str, tuple[int, ...]]:
    """Shapes of every parameter array, in layout order."""
    heads = (spec.num_blocks,) if head_blocks is None else head_blocks
    d, h, p, c = spec.input_dim, spec.hidden_dim, spec.proto_dim, spec.num_classes
    shapes: dict[str, tuple[int, ...]] = {"stem.w": (d, h), "stem.b": (h,)}
    for i in range(1, spec.num_blocks + 1):
        if spec.block_kind == "bottleneck":
            mid = h // 4
            shapes[f"block{i}.w1"] = (h, mid)
            shapes[f"block{i}.b1"] = (mid,)
            shapes[f"block{i}.w2"] = (mid, h)
            shapes[f"block{i}.b2"] = (h,)
        else:
            shapes[f"block{i}.w"] = (h, h)
            shapes[f"block{i}.b"] = (h,)
    for j in heads:
        shapes[f"head{j}.neck.w"] = (h, p)
        shapes[f"head{j}.neck.b"] = (p,)
        shapes[f"head{j}.fc.w"] = (p, c)
        shapes[f"head{j}.fc.b"] = (c,)
    return shapes


def model_from_params(spec: BlockNetSpec, head_blocks: tuple[int, ...], params) -> BlockNetModel:
    """A model holding a copy of named arrays, packed in layout order."""
    keys = param_layout(spec, tuple(head_blocks)).slots
    vector = np.concatenate([np.asarray(params[key], dtype=float).ravel() for key in keys])
    return BlockNetModel(spec, head_blocks, vector)


def zero_model(spec: BlockNetSpec, head_blocks: tuple[int, ...]) -> BlockNetModel:
    return BlockNetModel(spec, head_blocks, np.zeros(param_layout(spec, head_blocks).size))


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def scalar_forward_logits(model: BlockNetModel, batch: np.ndarray) -> np.ndarray:
    """Nested-loop forward pass for plain/skip models, final head only."""
    spec = model.spec
    p = model.params
    n = batch.shape[0]
    out = np.zeros((n, spec.num_classes))
    for s in range(n):
        h = [0.0] * spec.hidden_dim
        for j in range(spec.hidden_dim):
            acc = p["stem.b"][j]
            for i in range(spec.input_dim):
                acc += batch[s, i] * p["stem.w"][i, j]
            h[j] = acc
        for b in range(1, spec.num_blocks + 1):
            nxt = [0.0] * spec.hidden_dim
            for j in range(spec.hidden_dim):
                acc = p[f"block{b}.b"][j]
                for i in range(spec.hidden_dim):
                    acc += h[i] * p[f"block{b}.w"][i, j]
                nxt[j] = max(acc, 0.0)
                if spec.block_kind == "skip":
                    nxt[j] += h[j]
            h = nxt
        jh = model.final_head
        neck = [0.0] * spec.proto_dim
        for j in range(spec.proto_dim):
            acc = p[f"head{jh}.neck.b"][j]
            for i in range(spec.hidden_dim):
                acc += h[i] * p[f"head{jh}.neck.w"][i, j]
            neck[j] = acc
        for c in range(spec.num_classes):
            acc = p[f"head{jh}.fc.b"][c]
            for i in range(spec.proto_dim):
                acc += neck[i] * p[f"head{jh}.fc.w"][i, c]
            out[s, c] = acc
    return out


def finite_difference_grads(
    model: BlockNetModel,
    batch: np.ndarray,
    labels: np.ndarray | None,
    loss: LossSpec,
    step: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central finite differences of the scalar loss, coordinate by coordinate."""
    grads: dict[str, np.ndarray] = {}
    for key, array in model.params.items():
        grad = np.zeros_like(array)
        flat = array.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_value(model, batch, labels, loss)
            flat[i] = orig - step
            down = loss_value(model, batch, labels, loss)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads[key] = grad
    return grads


def max_relative_error(
    analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray], floor: float = 1e-6
) -> float:
    worst = 0.0
    for key in analytic:
        a = analytic[key].ravel()
        n = numeric[key].ravel()
        for i in range(a.size):
            denom = max(abs(a[i]), abs(n[i]), floor)
            worst = max(worst, abs(a[i] - n[i]) / denom)
    return worst


def perturb_params(model: BlockNetModel, rng: np.random.Generator, scale: float = 0.1) -> BlockNetModel:
    """Shift every parameter (biases included) off exact zeros so ReLU kinks
    never sit on a finite-difference sampling point (in place)."""
    for value in model.params.values():
        value[...] = value + scale * rng.normal(size=value.shape)
    return model


def brute_force_aggregate(
    previous: BlockNetModel,
    contributions: list[tuple[dict[str, np.ndarray], SubModelMap, float]],
) -> dict[str, np.ndarray]:
    """Per-coordinate contributor mean computed with plain Python loops."""
    result: dict[str, np.ndarray] = {}
    for key, prev in previous.params.items():
        out = prev.copy()
        for coord in np.ndindex(prev.shape):
            total = 0.0
            weight = 0.0
            for params, smap, w in contributions:
                if key not in smap.entries:
                    continue
                axes = smap.entries[key]
                sub_coord = []
                covered = True
                for axis, idx in enumerate(axes):
                    if idx is None:
                        sub_coord.append(coord[axis])
                        continue
                    positions = [q for q, g in enumerate(idx) if g == coord[axis]]
                    if not positions:
                        covered = False
                        break
                    sub_coord.append(positions[0])
                if covered:
                    total += w * params[key][tuple(sub_coord)]
                    weight += w
            if weight > 0:
                out[coord] = total / weight
        result[key] = out
    return result


# ---------------------------------------------------------------------------
# per-parameter engine: one array per name, `np.ix_` regions


def zeros_like_params(params) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def region_for(shape: tuple[int, ...], axes):
    """Fancy indexer selecting the mapped region of a global-shaped array."""
    arrays = [np.arange(size) if idx is None else idx for size, idx in zip(shape, axes)]
    return np.ix_(*arrays)


def width_entries(spec: BlockNetSpec, head_blocks: tuple[int, ...], channels: np.ndarray) -> dict:
    """Per-axis kept indices of a width sub-model, per parameter."""
    entries = {"stem.w": (None, channels), "stem.b": (channels,)}
    for i in range(1, spec.num_blocks + 1):
        entries[f"block{i}.w"] = (channels, channels)
        entries[f"block{i}.b"] = (channels,)
    for j in head_blocks:
        entries[f"head{j}.neck.w"] = (channels, None)
        entries[f"head{j}.neck.b"] = (None,)
        entries[f"head{j}.fc.w"] = (None, None)
        entries[f"head{j}.fc.b"] = (None,)
    return entries


def depth_entries(model: BlockNetModel, depth_prefix: int, with_aux_heads: bool) -> dict:
    """Whole-array entries for the stem, the block prefix and the kept heads."""
    if with_aux_heads:
        kept_heads = [j for j in model.head_blocks if j <= depth_prefix]
    else:
        kept_heads = [depth_prefix]
    keys = ["stem.w", "stem.b"]
    for i in range(1, depth_prefix + 1):
        keys.extend(block_keys(model.spec, i))
    for j in kept_heads:
        keys.extend(head_keys(j))
    return {key: (None,) * model.params[key].ndim for key in keys}


def reference_extract(model: BlockNetModel, entries: dict) -> dict[str, np.ndarray]:
    return {key: model.params[key][region_for(model.params[key].shape, axes)] for key, axes in entries.items()}


def reference_scatter(sums: dict, weights: dict, sub_params, entries: dict, weight: float) -> None:
    for key, axes in entries.items():
        region = region_for(sums[key].shape, axes)
        sums[key][region] += weight * sub_params[key]
        weights[key][region] += weight


def reference_normalize(sums: dict, weights: dict, previous: BlockNetModel) -> dict[str, np.ndarray]:
    params = {}
    for key, total in sums.items():
        w = weights[key]
        touched = w > 0
        params[key] = np.where(touched, total / np.where(touched, w, 1.0), previous.params[key])
    return params


def batch_windows(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled minibatch index slices covering all n samples (last may be short)."""
    order = rng.permutation(n)
    return [order[s : s + batch_size] for s in range(0, n, batch_size)]


def reference_train_local(
    model: BlockNetModel,
    features: np.ndarray,
    labels: np.ndarray | None,
    config: SGDConfig,
    loss: LossSpec,
    rng: np.random.Generator,
) -> BlockNetModel:
    """`train_local` with one momentum buffer and one update per parameter."""
    current = model.copy()
    params = current.params
    momentum = zeros_like_params(params)
    n = features.shape[0]
    for _ in range(config.local_epochs):
        for idx in batch_windows(n, config.batch_size, rng):
            y = None if labels is None else labels[idx]
            _, grads = backward(current, features[idx], y, loss.slice_batch(idx))
            for key, g in grads.items():
                buf = config.momentum * momentum[key] + g
                momentum[key] = buf
                params[key][...] = params[key] - config.learning_rate * buf
    return current


# ---------------------------------------------------------------------------
# reference client loops: the momentum-SGD update written out inline


def fedepth_segment_keys(model: BlockNetModel, segment_blocks: list[int]) -> list[str]:
    """Parameter names one FeDepth segment trains: its blocks, plus the stem
    with the first segment and every head with the last."""
    keys: list[str] = []
    if segment_blocks[0] == 1:
        keys.extend(["stem.w", "stem.b"])
    for b in segment_blocks:
        keys.extend(block_keys(model.spec, b))
    if segment_blocks[-1] == model.spec.num_blocks:
        for j in model.head_blocks:
            keys.extend(head_keys(j))
    return keys


def fedepth_reference_client(strategy, global_model: BlockNetModel, client_id: int, round_index: int):
    """FeDepth's frozen-rest loop: the segments train in turn and each step
    moves only the current segment's keys; every buffer starts at zero."""
    ctx = strategy.ctx
    cfg = ctx.sgd
    segments = fedepth_segments(
        global_model.spec, global_model.head_blocks, cfg.batch_size,
        ctx.clients[client_id].profile.memory_capacity,
    )
    features, labels = ctx.client_data(client_id)
    rng = ctx.client_rng(client_id, round_index, seeding.LANE_BATCH)
    working = global_model.copy()
    params = working.params
    momentum = zeros_like_params(params)
    loss = LossSpec(ce_heads=(working.final_head,))
    n = features.shape[0]
    for seg in segments:
        keys = fedepth_segment_keys(working, seg)
        for _ in range(cfg.local_epochs):
            for idx in batch_windows(n, cfg.batch_size, rng):
                _, grads = backward(working, features[idx], labels[idx], loss)
                for key in keys:
                    buf = cfg.momentum * momentum[key] + grads[key]
                    momentum[key] = buf
                    params[key][...] = params[key] - cfg.learning_rate * buf
    return params, full_map(global_model)


def fjord_reference_client(strategy, global_model: BlockNetModel, client_id: int, round_index: int):
    """FjORD's per-step loop: each step draws a nested prefix at or below
    the client's rate and updates only that region of the client-rate
    sub-model and its momentum buffers."""
    ctx = strategy.ctx
    cfg = ctx.sgd
    client = ctx.clients[client_id]
    sub, smap = extract_width(global_model, client.variant.rate, "static_prefix", 0)
    features, labels = ctx.client_data(client_id)
    batch_rng = ctx.client_rng(client_id, round_index, seeding.LANE_BATCH)
    rate_rng = ctx.client_rng(client_id, round_index, seeding.LANE_RATE)
    ks = strategy._allowed_channels(client.variant.rate)
    fixed = ctx.fed.fjord_fixed_p
    d_global = ctx.pool.largest.spec.hidden_dim
    working = sub.copy()
    params = working.params
    momentum = zeros_like_params(params)
    n = features.shape[0]
    for _ in range(cfg.local_epochs):
        for idx in batch_windows(n, cfg.batch_size, batch_rng):
            if fixed is not None:
                k = min(width_channels(d_global, fixed), sub.spec.hidden_dim)
            else:
                k = int(rate_rng.choice(ks))
            nested, _ = extract_channels(working, np.arange(k))
            _, grads = backward(nested, features[idx], labels[idx], LossSpec(ce_heads=(nested.final_head,)))
            entries = width_entries(working.spec, working.head_blocks, np.arange(k))
            for key, g in grads.items():
                region = region_for(params[key].shape, entries[key])
                buf = cfg.momentum * momentum[key][region] + g
                momentum[key][region] = buf
                params[key][region] = params[key][region] - cfg.learning_rate * buf
    return params, smap


def reference_round(strategy, state: BlockNetModel, sampled: list[int], round_index: int, train_client):
    """One partial-averaging round with each client trained by `train_client`."""
    acc = new_accumulator(state)
    for cid in sorted(sampled):
        params, smap = train_client(strategy, state, cid, round_index)
        scatter_update(acc, params, smap, strategy.ctx.client_weight(cid))
    return normalize(acc, state)


# ---------------------------------------------------------------------------
# helpers only the tests use


def loss_value(
    model: BlockNetModel,
    batch: np.ndarray,
    labels: np.ndarray | None,
    loss: LossSpec,
) -> float:
    """The scalar loss `backward` differentiates, without the gradients."""
    cache = _run_forward(model.stack, batch)
    return _loss_value(model.stack, cache, labels, loss)


def check_roundtrip(model: BlockNetModel, sub: BlockNetModel, smap: SubModelMap) -> bool:
    """True when scattering the untouched sub-model reproduces the source values."""
    acc = new_accumulator(model)
    scatter_update(acc, sub.params, smap, 1.0)
    merged = normalize(acc, model)
    return all(np.array_equal(merged.params[k], model.params[k]) for k in model.params)


def assert_valid_submodel(sub: BlockNetModel) -> None:
    """Structural sanity: the sub-model's arrays match its own spec."""
    expected = param_shapes(sub.spec, sub.head_blocks)
    for key, shape in expected.items():
        if sub.params[key].shape != shape:
            raise ValueError(f"{key}: expected {shape}, got {sub.params[key].shape}")


def save_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset in the CSV format `load_csv` reads."""
    lines = [",".join([f"f{i}" for i in range(dataset.input_dim)] + ["label"])]
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def training_flops(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> float:
    """One training step costs forward + backward ~= 3x the forward pass."""
    return 3.0 * estimate_flops(spec, head_blocks)


def class_histogram(labels: np.ndarray, num_classes: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=num_classes).astype(float)
    return counts / max(1.0, counts.sum())


def label_divergence(client_labels: np.ndarray, global_hist: np.ndarray) -> float:
    """KL(client || global) over label histograms, with empty-class guard."""
    hist = class_histogram(client_labels, global_hist.size)
    mask = hist > 0
    return float(np.sum(hist[mask] * np.log(hist[mask] / np.maximum(global_hist[mask], 1e-12))))
