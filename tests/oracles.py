"""Independent reference implementations the tests check the engine against.

Everything here deliberately avoids the library's vectorized code paths:
scalar loops for the forward pass, central finite differences for
gradients, per-coordinate contributor collection for aggregation, and the
momentum-SGD update written out inline for the strategies that train part
of a model per step. The helpers at the end exist only for the tests.
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
    region_for,
    scatter_update,
    width_channels,
)
from hetfed.nn import (
    BlockNetModel,
    LossSpec,
    _loss_terms,
    _run_forward,
    backward,
    batch_windows,
    param_shapes,
)
from hetfed.resources import fedepth_segments


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
    never sit on a finite-difference sampling point."""
    for key, value in model.params.items():
        model.params[key] = value + scale * rng.normal(size=value.shape)
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
# reference client loops: the momentum-SGD update written out inline


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
    params = {k: v.copy() for k, v in global_model.params.items()}
    momentum = {k: np.zeros_like(v) for k, v in params.items()}
    working = BlockNetModel(global_model.spec, global_model.head_blocks, params)
    loss = LossSpec(ce_heads=(working.final_head,))
    n = features.shape[0]
    for seg in segments:
        keys = strategy._segment_keys(working, seg)
        for _ in range(cfg.local_epochs):
            for idx in batch_windows(n, cfg.batch_size, rng):
                _, grads = backward(working, features[idx], labels[idx], loss)
                for key in keys:
                    buf = cfg.momentum * momentum[key] + grads[key]
                    momentum[key] = buf
                    params[key] = params[key] - cfg.learning_rate * buf
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
    params = {k: v.copy() for k, v in sub.params.items()}
    momentum = {k: np.zeros_like(v) for k, v in params.items()}
    working = BlockNetModel(sub.spec, sub.head_blocks, params)
    n = features.shape[0]
    for _ in range(cfg.local_epochs):
        for idx in batch_windows(n, cfg.batch_size, batch_rng):
            if fixed is not None:
                k = min(width_channels(d_global, fixed), sub.spec.hidden_dim)
            else:
                k = int(rate_rng.choice(ks))
            nested, nmap = extract_channels(working, np.arange(k))
            _, grads = backward(nested, features[idx], labels[idx], LossSpec(ce_heads=(nested.final_head,)))
            for key, g in grads.items():
                region = region_for(params[key].shape, nmap.entries[key])
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
    cache = _run_forward(model, batch)
    return _loss_terms(model, cache, labels, loss)[0]


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
