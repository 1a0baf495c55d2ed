"""Block-structured dense networks with exact analytic gradients.

Everything is float64 numpy so analytic gradients can be checked against
finite differences to tight tolerances. A model is a spec plus a flat
``dict[str, ndarray]`` of parameters; weight matrices use the ``x @ w + b``
layout (rows = inputs, columns = outputs).

Parameter keys:
    stem.w, stem.b
    block{i}.w, block{i}.b                      (plain / skip, i = 1..num_blocks)
    block{i}.w1, block{i}.b1, block{i}.w2, block{i}.b2   (bottleneck)
    head{j}.neck.w, head{j}.neck.b, head{j}.fc.w, head{j}.fc.b
where ``j`` is the 1-based block index the head hangs off. Each head owns
its own neck copy so every head sees a proto_dim-wide input regardless of
where it attaches.

Training is minibatch momentum-SGD; `sgd_update` is the only place the
update is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

BLOCK_KINDS = ("plain", "skip", "bottleneck")


class ShapeError(ValueError):
    """A batch or gradient does not match the model's shapes."""


@dataclass(frozen=True)
class BlockNetSpec:
    """Architecture of one dense block network."""

    input_dim: int
    hidden_dim: int
    num_blocks: int
    block_kind: str = "plain"
    num_classes: int = 2
    proto_dim: int = 8

    def __post_init__(self) -> None:
        for name in ("input_dim", "hidden_dim", "num_blocks", "num_classes", "proto_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.block_kind not in BLOCK_KINDS:
            raise ValueError(f"block_kind must be one of {BLOCK_KINDS}, got {self.block_kind!r}")
        if self.block_kind == "bottleneck" and self.hidden_dim % 4 != 0:
            raise ValueError("bottleneck blocks need hidden_dim divisible by 4")


def validate_base_spec(spec: BlockNetSpec) -> None:
    """Extra rule for user-built (non-extracted) specs: hidden_dim >= 4.

    Width extraction may legitimately produce narrower sub-models; only the
    global/base models a federation starts from are held to this floor.
    """
    if spec.hidden_dim < 4:
        raise ValueError(f"base models need hidden_dim >= 4, got {spec.hidden_dim}")


def default_heads(spec: BlockNetSpec) -> tuple[int, ...]:
    return (spec.num_blocks,)


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
    """Shapes of every parameter array, in a fixed deterministic order."""
    heads = default_heads(spec) if head_blocks is None else head_blocks
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


@dataclass
class BlockNetModel:
    """A spec, the heads attached to it, and the flat parameter dict.

    Treated as immutable once returned by an engine operation; training
    code works on private copies.
    """

    spec: BlockNetSpec
    head_blocks: tuple[int, ...]
    params: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not self.head_blocks:
            raise ValueError("a model needs at least one head")
        if tuple(sorted(set(self.head_blocks))) != tuple(self.head_blocks):
            raise ValueError("head_blocks must be strictly increasing and unique")
        if self.head_blocks[-1] > self.spec.num_blocks or self.head_blocks[0] < 1:
            raise ValueError("head attach points must lie in 1..num_blocks")

    @property
    def final_head(self) -> int:
        return self.head_blocks[-1]

    def copy(self) -> "BlockNetModel":
        return BlockNetModel(self.spec, self.head_blocks, {k: v.copy() for k, v in self.params.items()})


@dataclass(frozen=True)
class SGDConfig:
    learning_rate: float
    batch_size: int = 32
    local_epochs: int = 1
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


def init_model(
    spec: BlockNetSpec,
    rng: np.random.Generator,
    head_blocks: tuple[int, ...] | None = None,
) -> BlockNetModel:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases.

    Draws happen in the fixed key order of `param_shapes`, so one seed
    always yields bit-identical parameters.
    """
    heads = default_heads(spec) if head_blocks is None else tuple(head_blocks)
    params: dict[str, np.ndarray] = {}
    for key, shape in param_shapes(spec, heads).items():
        if len(shape) == 2:
            bound = math.sqrt(6.0 / shape[0])
            params[key] = rng.uniform(-bound, bound, size=shape)
        else:
            params[key] = np.zeros(shape)
    return BlockNetModel(spec, heads, params)


def zeros_like_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def parameter_count(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> int:
    """Closed-form parameter count, biases included."""
    heads = default_heads(spec) if head_blocks is None else head_blocks
    d, h, p, c = spec.input_dim, spec.hidden_dim, spec.proto_dim, spec.num_classes
    if spec.block_kind == "bottleneck":
        mid = h // 4
        per_block = h * mid + mid + mid * h + h
    else:
        per_block = h * h + h
    per_head = (h * p + p) + (p * c + c)
    return (d * h + h) + spec.num_blocks * per_block + len(heads) * per_head


def mac_count(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> int:
    """Multiply-accumulate count of one forward pass (no bias adds)."""
    heads = default_heads(spec) if head_blocks is None else head_blocks
    d, h, p, c = spec.input_dim, spec.hidden_dim, spec.proto_dim, spec.num_classes
    if spec.block_kind == "bottleneck":
        per_block = 2 * h * (h // 4)
    else:
        per_block = h * h
    return d * h + spec.num_blocks * per_block + len(heads) * (h * p + p * c)


def activation_count(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> int:
    """Scalars of activation state held per sample during a training step."""
    heads = default_heads(spec) if head_blocks is None else head_blocks
    h = spec.hidden_dim
    per_block = h + h // 4 if spec.block_kind == "bottleneck" else h
    return (
        spec.input_dim
        + h
        + spec.num_blocks * per_block
        + len(heads) * (spec.proto_dim + spec.num_classes)
    )


# ---------------------------------------------------------------------------
# forward / losses / backward


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass
class ForwardResult:
    logits: dict[int, np.ndarray]  # attach block -> [n, num_classes]
    embedding: np.ndarray          # neck output of the deepest head, [n, proto_dim]


def _run_forward(model: BlockNetModel, batch: np.ndarray) -> dict:
    """Forward pass keeping every intermediate needed for backprop."""
    if batch.ndim != 2 or batch.shape[1] != model.spec.input_dim:
        raise ShapeError(
            f"batch must be [n, {model.spec.input_dim}], got {batch.shape}"
        )
    p = model.params
    spec = model.spec
    cache: dict = {"x": batch, "pre": {}, "mid": {}, "midpre": {}, "h": {}}
    h = batch @ p["stem.w"] + p["stem.b"]
    cache["h"][0] = h
    for i in range(1, spec.num_blocks + 1):
        if spec.block_kind == "bottleneck":
            u = h @ p[f"block{i}.w1"] + p[f"block{i}.b1"]
            a = np.maximum(u, 0.0)
            v = a @ p[f"block{i}.w2"] + p[f"block{i}.b2"]
            h = np.maximum(v, 0.0)
            cache["midpre"][i] = u
            cache["mid"][i] = a
            cache["pre"][i] = v
        else:
            z = h @ p[f"block{i}.w"] + p[f"block{i}.b"]
            r = np.maximum(z, 0.0)
            cache["pre"][i] = z
            h = r + cache["h"][i - 1] if spec.block_kind == "skip" else r
        cache["h"][i] = h
    cache["neck"] = {}
    cache["logits"] = {}
    for j in model.head_blocks:
        neck_out = cache["h"][j] @ p[f"head{j}.neck.w"] + p[f"head{j}.neck.b"]
        cache["neck"][j] = neck_out
        cache["logits"][j] = neck_out @ p[f"head{j}.fc.w"] + p[f"head{j}.fc.b"]
    return cache


def forward(model: BlockNetModel, batch: np.ndarray) -> ForwardResult:
    """Per-head logits plus the deepest head's neck output (the embedding)."""
    cache = _run_forward(model, batch)
    return ForwardResult(
        logits=dict(cache["logits"]),
        embedding=cache["neck"][model.final_head],
    )


@dataclass(frozen=True)
class LossSpec:
    """Which scalar loss `backward` differentiates.

    ce_heads: attach indices receiving a cross-entropy term (None = all
        attached heads, () = none).
    distill_weight: weight on the pairwise self-distillation term
        sum_{i != j} KL(softmax(z_i) || stopgrad(softmax(z_j))) over the
        resolved head set.
    proto_weight / proto_targets / proto_mask: weight on the squared L2
        pull of the embedding toward per-class target vectors; classes with
        a False mask entry are skipped.
    soft_targets / soft_target_head: cross-entropy against fixed target
        distributions on one head (distillation to a teacher); the head
        defaults to the deepest one.
    """

    ce_heads: tuple[int, ...] | None = None
    distill_weight: float = 0.0
    proto_weight: float = 0.0
    proto_targets: np.ndarray | None = None
    proto_mask: np.ndarray | None = None
    soft_targets: np.ndarray | None = None
    soft_target_head: int | None = None

    def slice_batch(self, idx: np.ndarray) -> "LossSpec":
        """Restrict per-sample tensors (soft targets) to a batch."""
        if self.soft_targets is None:
            return self
        return replace(self, soft_targets=self.soft_targets[idx])


def _resolve_heads(model: BlockNetModel, loss: LossSpec) -> tuple[int, ...]:
    if loss.ce_heads is None:
        return model.head_blocks
    for j in loss.ce_heads:
        if j not in model.head_blocks:
            raise ValueError(f"loss references head {j}, model has {model.head_blocks}")
    return loss.ce_heads


def _loss_terms(
    model: BlockNetModel,
    cache: dict,
    labels: np.ndarray | None,
    loss: LossSpec,
) -> tuple[float, dict[int, np.ndarray], np.ndarray | None]:
    """Total loss, d(loss)/d(logits) per head, d(loss)/d(embedding).

    All terms use batch-mean semantics so the learning rate does not
    depend on the batch size.
    """
    n = cache["x"].shape[0]
    c = model.spec.num_classes
    ce_heads = _resolve_heads(model, loss)
    needs_labels = bool(ce_heads) or loss.proto_weight != 0.0
    if needs_labels:
        if labels is None:
            raise ValueError("this loss requires labels")
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ShapeError(f"labels must be [{n}], got {labels.shape}")
        if labels.min() < 0 or labels.max() >= c:
            raise ValueError(f"labels must lie in [0, {c})")

    total = 0.0
    dlogits: dict[int, np.ndarray] = {j: np.zeros_like(cache["logits"][j]) for j in model.head_blocks}

    for j in ce_heads:
        logp = log_softmax(cache["logits"][j])
        total += float(-logp[np.arange(n), labels].mean())
        grad = softmax(cache["logits"][j])
        grad[np.arange(n), labels] -= 1.0
        dlogits[j] += grad / n

    if loss.distill_weight != 0.0 and len(ce_heads) > 1:
        lam = loss.distill_weight
        logps = {j: log_softmax(cache["logits"][j]) for j in ce_heads}
        ps = {j: np.exp(logps[j]) for j in ce_heads}
        for i in ce_heads:
            for j in ce_heads:
                if i == j:
                    continue
                # KL(p_i || stopgrad(p_j)); gradient flows into head i only.
                diff = logps[i] - logps[j]
                kl = (ps[i] * diff).sum(axis=1)
                total += lam * float(kl.mean())
                dlogits[i] += lam / n * ps[i] * (diff - kl[:, None])

    demb: np.ndarray | None = None
    if loss.proto_weight != 0.0:
        if loss.proto_targets is None:
            raise ValueError("proto_weight set without proto_targets")
        targets = loss.proto_targets[labels]
        mask = (
            np.ones(n)
            if loss.proto_mask is None
            else loss.proto_mask[labels].astype(float)
        )
        emb = cache["neck"][model.final_head]
        diff = emb - targets
        total += loss.proto_weight * float((mask * (diff * diff).sum(axis=1)).mean())
        demb = loss.proto_weight * 2.0 / n * mask[:, None] * diff

    if loss.soft_targets is not None:
        j = model.final_head if loss.soft_target_head is None else loss.soft_target_head
        if j not in model.head_blocks:
            raise ValueError(f"soft_target_head {j} not attached (heads {model.head_blocks})")
        t = loss.soft_targets
        if t.shape != cache["logits"][j].shape:
            raise ShapeError(f"soft_targets must be {cache['logits'][j].shape}, got {t.shape}")
        logp = log_softmax(cache["logits"][j])
        total += float(-(t * logp).sum(axis=1).mean())
        dlogits[j] += (softmax(cache["logits"][j]) - t) / n

    return total, dlogits, demb


def backward(
    model: BlockNetModel,
    batch: np.ndarray,
    labels: np.ndarray | None,
    loss: LossSpec,
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact gradient of the loss w.r.t. every parameter.

    Returns (loss value, gradient dict structured like model.params).
    """
    spec = model.spec
    p = model.params
    cache = _run_forward(model, batch)
    total, dlogits, demb = _loss_terms(model, cache, labels, loss)

    grads = zeros_like_params(p)
    # Gradient w.r.t. the trunk activation after each block, fed by heads.
    dh_at: dict[int, np.ndarray] = {}
    for j in model.head_blocks:
        dz = dlogits[j]
        neck_out = cache["neck"][j]
        grads[f"head{j}.fc.w"] = neck_out.T @ dz
        grads[f"head{j}.fc.b"] = dz.sum(axis=0)
        dneck = dz @ p[f"head{j}.fc.w"].T
        if demb is not None and j == model.final_head:
            dneck = dneck + demb
        grads[f"head{j}.neck.w"] = cache["h"][j].T @ dneck
        grads[f"head{j}.neck.b"] = dneck.sum(axis=0)
        contrib = dneck @ p[f"head{j}.neck.w"].T
        dh_at[j] = dh_at[j] + contrib if j in dh_at else contrib

    dh = np.zeros_like(cache["h"][spec.num_blocks])
    for i in range(spec.num_blocks, 0, -1):
        if i in dh_at:
            dh = dh + dh_at[i]
        h_in = cache["h"][i - 1]
        if spec.block_kind == "bottleneck":
            dv = dh * (cache["pre"][i] > 0)
            grads[f"block{i}.w2"] = cache["mid"][i].T @ dv
            grads[f"block{i}.b2"] = dv.sum(axis=0)
            da = dv @ p[f"block{i}.w2"].T
            du = da * (cache["midpre"][i] > 0)
            grads[f"block{i}.w1"] = h_in.T @ du
            grads[f"block{i}.b1"] = du.sum(axis=0)
            dh = du @ p[f"block{i}.w1"].T
        else:
            dz = dh * (cache["pre"][i] > 0)
            grads[f"block{i}.w"] = h_in.T @ dz
            grads[f"block{i}.b"] = dz.sum(axis=0)
            dprev = dz @ p[f"block{i}.w"].T
            dh = dprev + dh if spec.block_kind == "skip" else dprev
    grads["stem.w"] = cache["x"].T @ dh
    grads["stem.b"] = dh.sum(axis=0)
    return total, grads


# ---------------------------------------------------------------------------
# optimization


def sgd_update(
    params: dict[str, np.ndarray],
    momentum: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    config: SGDConfig,
    regions: dict[str, tuple] | None = None,
) -> None:
    """One momentum-SGD step in place: buf <- m*buf + g, p <- p - lr*buf.

    Moves exactly the keys present in `grads`. `regions`, when given, maps
    each key to the index region of `params[key]` that its gradient covers;
    otherwise a gradient covers the whole array.
    """
    for key, g in grads.items():
        if regions is None:
            buf = config.momentum * momentum[key] + g
            momentum[key] = buf
            params[key] = params[key] - config.learning_rate * buf
        else:
            region = regions[key]
            buf = config.momentum * momentum[key][region] + g
            momentum[key][region] = buf
            params[key][region] = params[key][region] - config.learning_rate * buf


def batch_windows(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled minibatch index slices covering all n samples (last may be short)."""
    order = rng.permutation(n)
    return [order[s : s + batch_size] for s in range(0, n, batch_size)]


def train_local(
    model: BlockNetModel,
    features: np.ndarray,
    labels: np.ndarray | None,
    config: SGDConfig,
    loss: LossSpec,
    rng: np.random.Generator,
) -> BlockNetModel:
    """Run `local_epochs` of minibatch momentum-SGD; returns the trained copy."""
    current = model.copy()
    momentum = zeros_like_params(current.params)
    n = features.shape[0]
    for _ in range(config.local_epochs):
        for idx in batch_windows(n, config.batch_size, rng):
            y = None if labels is None else labels[idx]
            _, grads = backward(current, features[idx], y, loss.slice_batch(idx))
            sgd_update(current.params, momentum, grads, config)
    return current


def predict(model: BlockNetModel, features: np.ndarray) -> np.ndarray:
    """Argmax class of the deepest head; ties break toward the lower index."""
    out = forward(model, features)
    return np.argmax(out.logits[model.final_head], axis=1)
