"""Block-structured dense networks with exact analytic gradients.

Everything is float64 numpy so analytic gradients can be checked against
finite differences to tight tolerances.

The cached `param_layout` of a (spec, heads) is the one description of the
network. A stem linear feeds ``num_blocks`` blocks; a block is a chain of
linear+ReLU steps (one for plain and skip, two for bottleneck), and a skip
block adds its input to its output. Each head is a neck linear and a
classifier linear on the trunk output after the block it hangs off. The
forward and backward passes walk the layout, and the cost-model counts
(`parameter_count`, `mac_count`, `activation_count`) and FeDepth's
`segment_slice` read it.

A model is a spec, its heads and one contiguous float64 ``vector`` holding
every parameter. ``model.params`` is a read-only mapping of named views into
that vector in layout order: writing into a view writes the vector, and
rebinding a name raises. Weight matrices use the ``x @ w + b`` layout
(rows = inputs, columns = outputs).

Parameter keys, in layout order:
    stem.w, stem.b
    block{i}.w, block{i}.b                      (plain / skip, i = 1..num_blocks)
    block{i}.w1, block{i}.b1, block{i}.w2, block{i}.b2   (bottleneck)
    head{j}.neck.w, head{j}.neck.b, head{j}.fc.w, head{j}.fc.b
where ``j`` is the 1-based block index the head hangs off. Each head owns
its own neck copy so every head sees a proto_dim-wide input regardless of
where it attaches.

Training is minibatch momentum-SGD on the flat vector; `sgd_update` is the
only place the update is written. `backward` writes each step's gradient
into one flat vector with the model's layout.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

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


@dataclass(frozen=True, eq=False)
class ParamLayout:
    """The network of one (spec, heads): what the engine runs, the flat
    vector stores and the cost model counts.

    slots: key -> (start, stop, shape) in the flat vector, in order stem,
        blocks, heads.
    blocks: per block (1..num_blocks), its ordered (weight, bias) linears,
        each followed by a ReLU.
    residual: whether each block adds its input to its output.
    heads: attach block -> (neck.w, neck.b, fc.w, fc.b) keys.
    """

    slots: Mapping[str, tuple[int, int, tuple[int, ...]]]
    blocks: tuple[tuple[tuple[str, str], ...], ...]
    residual: bool
    heads: Mapping[int, tuple[str, str, str, str]]
    size: int


@lru_cache(maxsize=1024)
def param_layout(spec: BlockNetSpec, head_blocks: tuple[int, ...]) -> ParamLayout:
    """The flat layout of a model with these heads; checks the heads."""
    if not head_blocks:
        raise ValueError("a model needs at least one head")
    if tuple(sorted(set(head_blocks))) != tuple(head_blocks):
        raise ValueError("head_blocks must be strictly increasing and unique")
    if head_blocks[-1] > spec.num_blocks or head_blocks[0] < 1:
        raise ValueError("head attach points must lie in 1..num_blocks")
    d, h, p, c = spec.input_dim, spec.hidden_dim, spec.proto_dim, spec.num_classes
    shapes: dict[str, tuple[int, ...]] = {}

    def linear(name: str, n_in: int, n_out: int, suffix: str = "") -> tuple[str, str]:
        w, b = f"{name}.w{suffix}", f"{name}.b{suffix}"
        shapes[w], shapes[b] = (n_in, n_out), (n_out,)
        return w, b

    linear("stem", d, h)
    chain = [("1", h, h // 4), ("2", h // 4, h)] if spec.block_kind == "bottleneck" else [("", h, h)]
    blocks = tuple(
        tuple(linear(f"block{i}", n_in, n_out, suffix) for suffix, n_in, n_out in chain)
        for i in range(1, spec.num_blocks + 1)
    )
    heads = {j: linear(f"head{j}.neck", h, p) + linear(f"head{j}.fc", p, c) for j in head_blocks}
    slots = {}
    start = 0
    for key, shape in shapes.items():
        stop = start + math.prod(shape)
        slots[key] = (start, stop, shape)
        start = stop
    return ParamLayout(
        MappingProxyType(slots), blocks, spec.block_kind == "skip", MappingProxyType(heads), start
    )


def _layout(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None) -> ParamLayout:
    return param_layout(spec, default_heads(spec) if head_blocks is None else tuple(head_blocks))


def segment_slice(spec: BlockNetSpec, head_blocks: tuple[int, ...], blocks: list[int]) -> slice:
    """The contiguous run of the flat vector that trains with a run of
    blocks (one FeDepth segment): the stem joins the segment holding block 1
    and every head the segment holding the last block."""
    layout = param_layout(spec, head_blocks)
    first, last = blocks[0], blocks[-1]
    start = 0 if first == 1 else layout.slots[layout.blocks[first - 1][0][0]][0]
    stop = layout.size if last == spec.num_blocks else layout.slots[layout.blocks[last - 1][-1][1]][1]
    return slice(start, stop)


class ParamViews(dict):
    """Read-only mapping of named views over one flat vector.

    Write into a view (``views[key][...] = value``) to change the vector;
    rebinding or removing a name raises, since it would leave the vector
    stale.
    """

    __slots__ = ("vector", "layout")

    def __init__(self, vector: np.ndarray, layout: ParamLayout):
        # 1-D parameters are plain slices; only matrices need a reshape.
        super().__init__({
            key: vector[start:stop] if len(shape) == 1 else vector[start:stop].reshape(shape)
            for key, (start, stop, shape) in layout.slots.items()
        })
        self.vector = vector
        self.layout = layout

    def _read_only(self, *args, **kwargs):
        raise TypeError("parameters are views of one vector; write into them in place")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class BlockNetModel:
    """A spec, the heads attached to it, and the flat parameter vector
    (wrapped, not copied). Treated as immutable once returned by an engine
    operation; training code works on private copies.
    """

    __slots__ = ("spec", "head_blocks", "vector", "_params")

    def __init__(self, spec: BlockNetSpec, head_blocks: tuple[int, ...], vector: np.ndarray):
        if vector.shape != (param_layout(spec, head_blocks).size,):
            raise ShapeError(f"vector of shape {vector.shape} does not fit the spec and heads")
        self.spec = spec
        self.head_blocks = head_blocks
        self.vector = vector
        self._params = None

    @property
    def params(self) -> ParamViews:
        views = self._params
        if views is None:
            views = self._params = ParamViews(self.vector, param_layout(self.spec, self.head_blocks))
        return views

    @property
    def final_head(self) -> int:
        return self.head_blocks[-1]

    def copy(self) -> "BlockNetModel":
        return BlockNetModel(self.spec, self.head_blocks, self.vector.copy())


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

    Draws happen in layout order, so one seed
    always yields bit-identical parameters.
    """
    heads = default_heads(spec) if head_blocks is None else tuple(head_blocks)
    layout = param_layout(spec, heads)
    vector = np.zeros(layout.size)
    for start, stop, shape in layout.slots.values():
        if len(shape) == 2:
            bound = math.sqrt(6.0 / shape[0])
            vector[start:stop] = rng.uniform(-bound, bound, size=stop - start)
    return BlockNetModel(spec, heads, vector)


def parameter_count(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> int:
    """Parameter count, biases included."""
    return _layout(spec, head_blocks).size


def mac_count(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> int:
    """Multiply-accumulate count of one forward pass: one per weight-matrix
    entry (no bias adds)."""
    slots = _layout(spec, head_blocks).slots.values()
    return sum(stop - start for start, stop, shape in slots if len(shape) == 2)


def activation_count(spec: BlockNetSpec, head_blocks: tuple[int, ...] | None = None) -> int:
    """Scalars of activation state held per sample during a training step:
    the input plus one per bias entry (every linear's output)."""
    slots = _layout(spec, head_blocks).slots.values()
    return spec.input_dim + sum(stop - start for start, stop, shape in slots if len(shape) == 1)


# ---------------------------------------------------------------------------
# forward / losses / backward


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_and_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log_softmax(z) and softmax(z) from one shift, exp and sum."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    return shifted - np.log(s), e / s


@dataclass
class ForwardResult:
    logits: dict[int, np.ndarray]  # attach block -> [n, num_classes]
    embedding: np.ndarray          # neck output of the deepest head, [n, proto_dim]


def _run_forward(model: BlockNetModel, batch: np.ndarray, heads: tuple[int, ...] | None = None) -> dict:
    """Forward pass keeping every intermediate needed for backprop.

    Computes the logits of `heads` (default: every attached head). The
    cache holds the trunk activation after the stem and after each block
    ("h"), each block's (input, pre-activation) per linear ("steps"), and
    per computed head its neck output and logits.
    """
    if batch.ndim != 2 or batch.shape[1] != model.spec.input_dim:
        raise ShapeError(
            f"batch must be [n, {model.spec.input_dim}], got {batch.shape}"
        )
    p = model.params
    layout = p.layout
    h = batch @ p["stem.w"] + p["stem.b"]
    trunk = [h]
    steps = []
    for linears in layout.blocks:
        a = h
        block_steps = []
        for w, b in linears:
            z = a @ p[w] + p[b]
            block_steps.append((a, z))
            a = np.maximum(z, 0.0)
        h = a + h if layout.residual else a
        trunk.append(h)
        steps.append(block_steps)
    necks, logits = {}, {}
    for j in model.head_blocks if heads is None else heads:
        neck_w, neck_b, fc_w, fc_b = layout.heads[j]
        necks[j] = trunk[j] @ p[neck_w] + p[neck_b]
        logits[j] = necks[j] @ p[fc_w] + p[fc_b]
    return {"x": batch, "h": trunk, "steps": steps, "neck": necks, "logits": logits}


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

    logps: dict[int, np.ndarray] = {}
    for j in ce_heads:
        logp, grad = _log_softmax_and_softmax(cache["logits"][j])
        logps[j] = logp
        total += float(-logp[np.arange(n), labels].mean())
        grad[np.arange(n), labels] -= 1.0
        dlogits[j] += grad / n

    if loss.distill_weight != 0.0 and len(ce_heads) > 1:
        lam = loss.distill_weight
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
        logp, probs = _log_softmax_and_softmax(cache["logits"][j])
        total += float(-(t * logp).sum(axis=1).mean())
        dlogits[j] += (probs - t) / n

    return total, dlogits, demb


def gradient_buffer(model: BlockNetModel) -> ParamViews:
    """Uninitialised named views over one flat vector laid out like `model`."""
    return ParamViews(np.empty_like(model.vector), model.params.layout)


def backward(
    model: BlockNetModel,
    batch: np.ndarray,
    labels: np.ndarray | None,
    loss: LossSpec,
    out: ParamViews | None = None,
) -> tuple[float, ParamViews]:
    """Exact gradient of the loss w.r.t. every parameter.

    Returns (loss value, gradient views laid out like model.params). Every
    gradient entry is written, into `out` when given (a `gradient_buffer`
    of the model, reused across steps) or into a new buffer.
    """
    p = model.params
    layout = p.layout
    cache = _run_forward(model, batch)
    total, dlogits, demb = _loss_terms(model, cache, labels, loss)

    grads = gradient_buffer(model) if out is None else out
    trunk = cache["h"]
    # Gradient w.r.t. the trunk activation after block i; heads join it
    # where they attach.
    dh = np.zeros_like(trunk[-1])
    for i in range(len(layout.blocks), 0, -1):
        if i in layout.heads:
            neck_w, neck_b, fc_w, fc_b = layout.heads[i]
            dz = dlogits[i]
            np.matmul(cache["neck"][i].T, dz, out=grads[fc_w])
            dz.sum(axis=0, out=grads[fc_b])
            dneck = dz @ p[fc_w].T
            if demb is not None and i == model.final_head:
                dneck = dneck + demb
            np.matmul(trunk[i].T, dneck, out=grads[neck_w])
            dneck.sum(axis=0, out=grads[neck_b])
            dh = dh + dneck @ p[neck_w].T
        d = dh
        for (w, b), (a, z) in zip(reversed(layout.blocks[i - 1]), reversed(cache["steps"][i - 1])):
            dz = d * (z > 0)
            np.matmul(a.T, dz, out=grads[w])
            dz.sum(axis=0, out=grads[b])
            d = dz @ p[w].T
        dh = d + dh if layout.residual else d
    np.matmul(cache["x"].T, dh, out=grads["stem.w"])
    dh.sum(axis=0, out=grads["stem.b"])
    return total, grads


# ---------------------------------------------------------------------------
# optimization


def sgd_update(
    vector: np.ndarray,
    momentum: np.ndarray,
    grad: np.ndarray,
    config: SGDConfig,
    index: slice | np.ndarray | None = None,
) -> None:
    """One momentum-SGD step in place: buf <- m*buf + g, p <- p - lr*buf.

    `vector` and `momentum` are flat. `grad` covers the coordinates
    `vector[index]`: the whole vector when `index` is None, otherwise a
    slice (a FeDepth segment) or a flat index vector (a sub-model map).
    Coordinates outside `index` do not move.
    """
    where = slice(None) if index is None else index
    buf = config.momentum * momentum[where] + grad
    momentum[where] = buf
    vector[where] -= config.learning_rate * buf


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
    momentum = np.zeros_like(current.vector)
    grads = gradient_buffer(current)
    n = features.shape[0]
    for _ in range(config.local_epochs):
        for idx in batch_windows(n, config.batch_size, rng):
            y = None if labels is None else labels[idx]
            backward(current, features[idx], y, loss.slice_batch(idx), grads)
            sgd_update(current.vector, momentum, grads.vector, config)
    return current


def predict(model: BlockNetModel, features: np.ndarray) -> np.ndarray:
    """Argmax class of the deepest head; ties break toward the lower index.

    Only the trunk and the deepest head are computed.
    """
    logits = _run_forward(model, features, (model.final_head,))["logits"][model.final_head]
    return np.argmax(logits, axis=1)
