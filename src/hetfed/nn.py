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

The forward, loss and backward walk runs on a `ModelStack`: K models of
one (spec, heads) as the rows of one (K, size) array. At K >= 2 every
operand has a leading client axis (stacked `np.matmul`); a stack of one
runs on plain 2-D operands, which costs less per numpy call. The walk is
written once for both ranks (`swapaxes(-1, -2)`, `sum(axis=-2, out=...)`
into views cached once per stack, per-client means over `reshape(k, n)`).
A stacked batch is the K clients' rows concatenated, [K*n, d], with labels
[K*n]; at K >= 2 the walk views it as [K, n, d], and it takes every loss
mean over each client's own n rows. A single model is the stack of one
(`BlockNetModel.stack`), so `forward`, `predict` and lone training run 2-D.
Stacked matmul and axis sums give the same bits as the 2-D calls on each
client, so a client's result does not depend on what it is stacked with.
The forward adds biases and applies each ReLU in place and caches one
activation per linear, its output after the ReLU; the backward mask
``a > 0`` equals ``z > 0`` on the pre-activation, NaN included.

Training is minibatch momentum-SGD on the flat vectors; `sgd_update` is the
only place the update is written. `train_local` trains K clients in
lockstep: each keeps its own rows, batch shuffles and rng, and a per-step
hook (`Move`) can restrict a step to part of each vector. A step on a
stack computes the gradients only; the loss value is computed for a single
model's `backward`, which is what reads it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

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

    def key_at(self, coord: int) -> str:
        """The parameter key whose slot holds flat coordinate `coord`."""
        return next(key for key, (start, stop, _) in self.slots.items() if start <= coord < stop)


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

    __slots__ = ("spec", "head_blocks", "vector", "_params", "_stack")

    def __init__(self, spec: BlockNetSpec, head_blocks: tuple[int, ...], vector: np.ndarray):
        if vector.shape != (param_layout(spec, head_blocks).size,):
            raise ShapeError(f"vector of shape {vector.shape} does not fit the spec and heads")
        self.spec = spec
        self.head_blocks = head_blocks
        self.vector = vector
        self._params = None
        self._stack = None

    @property
    def params(self) -> ParamViews:
        views = self._params
        if views is None:
            views = self._params = ParamViews(self.vector, param_layout(self.spec, self.head_blocks))
        return views

    @property
    def stack(self) -> "ModelStack":
        """This model as a stack of one, the operand of the walk."""
        stack = self._stack
        if stack is None:
            stack = self._stack = ModelStack(self.spec, self.head_blocks, self.vector[None])
        return stack

    @property
    def final_head(self) -> int:
        return self.head_blocks[-1]

    def copy(self) -> "BlockNetModel":
        return BlockNetModel(self.spec, self.head_blocks, self.vector.copy())


def _stack_views(array: np.ndarray, layout: ParamLayout, bias_rows: bool) -> dict[str, np.ndarray]:
    """Per-key views over the K rows of a (K, size) array: weights
    (K, in, out); biases (K, 1, out) with `bias_rows`, else (K, out). One
    row gives the 2-D views of that row: weights (in, out), biases (out,)."""
    k = array.shape[0]
    if k == 1:
        return ParamViews(array[0], layout)
    views = {}
    for key, (start, stop, shape) in layout.slots.items():
        if len(shape) == 2:
            # Splits the unit-stride last axis, so always a view.
            views[key] = array[:, start:stop].reshape(k, *shape)
        elif bias_rows:
            views[key] = array[:, None, start:stop]
        else:
            views[key] = array[:, start:stop]
    return views


class ModelStack:
    """K models of one (spec, heads) as the rows of one (K, size) array, so
    that K clients take each training step as one walk.

    ``params`` maps each key to its view over all K rows, shaped for the
    walk: weights (K, in, out) and biases (K, 1, out), which broadcast over a
    client's batch rows. With a (K, size) ``grad`` buffer, ``grads`` maps
    each key to its view of it: weights (K, in, out), biases (K, out). A
    stack of one holds the 2-D views of its row instead: weights (in, out),
    biases (out,). The views are built once per stack.
    """

    __slots__ = ("spec", "head_blocks", "layout", "vector", "params", "grad", "grads")

    def __init__(
        self,
        spec: BlockNetSpec,
        head_blocks: tuple[int, ...],
        vector: np.ndarray,
        grad: np.ndarray | None = None,
    ):
        layout = param_layout(spec, head_blocks)
        if vector.ndim != 2 or vector.shape[1] != layout.size:
            raise ShapeError(f"stacked vectors of shape {vector.shape} do not fit the spec and heads")
        self.spec = spec
        self.head_blocks = head_blocks
        self.layout = layout
        self.vector = vector
        self.params = _stack_views(vector, layout, bias_rows=True)
        self.grad = grad
        self.grads = None if grad is None else _stack_views(grad, layout, bias_rows=False)

    @property
    def final_head(self) -> int:
        return self.head_blocks[-1]

    def models(self) -> list[BlockNetModel]:
        """One model per row, each wrapping its row of the stacked vectors."""
        return [BlockNetModel(self.spec, self.head_blocks, row) for row in self.vector]


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


def _run_forward(stack: ModelStack, batch: np.ndarray, heads: tuple[int, ...] | None = None) -> dict:
    """Forward pass of K stacked models, keeping every intermediate needed
    for backprop.

    `batch` is [K*n, d]: the K clients' n rows each, concatenated; at
    K >= 2 it is viewed as [K, n, d]. Computes the logits of `heads`
    (default: every attached head). The cache holds the input ("x"), the
    trunk activation after the stem and after each block ("h"), each
    block's post-ReLU output per linear ("acts"), and per computed head its
    neck output and logits; at K >= 2 all with the leading client axis.
    """
    k = stack.vector.shape[0]
    d = stack.spec.input_dim
    if batch.ndim != 2 or batch.shape[1] != d or batch.shape[0] % k:
        raise ShapeError(f"batch must be [K*n, {d}] for K = {k} stacked models, got {batch.shape}")
    x = batch if k == 1 else batch.reshape(k, -1, d)
    p = stack.params
    layout = stack.layout
    h = x @ p["stem.w"]
    h += p["stem.b"]
    trunk = [h]
    acts = []
    for linears in layout.blocks:
        a = h
        block_acts = []
        for w, b in linears:
            a = a @ p[w]
            a += p[b]
            np.maximum(a, 0.0, out=a)
            block_acts.append(a)
        h = a + h if layout.residual else a
        trunk.append(h)
        acts.append(block_acts)
    necks, logits = {}, {}
    for j in stack.head_blocks if heads is None else heads:
        neck_w, neck_b, fc_w, fc_b = layout.heads[j]
        neck = necks[j] = trunk[j] @ p[neck_w]
        neck += p[neck_b]
        z = logits[j] = neck @ p[fc_w]
        z += p[fc_b]
    return {"x": x, "h": trunk, "acts": acts, "neck": necks, "logits": logits}


def forward(model: BlockNetModel, batch: np.ndarray) -> ForwardResult:
    """Per-head logits plus the deepest head's neck output (the embedding)."""
    cache = _run_forward(model.stack, batch)
    return ForwardResult(logits=cache["logits"], embedding=cache["neck"][model.final_head])


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
        defaults to the deepest one. One row per batch row.
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


def _resolve_heads(stack: ModelStack, loss: LossSpec) -> tuple[int, ...]:
    if loss.ce_heads is None:
        return stack.head_blocks
    for j in loss.ce_heads:
        if j not in stack.head_blocks:
            raise ValueError(f"loss references head {j}, model has {stack.head_blocks}")
    return loss.ce_heads


def _soft_target_head(stack: ModelStack, loss: LossSpec) -> int:
    j = stack.final_head if loss.soft_target_head is None else loss.soft_target_head
    if j not in stack.head_blocks:
        raise ValueError(f"soft_target_head {j} not attached (heads {stack.head_blocks})")
    return j


def _loss_grads(
    stack: ModelStack,
    cache: dict,
    labels: np.ndarray | None,
    loss: LossSpec,
) -> tuple[dict[int, np.ndarray], np.ndarray | None]:
    """d(loss)/d(logits) per head and d(loss)/d(embedding); checks the
    labels and soft targets.

    Every term is a mean over each client's own n batch rows, so the
    learning rate does not depend on the batch size and the K clients'
    gradients do not mix.
    """
    k = stack.vector.shape[0]
    n = cache["x"].shape[-2]
    c = stack.spec.num_classes
    ce_heads = _resolve_heads(stack, loss)
    needs_labels = bool(ce_heads) or loss.proto_weight != 0.0
    if needs_labels:
        if labels is None:
            raise ValueError("this loss requires labels")
        labels = np.asarray(labels)
        if labels.shape != (k * n,):
            raise ShapeError(f"labels must be [{k * n}], got {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= c):
            raise ValueError(f"labels must lie in [0, {c})")
        rows = np.arange(k * n)

    dlogits: dict[int, np.ndarray] = {j: np.zeros_like(cache["logits"][j]) for j in stack.head_blocks}

    logps: dict[int, np.ndarray] = {}
    for j in ce_heads:
        logp, grad = _log_softmax_and_softmax(cache["logits"][j])
        logps[j] = logp
        grad.reshape(-1, c)[rows, labels] -= 1.0
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
                kl = (ps[i] * diff).sum(axis=-1)
                dlogits[i] += lam / n * ps[i] * (diff - kl[..., None])

    demb: np.ndarray | None = None
    if loss.proto_weight != 0.0:
        if loss.proto_targets is None:
            raise ValueError("proto_weight set without proto_targets")
        emb = cache["neck"][stack.final_head]
        labels = labels.reshape(emb.shape[:-1])
        targets = loss.proto_targets[labels]
        mask = (
            np.ones(labels.shape)
            if loss.proto_mask is None
            else loss.proto_mask[labels].astype(float)
        )
        diff = emb - targets
        demb = loss.proto_weight * 2.0 / n * mask[..., None] * diff

    if loss.soft_targets is not None:
        j = _soft_target_head(stack, loss)
        t = loss.soft_targets
        if t.shape != (k * n, c):
            raise ShapeError(f"soft_targets must be {(k * n, c)}, got {t.shape}")
        z = cache["logits"][j]
        dlogits[j] += (softmax(z) - t.reshape(z.shape)) / n

    return dlogits, demb


def _loss_value(stack: ModelStack, cache: dict, labels: np.ndarray | None, loss: LossSpec) -> float:
    """The loss `_loss_grads` differentiates, for a stack of one: every
    term a mean over the batch rows. Expects inputs `_loss_grads` accepts."""
    ce_heads = _resolve_heads(stack, loss)
    labels = None if labels is None else np.asarray(labels)
    logps = {j: _log_softmax_and_softmax(cache["logits"][j])[0] for j in ce_heads}
    value = 0.0
    for j in ce_heads:
        value -= logps[j][np.arange(labels.size), labels].mean()
    if loss.distill_weight != 0.0 and len(ce_heads) > 1:
        ps = {j: np.exp(logps[j]) for j in ce_heads}
        for i in ce_heads:
            for j in ce_heads:
                if i != j:
                    value += loss.distill_weight * (ps[i] * (logps[i] - logps[j])).sum(axis=-1).mean()
    if loss.proto_weight != 0.0:
        diff = cache["neck"][stack.final_head] - loss.proto_targets[labels]
        sq = (diff * diff).sum(axis=-1)
        if loss.proto_mask is not None:
            sq = loss.proto_mask[labels] * sq
        value += loss.proto_weight * sq.mean()
    if loss.soft_targets is not None:
        logp = _log_softmax_and_softmax(cache["logits"][_soft_target_head(stack, loss)])[0]
        value -= (loss.soft_targets * logp).sum(axis=-1).mean()
    return float(value)


def _backward_walk(stack: ModelStack, batch: np.ndarray, labels: np.ndarray | None, loss: LossSpec) -> dict:
    """Every gradient entry of the K stacked models into `stack.grads`;
    returns the forward cache."""
    p = stack.params
    g = stack.grads
    layout = stack.layout
    cache = _run_forward(stack, batch)
    dlogits, demb = _loss_grads(stack, cache, labels, loss)

    trunk = cache["h"]
    # Gradient w.r.t. the trunk activation after block i; heads join it
    # where they attach.
    dh = np.zeros_like(trunk[-1])
    for i in range(len(layout.blocks), 0, -1):
        if i in layout.heads:
            neck_w, neck_b, fc_w, fc_b = layout.heads[i]
            dz = dlogits[i]
            np.matmul(cache["neck"][i].swapaxes(-1, -2), dz, out=g[fc_w])
            dz.sum(axis=-2, out=g[fc_b])
            dneck = dz @ p[fc_w].swapaxes(-1, -2)
            if demb is not None and i == stack.final_head:
                dneck = dneck + demb
            np.matmul(trunk[i].swapaxes(-1, -2), dneck, out=g[neck_w])
            dneck.sum(axis=-2, out=g[neck_b])
            dh = dh + dneck @ p[neck_w].swapaxes(-1, -2)
        d = dh
        acts = cache["acts"][i - 1]
        inputs = [trunk[i - 1], *acts[:-1]]
        for (w, b), x, a in zip(reversed(layout.blocks[i - 1]), reversed(inputs), reversed(acts)):
            dz = d * (a > 0)
            np.matmul(x.swapaxes(-1, -2), dz, out=g[w])
            dz.sum(axis=-2, out=g[b])
            d = dz @ p[w].swapaxes(-1, -2)
        dh = d + dh if layout.residual else d
    np.matmul(cache["x"].swapaxes(-1, -2), dh, out=g["stem.w"])
    dh.sum(axis=-2, out=g["stem.b"])
    return cache


def backward(
    model: BlockNetModel | ModelStack,
    batch: np.ndarray,
    labels: np.ndarray | None,
    loss: LossSpec,
    out: ParamViews | None = None,
) -> tuple[float, ParamViews] | tuple[None, dict[str, np.ndarray]]:
    """Exact gradient of the loss w.r.t. every parameter.

    For one model: `batch` is [n, d] and the result is (loss value,
    gradient views laid out like model.params), written into `out` when
    given (a `gradient_buffer` of the model) or into a new buffer.

    For a `ModelStack` of K: `batch` is [K*n, d], the K clients' rows
    concatenated, with labels [K*n] and soft targets [K*n, c]. The result is
    (None, the stack's `grads`), written into its `grad` buffer: a stack is
    `train_local`'s step, which reads only the gradients, so no loss value
    is computed. Each client's gradient is that of a call on that client
    alone.
    """
    if isinstance(model, ModelStack):
        _backward_walk(model, batch, labels, loss)
        return None, model.grads
    grads = gradient_buffer(model) if out is None else out
    stack = ModelStack(model.spec, model.head_blocks, model.vector[None], grads.vector[None])
    cache = _backward_walk(stack, batch, labels, loss)
    return _loss_value(stack, cache, labels, loss), grads


def gradient_buffer(model: BlockNetModel) -> ParamViews:
    """Uninitialised named views over one flat vector laid out like `model`."""
    return ParamViews(np.empty_like(model.vector), model.params.layout)


# ---------------------------------------------------------------------------
# optimization


def sgd_update(
    vector: np.ndarray,
    momentum: np.ndarray,
    grad: np.ndarray,
    config: SGDConfig,
    index=None,
) -> None:
    """One momentum-SGD step in place: buf <- m*buf + g, p <- p - lr*buf.

    `grad` covers the coordinates `vector[index]`: the whole vector when
    `index` is None, otherwise any numpy index of `vector` (a slice for a
    FeDepth segment, a flat index vector for a sub-model map, or their
    row-wise forms on stacked vectors). Coordinates outside `index` do not
    move.
    """
    where = slice(None) if index is None else index
    buf = config.momentum * momentum[where] + grad
    momentum[where] = buf
    vector[where] -= config.learning_rate * buf


class Move(NamedTuple):
    """What one lockstep training step moves for some rows of the stack.

    index: the coordinates of each row that move: all of them, a slice
        (a FeDepth segment; the step runs the whole model, the rest stays
        frozen), or a flat index vector (a FjORD nested width).
    nested: with an index vector, the (spec, heads) of the model those
        coordinates form; the step runs that model.
    members: the rows that take the step; a subset only with `nested`.
    """

    index: slice | np.ndarray = slice(None)
    nested: tuple[BlockNetSpec, tuple[int, ...]] | None = None
    members: slice | np.ndarray = slice(None)


_EVERY = (Move(),)


def train_local(
    models: BlockNetModel | Sequence[BlockNetModel],
    features: np.ndarray,
    labels: np.ndarray | None,
    config: SGDConfig,
    loss: LossSpec,
    rngs: np.random.Generator | Sequence[np.random.Generator],
    rows: Sequence[np.ndarray] | None = None,
    moves: Callable[[int], Sequence[Move]] | None = None,
) -> BlockNetModel | ModelStack:
    """Run `local_epochs` passes of minibatch momentum-SGD on K models of
    one (spec, heads) in lockstep; returns the trained copies.

    One model with one rng trains alone and comes back as a model; a
    sequence of K comes back as a `ModelStack`. Client k trains on rows
    `rows[k]` of `features` and `labels` (every row when `rows` is None);
    all K have the same row count, so at every step each client has a
    batch of the same length. Each client shuffles its rows once per pass
    with its own rng, exactly as it would alone; all shuffles are drawn up
    front. Soft targets in `loss` are indexed by row of `features`.
    `moves(pass_index)` names what each step moves (see `Move`); by default
    every coordinate of every client.
    """
    single = isinstance(models, BlockNetModel)
    if single:
        models, rngs = [models], [rngs]
    first = models[0]
    vectors = np.stack([m.vector for m in models])
    stack = ModelStack(first.spec, first.head_blocks, vectors, np.empty_like(vectors))
    momentum = np.zeros_like(vectors)
    n = features.shape[0] if rows is None else rows[0].size
    passes = config.local_epochs
    # order[k, pass] is client k's shuffled rows of `features` for that pass.
    order = np.array([[rng.permutation(n) for _ in range(passes)] for rng in rngs], dtype=np.intp)
    if rows is not None:
        order = np.stack(rows)[np.arange(len(rows))[:, None, None], order]
    nested_stacks: dict = {}
    for pass_index in range(passes):
        for start in range(0, n, config.batch_size):
            window = order[:, pass_index, start:start + config.batch_size]
            for move in _EVERY if moves is None else moves(pass_index):
                idx = window[move.members].ravel()
                batch = features.take(idx, axis=0)
                y = None if labels is None else labels.take(idx)
                step_loss = loss.slice_batch(idx)
                if move.nested is None:
                    backward(stack, batch, y, step_loss)
                    where = (slice(None), move.index)
                    sgd_update(stack.vector, momentum, stack.grad[where], config, where)
                    continue
                key = (move.nested, len(move.members))
                sub = nested_stacks.get(key)
                if sub is None:
                    shape = (len(move.members), move.index.size)
                    sub = nested_stacks[key] = ModelStack(*move.nested, np.empty(shape), np.empty(shape))
                np.take(stack.vector[move.members], move.index, axis=1, out=sub.vector)
                backward(sub, batch, y, step_loss)
                sgd_update(stack.vector, momentum, sub.grad, config, np.ix_(move.members, move.index))
    return stack.models()[0] if single else stack


def predict(model: BlockNetModel, features: np.ndarray) -> np.ndarray:
    """Argmax class of the deepest head; ties break toward the lower index.

    Only the trunk and the deepest head are computed.
    """
    logits = _run_forward(model.stack, features, (model.final_head,))["logits"][model.final_head]
    return logits.argmax(axis=1)
