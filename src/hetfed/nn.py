"""Block-structured dense networks with exact analytic gradients.

Everything is float64 numpy so analytic gradients can be checked against
finite differences to tight tolerances.

The cached `param_layout` of a (spec, heads) is the one description of the
network. A stem linear feeds ``num_blocks`` blocks; a block is a chain of
linear+ReLU steps (one for plain and skip, two for bottleneck), and a skip
block adds its input to its output. Each head is a neck linear and a
classifier linear on the trunk output after the block it hangs off; the
deepest head hangs off the last block, so every block feeds a head. The
forward and backward passes walk the whole layout, and the cost-model
counts (`parameter_count`, `mac_count`, `activation_count`) and FeDepth's
`segment_slice` read it.

A model is a spec, its heads and one contiguous float64 ``vector`` holding
every parameter. ``model.params`` is a read-only mapping of named views into
that vector in layout order, built on each access and cached nowhere:
writing into a view writes the vector, and rebinding a name raises. Weight
matrices use the ``x @ w + b`` layout (rows = inputs, columns = outputs).

Parameter keys, in layout order:
    stem.w, stem.b
    block{i}.w, block{i}.b                      (plain / skip, i = 1..num_blocks)
    block{i}.w1, block{i}.b1, block{i}.w2, block{i}.b2   (bottleneck)
    head{j}.neck.w, head{j}.neck.b, head{j}.fc.w, head{j}.fc.b
where ``j`` is the 1-based block index the head hangs off. Each head owns
its own neck copy so every head sees a proto_dim-wide input regardless of
where it attaches.

The forward, loss and backward walk runs on a `ModelStack`: K models of
one (spec, heads) as the rows of one (K, size) array, with a gradient
buffer of the same shape. The stack's rank picks the matmul once: at
K >= 2 every operand has a leading client axis and the walk calls
`np.matmul`; a stack of one runs on plain 2-D operands
and calls `ndarray.dot` (`np.dot` without its dispatch), which costs less
per call. The walk is written once for both ranks (`swapaxes(-1, -2)`,
`np.add.reduce(..., -2)` into views cached once per stack with each
weight's transposed view, per-client means over `reshape(k, n)`).
A stacked batch is the K clients' rows concatenated, [K*n, d], with one
target per row: a label, [K*n], or a class distribution, [K*n, c]. At
K >= 2 the walk views the batch as [K, n, d], and it takes every loss mean
over each client's own n rows. A single model runs as a stack of one, so
`forward` and `predict` run 2-D.
One forward walk (`_run_forward`) serves `backward`, `forward` and
`predict`: it walks every block and computes every head where it
attaches, writing the heads' logits as the rows of one array. It keeps
the activations `backward` reads only for `backward`; a scoring walk
holds the live trunk activation, the logits and the deepest neck output,
so scoring many rows does not grow and shrink the heap. The loss runs
once over all heads' logits: one softmax pass, with the class maximum
reduced over a class-major copy (the values of the last-axis reduction),
and DepthFL's pair index built once per head count.
Stacked `np.matmul`, 2-D `ndarray.dot` and the axis reductions give the same
bits on each client, so a client's result does not depend on what it is
stacked with.
The forward adds biases and applies each ReLU in place and caches one
activation per linear, its output after the ReLU. The backward mask is
``sign(a)`` of that activation: 1.0 where the pre-activation z > 0, else
0.0, the same bits as a multiply by ``z > 0`` for finite z. At a NaN z
the mask is NaN, so the NaN reaches the gradient (as it does through the
logits) and training ends in non-finite parameters.

Training is minibatch momentum-SGD on the flat vectors; `sgd_update` is the
only place the update is written. A stack is the one operand of
`backward`. `train_local` takes K models and returns the K trained models:
it trains them as one stack (one alone is a stack of one) in lockstep,
each with its own rows, batch shuffles and rng, and a per-pass plan can
restrict each step to part of each vector.
`backward` computes the gradients only; nothing in the engine reads a loss
value. One model's gradient and loss value live in `tests/oracles.py`.

A sub-model of fewer hidden channels trains inside a wider layout when
zero-padded: zero weights and biases off its channels keep the trunk at 0
there, the ReLU mask ``sign(0)`` is 0 so their gradient is 0, and each of
its dot products only gains ``0 * 0`` terms; so rows of different widths
share one walk. BLAS matrix products of two or more rows and columns keep
every bit with those terms (`TestZeroPadding` pins it). A one-row batch or
a one-channel sub-model takes the matrix-vector kernel, whose blocking
follows the length of the sum, and matches its own walk to rounding only.

Stacks are reused, not rebuilt per call. The module keeps one workspace
per (spec, heads) and role: (K, size) vector and grad buffers, plus
momentum for training, grown to the largest K asked for, and one
`ModelStack` per K over their first K rows; a stack builds its views in
its constructor, so each is built once. `train_local` copies its K
starting vectors into the training workspace, zeroes the momentum, trains
those rows in place and returns one model per row of a single copy of
them, so no returned model aliases a workspace. The other role, the walk
workspace, is written just before each walk reads it and keeps nothing
between calls: a masked step walks a copy of the training rows there,
zeros outside the mask, so it never writes the rows being trained, and
`forward` and `predict` copy the model's vector into its stack of one. At
most `_MAX_WORKSPACES` are kept, the oldest dropped first. The workspaces
are shared by the whole process: the engine is not thread-safe, and a
`moves` plan must not call the engine.

`predict` scores one head and remembers one walk per model; this is the
engine's one evaluation memo. One walk computes every head of the model.
When the model's vector and the features are both read-only, each head's
argmax is stored on the model with the features object; a later call on
that same object (by identity), for any head, returns it without a walk.
So the clients scored on different heads of one model share one walk. A
writable model is never memoized. The memo is safe because every model a
strategy keeps in its state is read-only, so it cannot change under its
stored predictions.
One finiteness check and one argmax cover every head; a head whose
logits are not all finite raises `DivergenceError` instead of an argmax,
and the other heads still score.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

BLOCK_KINDS = ("plain", "skip", "bottleneck")


class ShapeError(ValueError):
    """A batch or gradient does not match the model's shapes."""


class DivergenceError(ArithmeticError):
    """Training or scoring produced a non-finite parameter or logit."""


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
    if head_blocks[0] < 1 or head_blocks[-1] != spec.num_blocks:
        raise ValueError(f"heads {head_blocks} must lie in 1..{spec.num_blocks}, the deepest on the last block")
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
    operation; training code works on private copies. ``params`` builds
    its named views of the vector on each access; a caller that reads them
    more than once keeps the mapping. A model with a read-only vector
    cannot change, so `predict` may remember its per-head predictions
    (`_predicted`).
    """

    __slots__ = ("spec", "head_blocks", "vector", "_predicted")

    def __init__(self, spec: BlockNetSpec, head_blocks: tuple[int, ...], vector: np.ndarray):
        if vector.shape != (param_layout(spec, head_blocks).size,):
            raise ShapeError(f"vector of shape {vector.shape} does not fit the spec and heads")
        self.spec = spec
        self.head_blocks = head_blocks
        self.vector = vector
        self._predicted = None

    @property
    def params(self) -> ParamViews:
        return ParamViews(self.vector, param_layout(self.spec, self.head_blocks))

    @property
    def final_head(self) -> int:
        return self.head_blocks[-1]


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
    """K models of one (spec, heads) as the rows of one (K, size) array, with
    a (K, size) ``grad`` buffer: the operand of the forward and backward
    walk, so that K clients take each training step as one walk.

    ``params`` maps each key to its view over all K rows, shaped for the
    walk: weights (K, in, out) and biases (K, 1, out), which broadcast over a
    client's batch rows. ``grads`` maps each key to its view of ``grad``:
    weights (K, in, out), biases (K, out), and ``weights_t`` maps each weight
    key to the transposed view of its ``params`` entry, which the backward
    multiplies by. A stack of one holds the 2-D views of its row instead:
    weights (in, out), biases (out,). The constructor builds every view.
    ``matmul`` is the walk's product for this rank: `ndarray.dot` for a
    stack of one, `np.matmul` for K >= 2.
    """

    __slots__ = ("spec", "head_blocks", "layout", "vector", "params", "grad", "grads", "weights_t", "matmul")

    def __init__(self, spec: BlockNetSpec, head_blocks: tuple[int, ...], vector: np.ndarray, grad: np.ndarray):
        layout = param_layout(spec, head_blocks)
        if vector.ndim != 2 or vector.shape[1] != layout.size:
            raise ShapeError(f"stacked vectors of shape {vector.shape} do not fit the spec and heads")
        self.spec = spec
        self.head_blocks = head_blocks
        self.layout = layout
        self.vector = vector
        self.grad = grad
        self.matmul = np.ndarray.dot if vector.shape[0] == 1 else np.matmul
        self.params = params = _stack_views(vector, layout, bias_rows=True)
        self.grads = _stack_views(grad, layout, bias_rows=False)
        self.weights_t = {
            key: params[key].swapaxes(-1, -2) for key, (_, _, shape) in layout.slots.items() if len(shape) == 2
        }

    @property
    def final_head(self) -> int:
        return self.head_blocks[-1]


# The roles of a workspace (see the module docstring): the rows a
# `train_local` call trains, and the operand of one walk.
_TRAIN, _WALK = "train", "walk"
_MAX_WORKSPACES = 256


class _Workspace:
    """Reused buffers of one (spec, heads) and role: (K, size) vectors, grads
    and, for training, momentum, grown to the largest K asked for, with one
    `ModelStack` per K over their first K rows."""

    __slots__ = ("spec", "head_blocks", "vector", "grad", "momentum", "stacks")

    def __init__(self, spec: BlockNetSpec, head_blocks: tuple[int, ...], role: str):
        empty = np.empty((0, param_layout(spec, head_blocks).size))
        self.spec = spec
        self.head_blocks = head_blocks
        self.vector = self.grad = empty
        self.momentum = empty if role == _TRAIN else None
        self.stacks: dict[int, ModelStack] = {}

    def stack(self, k: int) -> ModelStack:
        """The stack over the first k rows; growing the buffers drops the
        stacks over the old ones (a caller's stack stays valid)."""
        stack = self.stacks.get(k)
        if stack is None:
            if k > self.vector.shape[0]:
                shape = (k, self.vector.shape[1])
                self.vector, self.grad = np.empty(shape), np.empty(shape)
                if self.momentum is not None:
                    self.momentum = np.empty(shape)
                self.stacks.clear()
            stack = self.stacks[k] = ModelStack(self.spec, self.head_blocks, self.vector[:k], self.grad[:k])
        return stack


_WORKSPACES: dict[tuple[BlockNetSpec, tuple[int, ...], str], _Workspace] = {}


def _workspace(spec: BlockNetSpec, head_blocks: tuple[int, ...], role: str) -> _Workspace:
    key = (spec, head_blocks, role)
    workspace = _WORKSPACES.get(key)
    if workspace is None:
        if len(_WORKSPACES) >= _MAX_WORKSPACES:
            del _WORKSPACES[next(iter(_WORKSPACES))]
        workspace = _WORKSPACES[key] = _Workspace(spec, head_blocks, role)
    return workspace


def _stack_of_one(model: BlockNetModel) -> ModelStack:
    """`model` copied into its layout's walk stack of one."""
    stack = _workspace(model.spec, model.head_blocks, _WALK).stack(1)
    stack.vector[0] = model.vector
    return stack


@dataclass(frozen=True)
class SGDConfig:
    learning_rate: float
    batch_size: int = 32
    local_epochs: int = 1
    momentum: float = 0.0

    def __post_init__(self) -> None:
        # Each message names the config key that sets the value.
        if self.learning_rate < 0:
            raise ValueError(f"sgd.learning_rate: must be >= 0, got {self.learning_rate}")
        for name in ("batch_size", "local_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"sgd.{name}: must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"sgd.momentum: must lie in [0, 1), got {self.momentum}")


def init_model(spec: BlockNetSpec, rng: np.random.Generator, head_blocks: tuple[int, ...]) -> BlockNetModel:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases.

    Draws happen in layout order, so one seed
    always yields bit-identical parameters.
    """
    layout = param_layout(spec, head_blocks)
    vector = np.zeros(layout.size)
    for start, stop, shape in layout.slots.values():
        if len(shape) == 2:
            bound = math.sqrt(6.0 / shape[0])
            vector[start:stop] = rng.uniform(-bound, bound, size=stop - start)
    return BlockNetModel(spec, head_blocks, vector)


def parameter_count(spec: BlockNetSpec, head_blocks: tuple[int, ...]) -> int:
    """Parameter count, biases included."""
    return param_layout(spec, head_blocks).size


def mac_count(spec: BlockNetSpec, head_blocks: tuple[int, ...]) -> int:
    """Multiply-accumulate count of one forward pass: one per weight-matrix
    entry (no bias adds)."""
    slots = param_layout(spec, head_blocks).slots.values()
    return sum(stop - start for start, stop, shape in slots if len(shape) == 2)


def activation_count(spec: BlockNetSpec, head_blocks: tuple[int, ...]) -> int:
    """Scalars of activation state held per sample during a training step:
    the input plus one per bias entry (every linear's output)."""
    slots = param_layout(spec, head_blocks).slots.values()
    return spec.input_dim + sum(stop - start for start, stop, shape in slots if len(shape) == 1)


# ---------------------------------------------------------------------------
# forward / losses / backward


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.maximum.reduce(z, -1, keepdims=True))
    e /= np.add.reduce(e, -1, keepdims=True)
    return e


@dataclass
class ForwardResult:
    logits: dict[int, np.ndarray]  # attach block -> [n, num_classes]
    embedding: np.ndarray          # neck output of the deepest head, [n, proto_dim]


def _run_forward(stack: ModelStack, batch: np.ndarray, keep: bool = True) -> dict:
    """Forward pass of K stacked models through every block, computing
    every attached head.

    `batch` is [K*n, d]: the K clients' n rows each, concatenated; at
    K >= 2 it is viewed as [K, n, d]. The cache holds the input ("x"), the
    heads' logits as the rows of one (H, [K,] n, c) array ("all_logits"; a
    model of one head holds its own logits, viewed with a new leading axis),
    each head's row of it by attach block ("logits"), and the deepest
    head's neck output ("neck"). With `keep`, for `backward`, it also holds
    every head's neck output, the trunk activation after the stem and
    after each block ("h"), and each block's post-ReLU output per linear
    ("acts"); without it the walk keeps only the live trunk activation.
    At K >= 2 every other array has the leading client axis.
    """
    k = stack.vector.shape[0]
    d = stack.spec.input_dim
    if batch.ndim != 2 or batch.shape[1] != d or batch.shape[0] % k:
        raise ShapeError(f"batch must be [K*n, {d}] for K = {k} stacked models, got {batch.shape}")
    x = batch if k == 1 else batch.reshape(k, -1, d)
    p = stack.params
    layout = stack.layout
    heads = layout.heads
    deepest = len(layout.blocks)
    mm = stack.matmul
    all_logits = None if len(heads) == 1 else np.empty((len(heads), *x.shape[:-1], stack.spec.num_classes))
    h = mm(x, p["stem.w"])
    h += p["stem.b"]
    trunk = [h] if keep else None
    acts = []
    necks, logits = {}, {}
    for i, block in enumerate(layout.blocks, 1):
        a = h
        block_acts = []
        for w, b in block:
            a = mm(a, p[w])
            a += p[b]
            np.maximum(a, 0.0, out=a)
            block_acts.append(a)
        # `backward` reads `a`, so only an inference walk adds into it.
        h = np.add(a, h, out=None if keep else a) if layout.residual else a
        if keep:
            trunk.append(h)
            acts.append(block_acts)
        if i in heads:
            neck_w, neck_b, fc_w, fc_b = heads[i]
            neck = mm(h, p[neck_w])
            neck += p[neck_b]
            out = None if all_logits is None else all_logits[len(logits)]
            z = logits[i] = mm(neck, p[fc_w], out=out)
            z += p[fc_b]
            if keep or i == deepest:
                necks[i] = neck
            del neck  # an inference walk frees each other head's neck here
    if all_logits is None:
        all_logits = z[None]
    return {"x": x, "h": trunk, "acts": acts, "neck": necks, "logits": logits, "all_logits": all_logits}


def forward(model: BlockNetModel, batch: np.ndarray) -> ForwardResult:
    """Per-head logits plus the deepest head's neck output (the embedding)."""
    cache = _run_forward(_stack_of_one(model), batch, keep=False)
    return ForwardResult(logits=cache["logits"], embedding=cache["neck"][model.final_head])


@dataclass(frozen=True)
class LossSpec:
    """The extra terms of the scalar loss `backward` differentiates. Every
    attached head always takes cross-entropy against the training targets.

    distill_weight: weight on the pairwise self-distillation term
        sum_{i != j} KL(softmax(z_i) || stopgrad(softmax(z_j))) over the
        attached heads.
    proto_weight / proto_targets / proto_mask: weight on the squared L2
        pull of the embedding toward per-class target vectors; classes with
        a False mask entry are skipped. The pull needs labels as targets.
    """

    distill_weight: float = 0.0
    proto_weight: float = 0.0
    proto_targets: np.ndarray | None = None
    proto_mask: np.ndarray | None = None


@lru_cache(maxsize=None)
def _other_heads(count: int) -> np.ndarray:
    """Row i lists every head index of `count` but i, ascending."""
    others = np.nonzero(~np.eye(count, dtype=bool))[1].reshape(count, -1)
    others.setflags(write=False)
    return others


def _loss_grads(
    stack: ModelStack, cache: dict, targets: np.ndarray, loss: LossSpec
) -> tuple[dict[int, np.ndarray], np.ndarray | None]:
    """d(loss)/d(logits) per head and d(loss)/d(embedding); checks the
    targets: int labels [K*n] or class distributions [K*n, c].

    Every term is a mean over each client's own n batch rows, so the
    learning rate does not depend on the batch size and the K clients'
    gradients do not mix.
    """
    k = stack.vector.shape[0]
    n = cache["x"].shape[-2]
    c = stack.spec.num_classes
    hard = targets.ndim == 1
    if targets.shape != ((k * n,) if hard else (k * n, c)):
        raise ShapeError(f"targets must be [{k * n}] labels or [{k * n}, {c}] distributions, "
                         f"got {targets.shape}")
    if hard and targets.size and (np.minimum.reduce(targets) < 0 or np.maximum.reduce(targets) >= c):
        raise ValueError(f"labels must lie in [0, {c})")

    heads = stack.head_blocks
    distill = loss.distill_weight != 0.0 and len(heads) > 1
    # Row h of `z` and of `grads` is head h: every head runs in one pass.
    z = cache["all_logits"]
    # The class maximum as one reduction over the rows of a class-major
    # copy: the values of `np.maximum.reduce(z, -1)`, which costs more per
    # row on a short class axis than the copy does.
    top = np.maximum.reduce(z.reshape(-1, c).T.copy(), 0).reshape(*z.shape[:-1], 1)
    shifted = z - top
    grads = np.exp(shifted)
    total = np.add.reduce(grads, -1, keepdims=True)
    # The log-probabilities, written over `shifted`.
    logp = np.subtract(shifted, np.log(total), out=shifted) if distill else None
    grads /= total
    if hard:
        # The flat position of each row's label in each head's gradient.
        grads.reshape(-1)[np.arange(0, grads.size, c).reshape(len(heads), -1) + targets] -= 1.0
    else:
        grads -= targets.reshape(grads.shape[1:])
    grads /= n

    if distill:
        # sum_{i != j} KL(p_i || stopgrad(p_j)) over every ordered pair at
        # once: row i of `others` lists every head but i, ascending, so
        # [i, s] pairs head i with its s-th other head. The gradient flows
        # into head i only, added in j order.
        others = _other_heads(len(heads))
        diff = logp[:, None] - logp[others]
        ps = np.exp(logp)[:, None]
        kl = np.add.reduce(ps * diff, -1, keepdims=True)
        terms = loss.distill_weight / n * ps * (diff - kl)
        for s in range(len(heads) - 1):
            grads += terms[:, s]

    demb: np.ndarray | None = None
    if loss.proto_weight != 0.0:
        if not hard:
            raise ValueError("the prototype pull needs labels as targets")
        if loss.proto_targets is None:
            raise ValueError("proto_weight set without proto_targets")
        emb = cache["neck"][stack.final_head]
        labels = targets.reshape(emb.shape[:-1])
        mask = np.ones(labels.shape) if loss.proto_mask is None else loss.proto_mask[labels].astype(float)
        diff = emb - loss.proto_targets[labels]
        demb = loss.proto_weight * 2.0 / n * mask[..., None] * diff

    return dict(zip(heads, grads)), demb


def backward(stack: ModelStack, batch: np.ndarray, targets: np.ndarray, loss: LossSpec) -> dict[str, np.ndarray]:
    """Exact gradient of the loss w.r.t. every parameter of K stacked
    models, written into the stack's `grad` buffer; returns `stack.grads`.

    `batch` is [K*n, d], the K clients' rows concatenated, with their
    targets: labels [K*n] or class distributions [K*n, c]. Each client's
    gradient is that of a stack of that client alone. No loss value is
    computed.
    """
    mm, wt, g = stack.matmul, stack.weights_t, stack.grads
    layout = stack.layout
    reduce = np.add.reduce
    cache = _run_forward(stack, batch)
    dlogits, demb = _loss_grads(stack, cache, targets, loss)

    trunk = cache["h"]
    # Gradient w.r.t. the trunk activation after block i; heads join it
    # where they attach. The last block carries a head, so the first block
    # walked sets it.
    dh = None
    for i in range(len(layout.blocks), 0, -1):
        if i in layout.heads:
            neck_w, neck_b, fc_w, fc_b = layout.heads[i]
            dz = dlogits[i]
            mm(cache["neck"][i].swapaxes(-1, -2), dz, out=g[fc_w])
            reduce(dz, -2, None, g[fc_b])
            dneck = mm(dz, wt[fc_w])
            if demb is not None and i == stack.final_head:
                dneck += demb
            mm(trunk[i].swapaxes(-1, -2), dneck, out=g[neck_w])
            reduce(dneck, -2, None, g[neck_b])
            dtrunk = mm(dneck, wt[neck_w])
            if dh is None:
                dh = dtrunk
            else:
                dh += dtrunk
        d = dh
        acts = cache["acts"][i - 1]
        inputs = [trunk[i - 1], *acts[:-1]]
        for (w, b), x, a in zip(reversed(layout.blocks[i - 1]), reversed(inputs), reversed(acts)):
            dz = d * np.sign(a)
            mm(x.swapaxes(-1, -2), dz, out=g[w])
            reduce(dz, -2, None, g[b])
            d = mm(dz, wt[w])
        dh = d + dh if layout.residual else d
    mm(cache["x"].swapaxes(-1, -2), dh, out=g["stem.w"])
    reduce(dh, -2, None, g["stem.b"])
    return g


# ---------------------------------------------------------------------------
# optimization


def sgd_update(
    vector: np.ndarray,
    momentum: np.ndarray,
    grad: np.ndarray,
    config: SGDConfig,
    index,
) -> None:
    """One momentum-SGD step in place: buf <- m*buf + g, p <- p - lr*buf.

    `grad` covers the coordinates `vector[index]`, for any numpy index of
    `vector`: on stacked vectors `(slice(None), run)` for a run of every
    row (all of it, or a FeDepth segment) or a boolean mask of the
    vectors' shape (FjORD's drawn widths). Coordinates outside `index` do
    not move.
    """
    buf = momentum[index]
    buf *= config.momentum
    buf += grad
    params = vector[index]
    params -= config.learning_rate * buf
    # A basic (slice) index gives views of momentum's memory, which the
    # steps above updated in place; a mask or index vector gives copies,
    # written back here. (A view's `base` is the array that owns the memory.)
    if buf.base is not (momentum if momentum.base is None else momentum.base):
        momentum[index] = buf
        vector[index] = params


def train_local(
    models: Sequence[BlockNetModel],
    features: np.ndarray,
    targets: np.ndarray,
    config: SGDConfig,
    loss: LossSpec,
    rngs: Sequence[np.random.Generator],
    rows: Sequence[np.ndarray] | None = None,
    moves: Callable[[int, int], Sequence[slice | np.ndarray]] | None = None,
) -> list[BlockNetModel]:
    """Run `local_epochs` passes of minibatch momentum-SGD on K models of
    one (spec, heads) in lockstep, one rng each; returns the K trained
    models, in input order.

    `targets` holds one label or one class distribution per row of
    `features` (see `backward`). Client k trains on rows `rows[k]` of both
    (every row when `rows` is None); all K have the same row count, so at
    every step each client has a batch of the same length. Each client
    shuffles its rows once per pass with its own rng, exactly as it would
    alone; all shuffles are drawn up front. A count of rngs or row sets
    other than K, a model of another spec or heads, or row sets of
    different sizes raise `ValueError`.

    `moves(pass_index, steps)` is called once at the start of each pass,
    with the number of steps the pass takes, ceil(rows / batch_size), and
    returns the pass's plan: one index per step, in step order (a plan of
    another length raises `ValueError`), each one walk through `backward`.
    A slice moves that run of every row, and the walk reads the whole rows
    (a FeDepth segment); a (K, size) boolean mask moves the masked
    coordinates, and the walk reads the rows zeroed outside it (FjORD's
    drawn widths). By default every step moves every coordinate.

    The K rows train in place in the layout's training workspace (see the
    module docstring); the returned models are the rows of one copy of them.
    """
    first = models[0]
    k = len(models)
    for name, given in (("rngs", rngs), ("row sets", rows)):
        if given is not None and len(given) != k:
            raise ValueError(f"{len(given)} {name} for {k} models: each model needs one")
    for i, model in enumerate(models):
        if model is not first and (model.spec != first.spec or model.head_blocks != first.head_blocks):
            raise ValueError(f"model {i} is not of model 0's spec and heads: one stack holds one architecture")
    if rows is not None and len({r.size for r in rows}) > 1:
        raise ValueError(f"row sets of sizes {[r.size for r in rows]}: lockstep clients need one row count")
    workspace = _workspace(first.spec, first.head_blocks, _TRAIN)
    stack = workspace.stack(k)
    stack.vector[...] = [m.vector for m in models]
    momentum = workspace.momentum[:k]
    momentum[...] = 0.0
    n = features.shape[0] if rows is None else rows[0].size
    passes = config.local_epochs
    starts = range(0, n, config.batch_size)
    # order[k, pass] is client k's shuffled rows of `features` for that pass.
    order = np.array([[rng.permutation(n) for _ in range(passes)] for rng in rngs], dtype=np.intp)
    if rows is not None:
        order = np.array(rows)[np.arange(k)[:, None, None], order]
    for pass_index in range(passes):
        plan = [slice(None)] * len(starts) if moves is None else moves(pass_index, len(starts))
        if len(plan) != len(starts):
            raise ValueError(
                f"moves({pass_index}) planned {len(plan)} steps; the pass takes {len(starts)}"
            )
        for start, index in zip(starts, plan):
            idx = order[:, pass_index, start:start + config.batch_size].ravel()
            batch = features.take(idx, axis=0)
            y = targets.take(idx, axis=0)
            if isinstance(index, slice):
                backward(stack, batch, y, loss)
                where = (slice(None), index)
                sgd_update(stack.vector, momentum, stack.grad[where], config, where)
                continue
            # A copy, not a multiply by the mask: 0 * NaN and 0 * -x would
            # leak NaN and -0 into the walk.
            walk = _workspace(first.spec, first.head_blocks, _WALK).stack(k)
            walk.vector[...] = 0.0
            np.copyto(walk.vector, stack.vector, where=index)
            backward(walk, batch, y, loss)
            sgd_update(stack.vector, momentum, walk.grad[index], config, index)
    return [BlockNetModel(first.spec, first.head_blocks, row) for row in stack.vector.copy()]


def predict(model: BlockNetModel, features: np.ndarray, head: int | None = None) -> np.ndarray:
    """Argmax class of one attached head (default: the deepest); ties break
    toward the lower index. Logits that are not all finite raise
    `DivergenceError` naming the head: a NaN row would argmax to class 0.

    One walk computes every head of the model; every returned array is
    read-only. When the model's vector and `features` are both read-only,
    each head's result is remembered on the model: a later call with the
    same `features` object, for any head, returns it without a walk.
    Callers that score a prediction (`metrics.model_accuracy`) compare it
    afresh on each call; nothing else is remembered.
    """
    j = model.final_head if head is None else head
    if j not in model.head_blocks:
        raise ValueError(f"model has no head at block {j}; its heads are {model.head_blocks}")
    frozen = not (model.vector.flags.writeable or features.flags.writeable)
    memo = model._predicted
    if frozen and memo is not None and memo[0] is features:
        labels = memo[1][j]
    else:
        z = _run_forward(_stack_of_one(model), features, keep=False)["all_logits"]
        # One check and one argmax over every head; a head with a logit
        # that is not finite gets None.
        finite = np.isfinite(z).all(axis=(1, 2))
        labels = z.argmax(axis=-1)
        labels.setflags(write=False)
        found = {i: labels[h] if finite[h] else None for h, i in enumerate(model.head_blocks)}
        if frozen:
            model._predicted = (features, found)
        labels = found[j]
    if labels is None:
        raise DivergenceError(f"logits of head {j} are not finite")
    return labels
