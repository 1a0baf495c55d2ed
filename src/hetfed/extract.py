"""Sub-model extraction and exact partial aggregation.

Width extraction slices selected channels out of every hidden dimension;
depth extraction keeps a block prefix plus the heads it is given. Both
take the sub-model's architecture as given: the pool decides it. Every
extraction returns a `SubModelMap`: per parameter, the source indices each
sub-model axis keeps, compiled once into one flat index vector that lists
the source coordinate of every sub-model coordinate. Extraction is a `take`
of the source vector, and scattering client updates (each its trained
model's views) back into global coordinates is exact bookkeeping rather
than heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .nn import BlockNetModel, BlockNetSpec, ParamLayout, ParamViews, param_layout

# One axis entry per array dimension; None means the full axis is kept.
AxisIndices = tuple[np.ndarray | None, ...]


@dataclass(frozen=True, eq=False)
class SubModelMap:
    """Global coordinates of every sub-model parameter.

    spec, head_set: the sub-model's architecture and retained heads.
    source: layout of the model the map was compiled against.
    index: read-only flat source coordinate of each sub-model coordinate,
        in the sub-model's own layout order; no coordinate repeats.
    """

    spec: BlockNetSpec
    head_set: tuple[int, ...]
    source: ParamLayout = field(repr=False)
    index: np.ndarray = field(repr=False)

    @property
    def layout(self) -> ParamLayout:
        return param_layout(self.spec, self.head_set)


def _compile(
    spec: BlockNetSpec,
    head_blocks: tuple[int, ...],
    sub_spec: BlockNetSpec,
    sub_heads: tuple[int, ...],
    entries: dict[str, AxisIndices],
) -> SubModelMap:
    """Flatten per-axis entries (param key -> the source indices each axis
    keeps, None = the whole axis) into one source index vector."""
    source = param_layout(spec, head_blocks)
    parts = []
    for key in param_layout(sub_spec, sub_heads).slots:
        start, stop, shape = source.slots[key]
        coords = np.arange(start, stop).reshape(shape)
        for axis, idx in enumerate(entries[key]):
            if idx is not None:
                coords = coords.take(idx, axis=axis)
        parts.append(coords.ravel())
    index = np.concatenate(parts)
    index.setflags(write=False)
    return SubModelMap(sub_spec, sub_heads, source, index)


def _take(model: BlockNetModel, smap: SubModelMap) -> BlockNetModel:
    return BlockNetModel(smap.spec, smap.head_set, model.vector.take(smap.index))


def select_channels(
    d: int,
    k: int,
    mode: str = "static_prefix",
    round_index: int = 0,
) -> np.ndarray:
    """The k of d channel indices a width sub-model keeps.

    static_prefix keeps {0..k-1} (nested across widths); rolling keeps the
    stride-1 window {(t+j) mod d} so every index is covered exactly k
    times over any d consecutive rounds.
    """
    if not 1 <= k <= d:
        raise ValueError(f"channel count must lie in 1..{d}, got {k}")
    if mode == "static_prefix":
        return np.arange(k)
    if mode == "rolling":
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        return np.sort((round_index + np.arange(k)) % d)
    raise ValueError(f"unknown channel selection mode {mode!r}")


@lru_cache(maxsize=1024)
def channel_map(spec: BlockNetSpec, head_blocks: tuple[int, ...], channels: tuple[int, ...]) -> SubModelMap:
    """The map of the sub-model that keeps the given hidden channels
    (ascending ints) of a model of this spec and heads; compiled, and the
    channels checked, once per (spec, heads, channel set)."""
    if spec.block_kind == "bottleneck":
        raise ValueError("width extraction is defined for plain/skip blocks only")
    kept = np.asarray(channels, dtype=int)
    d = spec.hidden_dim
    if kept.size < 1 or kept.size > d:
        raise ValueError("channel set must be non-empty and within the hidden width")
    if not (np.all(np.diff(kept) > 0) and kept[0] >= 0 and kept[-1] < d):
        raise ValueError("channels must be strictly increasing, unique and < hidden_dim")
    kept.setflags(write=False)
    layout = param_layout(spec, head_blocks)
    entries: dict[str, AxisIndices] = {"stem.w": (None, kept), "stem.b": (kept,)}
    for ((w, b),) in layout.blocks:  # one linear per plain/skip block
        entries[w] = (kept, kept)
        entries[b] = (kept,)
    for neck_w, neck_b, fc_w, fc_b in layout.heads.values():
        # proto_dim is never width-scaled, so only the neck's input shrinks.
        entries[neck_w] = (kept, None)
        entries[neck_b] = (None,)
        entries[fc_w] = (None, None)
        entries[fc_b] = (None,)
    return _compile(spec, head_blocks, replace(spec, hidden_dim=int(kept.size)), head_blocks, entries)


def extract_channels(model: BlockNetModel, channels: np.ndarray) -> tuple[BlockNetModel, SubModelMap]:
    """Slice the given hidden channels out of every layer.

    Defined for plain/skip blocks only; bottleneck factorizations have no
    layer-wise channel slicing. The map is `channel_map`'s.
    """
    smap = channel_map(model.spec, model.head_blocks, tuple(np.asarray(channels, dtype=int).tolist()))
    return _take(model, smap), smap


def extract_width(
    model: BlockNetModel,
    k: int,
    mode: str = "static_prefix",
    round_index: int = 0,
) -> tuple[BlockNetModel, SubModelMap]:
    """Width sub-model of k channels under the given channel selector."""
    channels = select_channels(model.spec.hidden_dim, k, mode, round_index)
    return extract_channels(model, channels)


@lru_cache(maxsize=1024)
def _depth_map(
    spec: BlockNetSpec, head_blocks: tuple[int, ...], depth_prefix: int, heads: tuple[int, ...]
) -> SubModelMap:
    if not 1 <= depth_prefix <= spec.num_blocks:
        raise ValueError(f"depth_prefix must lie in 1..{spec.num_blocks}, got {depth_prefix}")
    for j in heads:
        if j not in head_blocks or j > depth_prefix:
            raise ValueError(f"model has no head attached at block {j} within the first {depth_prefix} blocks")
    sub_spec = replace(spec, num_blocks=depth_prefix)
    shapes = param_layout(sub_spec, heads).slots
    entries = {key: (None,) * len(shape) for key, (_, _, shape) in shapes.items()}
    return _compile(spec, head_blocks, sub_spec, heads, entries)


def extract_depth(
    model: BlockNetModel,
    depth_prefix: int,
    heads: tuple[int, ...],
) -> tuple[BlockNetModel, SubModelMap]:
    """Block-prefix sub-model that keeps exactly the given heads, each of
    which the model must carry within the prefix."""
    smap = _depth_map(model.spec, model.head_blocks, int(depth_prefix), tuple(heads))
    return _take(model, smap), smap


def full_map(model: BlockNetModel) -> SubModelMap:
    """Identity map covering every parameter of the model."""
    return _depth_map(model.spec, model.head_blocks, model.spec.num_blocks, model.head_blocks)


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class Accumulator:
    """Per-coordinate weighted sums and weights for one aggregation round,
    flat in the layout of the model being aggregated."""

    layout: ParamLayout
    sums: np.ndarray
    weights: np.ndarray


def new_accumulator(reference: BlockNetModel) -> Accumulator:
    layout = param_layout(reference.spec, reference.head_blocks)
    return Accumulator(layout, np.zeros(layout.size), np.zeros(layout.size))


def scatter_update(
    acc: Accumulator,
    sub_params: ParamViews,
    smap: SubModelMap,
    weight: float = 1.0,
) -> None:
    """Add one client's trained sub-model, given as its views
    (`model.params`, laid out like the map's sub-model), into the mapped
    global coordinates.

    Each touched coordinate receives weight * value and its weight counter
    grows by weight (weight is the client's sample count under
    sample-weighted averaging, 1.0 under uniform averaging).

    `sums[index] += x` is buffered: it gathers `sums[index]`, adds `x`,
    and writes the result back, so a coordinate listed twice would keep
    only its last addition. No coordinate repeats within one map, so here
    it equals the unbuffered `np.add.at(sums, index, x)`. Clients add in
    call order, as the per-parameter loop did, so every coordinate's sum
    is formed in the same order.
    """
    if weight <= 0:
        raise ValueError("scatter weight must be positive")
    if smap.source is not acc.layout and smap.source.slots != acc.layout.slots:
        raise ValueError("the map was compiled for a different model than the accumulator")
    if sub_params.layout is not smap.layout and sub_params.layout.slots != smap.layout.slots:
        raise ValueError("the sub-model parameters are not laid out like the map's sub-model")
    acc.sums[smap.index] += weight * sub_params.vector
    acc.weights[smap.index] += weight


def normalize(acc: Accumulator, previous: BlockNetModel) -> BlockNetModel:
    """Weighted mean per coordinate; untouched coordinates keep the previous value."""
    touched = acc.weights > 0
    vector = np.where(touched, acc.sums / np.where(touched, acc.weights, 1.0), previous.vector)
    return BlockNetModel(previous.spec, previous.head_blocks, vector)
