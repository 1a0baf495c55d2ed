"""Sub-model extraction and exact partial aggregation.

Width extraction slices selected channels out of every hidden dimension;
depth extraction keeps a block prefix plus the heads that survive. Every
extraction returns a `SubModelMap` recording, per parameter, which global
indices each sub-model axis maps to, so scattering client updates back
into global coordinates is exact bookkeeping rather than heuristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .nn import BlockNetModel, block_keys, head_keys

# One axis entry per array dimension; None means the full axis is kept.
AxisIndices = tuple[np.ndarray | None, ...]


@dataclass
class SubModelMap:
    """Global coordinates of every sub-model parameter.

    entries: param key -> per-axis kept index arrays (None = whole axis).
    depth_prefix: number of retained blocks.
    head_set: attach indices of retained heads.
    """

    entries: dict[str, AxisIndices]
    depth_prefix: int
    head_set: tuple[int, ...]


def region_for(shape: tuple[int, ...], axes: AxisIndices):
    """Fancy indexer selecting the mapped region of a global-shaped array."""
    arrays = [np.arange(size) if idx is None else idx for size, idx in zip(shape, axes)]
    return np.ix_(*arrays)


def width_channels(d: int, rate: float) -> int:
    """Channels kept at a width rate: ceil(rate * d), always >= 1."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"width rate must lie in (0, 1], got {rate}")
    if d < 1:
        raise ValueError("d must be >= 1")
    return math.ceil(rate * d)


def select_channels(
    d: int,
    rate: float,
    mode: str = "static_prefix",
    round_index: int = 0,
) -> np.ndarray:
    """Channel indices kept at this rate.

    static_prefix keeps {0..k-1} (nested across rates); rolling keeps the
    stride-1 window {(t+j) mod d} so every index is covered exactly k
    times over any d consecutive rounds.
    """
    k = width_channels(d, rate)
    if mode == "static_prefix":
        return np.arange(k)
    if mode == "rolling":
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        return np.sort((round_index + np.arange(k)) % d)
    raise ValueError(f"unknown channel selection mode {mode!r}")


def _width_entries(model: BlockNetModel, channels: np.ndarray) -> dict[str, AxisIndices]:
    entries: dict[str, AxisIndices] = {
        "stem.w": (None, channels),
        "stem.b": (channels,),
    }
    for i in range(1, model.spec.num_blocks + 1):
        entries[f"block{i}.w"] = (channels, channels)
        entries[f"block{i}.b"] = (channels,)
    for j in model.head_blocks:
        # proto_dim is never width-scaled, so only the neck's input shrinks.
        entries[f"head{j}.neck.w"] = (channels, None)
        entries[f"head{j}.neck.b"] = (None,)
        entries[f"head{j}.fc.w"] = (None, None)
        entries[f"head{j}.fc.b"] = (None,)
    return entries


def extract_channels(model: BlockNetModel, channels: np.ndarray) -> tuple[BlockNetModel, SubModelMap]:
    """Slice the given hidden channels out of every layer.

    Defined for plain/skip blocks only; bottleneck factorizations have no
    layer-wise channel slicing.
    """
    if model.spec.block_kind == "bottleneck":
        raise ValueError("width extraction is defined for plain/skip blocks only")
    channels = np.asarray(channels, dtype=int)
    d = model.spec.hidden_dim
    if channels.size < 1 or channels.size > d:
        raise ValueError("channel set must be non-empty and within the hidden width")
    if not (np.all(np.diff(channels) > 0) and channels[0] >= 0 and channels[-1] < d):
        raise ValueError("channels must be strictly increasing, unique and < hidden_dim")
    sub_spec = replace(model.spec, hidden_dim=int(channels.size))
    entries = _width_entries(model, channels)
    sub_params = {
        key: model.params[key][region_for(model.params[key].shape, axes)]
        for key, axes in entries.items()
    }
    sub = BlockNetModel(sub_spec, model.head_blocks, sub_params)
    smap = SubModelMap(entries, depth_prefix=model.spec.num_blocks, head_set=model.head_blocks)
    return sub, smap


def extract_width(
    model: BlockNetModel,
    rate: float,
    mode: str = "static_prefix",
    round_index: int = 0,
) -> tuple[BlockNetModel, SubModelMap]:
    """Width sub-model at the given rate under the given channel selector."""
    channels = select_channels(model.spec.hidden_dim, rate, mode, round_index)
    return extract_channels(model, channels)


def extract_depth(
    model: BlockNetModel,
    depth_prefix: int,
    with_aux_heads: bool,
) -> tuple[BlockNetModel, SubModelMap]:
    """Block-prefix sub-model.

    with_aux_heads keeps every head attached within the prefix; otherwise
    the model must carry a head attached exactly at depth_prefix and only
    that head is kept.
    """
    spec = model.spec
    if not 1 <= depth_prefix <= spec.num_blocks:
        raise ValueError(f"depth_prefix must lie in 1..{spec.num_blocks}, got {depth_prefix}")
    if with_aux_heads:
        kept_heads = tuple(j for j in model.head_blocks if j <= depth_prefix)
        if not kept_heads:
            raise ValueError(f"no head attached within the first {depth_prefix} blocks")
    else:
        if depth_prefix not in model.head_blocks:
            raise ValueError(f"model has no head attached at block {depth_prefix}")
        kept_heads = (depth_prefix,)

    keys: list[str] = ["stem.w", "stem.b"]
    for i in range(1, depth_prefix + 1):
        keys.extend(block_keys(spec, i))
    for j in kept_heads:
        keys.extend(head_keys(j))

    sub_spec = replace(spec, num_blocks=depth_prefix)
    entries: dict[str, AxisIndices] = {
        key: tuple(None for _ in model.params[key].shape) for key in keys
    }
    sub_params = {key: model.params[key].copy() for key in keys}
    sub = BlockNetModel(sub_spec, kept_heads, sub_params)
    return sub, SubModelMap(entries, depth_prefix=depth_prefix, head_set=kept_heads)


def full_map(model: BlockNetModel) -> SubModelMap:
    """Identity map covering every parameter of the model."""
    entries = {key: tuple(None for _ in arr.shape) for key, arr in model.params.items()}
    return SubModelMap(entries, depth_prefix=model.spec.num_blocks, head_set=model.head_blocks)


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class Accumulator:
    """Per-coordinate weighted sums and weights for one aggregation round."""

    sums: dict[str, np.ndarray]
    weights: dict[str, np.ndarray]


def new_accumulator(reference: BlockNetModel) -> Accumulator:
    return Accumulator(
        sums={k: np.zeros_like(v) for k, v in reference.params.items()},
        weights={k: np.zeros_like(v) for k, v in reference.params.items()},
    )


def scatter_update(
    acc: Accumulator,
    sub_params: dict[str, np.ndarray],
    smap: SubModelMap,
    weight: float = 1.0,
) -> None:
    """Add one client's parameters into the mapped global coordinates.

    Each touched coordinate receives weight * value and its weight counter
    grows by weight (weight is the client's sample count under
    sample-weighted averaging, 1.0 under uniform averaging).
    """
    if weight <= 0:
        raise ValueError("scatter weight must be positive")
    if set(smap.entries) != set(sub_params):
        raise ValueError("sub-model parameters do not match the map")
    for key, axes in smap.entries.items():
        if key not in acc.sums:
            raise ValueError(f"map key {key!r} not present in the accumulator")
        target_shape = tuple(
            size if idx is None else idx.size
            for size, idx in zip(acc.sums[key].shape, axes)
        )
        if sub_params[key].shape != target_shape:
            raise ValueError(
                f"{key}: sub shape {sub_params[key].shape} does not match map region {target_shape}"
            )
        region = region_for(acc.sums[key].shape, axes)
        acc.sums[key][region] += weight * sub_params[key]
        acc.weights[key][region] += weight


def normalize(acc: Accumulator, previous: BlockNetModel) -> BlockNetModel:
    """Weighted mean per coordinate; untouched coordinates keep the previous value."""
    params: dict[str, np.ndarray] = {}
    for key, total in acc.sums.items():
        w = acc.weights[key]
        touched = w > 0
        params[key] = np.where(touched, total / np.where(touched, w, 1.0), previous.params[key])
    return BlockNetModel(previous.spec, previous.head_blocks, params)

