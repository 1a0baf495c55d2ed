"""Synthetic datasets, CSV datasets, and client partitioning.

Desk-scale stand-ins for the usual image/text corpora: Gaussian blob
mixtures and spirals, partitioned IID or by a per-class Dirichlet draw
with exact largest-remainder rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SYNTHETIC_KINDS = ("blobs", "spiral")
PARTITION_MODES = ("iid", "dirichlet")


@dataclass
class Dataset:
    features: np.ndarray  # [n, input_dim] float64
    labels: np.ndarray    # [n] int64 in [0, num_classes)

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be [n, d] and labels [n]")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on n")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class PartitionConfig:
    mode: str
    num_clients: int
    alpha: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"partition mode must be one of {PARTITION_MODES}")
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.mode == "dirichlet" and self.alpha <= 0:
            raise ValueError("alpha must be > 0")


def _lattice_centroids(count: int, input_dim: int) -> np.ndarray:
    """Hypercube-corner centroids in Gray-code order, classes interleaved.

    Consecutive corners differ in exactly one coordinate, so assigning them
    round-robin to classes produces maximally interleaved class regions
    whose boundaries reward model capacity rather than luck of placement.
    """
    bits = max(1, math.ceil(math.log2(count)))
    if bits > input_dim:
        raise ValueError(
            f"lattice layout needs input_dim >= log2(classes * clusters) = {bits}"
        )
    corners = np.zeros((count, input_dim))
    for i in range(count):
        gray = i ^ (i >> 1)
        for b in range(bits):
            corners[i, b] = 1.0 if (gray >> b) & 1 else -1.0
    return 1.5 * corners


def gen_synthetic(
    kind: str,
    n: int,
    input_dim: int,
    num_classes: int,
    noise: float,
    seed: int,
    clusters_per_class: int = 1,
    layout: str = "random",
) -> Dataset:
    """Deterministic synthetic dataset; labels are round-robin balanced.

    blobs: each class is a mixture of `clusters_per_class` Gaussian
    clusters. Cluster centroids are seeded-random by default; the
    `lattice` layout interleaves them on hypercube corners instead, which
    makes the class boundaries capacity-hungry and seed-independent.
    spiral: interleaved arms in the first two feature dimensions,
    remaining dimensions pure noise. Features are standardized per
    dimension so activation scales stay comparable across every
    architecture trained on them.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"kind must be one of {SYNTHETIC_KINDS}")
    if layout not in ("random", "lattice"):
        raise ValueError("layout must be 'random' or 'lattice'")
    if n < 1 or input_dim < 1 or num_classes < 1:
        raise ValueError("n, input_dim and num_classes must be >= 1")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    if clusters_per_class < 1:
        raise ValueError("clusters_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    labels = idx % num_classes
    if kind == "blobs":
        count = num_classes * clusters_per_class
        if layout == "lattice":
            ordered = _lattice_centroids(count, input_dim)
            # corner i belongs to class i % num_classes; regroup per class
            centroids = np.zeros_like(ordered)
            for i in range(count):
                cls, cluster = i % num_classes, i // num_classes
                centroids[cls * clusters_per_class + cluster] = ordered[i]
        else:
            centroids = 1.5 * rng.normal(size=(count, input_dim))
        cluster = (idx // num_classes) % clusters_per_class
        features = centroids[labels * clusters_per_class + cluster]
        features = features + noise * rng.normal(size=(n, input_dim))
    else:
        if input_dim < 2:
            raise ValueError("spiral needs input_dim >= 2")
        within = (idx // num_classes).astype(float)
        counts = np.maximum(1, np.bincount(labels, minlength=num_classes))
        s = within / counts[labels]
        radius = 0.5 + 2.0 * s
        theta = 2.0 * np.pi * (labels / num_classes + 0.75 * s)
        theta = theta + noise * 0.15 * rng.normal(size=n)
        features = noise * 0.3 * rng.normal(size=(n, input_dim))
        features[:, 0] = radius * np.cos(theta)
        features[:, 1] = radius * np.sin(theta)
    center = features.mean(axis=0)
    spread = np.maximum(features.std(axis=0), 1e-12)
    return Dataset((features - center) / spread, labels.astype(np.int64))


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing exactly to total; ties go to the lower index."""
    raw = proportions * total
    base = np.floor(raw).astype(int)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    return base


def partition(dataset: Dataset, cfg: PartitionConfig) -> list[np.ndarray]:
    """Disjoint per-client index lists covering the whole dataset.

    dirichlet mode draws per-class client proportions from Dir(alpha * 1)
    and rounds them by largest remainder, so the index multiset is
    preserved exactly; every client ends up with at least one sample.
    """
    n = dataset.n
    m = cfg.num_clients
    if m > n:
        raise ValueError(f"cannot split {n} samples across {m} clients")
    rng = np.random.default_rng(cfg.seed)
    shares: list[list[int]] = [[] for _ in range(m)]
    if cfg.mode == "iid":
        order = rng.permutation(n)
        base, extra = divmod(n, m)
        start = 0
        for j in range(m):
            size = base + (1 if j < extra else 0)
            shares[j] = list(order[start : start + size])
            start += size
    else:
        for cls in np.unique(dataset.labels):
            cls_idx = np.flatnonzero(dataset.labels == cls)
            cls_idx = rng.permutation(cls_idx)
            props = rng.dirichlet(np.full(m, cfg.alpha))
            counts = _largest_remainder(props, cls_idx.size)
            start = 0
            for j in range(m):
                shares[j].extend(cls_idx[start : start + counts[j]])
                start += counts[j]
        # No client may end up empty; steal single samples from the largest.
        for j in range(m):
            while not shares[j]:
                donor = max(range(m), key=lambda q: len(shares[q]))
                if len(shares[donor]) <= 1:
                    raise ValueError("not enough samples to give every client one")
                shares[j].append(shares[donor].pop())
    return [np.sort(np.asarray(s, dtype=int)) for s in shares]


def split_global(
    dataset: Dataset,
    test_fraction: float,
    public_fraction: float,
    seed: int,
) -> tuple[Dataset, Dataset, np.ndarray]:
    """(train pool, global test set, unlabeled public features).

    The public split's labels are dropped here so no strategy can see them.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    if not 0.0 <= public_fraction < 1.0:
        raise ValueError("public_fraction must lie in [0, 1)")
    n = dataset.n
    n_test = int(round(test_fraction * n))
    n_public = int(round(public_fraction * n))
    if n_test < 1 or n - n_test - n_public < 1:
        raise ValueError("split fractions leave an empty train or test set")
    perm = np.random.default_rng(seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    public_idx = np.sort(perm[n_test : n_test + n_public])
    train_idx = np.sort(perm[n_test + n_public :])
    return dataset.subset(train_idx), dataset.subset(test_idx), dataset.features[public_idx].copy()


def class_histogram(labels: np.ndarray, num_classes: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=num_classes).astype(float)
    return counts / max(1.0, counts.sum())


def label_divergence(client_labels: np.ndarray, global_hist: np.ndarray) -> float:
    """KL(client || global) over label histograms, with empty-class guard."""
    hist = class_histogram(client_labels, global_hist.size)
    mask = hist > 0
    return float(np.sum(hist[mask] * np.log(hist[mask] / np.maximum(global_hist[mask], 1e-12))))


# ---------------------------------------------------------------------------
# CSV datasets: header f0,...,f{d-1},label


def load_csv(path: str) -> Dataset:
    """Parse the CSV dataset format, naming the offending line on errors.

    Blank lines are skipped but still counted, so a reported line number
    is the line's number in the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, line.rstrip("\n")) for i, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = lines[0][1].split(",")
    if header[-1] != "label" or len(header) < 2:
        raise ValueError(f"{path}: header must be f0,...,f{{d-1}},label")
    d = len(header) - 1
    features = np.zeros((len(lines) - 1, d))
    labels = np.zeros(len(lines) - 1, dtype=np.int64)
    for row, (i, line) in enumerate(lines[1:]):
        cols = line.split(",")
        if len(cols) != d + 1:
            raise ValueError(f"{path}: line {i}: expected {d + 1} columns, got {len(cols)}")
        try:
            values = [float(c) for c in cols[:-1]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: bad feature value ({exc})") from exc
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}: line {i}: non-finite feature")
        features[row] = values
        try:
            labels[row] = int(cols[-1])
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: label must be an integer") from exc
        if labels[row] < 0:
            raise ValueError(f"{path}: line {i}: label must be >= 0")
    if features.shape[0] < 1:
        raise ValueError(f"{path}: no data rows")
    return Dataset(features, labels)
