"""Synthetic datasets, CSV datasets, and client partitioning.

Desk-scale stand-ins for the usual image/text corpora: Gaussian blob
mixtures and spirals, partitioned IID or by a per-class Dirichlet draw
with exact largest-remainder rounding. `DataConfig` holds every `data.*`
rule and its `build` makes or reads each job's dataset.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

SYNTHETIC_KINDS = ("blobs", "spiral")
LAYOUTS = ("random", "lattice")
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
    mode: str = "iid"
    _: KW_ONLY
    num_clients: int
    alpha: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        # Each message names the config key; alpha is checked in either mode.
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"partition.mode: must be one of {PARTITION_MODES}, got {self.mode!r}")
        if self.num_clients < 1:
            raise ValueError(f"num_clients: must be >= 1, got {self.num_clients}")
        if self.alpha <= 0:
            raise ValueError(f"partition.alpha: must be > 0, got {self.alpha}")


def check_layout(layout: str) -> None:
    """`data.layout` is a known layout, for every source (csv ignores it)."""
    if layout not in LAYOUTS:
        raise ValueError(f"data.layout: must be 'random' or 'lattice', got {layout!r}")


def check_synthetic(
    kind: str, n: int, input_dim: int, num_classes: int, noise: float,
    clusters_per_class: int = 1, layout: str = "random",
) -> None:
    """Raise a ValueError naming the config key when `gen_synthetic` cannot
    make data from these `data.*` and `model.*` values."""
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"data.source: must be one of {SYNTHETIC_KINDS + ('csv',)}, got {kind!r}")
    if n < 1:
        raise ValueError(f"data.n: must be >= 1, got {n}")
    if input_dim < 1 or num_classes < 1:
        raise ValueError("model.input_dim and model.num_classes: must be >= 1")
    if noise < 0:
        raise ValueError(f"data.noise: must be >= 0, got {noise}")
    if clusters_per_class < 1:
        raise ValueError(f"data.clusters_per_class: must be >= 1, got {clusters_per_class}")
    check_layout(layout)
    if kind == "spiral" and input_dim < 2:
        raise ValueError(f"data.source: spiral needs model.input_dim >= 2, got {input_dim}")
    if kind == "blobs" and layout == "lattice" and 2**input_dim < num_classes * clusters_per_class:
        raise ValueError(
            f"data.layout: lattice needs model.input_dim >= log2(num_classes * clusters_per_class), got {input_dim}"
        )


def _lattice_centroids(count: int, input_dim: int) -> np.ndarray:
    """Hypercube-corner centroids in Gray-code order, classes interleaved.

    Consecutive corners differ in exactly one coordinate, so assigning them
    round-robin to classes produces maximally interleaved class regions
    whose boundaries reward model capacity rather than luck of placement.
    """
    bits = max(1, math.ceil(math.log2(count)))
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
    check_synthetic(kind, n, input_dim, num_classes, noise, clusters_per_class, layout)
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
            # m <= n, so while a client is empty the largest holds two or more.
            while not shares[j]:
                donor = max(range(m), key=lambda q: len(shares[q]))
                shares[j].append(shares[donor].pop())
    return [np.sort(np.asarray(s, dtype=int)) for s in shares]


def check_fractions(test_fraction: float, public_fraction: float) -> None:
    """The split fractions' ranges, which hold whatever the row count."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("data.test_fraction: must lie in (0, 1)")
    if not 0.0 <= public_fraction < 1.0:
        raise ValueError("data.public_fraction: must lie in [0, 1)")


def split_sizes(
    n: int, test_fraction: float, public_fraction: float, num_clients: int = 1, rows: str = "data.n: the data"
) -> tuple[int, int, int]:
    """The (test, public, train) row counts `split_global` makes of n rows.

    Raises a ValueError unless the fractions lie in range and the splits
    leave at least 1 test row and one train row per client. `rows` opens
    the size message: the key that sets n and what holds the rows.
    """
    check_fractions(test_fraction, public_fraction)
    n_test = int(round(test_fraction * n))
    n_public = int(round(public_fraction * n))
    n_train = n - n_test - n_public
    if n_test < 1 or n_train < num_clients:
        raise ValueError(
            f"{rows} has {n} rows, which split into {n_test} test, {n_public} public "
            f"and {n_train} train rows; at least 1 test row and {num_clients} train rows "
            "(one per client) are needed"
        )
    return n_test, n_public, n_train


def split_global(
    dataset: Dataset,
    test_fraction: float,
    public_fraction: float,
    seed: int,
) -> tuple[Dataset, Dataset, np.ndarray]:
    """(train pool, global test set, unlabeled public features).

    The public split's labels are dropped here so no strategy can see them.
    """
    n_test, n_public, _ = split_sizes(dataset.n, test_fraction, public_fraction)
    perm = np.random.default_rng(seed).permutation(dataset.n)
    test_idx = np.sort(perm[:n_test])
    public_idx = np.sort(perm[n_test : n_test + n_public])
    train_idx = np.sort(perm[n_test + n_public :])
    return dataset.subset(train_idx), dataset.subset(test_idx), dataset.features[public_idx].copy()


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


@dataclass(frozen=True, kw_only=True)
class DataConfig:
    """The `data.*` keys and the values their rules read. Every rule is checked
    at load but a csv's row rules, which `build` checks once it reads the file."""

    source: str = "blobs"
    path: str = ""
    n: int = 2000
    noise: float = 0.5
    clusters_per_class: int = 1
    layout: str = "random"
    test_fraction: float = 0.2
    public_fraction: float = 0.1
    # Given, not keys: `model.input_dim`, `model.num_classes`, `num_clients`,
    # and whether a listed strategy (fedet) distills on the public split.
    input_dim: int
    num_classes: int
    num_clients: int
    needs_public: bool

    def __post_init__(self) -> None:
        if self.source == "csv":
            if not self.path:
                raise ValueError("data.path: required when data.source = csv")
            check_layout(self.layout)
            check_fractions(self.test_fraction, self.public_fraction)
        else:
            check_synthetic(self.source, self.n, self.input_dim, self.num_classes, self.noise,
                            self.clusters_per_class, self.layout)
            self._check_rows(self.n, "data.n: the data")

    def _check_rows(self, n: int, rows: str) -> None:
        """`split_sizes`' rules for n rows, whose message `rows` opens, and fedet's public row."""
        n_public = split_sizes(n, self.test_fraction, self.public_fraction, self.num_clients, rows)[1]
        if self.needs_public and n_public < 1:
            raise ValueError(
                f"data.public_fraction: fedet needs at least 1 public row, but {self.public_fraction} of {n} rows is 0"
            )

    def build(self, seed: int) -> Dataset:
        """One job's dataset: generated from `seed`, or the csv, read and checked."""
        if self.source != "csv":
            return gen_synthetic(self.source, self.n, self.input_dim, self.num_classes, self.noise, seed,
                                 self.clusters_per_class, self.layout)
        try:
            dataset = load_csv(self.path)
        except ValueError as exc:
            raise ValueError(f"data.path: {exc}") from exc
        if dataset.input_dim != self.input_dim:
            raise ValueError(f"data.path: csv has {dataset.input_dim} features, model.input_dim is {self.input_dim}")
        if dataset.labels.max() >= self.num_classes:
            raise ValueError("data.path: csv labels exceed model.num_classes")
        self._check_rows(dataset.n, "data.path: csv")
        return dataset
