"""End-to-end output digests.

The configs in `tests/golden/` run all ten strategies through the CLI: one
compact binding config per level and one for both FedAvg baselines, two
repeats each, with per-client accuracy columns. `tests/golden/digests.json` holds
the sha256 of every file each run writes and of the `hetfed pool` and
`hetfed partition` output, so any change to assignment, sampling, training,
the clock, evaluation or the writers moves a digest. Like
`TestPinnedTrajectories`, the digests hold for one numpy build: a different
BLAS may change the bits.

A deliberate output change reruns `tests/golden/regenerate.py` and names
each moved file in CHANGES.md.
"""

import glob
import json
import os

from hetfed import nn, runner, strategies
from hetfed.config import load_config
from hetfed.resources import DEPTH_STRATEGIES, TOPOLOGY_STRATEGIES, WIDTH_STRATEGIES, width_channels
from hetfed.strategies import STRATEGY_CLASSES

from golden.regenerate import DIGESTS, golden_digests

# The strategies whose pool offers several variants; FeDepth has one, and
# its clients differ by segmentation instead.
HETEROGENEOUS = [sid for sid in WIDTH_STRATEGIES + DEPTH_STRATEGIES + TOPOLOGY_STRATEGIES if sid != "fedepth"]


def test_golden_outputs_are_unchanged(tmp_path, monkeypatch):
    for var in ("HETFED_SEED", "HETFED_OUT"):
        monkeypatch.delenv(var, raising=False)
    # Each strategy's first assignment is its repeat 0's.
    assigned: dict[str, set[str]] = {}
    segmentations = set()
    # One (job, memory capacity) entry per segmentation call.
    jobs, segment_calls = [], []
    real_assign, real_segments, real_job = runner.assign_models, strategies.fedepth_segments, runner.run_strategy_repeat

    def assign_models(pool, *args):
        variants = real_assign(pool, *args)
        assigned.setdefault(pool.strategy, {v.variant_id for v in variants})
        return variants

    def fedepth_segments(*args):
        segment_calls.append((len(jobs), args[3]))
        segments = real_segments(*args)
        segmentations.add(tuple(map(tuple, segments)))
        return segments

    def run_strategy_repeat(*args):
        jobs.append(args[1:])
        return real_job(*args)

    monkeypatch.setattr(runner, "assign_models", assign_models)
    monkeypatch.setattr(strategies, "fedepth_segments", fedepth_segments)
    monkeypatch.setattr(runner, "run_strategy_repeat", run_strategy_repeat)
    workspaces = {}
    monkeypatch.setattr(nn, "_WORKSPACES", workspaces)

    digests = golden_digests(str(tmp_path))
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    moved = sorted(name for name in expected.keys() | digests.keys() if expected.get(name) != digests.get(name))
    assert not moved, (
        f"{len(moved)} golden outputs moved: {', '.join(moved)}. If the change of output is deliberate, "
        "rerun tests/golden/regenerate.py and name each moved file in CHANGES.md."
    )
    assert sorted(assigned) == sorted(STRATEGY_CLASSES)
    few = {sid: sorted(assigned[sid]) for sid in HETEROGENEOUS if len(assigned[sid]) < 2}
    assert not few, f"strategies with one variant on repeat 0: {few}"
    assert len(segmentations) >= 2, f"fedepth clients share one segmentation: {segmentations}"
    # FeDepth decides each distinct capacity's segmentation once per job.
    assert segment_calls and len(set(segment_calls)) == len(segment_calls), segment_calls

    # One buffer set per (spec, heads, role), grown to the largest K seen,
    # under every stack of that workspace; only training keeps momentum.
    assert 0 < len(workspaces) < nn._MAX_WORKSPACES
    assert {role for _, _, role in workspaces} == {nn._TRAIN, nn._WALK}
    for (_, _, role), ws in workspaces.items():
        assert ws.vector.shape[0] == max(ws.stacks)
        assert (ws.momentum is not None and ws.momentum.shape == ws.vector.shape) == (role == nn._TRAIN)
        for stack in ws.stacks.values():
            assert stack.vector.base is ws.vector and stack.grad.base is ws.grad


def test_digested_width_jobs_have_no_one_row_step_or_one_channel_variant():
    # SHeteroFL, FedRolex and FjORD train a client's sub-model zero-padded
    # into the global layout, which gives the sub-model's own bits except at
    # a one-row step or a one-channel variant (README, output notes). The
    # golden and bench digests rely on neither occurring.
    # Each golden config is checked at its own master_seed; the bench writes
    # `master_seed = <seed>` after its workload, so a workload is checked at
    # the seeds whose digests are recorded.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = [(path, None) for path in sorted(glob.glob(os.path.join(root, "tests", "golden", "*.cfg")))]
    runs += [(path, seed) for path in sorted(glob.glob(os.path.join(root, "bench", "workloads", "*.cfg")))
             for seed in ("1", "7")]
    checked, inexact = 0, []
    for path, seed in runs:
        cfg = load_config(path, seed)
        for sid in (sid for sid in cfg.pools if sid in WIDTH_STRATEGIES):
            widths = {v.spec.hidden_dim for v in cfg.pools[sid].variants}
            if sid == "fjord" and cfg.fed.fjord_fixed_p is not None:
                widths.add(width_channels(cfg.model.hidden_dim, cfg.fed.fjord_fixed_p))
            if 1 in widths:
                inexact.append((path, seed, sid, "one-channel variant"))
            for repeat in range(cfg.repeats):
                parts = runner._repeat_data(cfg, repeat)[4]
                inexact += [(path, seed, sid, repeat, cid) for cid, rows in enumerate(parts)
                            if (rows.size - 1) % cfg.sgd.batch_size == 0]
            checked += 1
    assert checked >= 6 and not inexact, inexact
