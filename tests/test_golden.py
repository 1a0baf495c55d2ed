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

import json

from hetfed import nn, runner, strategies
from hetfed.resources import DEPTH_STRATEGIES, TOPOLOGY_STRATEGIES, WIDTH_STRATEGIES
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
