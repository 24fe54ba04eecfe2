"""Writes the committed ``sync_engine_v1*.ckpt`` fixtures and their futures.

Run it with ``PYTHONPATH`` pointing at the ``src/`` of the commit whose
bytes are to be pinned; the committed files were written by commit 0ad968f
(the parent of the PR that made ``SyncEngine`` the D=1 case of
``DiffusionStack``), so ``tests/service/test_checkpoint.py`` checks format
compatibility against bytes on disk written by an *older* build rather
than against a round trip inside one build.  Regenerating them is a format
change, never part of a refactor.

Each ``.ckpt`` is a ``webwave-checkpoint/v1`` file of a small engine taken
mid-run; the matching ``.future.json`` holds what that older build computed
``FUTURE_ROUNDS`` rounds later (loads, forwarded rates, frontier, counters).
"""

from __future__ import annotations

import json
import pathlib
import random

from repro.core.kernel import EngineConfig, SyncEngine, degree_edge_alphas
from repro.core.tree import random_tree
from repro.service.checkpoint import write_checkpoint

HERE = pathlib.Path(__file__).parent
WARMUP_ROUNDS = 7
FUTURE_ROUNDS = 9

CASES = {
    # default engine: zero delay keeps a frontier, so the capture holds one
    # and both dense and sparse rounds have run; the root is not node 0
    "sync_engine_v1": EngineConfig(),
    # the stale-view ring (three history vectors) and a quantum
    "sync_engine_v1_stale": EngineConfig(gossip_delay=2, quantum=0.25),
}


def build(config: EngineConfig) -> SyncEngine:
    base = random_tree(60, random.Random(5))
    tree = base.rerooted(4)
    rng = random.Random(11)
    # demand in one corner of the tree, so the frontier is a proper subset
    rates = [rng.uniform(1.0, 20.0) if i in (41, 52, 57) else 0.0 for i in range(tree.n)]
    return SyncEngine(tree, rates, rates, degree_edge_alphas(tree), config=config)


def main() -> None:
    for name, config in CASES.items():
        engine = build(config)
        for _ in range(WARMUP_ROUNDS):
            engine.step()
        write_checkpoint(engine, str(HERE / f"{name}.ckpt"))
        for _ in range(FUTURE_ROUNDS):
            engine.step()
        state = engine.state()
        future = {k: state[k] for k in ("round", "loads", "fwd", "active", "history")}
        future["step_stats"] = engine.step_stats
        (HERE / f"{name}.future.json").write_text(json.dumps(future) + "\n")


if __name__ == "__main__":
    main()
