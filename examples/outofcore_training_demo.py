"""Out-of-core GS-Scale: train with most of the host state on disk.

Builds on the sharded multi-device system (see
examples/sharded_training_demo.py): the scene is spatially partitioned
into K shards, but each shard's non-geometric parameters and Adam moments
now live in memory-mapped spill files, and only ``resident_shards`` of
them are paged into host DRAM at once. Each view prefetches its active
shards and spills the rest; spilled shards tick their deferred optimizer
as pure metadata, so an untouched shard pages in at most once per
``max_defer`` steps. Training numerics are bit-identical to the in-memory
sharded run — out-of-core placement changes accounting, never math — while
the tracked host working set drops to the resident-set budget.

The third run turns on the async prefetch leg (``async_prefetch=True``):
a background worker snapshots the *next* view's spilled shards while the
current view renders, so the page read comes off the critical path —
still bit-identical, same ledger, just overlapped. Next-view hints come
from the step loop (``hint_upcoming_views``), exactly what
``Trainer.train(view_order="locality")`` automates. (This demo's wide
frustums touch every shard in every view, so the snapshots go stale and
every page-in falls back to the synchronous read — the honest worst
case; shard-local captures adopt most page-ins, as
``tests/core/test_async_prefetch.py`` demonstrates on a clustered
scene.)

The deep disk tier is a flag away: ``--codec float16`` stores spilled
pages half-size behind a per-column-scaled half-precision codec
(``lossless`` keeps them bit-exact and still smaller on real moment
pages), and ``--prefetch-depth D`` widens the async leg's single-slot
double buffer into a depth-D staging queue.

Run:  python examples/outofcore_training_demo.py [--codec float16]
      [--prefetch-depth 2]
"""

import argparse
import os
from contextlib import ExitStack

import numpy as np

from repro.core import GSScaleConfig, create_system
from repro.core.pagecodec import PAGE_CODECS
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import layout

ITERATIONS = int(os.environ.get("DEMO_ITERATIONS", 24))
NUM_SHARDS = 4
RESIDENT_SHARDS = 1


def parse_args():
    parser = argparse.ArgumentParser(
        description="Out-of-core training demo (deep disk tier knobs)"
    )
    parser.add_argument(
        "--codec", default="raw", choices=sorted(PAGE_CODECS),
        help="page codec for the spilled non-geometric state "
             "(default: raw memmaps)",
    )
    parser.add_argument(
        "--prefetch-depth", type=int, default=1, metavar="D",
        help="async staging-queue lookahead; 1 is the classic double "
             "buffer (default: 1)",
    )
    return parser.parse_args()


def train(scene, system, **cfg_kwargs):
    config = GSScaleConfig(
        system=system,
        scene_extent=scene.extent,
        ssim_lambda=0.2,
        seed=0,
        **cfg_kwargs,
    )
    engine = create_system(scene.initial.copy(), config)
    cams, images = scene.train_cameras, scene.train_images
    for i in range(ITERATIONS):
        if i + 1 < ITERATIONS:
            engine.hint_upcoming_views(
                [cams[(i + 1 + d) % len(cams)] for d in range(engine.prefetch_depth)]
            )
        engine.step(cams[i % len(cams)], images[i % len(cams)])
    engine.finalize()
    return engine


def main():
    args = parse_args()
    print("Building synthetic aerial capture ...")
    scene = build_scene(
        SyntheticSceneConfig(
            name="outofcore-demo",
            num_points=400,
            width=48,
            height=36,
            num_train_cameras=8,
            num_test_cameras=2,
            altitude=8.0,
            seed=21,
        )
    )
    print(f"  {scene.initial.num_gaussians} Gaussians, "
          f"{len(scene.train_cameras)} train views")

    print(f"\nTraining in-memory sharded (K={NUM_SHARDS}) and out-of-core "
          f"(K={NUM_SHARDS}, resident={RESIDENT_SHARDS}) ...")
    # the out-of-core systems own spill directories and background
    # threads: the with block releases them when the report is done
    with ExitStack() as systems:
        sharded = systems.enter_context(
            train(scene, "sharded", num_shards=NUM_SHARDS)
        )
        ooc = systems.enter_context(
            train(scene, "outofcore", num_shards=NUM_SHARDS,
                  resident_shards=RESIDENT_SHARDS, page_codec=args.codec)
        )
        asyn = systems.enter_context(
            train(scene, "outofcore", num_shards=NUM_SHARDS,
                  resident_shards=RESIDENT_SHARDS, async_prefetch=True,
                  prefetch_depth=args.prefetch_depth, page_codec=args.codec)
        )
        report(args, sharded, ooc, asyn)


def report(args, sharded, ooc, asyn):
    # snapshot before materialized_model(): materializing pages every
    # shard through the R=1 budget and would inflate the counts
    trained_page_ins = (ooc.ledger.page_in_count, asyn.ledger.page_in_count)

    drift = np.max(np.abs(
        sharded.materialized_model().params
        - ooc.materialized_model().params
    ))
    print(f"  max parameter drift vs in-memory sharded: {drift:.2e} "
          + ("(spilling changes placement, not math)"
             if PAGE_CODECS[args.codec].lossless
             else "(float16 pages are tolerance-bounded, not bit-exact)"))
    async_drift = np.max(np.abs(
        asyn.materialized_model().params - ooc.materialized_model().params
    ))
    print(f"  async prefetch vs synchronous out-of-core: drift "
          f"{async_drift:.2e}, same page ledger: "
          f"{trained_page_ins[0] == trained_page_ins[1]} — "
          f"{asyn.prefetch_hits} page-ins adopted from the background "
          f"leg, {asyn.prefetch_misses} fell back to synchronous reads")

    n = ooc.num_gaussians
    full_host = 3 * layout.param_bytes(n, layout.NON_GEOMETRIC_DIM) + n
    print(f"\nHost working set after {ITERATIONS} iterations:")
    print(f"  in-memory non-geo state (params+m+v+counters): "
          f"{full_host / 1e6:.3f} MB")
    print(f"  out-of-core peak tracked host bytes:           "
          f"{ooc.host_memory.peak_bytes / 1e6:.3f} MB "
          f"({ooc.host_memory.peak_bytes / full_host:.0%} — the resident "
          "budget plus 1 counter byte per Gaussian)")

    print("\nPer-shard page traffic (disk channel of the ledger):")
    print("  shard  gaussians  resident  page-in MB  page-out MB")
    for r in ooc.shard_reports():
        print(
            f"  {r.shard:>5}  {r.num_gaussians:>9}  {str(r.resident):>8}  "
            f"{r.page_in_bytes / 1e6:>10.3f}  {r.page_out_bytes / 1e6:>11.3f}"
        )
    print(
        f"  total: {ooc.ledger.page_in_bytes / 1e6:.3f} MB in / "
        f"{ooc.ledger.page_out_bytes / 1e6:.3f} MB out over "
        f"{ooc.ledger.page_in_count} page-ins / "
        f"{ooc.ledger.page_out_count} page-outs"
    )
    if args.codec != "raw":
        ratio = ooc.ledger.page_in_bytes / max(
            ooc.ledger.page_in_disk_bytes, 1
        )
        print(
            f"  {args.codec} pages on disk: "
            f"{ooc.ledger.page_in_disk_bytes / 1e6:.3f} MB actually read — "
            f"{ratio:.2f}x effective page-in bandwidth"
        )
    print(
        "PCIe traffic is conserved: "
        f"{ooc.ledger.h2d_bytes == sharded.ledger.h2d_bytes} "
        f"({ooc.ledger.h2d_bytes / 1e6:.3f} MB H2D) — the disk tier sits "
        "behind the host, invisible to the device."
    )


if __name__ == "__main__":
    main()
