"""Render-serving demo: from trained checkpoint to batched multi-client
inference.

Walks the serving vertical end to end:

1. train a small out-of-core run and save its checkpoint;
2. open the checkpoint for serving — in-memory, and paged under a host
   byte budget smaller than the model (the read-only
   ``CheckpointReader`` open streams blocks, never materializing the
   packed matrix);
3. build nested LOD subsets and measure each level's PSNR cost;
4. serve an orbit client session and a walkthrough client session
   through the batching ``RenderService`` — full LOD is bit-identical to
   the direct render pipeline — then replay the orbit to show the
   pose-keyed cache absorbing it;
5. hot-swap the model and show the cache flush (no stale frames);
6. print the serving stats, the paged store's page-channel ledger, and
   the modeled p50/p99 latency of the same setup from ``sim.serve``.

Run:  python examples/serve_demo.py
"""

import os
import tempfile

import numpy as np

from repro.cameras import trajectories
from repro.core import GSScaleConfig, create_system
from repro.core.checkpoint import resume_model, save_checkpoint
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import layout
from repro.render import render
from repro.serve import (
    LODSet,
    RenderService,
    lod_quality_report,
    requests_from_cameras,
)
from repro.sim import ServeScenario, get_platform, simulate_serve

ITERATIONS = int(os.environ.get("DEMO_ITERATIONS", 24))


def train_checkpoint(scene, path: str) -> None:
    config = GSScaleConfig(
        system="outofcore", num_shards=4, resident_shards=1,
        scene_extent=scene.extent, ssim_lambda=0.2, seed=0,
        engine="vectorized",
    )
    cams, images = scene.train_cameras, scene.train_images
    with create_system(scene.initial.copy(), config) as system:
        for i in range(ITERATIONS):
            system.step(cams[i % len(cams)], images[i % len(cams)])
        save_checkpoint(path, system)


def main():
    scene = build_scene(
        SyntheticSceneConfig(
            name="serve-demo", num_points=360, width=48, height=36,
            num_train_cameras=6, num_test_cameras=2, altitude=12.0, seed=4,
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "trained.npz")
        print(f"== training {ITERATIONS} out-of-core steps -> checkpoint")
        train_checkpoint(scene, ckpt)
        model = resume_model(ckpt)
        n = model.num_gaussians

        # -- LOD ladder ---------------------------------------------------
        lod_set = LODSet.build(model.params)
        print("\n== LOD ladder (PSNR vs full detail, 2 probe views)")
        for entry in lod_quality_report(model, scene.test_cameras, lod_set):
            print(
                f"  lod {entry['lod']}: {entry['num_splats']:4d} splats, "
                f"SH degree {entry['sh_degree']}, "
                f"PSNR {entry['psnr_vs_full']:.1f} dB"
            )

        # -- client sessions through the batching service ----------------
        service = RenderService.from_checkpoint(ckpt, lod_set=lod_set)
        orbit = requests_from_cameras(
            trajectories.orbit(
                np.zeros(3), radius=12.0, height=8.0, num_cameras=12,
                width=48, height_px=36,
            ),
            lod=0,
        )
        walk = requests_from_cameras(
            trajectories.walkthrough(
                np.array([[-8.0, -8.0, 6.0], [8.0, -8.0, 6.0], [8.0, 8.0, 6.0]]),
                num_cameras=12, width=48, height_px=36,
            ),
            lod=1,
        )
        first = service.serve(orbit + walk)
        check = first[0]
        direct = render(
            model, check.request.camera, config=service.config
        ).image
        assert np.array_equal(check.image, direct), "full LOD must be exact"
        replay = service.serve(list(orbit))  # the cache absorbs the revisit
        assert all(r.cache_hit for r in replay)
        print("\n== serving stats (24-request mix + 12-request replay)")
        for key, value in service.stats.as_dict().items():
            print(f"  {key}: {value}")

        # -- hot swap: never a stale frame --------------------------------
        service.swap_model(scene.initial)
        swapped = service.serve(list(orbit))
        assert not any(r.cache_hit for r in swapped)
        assert not np.array_equal(swapped[0].image, replay[0].image)
        print("  hot swap: cache flushed, fresh frames served")
        service.close()

        # -- paged serving under a host budget ----------------------------
        budget = layout.param_bytes(n, layout.GEOMETRIC_DIM) + (
            layout.param_bytes(-(-n // 4), layout.NON_GEOMETRIC_DIM)
        )
        with RenderService.from_checkpoint(
            ckpt, host_budget_bytes=budget, num_shards=4
        ) as paged:
            store = paged.store
            print(
                f"\n== paged serving: model {store.model_bytes} B > "
                f"budget {budget} B (resident shards: {store.resident_budget})"
            )
            out = paged.serve(requests_from_cameras([c for c in scene.train_cameras]))
            ref = render(model, scene.train_cameras[0], config=paged.config).image
            assert np.array_equal(out[0].image, ref), "paging must not change pixels"
            assert store.host_memory.peak_bytes <= budget
            print(
                f"  peak tracked host bytes: {store.host_memory.peak_bytes} "
                f"(<= budget)"
            )
            print(
                f"  page channel: {store.ledger.page_in_count} page-ins "
                f"({store.ledger.page_in_bytes} B), "
                f"{store.ledger.page_out_count} page-outs"
            )

    # -- the modeled counterpart ------------------------------------------
    print("\n== modeled serving latency (desktop_4090, 2M splats, 500 req/s)")
    platform = get_platform("desktop_4090")
    for workers in (1, 4):
        result = simulate_serve(
            platform, 2_000_000, 0.1, 256 * 256,
            ServeScenario(workers=workers, arrival_rate_hz=500.0),
        )
        print(
            f"  workers={workers}: {result.requests_per_s:7.1f} req/s, "
            f"p50 {result.p50_latency_s * 1e3:6.2f} ms, "
            f"p99 {result.p99_latency_s * 1e3:6.2f} ms, "
            f"util {result.worker_utilization:.2f}"
        )
    print("\ndone.")


if __name__ == "__main__":
    main()
