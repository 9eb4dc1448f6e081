"""Patch-pipeline demo: partition -> train -> merge -> clean -> serve.

Walks the scene-scale reconstruction vertical end to end:

1. build a synthetic capture and cut it into overlap-buffered spatial
   patches, each with its own camera assignment;
2. train every patch as an independent restartable job on the persistent
   process pool (each an ordinary ``Trainer`` run over its buffered
   subset, checkpointing to a manifest-tracked work directory);
3. fuse the trained patches with exactly-once boundary dedup and strip
   seam artifacts (oversized / isolated / near-transparent splats);
4. load the final checkpoint straight into ``RenderService`` — in-memory
   and paged under a host byte budget — and render a probe view;
5. re-run the pipeline on the same work directory to show resume: every
   finished patch is skipped from its manifest;
6. print the modeled farm schedule from ``sim.simulate_patch_farm`` for
   the same patch sizes on a calibrated platform.

Run:  python examples/patch_pipeline_demo.py
"""

import os
import tempfile

import numpy as np

from repro.core import GSScaleConfig
from repro.core.checkpoint import resume_model
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.metrics import psnr
from repro.recon import PatchPipelineConfig, run_patch_pipeline
from repro.serve import RenderRequest, RenderService
from repro.sim import get_platform, simulate_patch_farm

ITERATIONS = int(os.environ.get("DEMO_ITERATIONS", 24))


def main():
    scene = build_scene(
        SyntheticSceneConfig(
            name="patch-demo", num_points=280, width=40, height=30,
            num_train_cameras=8, num_test_cameras=2, altitude=12.0, seed=6,
        )
    )
    config = PatchPipelineConfig(
        num_patches=4,
        iterations=ITERATIONS,
        jobs=2,
        checkpoint_every=max(ITERATIONS // 2, 1),
        train=GSScaleConfig(
            system="gpu_only", scene_extent=scene.extent, seed=0
        ),
    )
    with tempfile.TemporaryDirectory() as workdir:
        print(
            f"== patch pipeline: {scene.initial.num_gaussians} splats, "
            f"{config.num_patches} patches x {ITERATIONS} iterations, "
            f"{config.jobs} jobs"
        )
        result = run_patch_pipeline(
            scene.initial, scene.train_cameras, scene.train_images,
            workdir, config,
        )

        print("\n== partition (core + boundary buffer -> cameras)")
        for p, job in zip(result.patches, result.jobs.results):
            print(
                f"  patch {p.index}: {p.num_core:3d} core "
                f"+ {p.num_buffered - p.num_core:3d} buffer, "
                f"{p.num_cameras} views -> {job.status} "
                f"({job.iterations_done} iters)"
            )

        merge, clean = result.merge, result.clean
        print(
            f"\n== merge [{merge.policy}]: {merge.num_gaussians} splats, "
            f"buffer rows dropped per patch: {merge.dropped}"
        )
        print(
            f"== clean: kept {clean.kept_rows}/{clean.input_rows} "
            f"(transparent {clean.dropped_transparent}, "
            f"oversized {clean.dropped_oversized}, "
            f"isolated {clean.dropped_isolated})"
        )
        print(
            f"== modeled peak host bytes: pipeline {result.peak_host_bytes} "
            f"< monolithic {result.monolithic_peak_host_bytes}"
        )
        assert result.peak_host_bytes < result.monolithic_peak_host_bytes

        # -- serve the final checkpoint -----------------------------------
        camera, truth = scene.test_cameras[0], scene.test_images[0]
        with RenderService.from_checkpoint(result.checkpoint_path) as hot:
            frame = hot.render(RenderRequest(camera=camera)).image
        with RenderService.from_checkpoint(
            result.checkpoint_path, host_budget_bytes=1 << 18, num_shards=4
        ) as paged:
            paged_frame = paged.render(RenderRequest(camera=camera)).image
        assert np.array_equal(frame, paged_frame), "paging changes no pixel"
        print(
            f"\n== serving final checkpoint: probe view PSNR "
            f"{psnr(frame, truth):.1f} dB (in-memory == paged)"
        )

        # -- resume: a second run costs one manifest read per patch -------
        again = run_patch_pipeline(
            scene.initial, scene.train_cameras, scene.train_images,
            workdir, config,
        )
        statuses = [r.status for r in again.jobs.results]
        assert all(s in ("skipped", "empty") for s in statuses)
        print(f"== resume: second run statuses {statuses}")

    # -- the modeled counterpart ------------------------------------------
    print("\n== modeled patch farm (laptop_4070m, 4 x 50k-splat patches)")
    platform = get_platform("laptop_4070m")
    for jobs in (1, 2, 4):
        farm = simulate_patch_farm(
            platform, [50_000] * 4, jobs, iterations=1000,
            num_pixels=640 * 360,
        )
        print(
            f"  jobs={jobs}: makespan {farm.makespan_seconds:7.1f} s "
            f"(monolithic {farm.monolithic_seconds:.1f} s, "
            f"speedup {farm.speedup:.2f}), peak host "
            f"{farm.peak_host_bytes / 1e6:.1f} MB vs "
            f"{farm.monolithic_peak_host_bytes / 1e6:.1f} MB"
        )
    print("\ndone.")


if __name__ == "__main__":
    main()
