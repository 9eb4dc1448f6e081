"""Measured telemetry tier: trace a real run, export it, diff it vs the model.

Everything else in this repo that draws a timeline draws a *modeled* one
(``repro.sim``). This demo turns on :mod:`repro.telemetry` and records
what the system actually did:

1. train a short out-of-core run with ``telemetry=True`` — the trainer's
   step phases (cull / stage / forward / backward / unstage / commit),
   the async prefetch thread's page reads, and the disk tier's page
   traffic all land in one span ring buffer;
2. serve a burst of requests through a paged ``RenderService`` with
   ``ServeConfig(telemetry=True)`` — per-request latency goes into the
   unified metrics registry's histograms;
3. export ``out/trace.json`` — the measured Chrome trace merged with the
   simulator's modeled timeline of the same config, so both open side by
   side in chrome://tracing / ui.perfetto.dev — and ``out/metrics.prom``
   in Prometheus exposition format;
4. print the numbers a dashboard would scrape: serve latency p50/p99 and
   the measured page-stall fraction of training, then the per-phase
   measured-vs-modeled table ``tools/compare_trace.py`` builds.

Run:  python examples/telemetry_demo.py
"""

import os
import tempfile

import numpy as np

from repro.cameras import trajectories
from repro.core import GSScaleConfig, create_system
from repro.core.checkpoint import save_checkpoint
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import layout
from repro.serve import RenderService, ServeConfig, requests_from_cameras
from repro.sim import CostModel, PLATFORMS, get_platform, simulate_iteration
from repro.sim.trace import to_chrome_trace as modeled_chrome_trace
from repro.telemetry import compare, export, metrics, trace

ITERATIONS = int(os.environ.get("DEMO_ITERATIONS", 24))
NUM_SHARDS = 4
RESIDENT_SHARDS = 2
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def train_traced(scene, ckpt_path: str):
    config = GSScaleConfig(
        system="outofcore",
        num_shards=NUM_SHARDS,
        resident_shards=RESIDENT_SHARDS,
        async_prefetch=True,
        telemetry=True,
        scene_extent=scene.extent,
        ssim_lambda=0.2,
        seed=0,
    )
    cams, images = scene.train_cameras, scene.train_images
    with create_system(scene.initial.copy(), config) as system:
        for i in range(ITERATIONS):
            if i + 1 < ITERATIONS:
                system.hint_upcoming_views([cams[(i + 1) % len(cams)]])
            system.step(cams[i % len(cams)], images[i % len(cams)])
        save_checkpoint(ckpt_path, system)
        return system.num_gaussians


def serve_burst(ckpt_path: str, scene, n_model: int):
    budget = layout.param_bytes(n_model, layout.GEOMETRIC_DIM) + (
        layout.param_bytes(-(-n_model // NUM_SHARDS), layout.NON_GEOMETRIC_DIM)
    )
    orbit = requests_from_cameras(
        trajectories.orbit(
            np.zeros(3), radius=12.0, height=8.0, num_cameras=12,
            width=48, height_px=36,
        )
    )
    with RenderService.from_checkpoint(
        ckpt_path,
        host_budget_bytes=budget,
        num_shards=NUM_SHARDS,
        serve_config=ServeConfig(telemetry=True),
    ) as service:
        return service.serve(orbit)


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    scene = build_scene(
        SyntheticSceneConfig(
            name="telemetry-demo", num_points=400, width=48, height=36,
            num_train_cameras=8, num_test_cameras=2, altitude=8.0, seed=21,
        )
    )

    print(f"== training {ITERATIONS} out-of-core steps with telemetry on")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "trained.npz")
        num_gaussians = train_traced(scene, ckpt)

        print("== serving a 12-request orbit burst (paged, telemetry on)")
        responses = serve_burst(ckpt, scene, num_gaussians)
    assert all(r.status == "ok" for r in responses)

    tracer = trace.get_tracer()
    registry = metrics.get_registry()

    # -- the dashboard numbers --------------------------------------------
    latency = registry.histogram("serve/latency_s").summary()
    print(f"\nserve latency over {latency['count']} requests: "
          f"p50 {latency['p50'] * 1e3:.2f} ms, p99 {latency['p99'] * 1e3:.2f} ms")

    phases = tracer.phase_seconds()
    step_s = phases.get("train/step", 0.0)
    stall_s = sum(
        s for name, s in phases.items()
        if name in ("page/in", "page/out", "train/prefetch", "train/spill")
    )
    print(f"page-stall fraction of training: {stall_s / max(step_s, 1e-12):.1%} "
          f"({stall_s * 1e3:.1f} ms of page traffic in {step_s * 1e3:.1f} ms "
          f"of stepping)")
    main_tid = None
    for ev in tracer.events():
        if ev.name == "train/step":
            main_tid = ev.tid
            break
    lanes = sorted(
        {
            tracer.thread_names.get(
                ev.tid, "main" if ev.tid == main_tid else str(ev.tid)
            )
            for ev in tracer.events()
        }
    )
    print(f"timeline lanes recorded: {', '.join(lanes)}")

    # -- exports ----------------------------------------------------------
    platform = sorted(PLATFORMS)[0]
    sim = simulate_iteration(
        "outofcore_async", CostModel(get_platform(platform)),
        n_total=400, active_ratio=0.5, num_pixels=48 * 36,
        num_shards=NUM_SHARDS, resident_shards=RESIDENT_SHARDS,
    )
    trace_path = os.path.join(OUT_DIR, "trace.json")
    export.write_chrome_trace(
        tracer, trace_path, modeled=modeled_chrome_trace(sim.segments)
    )
    prom_path = os.path.join(OUT_DIR, "metrics.prom")
    export.write_prometheus(registry, prom_path)
    print(f"\nwrote {trace_path} (modeled pid 1 + measured pid 2 — open in "
          "chrome://tracing or ui.perfetto.dev)")
    print(f"wrote {prom_path} (Prometheus exposition format)")

    # -- measured vs modeled, per phase -----------------------------------
    measured = compare.measured_breakdown(tracer, iterations=ITERATIONS)
    modeled = compare.modeled_breakdown(
        "outofcore_async", platform, 400, 0.5, 48 * 36,
        num_shards=NUM_SHARDS, resident_shards=RESIDENT_SHARDS,
    )
    rows = compare.compare_breakdowns(measured, modeled)
    print(f"\n== measured (this box) vs modeled ({platform}) per iteration")
    print(compare.format_table(rows))
    print("\ndone.")


if __name__ == "__main__":
    main()
