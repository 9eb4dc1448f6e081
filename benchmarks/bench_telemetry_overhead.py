"""Telemetry overhead gate + measured-trace artifact.

Two jobs:

* ``test_disabled_overhead_gate`` — the hard CI gate: the disabled-mode
  tracer must cost <2% of the 50k-splat micro-bench (vectorized forward
  + backward, the hot path every span call site sits on). The check is
  analytic — per-call disabled ``span()`` cost times a generous
  spans-per-step budget, against the measured kernel time — so it is
  robust on noisy shared runners (the real margin is ~3 orders of
  magnitude). Writes ``benchmarks/out/BENCH_telemetry.json`` with the
  informational ``telemetry_overhead_pct`` key
  ``tools/diff_bench_baseline.py`` reports on.

* ``test_telemetry_trace_artifact`` — runs a short telemetry-enabled
  out-of-core training and writes ``benchmarks/out/trace.json``: the
  measured Chrome trace merged with the simulator's modeled timeline of
  the same config, the side-by-side artifact the perf-smoke job uploads.
"""

import json
import os
import time

import numpy as np

from repro.telemetry import export, metrics, trace

RASTER_WH = 256
RASTER_N_LARGE = 50_000

#: Spans a single training step can plausibly issue (measured out-of-core
#: steps issue ~30 including page traffic; 4x headroom).
SPANS_PER_STEP = 128

#: The gate: disabled-mode tracer cost as a fraction of step time.
MAX_OVERHEAD_PCT = 2.0

SPAN_CALLS = 200_000


def _out_dir() -> str:
    out = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out, exist_ok=True)
    return out


def _make_scene(n: int, wh: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    means2d = rng.uniform([0, 0], [wh, wh], size=(n, 2))
    sig = rng.uniform(0.5, 1.2, size=n)
    conics = np.stack([1 / sig**2, np.zeros(n), 1 / sig**2], axis=1)
    colors = rng.uniform(0, 1, size=(n, 3))
    opacities = rng.uniform(0.2, 1.0, size=n)
    depths = rng.uniform(1, 20, size=n)
    radii = 3 * sig
    return (means2d, conics, colors, opacities, depths, radii, wh, wh)


def _best_of(fn, rounds=3):
    fn()  # warmup
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _span_cost_s(calls: int = SPAN_CALLS) -> float:
    """Per-call cost of ``span()`` in the current tracer state."""
    span = trace.span
    for _ in range(1000):  # warmup
        with span("bench/span"):
            pass
    t0 = time.perf_counter()
    for _ in range(calls):
        with span("bench/span"):
            pass
    return (time.perf_counter() - t0) / calls


def test_disabled_overhead_gate(benchmark):
    """Disabled-mode tracer must stay under 2% of the 50k-splat bench."""
    from repro.render import RasterConfig
    from repro.render.engine import (
        rasterize_backward_vectorized,
        rasterize_vectorized,
    )

    quick = os.environ.get("GSSCALE_BENCH_QUICK", "") not in ("", "0")
    n = 10_000 if quick else RASTER_N_LARGE
    scene = _make_scene(n, RASTER_WH)
    grad = np.ones((RASTER_WH, RASTER_WH, 3))
    cfg = RasterConfig()

    def measure():
        res = rasterize_vectorized(*scene, config=cfg)
        t_work = _best_of(
            lambda: rasterize_vectorized(*scene, config=cfg)
        ) + _best_of(
            lambda: rasterize_backward_vectorized(
                scene[0], scene[1], scene[2], scene[3], res, grad,
                config=cfg,
            )
        )

        prev = trace.uninstall()  # true disabled mode
        try:
            disabled_s = _span_cost_s()
        finally:
            trace.set_tracer(prev)

        tracer = trace.install(capacity=SPAN_CALLS)
        try:
            enabled_s = _span_cost_s()
        finally:
            tracer.clear()
            trace.uninstall()
        return t_work, disabled_s, enabled_s

    t_work, disabled_s, enabled_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    overhead_pct = 100.0 * SPANS_PER_STEP * disabled_s / t_work

    payload = {
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "splats": n,
        "image": f"{RASTER_WH}x{RASTER_WH}",
        "entries": [{
            "bench": "telemetry_overhead",
            "step_s": t_work,
            "disabled_span_ns": disabled_s * 1e9,
            "enabled_span_ns": enabled_s * 1e9,
            "spans_per_step": SPANS_PER_STEP,
            "telemetry_overhead_pct": overhead_pct,
        }],
    }
    with open(os.path.join(_out_dir(), "BENCH_telemetry.json"), "w") as fh:
        json.dump(payload, fh, indent=2)

    # the gate: fail the build when disabled-mode tracing stops being free
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"disabled-mode telemetry overhead {overhead_pct:.3f}% exceeds "
        f"{MAX_OVERHEAD_PCT}% ({disabled_s * 1e9:.0f}ns/span x "
        f"{SPANS_PER_STEP} spans vs {t_work * 1e3:.1f}ms step)"
    )


def test_telemetry_trace_artifact(benchmark):
    """Measured + modeled trace of one telemetry-enabled bench config."""
    from repro import (
        GSScaleConfig,
        GaussianModel,
        SyntheticSceneConfig,
        Trainer,
        build_scene,
    )
    from repro.sim import CostModel, PLATFORMS, get_platform, simulate_iteration
    from repro.sim.trace import to_chrome_trace as modeled_chrome_trace

    prev = trace.uninstall()
    iterations = 6
    try:
        scene = build_scene(SyntheticSceneConfig(
            num_points=400, width=48, height=36, num_train_cameras=6, seed=3,
        ))
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=2,
            async_prefetch=True, telemetry=True, scene_extent=scene.extent,
        )

        def run():
            with Trainer(GaussianModel(scene.initial.params.copy()), cfg) as trainer:
                trainer.train(
                    scene.train_cameras, scene.train_images, iterations=iterations
                )
            return trace.get_tracer()

        tracer = benchmark.pedantic(run, rounds=1, iterations=1)
        names = {ev.name for ev in tracer.events()}
        assert {"train/forward", "train/backward", "train/commit"} <= names

        sim = simulate_iteration(
            "outofcore_async", CostModel(get_platform(sorted(PLATFORMS)[0])),
            n_total=400, active_ratio=0.5, num_pixels=48 * 36,
            num_shards=4, resident_shards=2,
        )
        modeled = modeled_chrome_trace(sim.segments)
        doc = export.write_chrome_trace(
            tracer, os.path.join(_out_dir(), "trace.json"), modeled=modeled
        )
        pids = {e.get("pid") for e in doc["traceEvents"]}
        assert pids >= {1, export.MEASURED_PID}
    finally:
        trace.uninstall()
        trace.set_tracer(prev)
        metrics.reset_registry()
