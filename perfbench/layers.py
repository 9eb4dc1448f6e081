"""Names and units of the benchmark's metrics.

End-to-end metrics are reported by every workload; a training workload's
operation is one training step and the serving workload's is one request
(see README.md for each metric's definition per workload). Per-layer
metrics use the program's module names as prefixes. "Per step" means per
training step, or per rendered frame on the serving workload; a layer a
workload does not use reports 0.
"""

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "image_loss": "loss",
    "peak_working_mb": "MB",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    # render.culling (frustum_cull)
    "culling.calls_per_step": "count",
    "culling.ms_per_step": "ms",
    "culling.splats_tested_per_step": "count",
    "culling.active_ratio": "ratio",
    # render.projection (project, project_backward)
    "projection.ms_per_step": "ms",
    # render.engine (callables from engine.get_forward / get_backward)
    "raster.fwd_ms_per_step": "ms",
    "raster.bwd_ms_per_step": "ms",
    "raster.splats_per_step": "count",
    "raster.giant_splat_share": "ratio",
    # render.pipeline (render, render_backward), self time
    "render.fwd_ms_per_step": "ms",
    "render.bwd_ms_per_step": "ms",
    # train.loss (photometric_loss)
    "loss.ms_per_step": "ms",
    # core.systems
    "systems.regions_per_step": "count",
    "systems.split_ms_per_step": "ms",
    "systems.self_ms_per_step": "ms",
    # core.stores
    "stores.stage_ms_per_step": "ms",
    "stores.rows_staged_per_step": "count",
    "stores.unstage_ms_per_step": "ms",
    "stores.return_grads_ms_per_step": "ms",
    "stores.commit_ms_per_step": "ms",
    "stores.h2d_mb_per_step": "MB",
    "stores.d2h_mb_per_step": "MB",
    # optim (step_rows of DeferredAdam / DenseAdam)
    "optim.ms_per_step": "ms",
    "optim.rows_updated_ratio": "ratio",
    # paging (DiskStore page_in/spill/preload/adopt, serving pages)
    "page.in_count_per_step": "count",
    "page.in_mb_per_step": "MB",
    "page.out_count_per_step": "count",
    "page.out_mb_per_step": "MB",
    "page.disk_read_ratio": "ratio",
    "page.sync_in_ms_per_step": "ms",
    "page.spill_ms_per_step": "ms",
    "page.sync_spill_mb_per_step": "MB",
    "page.prefetch_busy_ms_per_step": "ms",
    "page.prefetch_hit_ratio": "ratio",
    # memory
    "memory.peak_host_tracked_mb": "MB",
    # serve.service
    "serve.tick_ms_p50": "ms",
    "serve.frames_per_tick": "count",
    "serve.render_ms_per_frame": "ms",
    "serve.queue_wait_ms_p50": "ms",
    # serve.cache
    "cache.hit_ratio": "ratio",
    "cache.dedupe_ratio": "ratio",
    # serve.store (PagedServingStore.gather)
    "servestore.gather_ms_per_frame": "ms",
    "servestore.page_in_count_per_frame": "count",
    "servestore.page_in_mb_per_frame": "MB",
    # harness and tracing
    "harness.generator_lag_ms_p95": "ms",
    "trace.overhead_pct": "%",
    "trace.unaccounted_ms_per_step": "ms",
}

import importlib

import numpy as np
from scipy.stats.mstats import hdquantiles

MB = 1e6


def percentiles_ms(seconds, qs=(0.5, 0.9)) -> list[float]:
    """Percentiles in ms, by the Harrell-Davis estimator (a weighted mean
    of all order statistics). Step and request times are mixtures of a
    few per-view costs with gaps between them; a plain sample percentile
    jumps across a gap when the box's speed shifts by a few percent."""
    return [float(v) * 1e3 for v in hdquantiles(np.asarray(seconds), prob=list(qs))]


def giant_counts(args, kwargs, result) -> dict:
    """Rasterized splats and those whose projected radius exceeds the
    image diagonal, read from a ``render`` call's ``RenderResult``."""
    camera = args[1]
    radii = result.proj.geom.radii
    diag = (camera.width**2 + camera.height**2) ** 0.5
    return {
        "rasterized": int((radii > 0).sum()),
        "giant": int((radii > diag).sum()),
    }


def cull_counts(args, kwargs, result) -> dict:
    return {"tested": int(args[0].shape[0]), "visible": int(result.num_visible)}


def patch_render_layers(rec, module) -> None:
    """Trace culling, the render pipeline, projection and the raster
    engine as called from ``module`` (``repro.core.systems`` or
    ``repro.serve.farm``, which import ``frustum_cull``/``render`` by
    name)."""
    # by path: the ``repro.render`` attribute is the re-exported function
    engine_mod = importlib.import_module("repro.render.engine")
    projection_mod = importlib.import_module("repro.render.projection")

    rec.patch(module, "frustum_cull", "culling", counts=cull_counts)
    rec.patch(module, "render", "render.fwd", counts=giant_counts)
    rec.patch(projection_mod, "project", "projection.fwd")
    rec.patch(projection_mod, "project_backward", "projection.bwd")
    rec.patch_factory(
        engine_mod, "get_forward", "raster.fwd",
        counts=lambda a, k, r: {"splats": int(a[0].shape[0])},
    )
    rec.patch_factory(engine_mod, "get_backward", "raster.bwd")


def render_layer_metrics(rec, per: float) -> dict:
    """Culling/projection/raster/render metrics per ``per`` operations."""
    selfs = rec.self_times()
    rasterized = rec.attr_sum("render.fwd", "rasterized")
    tested = rec.attr_sum("culling", "tested")
    return {
        "culling.calls_per_step": len(rec.select("culling")) / per,
        "culling.ms_per_step": rec.total("culling") * 1e3 / per,
        "culling.splats_tested_per_step": tested / per,
        "culling.active_ratio": (
            rec.attr_sum("culling", "visible") / tested if tested else 0.0
        ),
        "projection.ms_per_step": (
            rec.total("projection.fwd") + rec.total("projection.bwd")
        ) * 1e3 / per,
        "raster.fwd_ms_per_step": rec.total("raster.fwd") * 1e3 / per,
        "raster.bwd_ms_per_step": rec.total("raster.bwd") * 1e3 / per,
        "raster.splats_per_step": rec.attr_sum("raster.fwd", "splats") / per,
        "raster.giant_splat_share": (
            rec.attr_sum("render.fwd", "giant") / rasterized if rasterized else 0.0
        ),
        "render.fwd_ms_per_step": rec.self_total("render.fwd", selfs) * 1e3 / per,
        "render.bwd_ms_per_step": rec.self_total("render.bwd", selfs) * 1e3 / per,
    }


def print_self_times(rec, per: float, label: str) -> None:
    """Main-thread self time per span name, largest first."""
    rows = sorted(rec.self_by_layer().items(), key=lambda kv: -kv[1])
    print(f"# self time per {label} (main thread, ms):")
    for name, secs in rows:
        print(f"#   {name:<20s} {secs * 1e3 / per:10.2f}")


#: Layer groups of the self-time table (span names by program module).
LAYER_GROUPS = {
    "render.engine": ("raster.fwd", "raster.bwd"),
    "render.culling": ("culling",),
    "render.projection": ("projection.fwd", "projection.bwd"),
    "render.pipeline": ("render.fwd", "render.bwd"),
    "train.loss": ("loss",),
    "core.systems": ("systems.step", "systems.split"),
    "core.stores": ("stores.stage", "stores.unstage", "stores.return_grads",
                    "stores.commit", "stores.flush"),
    "optim": ("optim",),
    "paging": ("page.in", "page.out", "page.preload", "page.adopt"),
    "serve.service": ("serve.tick", "serve.frame"),
    "serve.cache": ("serve.cache",),
    "serve.store": ("servestore.gather",),
}


def print_isolation(workload: str, rec, metrics: dict, step_ms: float) -> None:
    """Whether the trace shows the layer each workload was chosen to load.

    Printed, not checked: these are performance predictions, and a change
    to the program may rightly move them.
    """
    by_name = rec.self_by_layer()
    groups = {
        g: sum(by_name.get(n, 0.0) for n in names) for g, names in LAYER_GROUPS.items()
    }
    top = max(groups, key=groups.get)
    print(f"# isolation: largest self time is {top}")
    if workload == "train_dense":
        print(f"# isolation {'ok  ' if top == 'render.engine' else 'MISS'} "
              "raster has the largest self time")
    if workload == "train_large":
        offload = metrics["culling.ms_per_step"] + sum(
            metrics[f"stores.{op}_ms_per_step"]
            for op in ("stage", "unstage", "return_grads", "commit")
        )
        share = offload / step_ms
        print(f"# isolation {'ok  ' if share >= 0.25 else 'MISS'} culling + stores "
              f"(optimizer inside) are {share:.0%} of the mean step (>= 25%)")
    paged = metrics["page.in_count_per_step"] > 0
    expect = workload in ("train_outofcore", "serve_walkthrough")
    print(f"# isolation {'ok  ' if paged == expect else 'MISS'} page traffic "
          f"{'nonzero' if paged else 'zero'}")
