"""The three training workloads: ``Trainer`` runs with the vectorized engine.

One run sets the trainer up :data:`SETUP_REPEATS` times (``setup_s`` is
the median), then times one ``Trainer.train`` call over a fixed number
of whole view cycles, including its closing ``finalize()``. The step
count follows from ``--seconds`` and a nominal rate per workload, so the
same seed and seconds always train the same steps (and ``image_loss`` is
deterministic per seed).
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np

from repro import GSScaleConfig, Trainer

import layers
from layers import MB
from tracing import Recorder

#: System configuration per workload. Every run names the engine:
#: ``GSScaleConfig``'s default is still the per-splat reference loop.
CONFIGS = {
    "train_dense": dict(system="gsscale", mem_limit=0.3),
    "train_large": dict(system="gsscale"),
    "train_outofcore": dict(
        system="outofcore", num_shards=8, resident_shards=2,
        async_prefetch=True, prefetch_depth=2, write_behind=True,
    ),
}
VIEW_ORDER = {"train_outofcore": "locality"}
#: Steps per second this program ran each workload at when the benchmark
#: was written (2-CPU x86 container); only sets how many cycles a run trains.
NOMINAL_STEPS_PER_S = {"train_dense": 6.0, "train_large": 1.4, "train_outofcore": 3.5}
MIN_CYCLES = 2
SETUP_REPEATS = 5
WARMUP_STEPS = 1
REFERENCE_STEPS = 3


def planned_steps(workload: str, views: int, seconds: float) -> int:
    cycles = round(seconds * NOMINAL_STEPS_PER_S[workload] / views)
    return max(MIN_CYCLES, cycles) * views


def make_config(workload: str, extent: float, **overrides) -> GSScaleConfig:
    kwargs = dict(CONFIGS[workload], engine="vectorized", scene_extent=extent)
    kwargs.update(overrides)
    return GSScaleConfig(**kwargs)


def set_up(workload: str, inputs) -> tuple[Trainer, int, float]:
    """Build a trainer and run the untimed warm-up.

    Returns ``(trainer, resident_baseline_bytes, seconds)``. Warm-up calls
    ``system.step`` directly: ``Trainer.train`` ends in ``finalize()``,
    which would stop the out-of-core prefetcher before the timed run.
    """
    t0 = time.perf_counter()
    trainer = Trainer(inputs.initial.copy(), make_config(workload, inputs.extent))
    baseline = trainer.system.memory.live_bytes
    for i in range(WARMUP_STEPS):
        trainer.system.step(inputs.cameras[i], inputs.images[i])
    return trainer, baseline, time.perf_counter() - t0


def timed_train(workload: str, trainer: Trainer, inputs, steps: int) -> dict:
    """One ``Trainer.train`` call with every ``system.step`` timed."""
    times: list[float] = []
    system = trainer.system
    step = system.step
    shadowed = "step" in vars(system)  # the traced run's span wrapper

    def timed_step(camera, image):
        t = time.perf_counter()
        try:
            return step(camera, image)
        finally:
            times.append(time.perf_counter() - t)

    system.step = timed_step
    t0 = time.perf_counter()
    try:
        history = trainer.train(
            inputs.cameras, inputs.images, iterations=steps,
            view_order=VIEW_ORDER.get(workload, "sequential"),
        )
    finally:
        wall = time.perf_counter() - t0
        if shadowed:
            system.step = step
        else:
            del system.step
    return {"history": history, "wall": wall, "times": np.array(times)}


def cycle_means(history, views: int) -> np.ndarray:
    losses = np.array([s.loss for s in history.steps])
    return losses.reshape(-1, views).mean(axis=1)


def check(trainer: Trainer, run: dict, baseline: int, views: int) -> dict[str, bool]:
    history = run["history"]
    losses = np.array([s.loss for s in history.steps])
    cycles = cycle_means(history, views)
    ledger = trainer.system.ledger
    return {
        "losses finite": bool(np.isfinite(losses).all()),
        "last cycle loss below first": bool(cycles[-1] < cycles[0]),
        "ledger h2d == d2h": ledger.h2d_bytes == ledger.d2h_bytes,
        "device tracker back at resident baseline": (
            trainer.system.memory.live_bytes == baseline
        ),
    }


def end_to_end(run: dict, trainer: Trainer, views: int, setups: list[float]) -> dict:
    times = run["times"]
    p50, p90 = layers.percentiles_ms(times)
    return {
        "throughput_per_s": len(times) / run["wall"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "image_loss": float(cycle_means(run["history"], views)[-1]),
        "peak_working_mb": trainer.system.memory.peak_bytes / MB,
        "setup_s": float(np.median(setups)),
    }


# -- traced run --------------------------------------------------------------

def _install_patches(rec: Recorder, system) -> None:
    import repro.core.systems as systems_mod
    from repro.core.stores import DiskStore
    from repro.optim import DeferredAdam, DenseAdam

    layers.patch_render_layers(rec, systems_mod)
    rec.patch(systems_mod, "render_backward", "render.bwd")
    rec.patch(systems_mod, "photometric_loss", "loss")
    rec.patch(systems_mod, "find_balanced_split_by", "systems.split")
    rec.patch(system.store, "stage", "stores.stage",
              counts=lambda a, k, r: {"rows": int(a[0].size)})
    for op in ("unstage", "return_grads", "commit", "flush"):
        rec.patch(system.store, op, f"stores.{op}")

    def optim_counts(args, kwargs, stats):
        return {"updated": stats.rows_updated, "total": stats.rows_total}

    rec.patch(DeferredAdam, "step_rows", "optim", counts=optim_counts)
    rec.patch(DenseAdam, "step_rows", "optim", counts=optim_counts)
    rec.patch(
        DiskStore, "page_in", "page.in",
        pre=lambda a, k: a[0].page_in_s,
        counts=lambda a, k, r, before: {"read": int(a[0].page_in_s > before)},
    )
    rec.patch(DiskStore, "spill", "page.out")
    rec.patch(DiskStore, "preload", "page.preload")
    rec.patch(DiskStore, "adopt", "page.adopt")
    rec.patch(system, "step", "systems.step")


def _system_counters(system) -> dict:
    ledger = system.ledger
    return {
        **ledger.counts(),
        "sync_spill_bytes": getattr(system, "sync_spill_bytes", 0),
        "hits": getattr(system, "prefetch_hits", 0),
        "misses": getattr(system, "prefetch_misses", 0),
    }


def per_layer(rec: Recorder, run: dict, system, before: dict, after: dict,
              num_gaussians: int) -> dict:
    steps = len(run["times"])
    d = {k: after[k] - before[k] for k in before}
    selfs = rec.self_times()
    steps_hist = run["history"].steps
    main = threading.main_thread().ident
    covered = sum(s.dur for s in rec.spans if s.parent is None and s.tid == main)
    updated = rec.attr_sum("optim", "updated")
    total_rows = rec.attr_sum("optim", "total")
    page_ins = d["page_in_count"]
    # the prefetch thread's work: snapshot reads plus its shard culls
    prefetch_busy = sum(
        s.dur for s in rec.spans
        if s.tid != main and s.name in ("page.preload", "culling")
    )
    host = getattr(system, "host_memory", None)
    out = dict.fromkeys(layers.PER_LAYER, 0.0)
    out.update(layers.render_layer_metrics(rec, steps))
    out.update({
        "culling.active_ratio": float(
            np.mean([s.num_visible for s in steps_hist]) / num_gaussians
        ),
        "loss.ms_per_step": rec.total("loss") * 1e3 / steps,
        "systems.regions_per_step": float(np.mean([s.num_regions for s in steps_hist])),
        "systems.split_ms_per_step": rec.total("systems.split") * 1e3 / steps,
        "systems.self_ms_per_step": rec.self_total("systems.step", selfs) * 1e3 / steps,
        "stores.stage_ms_per_step": rec.total("stores.stage") * 1e3 / steps,
        "stores.rows_staged_per_step": rec.attr_sum("stores.stage", "rows") / steps,
        "stores.unstage_ms_per_step": rec.total("stores.unstage") * 1e3 / steps,
        "stores.return_grads_ms_per_step": rec.total("stores.return_grads") * 1e3 / steps,
        "stores.commit_ms_per_step": rec.total("stores.commit") * 1e3 / steps,
        "stores.h2d_mb_per_step": d["h2d_bytes"] / MB / steps,
        "stores.d2h_mb_per_step": d["d2h_bytes"] / MB / steps,
        "optim.ms_per_step": rec.total("optim") * 1e3 / steps,
        "optim.rows_updated_ratio": updated / total_rows if total_rows else 0.0,
        "page.in_count_per_step": page_ins / steps,
        "page.in_mb_per_step": d["page_in_bytes"] / MB / steps,
        "page.out_count_per_step": d["page_out_count"] / steps,
        "page.out_mb_per_step": d["page_out_bytes"] / MB / steps,
        "page.disk_read_ratio": (
            rec.attr_sum("page.in", "read") / page_ins if page_ins else 0.0
        ),
        "page.sync_in_ms_per_step": rec.total("page.in") * 1e3 / steps,
        "page.spill_ms_per_step": rec.total("page.out") * 1e3 / steps,
        "page.sync_spill_mb_per_step": d["sync_spill_bytes"] / MB / steps,
        "page.prefetch_busy_ms_per_step": prefetch_busy * 1e3 / steps,
        "page.prefetch_hit_ratio": (
            d["hits"] / (d["hits"] + d["misses"]) if d["hits"] + d["misses"] else 0.0
        ),
        "memory.peak_host_tracked_mb": host.peak_bytes / MB if host is not None else 0.0,
        "trace.unaccounted_ms_per_step": (run["wall"] - covered) * 1e3 / steps,
    })
    return out


def reference_points(workload: str, inputs, rec: Recorder, steps: int) -> None:
    """Informational: the program's own telemetry breakdown next to the
    wrapper-derived layer times, and the unoffloaded system's peak."""
    from repro.telemetry import trace as program_trace
    from repro.telemetry.compare import measured_breakdown

    views = len(inputs.cameras)
    trainer = Trainer(
        inputs.initial.copy(), make_config(workload, inputs.extent, telemetry=True)
    )
    trainer.train(inputs.cameras, inputs.images, iterations=views,
                  view_order=VIEW_ORDER.get(workload, "sequential"))
    tracer = program_trace.uninstall()
    offload_peak = trainer.system.memory.peak_bytes
    del trainer
    gc.collect()
    measured = measured_breakdown(tracer, iterations=views)
    wrapped = {
        "cull": rec.total("culling"),
        "h2d": rec.total("stores.stage"),
        "fwd_bwd": rec.total("render.fwd") + rec.total("render.bwd"),
        "d2h": rec.total("stores.unstage"),
        "optimizer": rec.total("stores.commit") + rec.total("stores.return_grads"),
        "disk": rec.total("page.in") + rec.total("page.out"),
    }
    print("# reference: program telemetry (one view cycle) vs wrapper spans, ms/step")
    for phase, secs in measured.items():
        mine = wrapped.get(phase)
        mine_txt = f"{mine * 1e3 / steps:10.2f}" if mine is not None else "         -"
        print(f"#   {phase:<10s} telemetry {secs * 1e3:10.2f}   wrappers {mine_txt}")

    gpu = Trainer(
        inputs.initial.copy(), make_config(workload, inputs.extent, system="gpu_only")
    )
    for i in range(REFERENCE_STEPS):
        gpu.system.step(inputs.cameras[i], inputs.images[i])
    gpu_peak = gpu.system.memory.peak_bytes
    del gpu
    gc.collect()
    print(
        f"# reference: gpu_only peak device {gpu_peak / MB:.2f} MB vs "
        f"{CONFIGS[workload]['system']} {offload_peak / MB:.2f} MB "
        f"({gpu_peak / offload_peak:.2f}x less device memory)"
    )


def run(workload: str, inputs, seconds: float, traced: bool, trace_path: str):
    """Run one training workload.

    Returns ``(metrics, attempted, failed, checks, report)``; ``report``
    lists ``(name, value, unit)`` under the training-specific names
    (steps/s, step percentiles, final loss, device peak).
    """
    views = len(inputs.cameras)
    steps = planned_steps(workload, views, seconds)
    print(f"# {workload}: {inputs.initial.num_gaussians} splats, "
          f"{inputs.cameras[0].width}x{inputs.cameras[0].height}, {views} views, "
          f"{steps} timed steps")
    setups = []
    for _ in range(1 if traced else SETUP_REPEATS):
        # the previous trainer goes first: the out-of-core system's threads
        # and spill files live as long as the system object
        trainer = baseline = None
        gc.collect()
        trainer, baseline, secs = set_up(workload, inputs)
        setups.append(secs)

    result = timed_train(workload, trainer, inputs, steps)
    checks = check(trainer, result, baseline, views)
    metrics = end_to_end(result, trainer, views, setups)
    if not traced:
        report = [
            ("steps_per_s", metrics["throughput_per_s"], "steps/s"),
            (f"step_ms_p50 (n={steps})", metrics["latency_p50_ms"], "ms"),
            (f"step_ms_p90 (n={steps})", metrics["latency_p90_ms"], "ms"),
            ("final_loss", metrics["image_loss"], "loss"),
            ("peak_device_mb", metrics["peak_working_mb"], "MB"),
            ("setup_s", metrics["setup_s"], "s"),
        ]
        return metrics, steps, 0, checks, report

    untraced_tp = metrics["throughput_per_s"]
    trainer = None
    gc.collect()
    trainer, baseline, _ = set_up(workload, inputs)
    rec = Recorder()
    _install_patches(rec, trainer.system)
    before = _system_counters(trainer.system)
    try:
        traced_run = timed_train(workload, trainer, inputs, steps)
    finally:
        rec.restore()
    checks.update({f"traced: {k}": v for k, v in
                   check(trainer, traced_run, baseline, views).items()})
    layer = per_layer(rec, traced_run, trainer.system, before,
                      _system_counters(trainer.system),
                      inputs.initial.num_gaussians)
    traced_tp = len(traced_run["times"]) / traced_run["wall"]
    layer["trace.overhead_pct"] = (untraced_tp / traced_tp - 1.0) * 100.0
    trainer = None
    gc.collect()
    rec.write_chrome_trace(trace_path)
    layers.print_self_times(rec, steps, "step")
    layers.print_isolation(workload, rec, layer, traced_run["wall"] * 1e3 / steps)
    print(f"# train wall per step {traced_run['wall'] * 1e3 / steps:.2f} ms; "
          f"chrome trace {trace_path}")
    reference_points(workload, inputs, rec, steps)
    return layer, 2 * steps, 0, checks, []
