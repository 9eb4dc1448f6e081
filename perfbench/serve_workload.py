"""The serving workload: an inline ``RenderService`` over a paged model.

A run sets the service up :data:`SETUP_REPEATS` times (paged float16
store, ``LODSet``, service, warm-up; ``setup_s`` is the median), then
drives it with an open loop (requests due at a constant rate, each
request timed from its due time to its response) followed by a closed
loop (one client sending back to back over the same trace). Serving is
inline in the one benchmark thread, so a request that comes due while a
tick renders is sent when the tick returns; that delay is the
generator's lag.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import GaussianModel, render
from repro.gaussians import layout
from repro.gaussians.layout import SH_DEGREE
from repro.render import RasterConfig
from repro.serve import LODSet, PagedServingStore, RenderRequest, RenderService
from repro.train.loss import photometric_loss

import layers
from inputs import digest, make_serve_inputs
from layers import MB
from tracing import Recorder

#: Open-loop arrival rate, about a quarter of the closed-loop capacity
#: this program had when the benchmark was written (2-CPU x86
#: container). Frame costs are heavy-tailed, and queueing amplifies the
#: box's run-to-run speed noise: at half capacity p90 swung 2x between
#: runs, at a third still 30%.
OPEN_RATE_RPS = 4.0
SLO_MS = 500.0
CACHE_BYTES = 64 << 20
NUM_SHARDS = 16
SETUP_REPEATS = 5


def host_budget(num_rows: int) -> int:
    """Resident geometry plus a quarter of the non-geometric columns."""
    return layout.param_bytes(num_rows, layout.GEOMETRIC_DIM) + (
        layout.param_bytes(num_rows, layout.NON_GEOMETRIC_DIM) // 4
    )


def set_up(model: GaussianModel, warm_camera) -> tuple[RenderService, float]:
    t0 = time.perf_counter()
    store = PagedServingStore.from_model(
        model, host_budget(model.num_gaussians), num_shards=NUM_SHARDS,
        codec="float16",
    )
    lod_set = LODSet.build(model.params)
    service = RenderService(store, lod_set=lod_set, cache_bytes=CACHE_BYTES, workers=0)
    service.serve(
        [RenderRequest(camera=warm_camera, lod=lod) for lod in range(lod_set.num_levels)]
    )
    service.cache.invalidate()
    return service, time.perf_counter() - t0


def open_loop(service: RenderService, trace, arrivals: np.ndarray) -> dict:
    n = len(trace)
    requests = [RenderRequest(camera=cam, lod=lod) for cam, lod in trace]
    index = {id(r): i for i, r in enumerate(requests)}
    answered = np.zeros(n, dtype=np.int64)
    latency = np.zeros(n)
    wait = np.zeros(n)
    lag = np.zeros(n)
    responses = [None] * n
    due = time.perf_counter() + 0.005 + arrivals[:n]
    i = 0
    while i < n:
        now = time.perf_counter()
        if due[i] > now:
            # spin, not sleep: after a sleep the next frame ran up to 40%
            # slower on a shared box (the core had gone idle), which made
            # the open-loop percentiles swing between runs
            continue
        while i < n and due[i] <= now:
            service.submit(requests[i])
            lag[i] = now - due[i]
            i += 1
        t_tick = time.perf_counter()
        batch = service.tick()
        t_done = time.perf_counter()
        for resp in batch:
            j = index[id(resp.request)]
            answered[j] += 1
            responses[j] = resp
            latency[j] = t_done - due[j]
            wait[j] = t_tick - due[j]
    return {"responses": responses, "answered": answered, "latency": latency,
            "wait": wait, "lag": lag}


def closed_loop(service: RenderService, trace) -> dict:
    requests = [RenderRequest(camera=cam, lod=lod) for cam, lod in trace]
    answered, responses = [], []
    t0 = time.perf_counter()
    for request in requests:
        batch = service.serve([request])
        answered.append(sum(r.request is request for r in batch))
        responses.extend(batch)
    wall = time.perf_counter() - t0
    return {"responses": responses, "answered": np.array(answered), "wall": wall}


def image_loss(service: RenderService, model: GaussianModel, probes) -> float:
    """Photometric loss of served probe frames against a float64
    full-detail render: what a client loses to LOD, float16 pages and
    the float32 raster path."""
    service.cache.invalidate()
    served = service.serve([RenderRequest(camera=cam, lod=lod) for cam, lod in probes])
    exact = GaussianModel(model.params.astype(np.float64))
    config = RasterConfig(engine="vectorized")
    losses = [
        photometric_loss(
            resp.image.astype(np.float64),
            render(exact, resp.request.camera, sh_degree=SH_DEGREE, config=config).image,
        ).loss
        for resp in served
    ]
    return float(np.mean(losses))


def bit_identical_miss(service: RenderService, responses) -> bool:
    """A full-LOD miss frame equals a direct ``render()`` of the decoded
    model with the service's raster config."""
    miss = next(r for r in responses if r.ok and r.lod == 0 and not r.cache_hit)
    store = service.store
    full = GaussianModel(store.gather(np.arange(store.num_rows)))
    direct = render(
        full, miss.request.camera, sh_degree=service.lod_set.sh_degree(0),
        config=service.config,
    )
    return bool(np.array_equal(direct.image, miss.image))


def _install_patches(rec: Recorder, service: RenderService) -> None:
    import repro.serve.farm as farm_mod
    import repro.serve.service as service_mod
    from repro.serve.store import _ServeShard

    layers.patch_render_layers(rec, farm_mod)
    rec.patch(service, "tick", "serve.tick")
    rec.patch(service_mod, "render_frame", "serve.frame")
    rec.patch(service.store, "gather", "servestore.gather")
    rec.patch(_ServeShard, "page_in", "page.in")
    rec.patch(service.cache, "get", "serve.cache")
    rec.patch(service.cache, "put", "serve.cache")


def _traced(service, fn, *args):
    rec = Recorder()
    ledger = service.store.ledger.counts()
    stats = service.stats.as_dict()
    _install_patches(rec, service)
    try:
        result = fn(service, *args)
    finally:
        rec.restore()
    after = service.store.ledger.counts()
    after_stats = service.stats.as_dict()
    result["ledger"] = {k: after[k] - ledger[k] for k in ledger}
    result["stats"] = {k: after_stats[k] - stats[k] for k in stats}
    return rec, result


def per_layer(rec: Recorder, run: dict, closed_rec: Recorder, closed: dict,
              service: RenderService, untraced_capacity: float) -> dict:
    frames = max(len(rec.select("serve.frame")), 1)
    ticks = rec.select("serve.tick")
    d = run["ledger"]
    stats = run["stats"]
    ok = [r for r in run["responses"] if r is not None]
    main = threading.main_thread().ident
    closed_frames = max(len(closed_rec.select("serve.frame")), 1)
    closed_covered = sum(
        s.dur for s in closed_rec.spans if s.parent is None and s.tid == main
    )
    traced_capacity = len(closed["answered"]) / closed["wall"]
    out = dict.fromkeys(layers.PER_LAYER, 0.0)
    out.update(layers.render_layer_metrics(rec, frames))
    out.update({
        "page.in_count_per_step": d["page_in_count"] / frames,
        "page.in_mb_per_step": d["page_in_disk_bytes"] / MB / frames,
        # serving pages are immutable: a spill drops the host copy and
        # writes nothing
        "page.out_mb_per_step": d["page_out_disk_bytes"] / MB / frames,
        "page.disk_read_ratio": 1.0 if d["page_in_count"] else 0.0,
        "page.sync_in_ms_per_step": rec.total("page.in") * 1e3 / frames,
        "memory.peak_host_tracked_mb": service.store.host_memory.peak_bytes / MB,
        "serve.tick_ms_p50": layers.percentiles_ms([s.dur for s in ticks], (0.5,))[0],
        "serve.frames_per_tick": frames / len(ticks),
        "serve.render_ms_per_frame": rec.total("serve.frame") * 1e3 / frames,
        "serve.queue_wait_ms_p50": layers.percentiles_ms(run["wait"], (0.5,))[0],
        "cache.hit_ratio": sum(r.cache_hit for r in ok) / len(ok),
        "cache.dedupe_ratio": (
            stats["deduped"] / stats["cache_misses"] if stats["cache_misses"] else 0.0
        ),
        "servestore.gather_ms_per_frame": rec.total("servestore.gather") * 1e3 / frames,
        "servestore.page_in_count_per_frame": d["page_in_count"] / frames,
        "servestore.page_in_mb_per_frame": d["page_in_disk_bytes"] / MB / frames,
        "harness.generator_lag_ms_p95": layers.percentiles_ms(run["lag"], (0.95,))[0],
        "trace.overhead_pct": (untraced_capacity / traced_capacity - 1.0) * 100.0,
        "trace.unaccounted_ms_per_step": (
            (closed["wall"] - closed_covered) * 1e3 / closed_frames
        ),
    })
    return out


def run(seed: int, traced: bool, trace_path: str):
    """Run the serving workload.

    Returns ``(metrics, attempted, failed, checks, report)``; ``report``
    lists ``(name, value, unit)`` under the serving-specific names.
    """
    inputs = make_serve_inputs(seed, OPEN_RATE_RPS)
    n = len(inputs.trace)
    print(f"# input digest {digest(inputs.model, inputs.trace, inputs.arrivals)}")
    print(f"# serve_walkthrough: {inputs.model.num_gaussians} splats, "
          f"{n} requests, open loop at {OPEN_RATE_RPS} rps, then closed loop")
    warm_camera = inputs.probes[0][0]
    setups, service = [], None
    for _ in range(1 if traced else SETUP_REPEATS):
        if service is not None:
            service.close()
        service, secs = set_up(inputs.model, warm_camera)
        setups.append(secs)

    try:
        untraced = None
        if traced:
            untraced = closed_loop(service, inputs.trace)
            untraced_capacity = n / untraced["wall"]
            service.cache.invalidate()
            rec, opened = _traced(service, open_loop, inputs.trace,
                                  inputs.arrivals)
            service.cache.invalidate()
            closed_rec, closed = _traced(service, closed_loop, inputs.trace)
        else:
            opened = open_loop(service, inputs.trace, inputs.arrivals)
            service.cache.invalidate()
            closed = closed_loop(service, inputs.trace)
        peak_host = service.store.host_memory.peak_bytes
        responses = [r for r in opened["responses"] if r is not None]
        latency_ms = opened["latency"] * 1e3
        slo_ok = sum(
            r.ok and latency_ms[i] <= SLO_MS for i, r in enumerate(opened["responses"])
        ) / n
        closed_runs = [closed] + ([untraced] if untraced is not None else [])
        all_responses = responses + [r for c in closed_runs for r in c["responses"]]
        failed = sum(r.status in ("rejected", "error") for r in all_responses)
        checks = {
            "every request answered exactly once": bool(
                (opened["answered"] == 1).all()
                and all((c["answered"] == 1).all() for c in closed_runs)
            ),
            "full-LOD miss frame bit-identical to render()": bit_identical_miss(
                service, responses
            ),
            "paged store host peak within budget": (
                service.store.host_memory.peak_bytes
                <= service.store.host_memory.capacity_bytes
            ),
        }
        attempted = len(all_responses)
        if traced:
            layer = per_layer(rec, opened, closed_rec, closed, service,
                              untraced_capacity)
            rec.write_chrome_trace(trace_path)
            layers.print_self_times(rec, max(len(rec.select("serve.frame")), 1),
                                    "rendered frame (open loop)")
            layers.print_isolation("serve_walkthrough", rec, layer, 0.0)
            print(f"# chrome trace {trace_path}")
            return layer, attempted, failed, checks, []
        p50, p90, p95 = layers.percentiles_ms(opened["latency"], (0.5, 0.9, 0.95))
        metrics = {
            "throughput_per_s": n / closed["wall"],
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "image_loss": image_loss(service, inputs.model, inputs.probes),
            "peak_working_mb": peak_host / MB,
            "setup_s": float(np.median(setups)),
        }
        hits = sum(r.cache_hit for r in responses)
        report = [
            (f"serve_p50_ms (n={n})", metrics["latency_p50_ms"], "ms"),
            (f"serve_p95_ms (n={n})", p95, "ms"),
            (f"serve_slo_ok_ratio (limit {SLO_MS:.0f} ms)", slo_ok, "ratio"),
            (f"serve_capacity_rps (n={n})", metrics["throughput_per_s"], "req/s"),
            ("open-loop cache hit ratio", hits / len(responses), "ratio"),
            ("setup_s", metrics["setup_s"], "s"),
        ]
        return metrics, attempted, failed, checks, report
    finally:
        service.close()
