"""Functional training systems as thin step-loops over parameter stores.

Unlike :mod:`repro.sim` (which *models time*), these systems *execute
training*: real culling, real rendering, real gradients, real optimizer
state. All placement policy — which column block lives where, staging,
ledger traffic, memory charges, lazy commits — lives in
:mod:`repro.core.stores`; a system is just a store composition plus the
per-iteration loop (cull, optionally split, render, aggregate, hand
gradients back):

* :class:`GPUOnlySystem` — one :class:`~repro.core.stores.DeviceStore`
  over all 59 columns.
* :class:`BaselineOffloadSystem` — Section 4.1: one
  :class:`~repro.core.stores.HostStore` over all 59 columns, full rows
  staged per iteration, dense Adam on the host.
* :class:`GSScaleSystem` — Sections 4.2-4.4 over a :class:`Placement`
  (shard count K, page tier, deferred or not): per shard a
  :class:`~repro.core.stores.HybridStore` of a device-resident geometric
  block (selective offloading) and a forwarding non-geometric store
  (parameter forwarding + lazy commits, optionally deferred), with
  balance-aware image splitting. The four GS-Scale presets of
  :data:`~repro.core.config.SYSTEM_NAMES` are placements of this one
  class: ``gsscale`` (K=1, host, deferred), ``gsscale_no_deferred`` (K=1,
  host), ``sharded`` (K shards on the host — the Grendel regime) and
  ``outofcore`` (K shards paged from disk through a bounded resident
  set — TideGS).

Systems that own threads, pools or temporary spill directories release
them in :meth:`TrainingSystem.close` (or on leaving a ``with`` block);
:meth:`TrainingSystem.finalize` only settles the optimizer math.

A :class:`~repro.sim.memory.MemoryTracker` accounts device bytes in fp32
equivalents, so OOM behaviour and peak-memory ratios can be asserted
functionally, not just modeled. Every system renders through the
rasterization backend selected by ``GSScaleConfig.engine`` (see
``docs/raster_engines.md``); the store/system layering itself is described
in ``docs/architecture.md``.
"""

from __future__ import annotations

import os
import tempfile
import threading
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np

from ..cameras.camera import Camera
from ..gaussians import GaussianModel, layout
from ..render import (
    FragmentSource,
    frustum_cull,
    projection,
    rasterize_backward_fragment,
    rasterize_fragment_sources,
    render,
    render_backward,
)
from ..render.culling import CullResult
from ..render.parallel import PersistentPool, pool_fork_guard
from ..render.rasterize import RasterConfig
from ..sim.memory import ACTIVATION_BYTES_PER_PIXEL, MemoryTracker
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span
from ..train.loss import photometric_loss
from .config import GSScaleConfig
from .splitting import find_balanced_split_by, spatial_partition
from .stores import (
    DeviceStore,
    DiskStore,
    HostStore,
    HybridStore,
    ParameterStore,
    ResidentSet,
    ShardedStore,
    _WriteBehindWriter,
)


@dataclass
class TransferLedger:
    """Counts of simulated PCIe and disk-paging traffic.

    Two channels: the PCIe channel (``h2d``/``d2h``, staging windows and
    gradient returns) and the disk channel (``page_in``/``page_out``, the
    out-of-core tier spilling and prefetching shard state). A ledger built
    with a ``parent`` mirrors every record into it, so per-shard ledgers
    roll up into the system-wide ledger the trainer reads.

    The disk channel meters two sizes per transfer: ``page_*_bytes`` is
    the decoded working-set size (fp32-equivalent accounting, what the
    host gains or frees), while ``page_*_disk_bytes`` is what actually
    crossed the disk interface — smaller when the store's page codec
    compresses. ``page_in_bytes / page_in_disk_bytes`` is the effective
    disk-bandwidth multiplier the codec buys.
    """

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_count: int = 0
    d2h_count: int = 0
    page_in_bytes: int = 0
    page_out_bytes: int = 0
    page_in_count: int = 0
    page_out_count: int = 0
    page_in_disk_bytes: int = 0
    page_out_disk_bytes: int = 0
    parent: "TransferLedger | None" = None

    def record_h2d(self, num_bytes: int) -> None:
        """Record a host-to-device transfer."""
        self.h2d_bytes += num_bytes
        self.h2d_count += 1
        if self.parent is not None:
            self.parent.record_h2d(num_bytes)

    def record_d2h(self, num_bytes: int) -> None:
        """Record a device-to-host transfer."""
        self.d2h_bytes += num_bytes
        self.d2h_count += 1
        if self.parent is not None:
            self.parent.record_d2h(num_bytes)

    def record_page_in(self, num_bytes: int, disk_bytes: int | None = None) -> None:
        """Record a disk-to-host page-in (out-of-core prefetch).

        ``disk_bytes`` is the encoded on-disk size; ``None`` means the
        page was stored uncompressed (disk == decoded).
        """
        self.page_in_bytes += num_bytes
        self.page_in_count += 1
        self.page_in_disk_bytes += num_bytes if disk_bytes is None else disk_bytes
        if self.parent is not None:
            self.parent.record_page_in(num_bytes, disk_bytes)

    def record_page_out(self, num_bytes: int, disk_bytes: int | None = None) -> None:
        """Record a host-to-disk page-out (out-of-core spill)."""
        self.page_out_bytes += num_bytes
        self.page_out_count += 1
        self.page_out_disk_bytes += num_bytes if disk_bytes is None else disk_bytes
        if self.parent is not None:
            self.parent.record_page_out(num_bytes, disk_bytes)

    def counts(self) -> dict[str, int]:
        """The counter fields as a plain dict (no ``parent``).

        The single rollup surface: shard reports, the telemetry
        registry's ledger mirror, and ad-hoc consumers all read this
        instead of re-listing the fields.
        """
        from dataclasses import fields as _fields

        return {
            f.name: getattr(self, f.name)
            for f in _fields(self)
            if f.name != "parent"
        }


@dataclass
class StepReport:
    """Outcome of one training step.

    Attributes:
        iteration: 1-based step index.
        loss, l1, ssim: photometric loss and its components. A step in
            which nothing was visible reports ``loss = l1 = 0.0`` and
            ``ssim = nan`` (there was no image to compare; consumers
            averaging per-step SSIM must skip NaNs, as
            :attr:`repro.core.trainer.TrainingHistory.mean_ssim` does).
        num_visible: Gaussians inside the view frustum (union of regions).
        num_regions: 1, or 2+ when image splitting fired.
        valid_ids: the visible indices (for densification).
        mean2d_abs: screen-gradient magnitudes aligned with ``valid_ids``.
    """

    iteration: int
    loss: float
    l1: float
    ssim: float
    num_visible: int
    num_regions: int
    valid_ids: np.ndarray = field(repr=False)
    mean2d_abs: np.ndarray = field(repr=False)


@dataclass
class ShardReport:
    """Per-shard accounting snapshot of a :class:`GSScaleSystem`.

    ``page_in_bytes``/``page_out_bytes`` stay zero, and ``resident``
    true, unless the shard's host state lives in the disk tier.
    """

    shard: int
    num_gaussians: int
    peak_bytes: int
    live_bytes: int
    h2d_bytes: int
    d2h_bytes: int
    h2d_count: int
    d2h_count: int
    page_in_bytes: int = 0
    page_out_bytes: int = 0
    resident: bool = True


@dataclass
class _RegionOutput:
    ids: np.ndarray
    grads: np.ndarray
    mean2d_abs: np.ndarray
    loss: float
    l1: float
    ssim: float


def _cull_shard_task(args) -> CullResult:
    """One shard's frustum cull; module-level so the ``shard_workers``
    fan-out can pickle it."""
    means, log_scales, quats, camera = args
    return frustum_cull(means, log_scales, quats, camera)


def locality_view_order(cameras: list[Camera]) -> np.ndarray:
    """View schedule that keeps consecutive views spatially close.

    Greedy nearest-neighbor walk over the camera centers, starting from
    the first view. Out-of-core training pays one shard swap whenever the
    active shard set changes; ordering views so neighbors share a
    resident set amortizes each page-in over many views — the
    ``OUTOFCORE_VIEW_LOCALITY`` assumption of ``sim/timeline.py``, made
    real. Deterministic for a fixed camera list.
    """
    n = len(cameras)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    centers = np.stack([cam.center for cam in cameras])
    remaining = np.ones(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    order[0] = 0
    remaining[0] = False
    for i in range(1, n):
        d = np.linalg.norm(centers - centers[order[i - 1]], axis=1)
        d[~remaining] = np.inf
        order[i] = int(np.argmin(d))
        remaining[order[i]] = False
    return order


class TrainingSystem(ABC):
    """Common step-loop machinery; subclasses supply a store composition.

    ``_setup`` must set ``self.store`` (a :class:`ParameterStore` spanning
    all 59 columns) and ``self._num_gaussians``. The base :meth:`step`
    then runs the paper's iteration: plan regions (with balance-aware
    image splitting when the subclass enables it), cull, stage, render,
    return gradients per region, commit the previous step's lazy update,
    aggregate on the host, and hand the step's gradients to the store.
    """

    name = "abstract"

    #: whether views whose active ratio exceeds ``mem_limit`` are split
    #: (Section 4.4); only the staged-offload systems benefit
    splits_images = False

    store: ParameterStore

    def __init__(self, model: GaussianModel, config: GSScaleConfig):
        self.config = config
        self.iteration = 0
        if config.telemetry:
            # idempotent: every telemetry=True consumer shares one tracer
            _trace.install()
        self.memory = MemoryTracker(capacity_bytes=config.device_capacity_bytes)
        self.ledger = TransferLedger()
        self._lr = config.lr_vector(dtype=model.dtype)
        self._setup(model)

    @property
    def raster_engine(self) -> str:
        """Rasterization backend every render of this system goes through."""
        return self.config.raster.engine

    # -- subclass surface --------------------------------------------------
    @abstractmethod
    def _setup(self, model: GaussianModel) -> None:
        """Build the store composition (placement + optimizers)."""

    def materialized_model(self) -> GaussianModel:
        """Mathematically current parameters as a plain model (copy),
        including pending gradients and deferred drift."""
        return GaussianModel(self.store.materialize())

    def finalize(self) -> None:
        """Commit any pending/lazy state — the optimizer math only.

        Training may continue afterwards (mid-run checkpoints and
        densification finalize too); :meth:`close` releases resources.
        """
        self.store.flush()

    def close(self) -> None:
        """Release pools, threads and temporary files (idempotent). The
        in-memory placements hold none."""

    def __enter__(self) -> "TrainingSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def prefetch_depth(self) -> int:
        """How many upcoming views :meth:`hint_upcoming_views` can use
        (0: the system does not prefetch)."""
        return 0

    def hint_upcoming_views(self, cameras: list[Camera]) -> None:
        """Announce the next views, nearest first (ignored unless the
        system prefetches)."""

    def rebuild(self, model: GaussianModel) -> None:
        """Re-place parameters after a structural change (densification)."""
        self.memory = MemoryTracker(capacity_bytes=self.config.device_capacity_bytes)
        self.ledger = TransferLedger()
        self._setup(model)

    def checkpoint_entries(self) -> list[tuple[str, ParameterStore, np.ndarray | None]]:
        """``(prefix, leaf store, global row ids or None)`` triples for
        :mod:`repro.core.checkpoint`."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------
    @property
    def num_gaussians(self) -> int:
        """Scene size."""
        return self._num_gaussians

    def _scheduled_lr(self) -> np.ndarray | None:
        """Full lr vector for this iteration, or None when static."""
        if self.config.position_lr_decay_steps is None:
            return None
        lr = self._lr.copy()
        lr[layout.MEAN_SLICE] *= self.config.position_lr_scale_at(self.iteration)
        return lr

    def _cull(self, camera: Camera) -> CullResult:
        """Frustum culling over the store's resident geometric columns."""
        means, log_scales, quats = self.store.geometry()
        return frustum_cull(means, log_scales, quats, camera)

    def _count_visible(self, camera: Camera) -> int:
        return self._cull(camera).num_visible

    def _plan_regions(
        self, camera: Camera
    ) -> tuple[list[tuple[Camera, int]], CullResult | None]:
        """Render regions for this view, plus the whole-view cull result
        when it can be reused (single-region case)."""
        whole = self._cull(camera)
        if (
            self.splits_images
            and whole.active_ratio > self.config.mem_limit
            and camera.width >= 2
        ):
            split = find_balanced_split_by(self._count_visible, camera)
            return list(split.regions), None
        return [(camera, 0)], whole

    def _render_one(
        self,
        compact: GaussianModel,
        camera: Camera,
        gt_region: np.ndarray,
        pixel_weight: float,
    ) -> tuple[np.ndarray, np.ndarray, float, float, float]:
        """Render a (possibly cropped) view of a compact visible-set model
        and return packed gradients scaled to whole-image units."""
        act_bytes = camera.num_pixels * ACTIVATION_BYTES_PER_PIXEL
        self.memory.allocate("activations", act_bytes)
        try:
            with _span("train/forward", "train"):
                res = render(
                    compact,
                    camera,
                    sh_degree=self.config.sh_degree_at(self.iteration),
                    background=self.config.background,
                    valid_ids=np.arange(compact.num_gaussians),
                    config=self.config.raster,
                )
                loss = photometric_loss(
                    res.image, gt_region, ssim_lambda=self.config.ssim_lambda
                )
            with _span("train/backward", "train"):
                back = render_backward(
                    compact, camera, res, loss.grad_image * pixel_weight
                )
        finally:
            self.memory.free("activations", act_bytes)
        return (
            back.param_grads,
            back.mean2d_abs,
            loss.loss * pixel_weight,
            loss.l1 * pixel_weight,
            loss.ssim,
        )

    def _render_region(
        self,
        ids: np.ndarray,
        region_cam: Camera,
        gt_region: np.ndarray,
        weight: float,
    ) -> _RegionOutput:
        """One region's stage -> render -> backward -> unstage cycle.

        The default path stages the whole visible union through the store
        composition and renders it jointly; a sharded GS-Scale placement
        overrides this for the ``fragment`` engine to render shard by
        shard without ever assembling the union's packed matrix.
        """
        with _span("train/stage", "train"):
            values = self.store.stage(ids)
        returned = False
        try:
            compact = GaussianModel(values)
            grads, m2d, loss, l1, ssim = self._render_one(
                compact, region_cam, gt_region, weight
            )
            returned = True
        finally:
            with _span("train/unstage", "train"):
                self.store.unstage(ids, returned=returned)
        return _RegionOutput(
            ids=ids, grads=grads, mean2d_abs=m2d, loss=loss, l1=l1, ssim=ssim
        )

    @staticmethod
    def _aggregate(regions: list[_RegionOutput]) -> _RegionOutput:
        """Sum per-region gradients on the "host" (Section 4.4: gradients
        are aggregated on the CPU, then a single optimizer update runs).
        Sharded placements funnel every shard's regions through the same
        path — host-side aggregation across shards."""
        if len(regions) == 1:
            return regions[0]
        all_ids = np.concatenate([r.ids for r in regions])
        union, inverse = np.unique(all_ids, return_inverse=True)
        dim = regions[0].grads.shape[1]
        grads = np.zeros((union.size, dim), dtype=regions[0].grads.dtype)
        m2d = np.zeros(union.size, dtype=regions[0].mean2d_abs.dtype)
        np.add.at(grads, inverse, np.concatenate([r.grads for r in regions]))
        np.add.at(m2d, inverse, np.concatenate([r.mean2d_abs for r in regions]))
        return _RegionOutput(
            ids=union,
            grads=grads,
            mean2d_abs=m2d,
            loss=sum(r.loss for r in regions),
            l1=sum(r.l1 for r in regions),
            ssim=float(np.mean([r.ssim for r in regions])),
        )

    # -- the unified training step ----------------------------------------
    def step(self, camera: Camera, gt_image: np.ndarray) -> StepReport:
        """Run one training iteration through the store composition."""
        self.iteration += 1
        tok = _trace.begin("train/step", "train")
        try:
            return self._step_impl(camera, gt_image)
        finally:
            _trace.end(tok)

    def _step_impl(self, camera: Camera, gt_image: np.ndarray) -> StepReport:
        lr = self._scheduled_lr()
        if lr is not None:
            self.store.set_lr(lr)

        with _span("train/cull", "train"):
            regions, whole = self._plan_regions(camera)
        total_px = camera.num_pixels
        outputs: list[_RegionOutput] = []
        for region_cam, x_offset in regions:
            if whole is not None and len(regions) == 1:
                cull = whole
            else:
                with _span("train/cull", "train"):
                    cull = self._cull(region_cam)
            ids = cull.valid_ids
            if ids.size == 0:
                continue
            gt_region = gt_image[:, x_offset : x_offset + region_cam.width]
            weight = region_cam.num_pixels / total_px
            outputs.append(
                self._render_region(ids, region_cam, gt_region, weight)
            )

        # the lazy host commit of iteration N-1 (overlapped in real time)
        with _span("train/commit", "train"):
            self.store.commit()

        if not outputs:
            # nothing visible: no image was rendered (ssim is undefined —
            # NaN, not a fake 1.0), but every optimizer still ticks
            with _span("train/return_grads", "train"):
                self.store.return_grads(
                    np.empty(0, dtype=np.int64),
                    np.zeros((0, self.store.dim), dtype=self.store.dtype),
                )
            return StepReport(
                iteration=self.iteration, loss=0.0, l1=0.0,
                ssim=float("nan"),
                num_visible=0, num_regions=len(regions),
                valid_ids=np.empty(0, dtype=np.int64),
                mean2d_abs=np.empty(0),
            )

        with _span("train/aggregate", "train"):
            agg = self._aggregate(outputs)
        with _span("train/return_grads", "train"):
            self.store.return_grads(agg.ids, agg.grads)

        return StepReport(
            iteration=self.iteration,
            loss=agg.loss,
            l1=agg.l1,
            ssim=agg.ssim,
            num_visible=int(agg.ids.size),
            num_regions=len(regions),
            valid_ids=agg.ids,
            mean2d_abs=agg.mean2d_abs,
        )


class GPUOnlySystem(TrainingSystem):
    """Everything on the device; the paper's GPU-only reference."""

    name = "gpu_only"

    def _setup(self, model: GaussianModel) -> None:
        self._num_gaussians = model.num_gaussians
        self.store = DeviceStore(
            model.params,
            layout.ALL_BLOCK,
            self.config.adam_config(self._lr),
            self.memory,
        )

    def checkpoint_entries(self):
        return [("", self.store, None)]


class BaselineOffloadSystem(TrainingSystem):
    """Baseline host offloading (Section 4.1, Figure 6): all parameters and
    optimizer state on the host; full 59-parameter rows staged on demand
    (Challenge 1: culling runs on the CPU over host-resident params);
    dense Adam on the host CPU (Challenge 2)."""

    name = "baseline_offload"

    def _setup(self, model: GaussianModel) -> None:
        self._num_gaussians = model.num_gaussians
        self.store = HostStore(
            model.params,
            layout.ALL_BLOCK,
            self.config.adam_config(self._lr),
            self.memory,
            self.ledger,
        )

    def checkpoint_entries(self):
        return [("", self.store, None)]


@dataclass(frozen=True)
class Placement:
    """Where a GS-Scale system keeps its parameters.

    The triple every GS-Scale preset reduces to: ``num_shards`` spatial
    shards (one simulated GPU each), the ``tier`` of each shard's
    non-geometric block (``"host"`` DRAM, or ``"disk"`` — memory-mapped
    spill files paged through a bounded resident set), and whether the
    host optimizer is ``deferred``.
    """

    num_shards: int
    tier: str
    deferred: bool

    @classmethod
    def of(cls, config: GSScaleConfig) -> "Placement":
        """The placement of ``config.system``'s preset."""
        if config.system in ("gsscale", "gsscale_no_deferred"):
            return cls(1, "host", config.system == "gsscale")
        if config.system == "sharded":
            return cls(config.num_shards, "host", True)
        if config.system == "outofcore":
            return cls(config.num_shards, "disk", True)
        raise ValueError(f"{config.system!r} is not a GS-Scale preset")


class GSScaleSystem(TrainingSystem):
    """GS-Scale: selective offloading, parameter forwarding, optional
    deferred optimizer update, and balance-aware image splitting, over a
    :class:`Placement` read off the preset.

    The Gaussian set is spatially partitioned into K shards. Each shard is
    a :class:`~repro.core.stores.HybridStore` of a device-resident
    geometric block and a forwarding non-geometric block, with its own
    :class:`~repro.sim.memory.MemoryTracker` (capped by
    ``shard_device_capacity_bytes``) and :class:`TransferLedger`, both
    rolling up into the system-wide aggregates — one simulated GPU per
    shard, as in Grendel's Gaussian-sharded training. At K=1 the single
    hybrid store *is* the system's store (no row re-indexing); at K>1 a
    :class:`~repro.core.stores.ShardedStore` routes rows to shards.

    Per view every shard frustum-culls its own geometry (shards outside
    the frustum are skipped: no staging, no traffic); ``shard_workers > 1``
    fans those culls out over a process pool. Rendering stages the
    visible union and renders it jointly, except with the ``fragment``
    engine at K>1, where each shard stages, projects and rasterizes its
    own rows and the host composites per-shard fragment buffers
    (:meth:`_render_region_fragment`) — the union is never assembled.

    With the ``disk`` tier (TideGS-style out-of-core blocks) each shard's
    non-geometric block is a :class:`~repro.core.stores.DiskStore` and at
    most ``resident_shards`` shards occupy host DRAM at once; each step
    pages the view's active shards in, trains, and spills the rest. The
    paging leg (:class:`_PagingLeg`) owns the spill directory, the async
    prefetcher, the write-behind writer and the paging counters.

    Training numerics are independent of K, of the fan-out, and of the
    tier: ``sharded`` at K=1 is bit-exact ``gsscale``, and ``outofcore``
    is bit-identical to ``sharded`` (under the raw/lossless codecs).
    """

    splits_images = True

    def __init__(self, model: GaussianModel, config: GSScaleConfig):
        self.name = config.system
        self.placement = Placement.of(config)
        self._pool: PersistentPool | None = None
        #: the step's whole-view cull, computed while paging the view in
        #: and reused by region planning (geometry is immutable until the
        #: gradients land)
        self._cull_cache: tuple[Camera, CullResult] | None = None
        self._pager = (
            _PagingLeg(config, self) if self.placement.tier == "disk" else None
        )
        try:
            super().__init__(model, config)
        except BaseException:
            self.close()  # a failed build must not strand the paging leg
            raise

    def _setup(self, model: GaussianModel) -> None:
        self._num_gaussians = model.num_gaussians
        cfg = self.config
        k_shards = self.placement.num_shards
        if self._pager is not None:
            self._pager.reset()
        self.shard_rows = spatial_partition(model.means, k_shards)
        self.shard_trackers: list[MemoryTracker] = []
        self.shard_ledgers: list[TransferLedger] = []
        self._shards: list[HybridStore] = []
        for k, rows in enumerate(self.shard_rows):
            tracker = MemoryTracker(
                capacity_bytes=cfg.shard_device_capacity_bytes,
                parent=self.memory,
            )
            ledger = TransferLedger(parent=self.ledger)
            # one shard spans every row in order: no gather copy
            sub = model.params if k_shards == 1 else model.params[rows]
            # selective offloading: geometric block + its optimizer state
            # live on the device (Section 4.2.1)
            geo = DeviceStore(
                sub[:, layout.GEOMETRIC_SLICE],
                layout.GEOMETRIC_BLOCK,
                cfg.adam_config(self._lr[layout.GEOMETRIC_SLICE]),
                tracker,
                label="geo",
            )
            # the non-geometric block stays behind the forwarding pipeline
            # (peeked staging + lazy commits, Sections 4.2.2/4.3)
            host = self._nongeo_placement(
                sub[:, layout.NON_GEOMETRIC_SLICE], tracker, ledger, k
            )
            self._shards.append(HybridStore([geo, host]))
            self.shard_trackers.append(tracker)
            self.shard_ledgers.append(ledger)
        if k_shards == 1:
            self.store = self._shards[0]
        else:
            self.store = ShardedStore(self.shard_rows, self._shards)

    def _nongeo_placement(
        self,
        params_block: np.ndarray,
        tracker: MemoryTracker,
        ledger: TransferLedger,
        k: int,
    ) -> ParameterStore:
        """Shard ``k``'s non-geometric store on the placement's tier."""
        cfg = self.config
        adam = cfg.adam_config(self._lr[layout.NON_GEOMETRIC_SLICE])
        if self._pager is not None:
            return self._pager.make_store(
                params_block, adam, tracker, ledger, k, self.placement.deferred
            )
        return HostStore(
            params_block,
            layout.NON_GEOMETRIC_BLOCK,
            adam,
            tracker,
            ledger,
            forwarding=True,
            deferred=self.placement.deferred,
            max_defer=cfg.max_defer,
        )

    @property
    def num_shards(self) -> int:
        """Number of shards (stores/devices)."""
        return len(self._shards)

    def _nongeo_store(self, k: int) -> ParameterStore:
        return self._shards[k].children[1]

    # -- per-shard culling -------------------------------------------------
    def _get_pool(self) -> PersistentPool | None:
        if self.config.shard_workers <= 1 or self.num_shards <= 1:
            return None
        if self._pool is None:
            self._pool = PersistentPool(
                min(self.config.shard_workers, self.num_shards),
                task_timeout=self.config.pool_task_timeout_s,
                max_retries=self.config.pool_retries,
            )
        return self._pool

    def _shard_culls(self, camera: Camera, pooled: bool = True) -> list[CullResult]:
        """Each shard's frustum cull of its own geometry (shard-local ids).

        The work each shard's device would do. ``pooled`` runs them
        through the ``shard_workers`` pool, shipping each shard's geometry
        per call (the geometric block mutates every step, so workers
        cannot cache it); the split search's probes and the prefetch
        thread stay serial.
        """
        tasks = [self._shards[k].geometry() + (camera,) for k in range(self.num_shards)]
        pool = self._get_pool() if pooled else None
        if pool is not None:
            return pool.map(_cull_shard_task, tasks)
        return [_cull_shard_task(t) for t in tasks]

    def _union(self, parts: list[CullResult]) -> CullResult:
        """Per-shard culls as one cull in global id order. Culling is
        per-Gaussian, so the union over a partition equals the unsharded
        cull bit for bit."""
        if len(parts) == 1:
            return parts[0]  # one shard spans every row: local ids are global
        ids = [
            rows[r.valid_ids]
            for rows, r in zip(self.shard_rows, parts)
            if r.num_visible
        ]
        valid = np.sort(np.concatenate(ids)) if ids else np.empty(0, dtype=np.int64)
        return CullResult(
            valid_ids=valid,
            num_total=self._num_gaussians,
            num_in_depth=int(sum(r.num_in_depth for r in parts)),
            num_visible=int(valid.size),
        )

    def _cull(self, camera: Camera) -> CullResult:
        if self._cull_cache is not None and self._cull_cache[0] is camera:
            return self._cull_cache[1]
        return self._union(self._shard_culls(camera))

    def _count_visible(self, camera: Camera) -> int:
        # the split search probes ~12 cropped cameras per split view;
        # counting is cheap, so it stays serial
        return sum(r.num_visible for r in self._shard_culls(camera, pooled=False))

    def active_shard_ids(self, camera: Camera) -> list[int]:
        """Shards with at least one Gaussian inside ``camera``'s frustum."""
        return [
            k
            for k, r in enumerate(self._shard_culls(camera, pooled=False))
            if r.num_visible
        ]

    # -- fragment-parallel region rendering -------------------------------
    def _fragment_raster_config(self) -> RasterConfig:
        """Raster config of the per-shard fragment fan-out.

        ``shard_workers`` is the sharded system's parallelism knob, so it
        drives the fragment pool too (graduating the workers from
        culling-only to full per-shard renders); ``raster.workers`` is the
        fallback when it is unset. Worker count never changes numerics.
        """
        cfg = self.config
        workers = (
            cfg.shard_workers if cfg.shard_workers > 1 else cfg.raster.workers
        )
        if workers == cfg.raster.workers:
            return cfg.raster
        return replace(cfg.raster, workers=workers)

    def _render_region(
        self,
        ids: np.ndarray,
        region_cam: Camera,
        gt_region: np.ndarray,
        weight: float,
    ) -> _RegionOutput:
        if self.raster_engine == "fragment" and self.num_shards > 1:
            return self._render_region_fragment(ids, region_cam, gt_region, weight)
        return super()._render_region(ids, region_cam, gt_region, weight)

    def _render_region_fragment(
        self,
        ids: np.ndarray,
        region_cam: Camera,
        gt_region: np.ndarray,
        weight: float,
    ) -> _RegionOutput:
        """Render one region shard by shard — no union gather.

        Forward: each shard opens its own staging window (stage ->
        project -> unstage; the window is released before the next shard
        stages, so the aggregate staging peak is the *largest* shard's
        window, not the sum), contributes a :class:`FragmentSource` of
        projected columns, and the host composites fragment buffers via
        :func:`rasterize_fragment_sources`. Backward: the composited
        gradient is split along the shard boundaries of the concatenated
        row space, and each shard re-stages to run its projection adjoint
        and return its gradient slice (the second H2D window is the price
        of never holding two shards' rows at once; values are identical
        because staging is a pure optimizer peek). Numerics match the
        gather path to compositing-rounding precision (~1e-12).
        """
        cfg = self.config
        raster_cfg = self._fragment_raster_config()
        dtype = self.store.dtype
        background = (
            np.zeros(3, dtype=dtype)
            if cfg.background is None
            else np.asarray(cfg.background, dtype=dtype)
        )
        sh_degree = cfg.sh_degree_at(self.iteration)
        members = [self.store._members(ids, rows) for rows in self.shard_rows]
        active = [k for k, (sel, _) in enumerate(members) if sel.size]

        act_bytes = region_cam.num_pixels * ACTIVATION_BYTES_PER_PIXEL
        self.memory.allocate("activations", act_bytes)
        try:
            sources: list[FragmentSource] = []
            projs = []
            for k in active:
                _, local = members[k]
                store = self._shards[k]
                values = store.stage(local)
                try:
                    shard = GaussianModel(values)
                    proj = projection.project(
                        shard.means, shard.log_scales, shard.quats,
                        shard.opacity_logits, shard.sh, region_cam,
                        sh_degree=sh_degree,
                    )
                finally:
                    store.unstage(local, returned=False)
                projs.append(proj)
                sources.append(
                    FragmentSource(
                        means2d=proj.geom.means2d,
                        conics=proj.geom.conics,
                        colors=proj.colors,
                        opacities=proj.opacities,
                        depths=proj.geom.depths,
                        radii=proj.geom.radii,
                    )
                )

            frag = rasterize_fragment_sources(
                sources, region_cam.width, region_cam.height,
                background=background, config=raster_cfg,
            )
            loss = photometric_loss(
                frag.image, gt_region, ssim_lambda=cfg.ssim_lambda
            )
            rgrads = rasterize_backward_fragment(
                np.concatenate([s.means2d for s in sources]),
                np.concatenate([s.conics for s in sources]),
                np.concatenate([s.colors for s in sources]),
                np.concatenate([s.opacities for s in sources]),
                frag,
                loss.grad_image * weight,
                background=background,
                config=raster_cfg,
            )

            grads = np.zeros((ids.size, layout.PARAM_DIM), dtype=dtype)
            m2d = np.zeros(ids.size, dtype=dtype)
            offsets = frag.offsets
            for j, k in enumerate(active):
                sel, local = members[k]
                sl = slice(int(offsets[j]), int(offsets[j + 1]))
                store = self._shards[k]
                values = store.stage(local)
                returned = False
                try:
                    shard = GaussianModel(values)
                    pgrads = projection.project_backward(
                        shard.means, shard.log_scales, shard.quats,
                        shard.sh, region_cam, projs[j],
                        grad_means2d=rgrads.means2d[sl],
                        grad_conics=rgrads.conics[sl],
                        grad_colors=rgrads.colors[sl],
                        grad_opacities=rgrads.opacities[sl],
                    )
                    returned = True
                finally:
                    store.unstage(local, returned=returned)
                grads[sel, layout.MEAN_SLICE] = pgrads.means
                grads[sel, layout.SCALE_SLICE] = pgrads.log_scales
                grads[sel, layout.QUAT_SLICE] = pgrads.quats
                grads[sel, layout.OPACITY_SLICE] = pgrads.opacity_logits
                grads[sel, layout.SH_SLICE] = pgrads.sh.reshape(
                    local.size, layout.SH_DIM
                )
                m2d[sel] = rgrads.mean2d_abs[sl]
        finally:
            self.memory.free("activations", act_bytes)
        return _RegionOutput(
            ids=ids,
            grads=grads,
            mean2d_abs=m2d,
            loss=loss.loss * weight,
            l1=loss.l1 * weight,
            ssim=loss.ssim,
        )

    # -- the disk tier's per-view paging ----------------------------------
    @property
    def host_memory(self) -> MemoryTracker | None:
        """Host tracker of the disk tier's resident working set (``None``
        on the host tier, whose host state is not paged)."""
        return self._pager.host_memory if self._pager is not None else None

    @property
    def resident_set(self) -> ResidentSet | None:
        """The disk tier's residency budget (``None`` on the host tier)."""
        return self._pager.resident_set if self._pager is not None else None

    @property
    def prefetch_hits(self) -> int:
        """Shards a hinted view found staged or still resident (whole run)."""
        return self._pager.prefetch_hits if self._pager is not None else 0

    @property
    def prefetch_misses(self) -> int:
        """Shards a hinted view still had to read synchronously (whole run)."""
        return self._pager.prefetch_misses if self._pager is not None else 0

    @property
    def prefetch_depth(self) -> int:
        """Lookahead depth of the async staging queue (1 = the classic
        double buffer; 0 when the async leg is off)."""
        if self._pager is None or self._pager.prefetcher is None:
            return 0
        return self._pager.prefetcher.depth

    @property
    def prefetch_staged_peak_bytes(self) -> int:
        """High-water host bytes of the async leg's staging queue.

        Not part of ``host_memory`` (the installed working set the
        resident budget bounds): the buffers belong to the background
        thread until adoption. The modeled counterpart is the
        ``staging_shards`` term of
        :func:`repro.sim.memory.outofcore_host_state_bytes` — add the
        two when sizing host DRAM for an async run.
        """
        if self._pager is None or self._pager.prefetcher is None:
            return 0
        return self._pager.prefetcher.peak_staged_bytes

    @property
    def sync_spill_bytes(self) -> int:
        """Decoded bytes spilled *synchronously* on the training thread,
        cumulative across densification rebuilds — the admit-path disk
        stall in deterministic byte units. Write-behind runs keep this at
        zero (every page-out rides the background writer); synchronous
        runs accumulate the full page-out traffic here."""
        return self._pager.sync_spill_bytes if self._pager is not None else 0

    @property
    def sync_spill_seconds(self) -> float:
        """Wall-clock seconds the training thread spent in synchronous
        page-out writes (informational; byte counters are the
        deterministic comparison)."""
        return self._pager.sync_spill_seconds if self._pager is not None else 0.0

    @property
    def write_behind_jobs(self) -> int:
        """Page-outs completed by the background writer, cumulative
        across rebuilds (0 unless ``write_behind`` is on)."""
        if self._pager is None or self._pager.writer is None:
            return 0
        return self._pager.writer.jobs_written

    def hint_upcoming_views(self, cameras: list[Camera]) -> None:
        """Tell the async prefetch leg the next several views, nearest
        first. With ``async_prefetch`` on, the next :meth:`step` starts a
        background worker that snapshots the first ``prefetch_depth`` of
        them while the current view renders; a later step adopts the
        buffers instead of stalling on the disk read. A no-op otherwise,
        so callers can hint unconditionally."""
        if self.prefetch_depth:
            self._pager.pending_hints = list(cameras)

    def prefetch(self, camera: Camera) -> list[int]:
        """Page in the view's active shards (up to the resident budget).

        The synchronous anchor of the pipeline: whatever the async leg
        managed to stage for ``camera`` is adopted here (same ledger
        records, same accounting — the read already happened off the
        critical path); everything else pages in on demand. The
        whole-view cull this needs (run through the ``shard_workers``
        pool when enabled) is cached and reused by the step's own region
        planning, so prefetching adds no culling work.
        """
        pager = self._pager
        prefetcher = pager.prefetcher
        if prefetcher is not None:
            hinted, staged = prefetcher.take(camera)
        else:
            hinted, staged = False, {}
        parts = self._shard_culls(camera)
        self._cull_cache = (camera, self._union(parts))
        active = [k for k, r in enumerate(parts) if r.num_visible]
        for k in active[: pager.resident_set.budget]:
            store = self._nongeo_store(k)
            pre = staged.pop(k, None)
            if pre is not None and store.adopt(pre):
                pager.prefetch_hits += 1
                continue
            if hinted and store.is_resident:
                # already resident at a hinted view: the retention the
                # depth-D queue buys (the shard never left host DRAM), as
                # much a staging hit as an adopted snapshot
                pager.prefetch_hits += 1
            elif hinted:
                # a miss only when the async leg had its chance: a staging
                # job ran for this very view and still failed to cover the
                # shard (stale snapshot, wrong prediction, racing spill)
                pager.prefetch_misses += 1
            store.page_in()
        # this view's working set is settled: start staging the hinted
        # upcoming views in the background, overlapped with the render
        pager.scheduled_hints = []
        if prefetcher is not None and pager.pending_hints:
            hints, pager.pending_hints = pager.pending_hints, []
            nxt = [c for c in hints if c is not camera][: prefetcher.depth]
            if nxt:
                pager.scheduled_hints = nxt
                prefetcher.schedule(nxt)
        return active

    def spill_inactive(self, active: list[int]) -> None:
        """Spill every resident shard the view left untouched.

        At ``prefetch_depth > 1`` the scheduled lookahead also protects
        shards the *upcoming* views need (nearest view first, while the
        keep-set stays inside the resident budget): spilling a shard the
        staging queue just snapshotted — or that the next view will page
        right back in — is the D=1 thrash the depth-D queue exists to
        avoid. Depth 1 keeps the historical behavior exactly.
        """
        keep = set(active)
        budget = self._pager.resident_set.budget
        if self.prefetch_depth > 1:
            for cam in self._pager.scheduled_hints:
                if len(keep) >= budget:
                    break
                for k in self.active_shard_ids(cam):
                    if len(keep) >= budget:
                        break
                    keep.add(k)
        for k in range(self.num_shards):
            store = self._nongeo_store(k)
            if k not in keep and store.is_resident:
                store.spill()

    def step(self, camera: Camera, gt_image: np.ndarray) -> StepReport:
        if self._pager is None:
            return super().step(camera, gt_image)
        with _span("train/prefetch", "train"):
            active = self.prefetch(camera)
        try:
            report = super().step(camera, gt_image)
        finally:
            self._cull_cache = None  # geometry mutates at step end
        with _span("train/spill", "train"):
            self.spill_inactive(active)
        return report

    # -- reporting / lifecycle --------------------------------------------
    #: ledger counters a :class:`ShardReport` carries, verbatim
    _SHARD_LEDGER_FIELDS = (
        "h2d_bytes", "d2h_bytes", "h2d_count", "d2h_count",
        "page_in_bytes", "page_out_bytes",
    )

    def shard_reports(self) -> list[ShardReport]:
        """Per-shard memory and traffic accounting."""
        reports = []
        for k, (rows, tracker, ledger) in enumerate(
            zip(self.shard_rows, self.shard_trackers, self.shard_ledgers)
        ):
            counts = ledger.counts()
            reports.append(
                ShardReport(
                    shard=k,
                    num_gaussians=int(rows.size),
                    peak_bytes=tracker.peak_bytes,
                    live_bytes=tracker.live_bytes,
                    resident=(
                        self._pager is None or self._nongeo_store(k).is_resident
                    ),
                    **{f: counts[f] for f in self._SHARD_LEDGER_FIELDS},
                )
            )
        return reports

    def finalize(self) -> None:
        super().finalize()
        # the checkpoint fence: save_checkpoint finalizes first, so every
        # queued page-out (including ones the flush's own evictions just
        # enqueued) lands before any state is serialized. Drain, don't
        # close: training may continue (mid-run checkpoints, densify).
        if self._pager is not None and self._pager.writer is not None:
            self._pager.writer.drain()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._pager is not None:
            self._pager.close()

    def checkpoint_entries(self):
        if self.num_shards == 1:
            return [("geo", self._shards[0].children[0], None),
                    ("host", self._shards[0].children[1], None)]
        entries = []
        for k, rows in enumerate(self.shard_rows):
            hybrid = self._shards[k]
            entries.append((f"shard{k}_geo", hybrid.children[0], rows))
            entries.append((f"shard{k}_host", hybrid.children[1], rows))
        return entries


class _PagingLeg:
    """The disk tier of a :class:`GSScaleSystem` (TideGS-style paging).

    Owns what outlives one store composition: the spill directory
    (``GSScaleConfig.spill_dir``, or a temporary one removed by
    :meth:`close`), the async prefetcher, the write-behind writer, and
    the run's paging counters. :meth:`reset` fences both background legs
    before the system (re)builds its stores and hands out a fresh
    resident set and host tracker — live-state accounting resets with a
    rebuild like the device trackers do, while the counters carry over.

    Three deep-tier knobs extend the leg (all default-off, preserving
    bit-identity with the host tier): ``page_codec`` stores spilled pages
    compressed (see :mod:`repro.core.pagecodec`; ``lossless`` keeps
    bit-identity, ``float16`` trades tolerance-bounded drift for a 2x
    smaller disk leg), ``prefetch_depth`` widens the async leg's
    lookahead to a depth-D staging queue, and ``write_behind`` moves dirty
    page-outs to a background writer (epoch-fenced against
    :meth:`~repro.core.stores.DiskStore.adopt` and drained before
    densification rebuilds and checkpoints) so the admit path stops
    paying the write.
    """

    def __init__(self, config: GSScaleConfig, system: GSScaleSystem):
        self.config = config
        if config.spill_dir is None:
            self._spill_tmp: tempfile.TemporaryDirectory | None = (
                tempfile.TemporaryDirectory(prefix="gsscale-spill-")
            )
            self.spill_root = self._spill_tmp.name
        else:
            self._spill_tmp = None
            self.spill_root = config.spill_dir
        self.writer = _WriteBehindWriter() if config.write_behind else None
        self.prefetcher = (
            _AsyncPrefetcher(system, depth=config.prefetch_depth)
            if config.async_prefetch
            else None
        )
        self.prefetch_hits = 0
        self.prefetch_misses = 0
        self.stores: list[DiskStore] = []
        self._retired_spill_bytes = 0
        self._retired_spill_s = 0.0
        self.pending_hints: list[Camera] = []
        self.scheduled_hints: list[Camera] = []

    def reset(self) -> None:
        """Fence the background legs and start a new store generation.

        The prefetch thread's staged snapshots belong to the old stores
        and are dropped, and every queued page-out lands before the new
        stores reuse the spill files.
        """
        if self.prefetcher is not None:
            self.prefetcher.reset()
        if self.writer is not None:
            self.writer.drain()
        self._retired_spill_bytes += sum(s.sync_spill_bytes for s in self.stores)
        self._retired_spill_s += sum(s.sync_spill_s for s in self.stores)
        self.stores = []
        self.host_memory = MemoryTracker()
        self.resident_set = ResidentSet(self.config.resident_shards)
        self.pending_hints = []
        self.scheduled_hints = []

    def make_store(
        self,
        params_block: np.ndarray,
        adam,
        tracker: MemoryTracker,
        ledger: TransferLedger,
        k: int,
        deferred: bool,
    ) -> DiskStore:
        """Shard ``k``'s non-geometric block as a spill-backed store."""
        cfg = self.config
        store = DiskStore(
            params_block,
            layout.NON_GEOMETRIC_BLOCK,
            adam,
            tracker,
            ledger,
            spill_path=os.path.join(self.spill_root, f"shard{k}_host"),
            host_memory=self.host_memory,
            resident_set=self.resident_set,
            forwarding=True,
            deferred=deferred,
            max_defer=cfg.max_defer,
            codec=cfg.page_codec,
            writer=self.writer,
            integrity=cfg.page_integrity,
        )
        self.stores.append(store)
        return store

    @property
    def sync_spill_bytes(self) -> int:
        return self._retired_spill_bytes + sum(s.sync_spill_bytes for s in self.stores)

    @property
    def sync_spill_seconds(self) -> float:
        return self._retired_spill_s + sum(s.sync_spill_s for s in self.stores)

    def close(self) -> None:
        """Stop the prefetch thread, land and stop the writer, and remove
        a temporary spill directory (idempotent). Spills after this are
        synchronous."""
        try:
            if self.prefetcher is not None:
                self.prefetcher.close()
            if self.writer is not None:
                for store in self.stores:
                    store.writer = None
                self.writer.close()
        finally:
            if self._spill_tmp is not None:
                self._spill_tmp.cleanup()
                self._spill_tmp = None


class _AsyncPrefetcher:
    """Background leg of the out-of-core pipeline.

    Given a hint of the upcoming views, a daemon thread predicts their
    active shards (a cull over the device-resident geometry) and
    snapshots the spilled ones into host buffers
    (:meth:`~repro.core.stores.DiskStore.preload`) while the training
    thread renders the *current* view — the TideGS-style overlap of page
    traffic with compute. The snapshots are staged per hinted view:
    nothing is installed into any store until the training thread
    reaches that view's prefetch point and adopts them there, so store
    state, trackers, and the ledger only ever mutate on the training
    thread, and a stale prediction (the geometry moved, a racing spill)
    degrades to the ordinary synchronous page-in.

    At ``depth == 1`` this is exactly the historical single-slot double
    buffer: one view staged at a time, the slot drained on every
    :meth:`take`. At ``depth > 1`` the hint is a lookahead *list*
    (``locality_view_order`` makes it predictive) and staged views
    survive :meth:`take` until consumed or dropped from a newer hint —
    the depth-D staging queue. Host bytes held by the queue are capped
    at ``depth x resident budget x worst shard state`` (the staging
    budget); the worker stops staging deeper views at the cap.

    The worker holds its system weakly, so a system dropped without
    ``close()`` can still be collected.
    """

    def __init__(self, system: GSScaleSystem, depth: int = 1):
        self._system = weakref.ref(system)
        self.depth = depth
        self._cameras: list[Camera] = []
        #: staged ``(camera, buffers, host bytes)`` keyed by ``id(camera)``
        #: — identity, not equality: the trainer hints the very objects it
        #: will train on
        self._results: dict[int, tuple[Camera, dict, int]] = {}
        #: host bytes of the staged queue, current and high-water (kept
        #: here, not on a MemoryTracker: trackers are training-
        #: thread-only, and the buffers are owned by this thread until
        #: adoption — the sim's ``staging_shards`` term models them)
        self.staged_bytes = 0
        self.peak_staged_bytes = 0
        self._have_job = threading.Event()
        self._done = threading.Event()
        self._done.set()
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="gsscale-prefetch", daemon=True
        )
        self._thread.start()

    def staging_budget_bytes(self, system: GSScaleSystem) -> int:
        """Cap on staged host bytes: depth x resident budget x the worst
        shard's state size (never binding at depth 1, where a single
        view can stage at most one budget's worth)."""
        worst = max(
            (
                system._nongeo_store(k)._state_bytes()
                for k in range(system.num_shards)
            ),
            default=0,
        )
        return self.depth * system.resident_set.budget * worst

    def schedule(self, cameras: list[Camera]) -> None:
        """Start prefetching for ``cameras``, nearest first (waits out
        any running job). Staged views absent from the new hint are
        dropped; views already staged are not re-read."""
        if self._stop:
            return
        self._done.wait()
        keep = {id(c) for c in cameras}
        for key in list(self._results):
            if key not in keep:
                del self._results[key]
        self._refresh_staged()
        self._cameras = [c for c in cameras if id(c) not in self._results]
        self._done.clear()
        self._have_job.set()

    def take(self, camera: Camera) -> tuple[bool, dict]:
        """``(matched, buffers)`` for ``camera``.

        ``matched`` says a staging job ran for exactly this view — the
        denominator of any hit/miss accounting. At depth 1 any other
        staged view is discarded (the double-buffer contract); at
        depth > 1 deeper views stay queued for their own take.
        """
        self._done.wait()
        entry = self._results.pop(id(camera), None)
        if self.depth == 1:
            self._results.clear()
        self._refresh_staged()
        if entry is not None:
            return True, entry[1]
        return False, {}

    def reset(self) -> None:
        """Wait out a running job and drop everything staged (the stores
        the snapshots came from are being replaced)."""
        self._done.wait()
        self._results.clear()
        self._cameras = []
        self._refresh_staged()

    def close(self) -> None:
        """Stop the worker thread (idempotent)."""
        self._stop = True
        self._have_job.set()
        self._thread.join(timeout=5.0)

    def _refresh_staged(self) -> None:
        self.staged_bytes = sum(entry[2] for entry in self._results.values())
        self.peak_staged_bytes = max(self.peak_staged_bytes, self.staged_bytes)

    def _run(self) -> None:
        while True:
            self._have_job.wait()
            self._have_job.clear()
            if self._stop:
                self._done.set()
                return
            _trace.name_current_thread("gsscale-prefetch")
            system = self._system()
            cameras = self._cameras if system is not None else []
            cap = self.staging_budget_bytes(system) if cameras else 0
            for camera in cameras:
                try:
                    # fork guard: a parallel-raster pool must never fork
                    # while this thread is mid-read (inherited half-held
                    # locks would wedge the child workers)
                    with pool_fork_guard, _span("page/prefetch", "page"):
                        staged = self._prepare(system, camera, cap)
                except Exception:
                    staged = ({}, 0)  # a failed prefetch is just a cache miss
                self._results[id(camera)] = (camera, *staged)
                self._refresh_staged()
            del system
            self._done.set()

    def _prepare(self, system: GSScaleSystem, camera: Camera, cap: int) -> tuple[dict, int]:
        buffers = {}
        staged = 0
        total = self.staged_bytes
        for k in system.active_shard_ids(camera)[: system.resident_set.budget]:
            store = system._nongeo_store(k)
            # fp32-equivalent units, like every MemoryTracker in the repo
            cost = store._state_bytes()
            if total + cost > cap:
                break  # staging deeper would blow the host budget
            pre = store.preload()
            if pre is not None:
                buffers[k] = pre
                total += cost
                staged += cost
        return buffers, staged


def create_system(model: GaussianModel, config: GSScaleConfig) -> TrainingSystem:
    """Factory for the Figure-11 systems; every GS-Scale preset (including
    the sharded multi-device and out-of-core placements) is one
    :class:`GSScaleSystem`."""
    if config.system == "gpu_only":
        return GPUOnlySystem(model, config)
    if config.system == "baseline_offload":
        return BaselineOffloadSystem(model, config)
    return GSScaleSystem(model, config)
