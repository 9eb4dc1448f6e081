"""End-to-end trainer: iterates views, densifies, evaluates.

Orchestrates a :class:`~repro.core.systems.TrainingSystem` over a capture
session (cameras + ground-truth images), running the seven-step pipeline
of Figure 2 each iteration and adaptive density control on schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cameras.camera import Camera
from ..densify import DensificationController, DensifyConfig, DensifyReport
from ..gaussians import GaussianModel
from ..metrics import perceptual_distance, psnr, ssim
from ..render import render
from ..telemetry.trace import span as _span
from .config import GSScaleConfig
from .systems import (
    StepReport,
    TrainingSystem,
    create_system,
    locality_view_order,
)


@dataclass
class EvalResult:
    """Quality metrics averaged over a set of held-out views."""

    psnr: float
    ssim: float
    lpips_proxy: float
    num_views: int


@dataclass
class TrainingHistory:
    """Everything a training run produced.

    Attributes:
        steps: per-iteration reports.
        densify_reports: one entry per densification pass that fired.
        final_eval: metrics on the test views after training (if run).
        peak_device_bytes: high-water device memory across the run
            (fp32-equivalent accounting).
        h2d_bytes / d2h_bytes: total simulated PCIe traffic.
    """

    steps: list[StepReport] = field(default_factory=list)
    densify_reports: list[DensifyReport] = field(default_factory=list)
    final_eval: EvalResult | None = None
    peak_device_bytes: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0

    @property
    def num_iterations(self) -> int:
        """Completed training iterations."""
        return len(self.steps)

    @property
    def final_loss(self) -> float:
        """Loss of the last iteration."""
        if not self.steps:
            raise ValueError("no training steps recorded")
        return self.steps[-1].loss

    @property
    def mean_active_ratio(self) -> float:
        """Average fraction of Gaussians used per iteration (Figure 4)."""
        if not self.steps:
            raise ValueError("no training steps recorded")
        visible = np.array([s.num_visible for s in self.steps], dtype=float)
        return float(np.mean(visible)) / max(self._final_n, 1)

    @property
    def mean_ssim(self) -> float:
        """Average per-step SSIM over the run.

        Steps in which nothing was visible report ``ssim = nan`` (there
        was no image) and are skipped here — averaging a fake 1.0 for
        them would inflate the quality metric. NaN only when *every* step
        was empty.
        """
        if not self.steps:
            raise ValueError("no training steps recorded")
        values = np.array([s.ssim for s in self.steps], dtype=float)
        if np.all(np.isnan(values)):
            return float("nan")
        return float(np.nanmean(values))

    _final_n: int = 0


class Trainer:
    """Trains a Gaussian scene with one of the four systems.

    Args:
        model: initial Gaussians (e.g. from a point cloud).
        config: engine configuration (system choice, mem_limit, ...).
        densify: optional densification schedule; None disables it.
    """

    def __init__(
        self,
        model: GaussianModel,
        config: GSScaleConfig,
        densify: DensifyConfig | None = None,
    ):
        self.config = config
        self.system: TrainingSystem = create_system(model, config)
        self._densify_cfg = densify
        self._controller = (
            DensificationController(densify, model.num_gaussians, seed=config.seed)
            if densify
            else None
        )

    @property
    def num_gaussians(self) -> int:
        """Current scene size."""
        return self.system.num_gaussians

    def close(self) -> None:
        """Release the system's pools, threads and temporary files."""
        self.system.close()

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def train(
        self,
        cameras: list[Camera],
        images: list[np.ndarray],
        iterations: int,
        shuffle: bool = False,
        view_order: str = "sequential",
        start_iteration: int = 0,
    ) -> TrainingHistory:
        """Run ``iterations`` training steps cycling through the views.

        Args:
            cameras: training cameras.
            images: matching ground-truth images.
            iterations: optimizer steps to run in this call.
            shuffle: randomize view order each epoch (seeded).
            view_order: ``"sequential"`` cycles views as given;
                ``"locality"`` reorders each epoch with
                :func:`~repro.core.systems.locality_view_order` so
                consecutive views share a resident shard set — the
                schedule that amortizes the out-of-core system's page-ins
                (and that the sim's ``OUTOFCORE_VIEW_LOCALITY`` models).
                Mutually exclusive with ``shuffle``.
            start_iteration: global iteration the run resumes at. Offsets
                the view cursor and the densification clock, so a
                checkpointed run that restarts with
                ``start_iteration=k`` walks the same deterministic
                schedule as an uninterrupted one (the patch-pipeline
                resume path relies on this).
        """
        if len(cameras) != len(images):
            raise ValueError("cameras and images must align")
        if not cameras:
            raise ValueError("need at least one training view")
        if start_iteration < 0:
            raise ValueError("start_iteration must be >= 0")
        if view_order not in ("sequential", "locality"):
            raise ValueError(
                f"unknown view_order {view_order!r}; choose "
                "'sequential' or 'locality'"
            )
        if shuffle and view_order != "sequential":
            raise ValueError("shuffle and view_order are mutually exclusive")
        history = TrainingHistory()
        rng = np.random.default_rng(self.config.seed)
        if view_order == "locality":
            order = locality_view_order(cameras)
        else:
            order = np.arange(len(cameras))
        depth = self.system.prefetch_depth

        stop = start_iteration + iterations
        for it in range(start_iteration, stop):
            pos = it % len(cameras)
            if pos == 0 and shuffle:
                rng.shuffle(order)
            view = order[pos]
            if depth and it + 1 < stop:
                # overlap leg: let the system stage the next D views'
                # shards while this view renders, nearest first (exact for
                # the steady in-epoch case, and locality order makes the
                # deeper entries worth staging; a wrong guess is only a
                # cache miss)
                self.system.hint_upcoming_views(
                    [
                        cameras[order[(it + 1 + j) % len(cameras)]]
                        for j in range(min(depth, stop - it - 1))
                    ]
                )
            report = self.system.step(cameras[view], images[view])
            history.steps.append(report)
            if self._controller is not None:
                self._controller.accumulate(report.valid_ids, report.mean2d_abs)
                self._maybe_densify(it + 1, history)
                self._maybe_reset_opacity(it + 1)

        self.system.finalize()
        history.peak_device_bytes = self.system.memory.peak_bytes
        history.h2d_bytes = self.system.ledger.h2d_bytes
        history.d2h_bytes = self.system.ledger.d2h_bytes
        history._final_n = self.system.num_gaussians
        return history

    def _maybe_densify(self, iteration: int, history: TrainingHistory) -> None:
        if not self._controller.should_run(iteration):
            return
        with _span("train/densify", "train", iteration=iteration):
            # structural edits need committed, materialized state
            self.system.finalize()
            model = self.system.materialized_model()
            new_model, report = self._controller.run(
                model, iteration, self.config.scene_extent
            )
            history.densify_reports.append(report)
            self._rebuild_preserving_accounting(new_model)

    def _maybe_reset_opacity(self, iteration: int) -> None:
        if not self._controller.should_reset_opacity(iteration):
            return
        # opacity is host-side state in the offload systems: commit
        # everything, rewrite, and re-place (same path as densification)
        self.system.finalize()
        model = self.system.materialized_model()
        self._controller.reset_opacity(model)
        self._rebuild_preserving_accounting(model)

    def _rebuild_preserving_accounting(self, model: GaussianModel) -> None:
        """Re-place parameters without losing run-level accounting.

        ``rebuild`` resets the memory tracker and the transfer ledger
        (their live state is sized by N); the run's high-water mark and
        cumulative PCIe traffic must survive the swap.
        """
        peak = self.system.memory.peak_bytes
        ledger = self.system.ledger
        self.system.rebuild(model)
        self.system.memory.peak_bytes = max(self.system.memory.peak_bytes, peak)
        self.system.ledger.h2d_bytes += ledger.h2d_bytes
        self.system.ledger.d2h_bytes += ledger.d2h_bytes
        self.system.ledger.h2d_count += ledger.h2d_count
        self.system.ledger.d2h_count += ledger.d2h_count

    def evaluate(
        self, cameras: list[Camera], images: list[np.ndarray]
    ) -> EvalResult:
        """Render held-out views with the current model and score them."""
        model = self.system.materialized_model()
        psnrs, ssims, lpips = [], [], []
        for cam, gt in zip(cameras, images):
            img = render(
                model,
                cam,
                sh_degree=self.config.sh_degree,
                background=self.config.background,
                config=self.config.raster,
            ).image
            psnrs.append(psnr(img, gt))
            ssims.append(ssim(img, gt))
            lpips.append(perceptual_distance(img, gt))
        return EvalResult(
            psnr=float(np.mean(psnrs)),
            ssim=float(np.mean(ssims)),
            lpips_proxy=float(np.mean(lpips)),
            num_views=len(cameras),
        )
