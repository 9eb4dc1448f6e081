"""Acceptance tests for the deep out-of-core tier: compressed pages,
depth-D prefetch, and write-behind spilling.

The contract stacked on top of the base out-of-core suites:

* the ``lossless`` page codec is pure placement — the K=4 out-of-core
  trajectory stays bit-identical to the in-memory sharded system;
* the ``float16`` codec is tolerance-bounded against the raw trajectory
  and meters a ~2x decoded/on-disk ratio on the ledger's disk channel
  (2 bytes/value plus a 2-byte per-column scale header);
* a depth-2 staging queue on an alternating-cluster schedule reaches a
  strictly higher staging hit-rate (and strictly less page traffic)
  than the depth-1 double buffer, without changing a single parameter
  bit;
* write-behind spilling drives the admit path's synchronous spill bytes
  to zero while the synchronous run pays the full page-out traffic —
  again bit-identically;
* a synthetic model several times the host budget trains and serves
  under enforced byte budgets.
"""

import numpy as np
import pytest

from repro.cameras import Camera
from repro.core import GSScaleConfig, Trainer, create_system
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import GaussianModel, layout
from repro.render import render
from repro.serve.store import PagedServingStore

CLUSTER_CENTERS = np.array(
    [[-6.0, -6.0, 0.0], [6.0, -6.0, 0.0], [-6.0, 6.0, 0.0], [6.0, 6.0, 0.0]]
)


@pytest.fixture(scope="module")
def clustered():
    """Four well-separated clusters, one narrow camera per cluster (the
    same regime as the async-prefetch suite: each view culls to one
    spatial shard)."""
    rng = np.random.default_rng(3)
    per = 60
    means = np.concatenate(
        [c + rng.normal(scale=0.4, size=(per, 3)) for c in CLUSTER_CENTERS]
    )
    n = means.shape[0]
    log_scales = np.full((n, 3), np.log(0.05))
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    opacity_logits = rng.uniform(0.5, 1.5, size=n)
    sh = rng.normal(size=(n, 16, 3)) * 0.2
    model = GaussianModel.from_attributes(
        means, log_scales, quats, opacity_logits, sh, dtype=np.float64
    )
    cameras = [
        Camera.look_at(
            c + np.array([0.0, 0.0, 5.0]), c, up=(0.0, 1.0, 0.0),
            width=24, height=18, fov_x_deg=40.0,
        )
        for c in CLUSTER_CENTERS
    ]
    # ground truth rendered from a slightly perturbed copy: gradients are
    # nonzero (the fit has somewhere to go) but small and well-conditioned,
    # so parameters stay in sane ranges as they do in any real fit — the
    # float16 parity below needs a live trajectory, not a detonating one
    sh_gt = sh + rng.normal(size=sh.shape) * 0.05
    gt_model = GaussianModel.from_attributes(
        means, log_scales, quats, opacity_logits, sh_gt, dtype=np.float64
    )
    images = [render(gt_model, cam).image for cam in cameras]
    return model, cameras, images


#: systems and trainers the running test built, closed at its teardown
_built = []


@pytest.fixture(autouse=True)
def _close_built():
    yield
    while _built:
        _built.pop().close()


def built(obj):
    """Register ``obj`` for closing when the test ends; returns it."""
    _built.append(obj)
    return obj


def make_system(model, **cfg):
    defaults = dict(
        system="outofcore", num_shards=4, resident_shards=1,
        scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
    )
    defaults.update(cfg)
    return built(create_system(model.copy(), GSScaleConfig(**defaults)))


def run_steps(model, cameras, images, steps=8, **cfg):
    """Plain round-robin step loop (no hints); returns (system, losses)."""
    s = make_system(model, **cfg)
    losses = []
    for i in range(steps):
        losses.append(
            s.step(cameras[i % len(cameras)], images[i % len(cameras)]).loss
        )
    s.finalize()
    return s, losses


class TestLosslessBitIdentity:
    def test_matches_raw_outofcore(self, clustered):
        model, cameras, images = clustered
        raw, loss_raw = run_steps(model, cameras, images)
        loz, loss_loz = run_steps(model, cameras, images, page_codec="lossless")
        assert loss_raw == loss_loz
        np.testing.assert_array_equal(
            raw.materialized_model().params, loz.materialized_model().params
        )

    def test_matches_in_memory_sharded(self, clustered):
        """The headline parity: K=4 out-of-core through the compressed
        disk tier == the K=4 in-memory sharded system, bit for bit."""
        model, cameras, images = clustered
        mem = create_system(
            model.copy(),
            GSScaleConfig(
                system="sharded", num_shards=4, scene_extent=8.0,
                ssim_lambda=0.0, mem_limit=1.0, seed=0,
            ),
        )
        loss_mem = []
        for i in range(8):
            loss_mem.append(
                mem.step(cameras[i % 4], images[i % 4]).loss
            )
        mem.finalize()
        loz, loss_loz = run_steps(model, cameras, images, page_codec="lossless")
        assert loss_mem == loss_loz
        np.testing.assert_array_equal(
            mem.materialized_model().params, loz.materialized_model().params
        )

    def test_disk_channel_meters_encoded_bytes(self, clustered):
        """The ledger's disk channel reports what actually crossed the
        disk interface, decoupled from the fp32-equivalent accounting
        the page channel keeps for the budget contracts."""
        model, cameras, images = clustered
        raw, _ = run_steps(model, cameras, images)
        loz, _ = run_steps(model, cameras, images, page_codec="lossless")
        # raw: both sides of the channel agree
        assert raw.ledger.page_in_disk_bytes == raw.ledger.page_in_bytes
        assert raw.ledger.page_out_disk_bytes == raw.ledger.page_out_bytes
        # lossless: same accounting traffic, different encoded traffic
        assert loz.ledger.page_in_bytes == raw.ledger.page_in_bytes
        assert loz.ledger.page_in_disk_bytes > 0
        assert loz.ledger.page_in_disk_bytes != loz.ledger.page_in_bytes


class TestFloat16:
    def test_trajectory_tolerance_parity(self, clustered):
        """Quantizing spilled pages to half precision perturbs the
        trajectory only within half-precision resolution."""
        model, cameras, images = clustered
        raw, loss_raw = run_steps(model, cameras, images)
        f16, loss_f16 = run_steps(model, cameras, images, page_codec="float16")
        # rtol covers the per-spill half-precision resolution (~5e-4
        # compounded over 8 swap cycles); atol absorbs the handful of
        # most-sensitive logits where that noise feeds back through the
        # optimizer a little harder
        np.testing.assert_allclose(
            f16.materialized_model().params,
            raw.materialized_model().params,
            rtol=5e-3, atol=5e-2,
        )
        np.testing.assert_allclose(loss_f16, loss_raw, rtol=1e-2)

    def test_disk_ratio_is_nearly_two(self, clustered):
        """2 encoded bytes per 4 accounted bytes, on every single page —
        minus the 2-byte per-column scale header, so the realized ratio
        sits just under 2x but comfortably past the 1.5x bandwidth gate."""
        model, cameras, images = clustered
        f16, _ = run_steps(model, cameras, images, page_codec="float16")
        ledger = f16.ledger
        assert ledger.page_in_count > 0
        assert 1.5 < ledger.page_in_bytes / ledger.page_in_disk_bytes <= 2.0
        assert 1.5 < ledger.page_out_bytes / ledger.page_out_disk_bytes <= 2.0


class TestDepthD:
    def run_depth(self, clustered, depth, steps=8):
        """Alternate between two clusters under a budget of 2 resident
        shards — the D=1 structural miss: the next view's shard is still
        resident when the staging worker looks (nothing to snapshot),
        then gets evicted at end of step, so depth 1 pays a synchronous
        page-in every single step. Depth 2's keep-set retains it."""
        model, cameras, images = clustered
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=2,
            scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
            async_prefetch=True, prefetch_depth=depth,
        )
        t = built(Trainer(model.copy(), cfg))
        t.train(cameras[:2], images[:2], steps)
        return t.system

    def test_depth2_strictly_beats_depth1(self, clustered):
        d1 = self.run_depth(clustered, 1)
        d2 = self.run_depth(clustered, 2)
        # same math, different schedule
        np.testing.assert_array_equal(
            d1.materialized_model().params, d2.materialized_model().params
        )
        # strictly higher staging hit-rate ...
        rate1 = d1.prefetch_hits / max(d1.prefetch_hits + d1.prefetch_misses, 1)
        rate2 = d2.prefetch_hits / max(d2.prefetch_hits + d2.prefetch_misses, 1)
        assert rate2 > rate1
        assert d2.prefetch_misses == 0
        # ... and strictly less page traffic: retention beats re-reading
        assert d2.ledger.page_in_count < d1.ledger.page_in_count

    def test_depth_reported(self, clustered):
        d2 = self.run_depth(clustered, 2, steps=2)
        assert d2.prefetch_depth == 2  # finalize() keeps the async leg
        model, cameras, images = clustered
        live = make_system(
            model, resident_shards=2, async_prefetch=True, prefetch_depth=3
        )
        assert live.prefetch_depth == 3
        live.finalize()

    def test_staging_stays_inside_budget(self, clustered):
        """The depth-D queue's host bytes never exceed the explicit
        staging budget: depth x resident budget x worst shard state."""
        model, cameras, images = clustered
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
            async_prefetch=True, prefetch_depth=3,
        )
        t = built(Trainer(model.copy(), cfg))
        t.train(cameras, images, 12)
        s = t.system
        per_shard = max(
            3 * layout.param_bytes(r.size, layout.NON_GEOMETRIC_DIM)
            for r in s.shard_rows
        )
        assert 0 < s.prefetch_staged_peak_bytes
        assert s.prefetch_staged_peak_bytes <= 3 * s.resident_set.budget * per_shard

    def test_config_validation(self):
        with pytest.raises(ValueError, match="prefetch_depth"):
            GSScaleConfig(system="outofcore", prefetch_depth=0)
        with pytest.raises(ValueError, match="async_prefetch"):
            GSScaleConfig(system="outofcore", prefetch_depth=2)
        with pytest.raises(ValueError, match="unknown page codec"):
            GSScaleConfig(system="outofcore", page_codec="zstd")


class TestWriteBehind:
    def test_admit_path_pays_zero_sync_bytes(self, clustered):
        model, cameras, images = clustered
        sync, _ = run_steps(model, cameras, images)
        wb, _ = run_steps(model, cameras, images, write_behind=True)
        # synchronous runs pay every page-out on the training thread;
        # write-behind runs pay none of them there
        assert sync.sync_spill_bytes > 0
        assert wb.sync_spill_bytes == 0
        assert wb.write_behind_jobs > 0
        assert sync.write_behind_jobs == 0

    def test_bit_identical_and_same_ledger(self, clustered):
        model, cameras, images = clustered
        sync, loss_sync = run_steps(model, cameras, images)
        wb, loss_wb = run_steps(model, cameras, images, write_behind=True)
        assert loss_sync == loss_wb
        np.testing.assert_array_equal(
            sync.materialized_model().params, wb.materialized_model().params
        )
        for field in (
            "page_in_bytes", "page_out_bytes", "page_in_count",
            "page_out_count", "page_in_disk_bytes", "page_out_disk_bytes",
            "h2d_bytes", "d2h_bytes",
        ):
            assert getattr(sync.ledger, field) == getattr(wb.ledger, field)

    def test_full_stack_combo(self, clustered):
        """Everything at once — lossless pages, depth-3 staging queue,
        write-behind — still bit-identical to the plain synchronous
        raw-page run, with a zero-cost admit path."""
        model, cameras, images = clustered
        sync, loss_sync = run_steps(model, cameras, images)
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
            async_prefetch=True, prefetch_depth=3, write_behind=True,
            page_codec="lossless",
        )
        combo = built(create_system(model.copy(), cfg))
        loss_combo = []
        for i in range(8):
            loss_combo.append(
                combo.step(cameras[i % 4], images[i % 4]).loss
            )
        combo.finalize()
        assert loss_sync == loss_combo
        np.testing.assert_array_equal(
            sync.materialized_model().params,
            combo.materialized_model().params,
        )
        assert combo.sync_spill_bytes == 0


class TestFarBeyondHostBudget:
    """The capability gate: a synthetic model whose pageable training
    state is ~10x the host working set trains and serves under enforced
    byte budgets."""

    @pytest.fixture(scope="class")
    def scene(self):
        return build_scene(
            SyntheticSceneConfig(
                num_points=400, width=36, height=28,
                num_train_cameras=6, num_test_cameras=1,
                altitude=12.0, seed=11,
            )
        )

    def test_trains_with_tenth_of_state_resident(self, scene):
        cfg = GSScaleConfig(
            system="outofcore", num_shards=10, resident_shards=1,
            scene_extent=scene.extent, ssim_lambda=0.0, mem_limit=1.0,
            seed=0, async_prefetch=True, write_behind=True,
            page_codec="float16",
        )
        t = built(Trainer(scene.initial.copy(), cfg))
        hist = t.train(scene.train_cameras, scene.train_images, 12,
                       view_order="locality")
        assert np.isfinite(hist.final_loss)
        s = t.system
        total_pageable = sum(
            3 * layout.param_bytes(r.size, layout.NON_GEOMETRIC_DIM)
            for r in s.shard_rows
        )
        # the tracked host working set stays an order of magnitude below
        # the full pageable state (one shard + the defer counters)
        assert total_pageable / s.host_memory.peak_bytes >= 6.0
        assert s.sync_spill_bytes == 0  # write-behind admit path

    def test_serves_with_tenth_of_nongeo_resident(self, scene, tmp_path):
        model = scene.initial
        n = model.params.shape[0]
        geo_bytes = layout.param_bytes(n, layout.GEOMETRIC_DIM)
        nongeo_bytes = layout.param_bytes(n, layout.NON_GEOMETRIC_DIM)
        budget = geo_bytes + nongeo_bytes // 10
        store = PagedServingStore.from_model(
            model, host_budget_bytes=budget, num_shards=16,
            page_dir=str(tmp_path / "pages"), codec="float16",
        )
        try:
            # the budget is enforced by a capacity tracker: any gather
            # that overshot would raise MemoryError inside page_in
            rng = np.random.default_rng(0)
            for _ in range(6):
                ids = np.sort(rng.choice(n, size=64, replace=False))
                got = store.gather(ids)
                np.testing.assert_allclose(
                    got[:, layout.NON_GEOMETRIC_SLICE],
                    model.params[ids][:, layout.NON_GEOMETRIC_SLICE],
                    rtol=1e-3, atol=1e-6,
                )
                np.testing.assert_array_equal(
                    got[:, layout.GEOMETRIC_SLICE],
                    model.params[ids][:, layout.GEOMETRIC_SLICE],
                )
            assert store.host_memory.peak_bytes <= budget
            assert store.ledger.page_in_count > 0
            # f16 serve pages meter the same ~2x on the disk channel
            # (just under: 2 header bytes per column per page)
            ratio = (
                store.ledger.page_in_bytes / store.ledger.page_in_disk_bytes
            )
            assert 1.5 < ratio <= 2.0
        finally:
            store.close()
