"""Tests for balance-aware image splitting (Section 4.4)."""

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system, find_balanced_split
from repro.core.splitting import SPLIT_SEARCH_STEPS
from repro.datasets import SyntheticSceneConfig, build_scene


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=300,
            width=48,
            height=32,
            num_train_cameras=4,
            num_test_cameras=1,
            altitude=10.0,
            seed=21,
        )
    )


def geo(scene):
    m = scene.initial
    return m.means, m.log_scales, m.quats


class TestFindBalancedSplit:
    def test_balance_near_half(self, scene):
        cam = scene.train_cameras[0]
        split = find_balanced_split(*geo(scene), cam)
        # paper reports 0.551 : 0.449 average balance with a 5-step search
        assert 0.35 <= split.balance <= 0.65

    def test_beats_or_matches_naive_midpoint_on_skewed_scene(self):
        """A scene with all mass on the left: the search must move the
        split left of the midpoint."""
        rng = np.random.default_rng(0)
        from repro.cameras import Camera
        from repro.gaussians import GaussianModel

        pts = rng.uniform([-10, -3, 0], [-2, 3, 1], size=(300, 3))
        colors = rng.uniform(0, 1, (300, 3))
        model = GaussianModel.from_point_cloud(pts, colors)
        cam = Camera.look_at([0, 0, 18.0], [0, 0.1, 0], width=64, height=48,
                             fov_x_deg=75.0)
        split = find_balanced_split(model.means, model.log_scales, model.quats, cam)
        assert split.split_x < 32  # moved toward the populated side
        assert 0.3 <= split.balance <= 0.7

    def test_regions_cover_image(self, scene):
        cam = scene.train_cameras[1]
        split = find_balanced_split(*geo(scene), cam)
        (left, x0), (right, x1) = split.regions
        assert x0 == 0
        assert x1 == split.split_x
        assert left.width + right.width == cam.width
        assert left.height == right.height == cam.height

    def test_search_step_count_default(self):
        assert SPLIT_SEARCH_STEPS == 5


def leaf_stores(system):
    """A single-shard GS-Scale system's leaf stores by checkpoint prefix
    (``geo``: the device geometric block, ``host``: the forwarding host
    block)."""
    return {prefix: store for prefix, store, _ in system.checkpoint_entries()}


class TestSplitTrainingEquivalence:
    def test_split_single_step_exact(self, scene):
        """Section 4.4's mathematical-equivalence claim: from identical
        state, one split step produces the same loss, the same gradients,
        and the same updated parameters as an unsplit step (L1 loss —
        pixel losses are additive across the split)."""
        base = dict(
            system="gsscale_no_deferred",
            scene_extent=scene.extent,
            ssim_lambda=0.0,  # SSIM windows straddle the boundary
            seed=0,
        )
        whole = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1.0, **base)
        )
        split = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1e-6, **base)
        )
        for i in range(3):  # several distinct views, always from lockstep
            cam = scene.train_cameras[i]
            img = scene.train_images[i]
            rw = whole.step(cam, img)
            rs = split.step(cam, img)
            assert rw.num_regions == 1
            assert rs.num_regions >= 2
            assert rs.loss == pytest.approx(rw.loss, rel=1e-12)
            np.testing.assert_array_equal(rw.valid_ids, rs.valid_ids)
            w, s = leaf_stores(whole), leaf_stores(split)
            # aggregated gradients pending on the host must agree
            np.testing.assert_allclose(
                w["host"]._pending_grads, s["host"]._pending_grads,
                rtol=1e-9, atol=1e-15,
            )
            # re-synchronize state so every step starts from bit-identical
            # inputs (float associativity across region sums would
            # otherwise compound through raster thresholds)
            s["geo"].params[...] = w["geo"].params
            s["geo"].optimizer.m[...] = w["geo"].optimizer.m
            s["geo"].optimizer.v[...] = w["geo"].optimizer.v
            s["host"]._pending_grads = w["host"]._pending_grads.copy()

    def test_split_multi_step_statistically_identical(self, scene):
        """Free-running split vs unsplit training: trajectories may drift
        at float-noise scale (threshold amplification), but parameters
        must remain overwhelmingly identical."""
        base = dict(
            system="gsscale_no_deferred",
            scene_extent=scene.extent,
            ssim_lambda=0.0,
            seed=0,
        )
        whole = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1.0, **base)
        )
        split = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1e-6, **base)
        )
        for i in range(6):
            cam = scene.train_cameras[i % len(scene.train_cameras)]
            img = scene.train_images[i % len(scene.train_images)]
            rw = whole.step(cam, img)
            rs = split.step(cam, img)
            assert rs.loss == pytest.approx(rw.loss, rel=1e-6)
        whole.finalize()
        split.finalize()
        pa = whole.materialized_model().params
        pb = split.materialized_model().params
        rel = np.abs(pa - pb) / np.maximum(np.abs(pa), 1.0)
        assert np.median(rel) < 1e-10
        assert np.mean(rel > 1e-4) < 0.01
        assert rel.max() < 0.05

    def test_split_reduces_peak_staging(self, scene):
        """Splitting must lower the peak staged footprint (Challenge 3)."""
        base = dict(
            system="gsscale",
            scene_extent=scene.extent,
            ssim_lambda=0.0,
            seed=0,
        )
        whole = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1.0, **base)
        )
        split = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1e-6, **base)
        )
        cam = scene.train_cameras[0]
        img = scene.train_images[0]
        whole.step(cam, img)
        split.step(cam, img)
        # compare peak staged+activation above the common resident floor
        resident = 4 * scene.initial.num_gaussians * 10 * 4
        assert (split.memory.peak_bytes - resident) < (
            whole.memory.peak_bytes - resident
        )

    def test_split_report_counts_union(self, scene):
        cfg = GSScaleConfig(
            system="gsscale", scene_extent=scene.extent,
            ssim_lambda=0.0, mem_limit=1e-6, seed=0,
        )
        s = create_system(scene.initial.copy(), cfg)
        cam = scene.train_cameras[0]
        report = s.step(cam, scene.train_images[0])
        assert report.num_regions == 2
        # union of region ids can't exceed the whole-view visible count
        whole_cull = s._cull(cam)
        assert report.num_visible <= whole_cull.num_visible + 1
