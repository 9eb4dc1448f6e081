"""Tests of the sharded multi-device GS-Scale system: spatial partition,
K-invariance of the training numerics, per-shard accounting and capacity,
the multiprocessing culling fan-out, checkpointing, and the trainer
integration (densification rebuilds)."""

import numpy as np
import pytest

from repro.core import GSScaleConfig, Trainer, create_system, spatial_partition
from repro.core.checkpoint import load_checkpoint, resume_model, save_checkpoint
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.densify import DensifyConfig
from repro.gaussians import layout


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=250, width=36, height=28,
            num_train_cameras=6, num_test_cameras=2,
            altitude=12.0, seed=11,
        )
    )


#: systems the running test built, closed at its teardown
_built = []


@pytest.fixture(autouse=True)
def _close_built():
    yield
    while _built:
        _built.pop().close()


def make(scene, system="sharded", **cfg):
    defaults = dict(
        system=system, scene_extent=scene.extent, ssim_lambda=0.2,
        mem_limit=1.0, seed=0,
    )
    defaults.update(cfg)
    s = create_system(scene.initial.copy(), GSScaleConfig(**defaults))
    _built.append(s)
    return s


def run(scene, system="sharded", steps=8, **cfg):
    s = make(scene, system, **cfg)
    reports = []
    for i in range(steps):
        reports.append(
            s.step(scene.train_cameras[i % 6], scene.train_images[i % 6])
        )
    s.finalize()
    return s, reports


class TestSpatialPartition:
    def test_partition_covers_everything_disjointly(self):
        means = np.random.default_rng(3).normal(size=(101, 3))
        parts = spatial_partition(means, 5)
        assert len(parts) == 5
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(101))

    def test_population_balance(self):
        means = np.random.default_rng(4).normal(size=(128, 3))
        parts = spatial_partition(means, 4)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_k1_is_identity(self):
        means = np.zeros((9, 3))
        (only,) = spatial_partition(means, 1)
        np.testing.assert_array_equal(only, np.arange(9))

    def test_spatial_coherence(self):
        """Shards are spatial blocks: each shard's extent along the first
        cut axis is smaller than the whole cloud's."""
        means = np.random.default_rng(5).normal(size=(200, 3))
        parts = spatial_partition(means, 2)
        axis = int(np.argmax(np.ptp(means, axis=0)))
        whole = np.ptp(means[:, axis])
        for p in parts:
            assert np.ptp(means[p][:, axis]) < whole

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            spatial_partition(np.zeros((3, 3)), 0)


class TestKInvariance:
    # K=1 and K=4 equivalence against unsharded GS-Scale lives in
    # tests/core/test_system_equivalence.py::TestShardedEquivalence

    def test_k_values_agree(self, scene):
        models = {}
        for k in (1, 2, 3):
            s, _ = run(scene, "sharded", steps=5, num_shards=k)
            models[k] = s.materialized_model().params
        np.testing.assert_allclose(models[1], models[2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(models[1], models[3], rtol=0, atol=1e-12)

    def test_step_reports_match_gsscale(self, scene):
        a = make(scene, "gsscale")
        b = make(scene, "sharded", num_shards=4)
        for i in range(4):
            ra = a.step(scene.train_cameras[i], scene.train_images[i])
            rb = b.step(scene.train_cameras[i], scene.train_images[i])
            assert rb.loss == pytest.approx(ra.loss, rel=1e-12)
            assert rb.num_visible == ra.num_visible
            np.testing.assert_array_equal(ra.valid_ids, rb.valid_ids)

    def test_ledger_totals_match_gsscale(self, scene):
        a, _ = run(scene, "gsscale", steps=5)
        b, _ = run(scene, "sharded", steps=5, num_shards=4)
        assert a.ledger.h2d_bytes == b.ledger.h2d_bytes
        assert a.ledger.d2h_bytes == b.ledger.d2h_bytes

    def test_image_splitting_matches(self, scene):
        """The distributed split search (summed per-shard counts) finds
        the same regions as the single-device search."""
        a = make(scene, "gsscale", mem_limit=1e-6, ssim_lambda=0.0)
        b = make(scene, "sharded", num_shards=3, mem_limit=1e-6,
                 ssim_lambda=0.0)
        ra = a.step(scene.train_cameras[0], scene.train_images[0])
        rb = b.step(scene.train_cameras[0], scene.train_images[0])
        assert ra.num_regions == rb.num_regions >= 2
        assert rb.loss == pytest.approx(ra.loss, rel=1e-12)


class TestMultiprocessingFanout:
    def test_workers_match_serial(self, scene):
        serial, _ = run(scene, "sharded", steps=4, num_shards=4)
        fanned, _ = run(scene, "sharded", steps=4, num_shards=4,
                        shard_workers=2)
        np.testing.assert_array_equal(
            serial.materialized_model().params,
            fanned.materialized_model().params,
        )

    def test_pool_closed_on_close(self, scene):
        s, _ = run(scene, "sharded", steps=2, num_shards=2, shard_workers=2)
        assert s._pool is not None  # finalize() only settles the math
        s.close()
        assert s._pool is None
        s.close()  # idempotent


class TestPerShardAccounting:
    def test_shard_reports_partition_the_scene(self, scene):
        s, _ = run(scene, "sharded", steps=3, num_shards=4)
        reports = s.shard_reports()
        assert len(reports) == 4
        assert sum(r.num_gaussians for r in reports) == s.num_gaussians
        for r in reports:
            assert r.peak_bytes > 0
            # resident floor: the shard's geometric training state
            geo_state = 4 * layout.param_bytes(
                r.num_gaussians, layout.GEOMETRIC_DIM
            )
            assert r.live_bytes == geo_state

    def test_per_shard_capacity_enforced(self, scene):
        probe, _ = run(scene, "sharded", steps=1, num_shards=2)
        worst = max(t.peak_bytes for t in probe.shard_trackers)
        ok = make(scene, "sharded", num_shards=2,
                  shard_device_capacity_bytes=worst)
        ok.step(scene.train_cameras[0], scene.train_images[0])
        with pytest.raises(MemoryError):
            doomed = make(scene, "sharded", num_shards=2,
                          shard_device_capacity_bytes=worst // 2)
            doomed.step(scene.train_cameras[0], scene.train_images[0])

    def test_sharding_shrinks_per_device_peak(self, scene):
        single, _ = run(scene, "sharded", steps=3, num_shards=1)
        multi, _ = run(scene, "sharded", steps=3, num_shards=4)
        worst_single = single.shard_trackers[0].peak_bytes
        worst_multi = max(t.peak_bytes for t in multi.shard_trackers)
        assert worst_multi < worst_single


class TestCheckpointAndTrainer:
    def test_checkpoint_roundtrip(self, tmp_path, scene):
        path = str(tmp_path / "sharded.npz")
        # control run that settles lazy state at the same point the
        # checkpoint does (save_checkpoint finalizes before serializing)
        straight = make(scene, "sharded", num_shards=3)
        for i in range(3):
            straight.step(scene.train_cameras[i], scene.train_images[i])
        straight.finalize()
        for i in range(3, 6):
            straight.step(scene.train_cameras[i], scene.train_images[i])
        straight.finalize()

        first = make(scene, "sharded", num_shards=3)
        for i in range(3):
            first.step(scene.train_cameras[i], scene.train_images[i])
        save_checkpoint(path, first)

        resumed = make(scene, "sharded", num_shards=3)
        load_checkpoint(path, resumed)
        assert resumed.iteration == 3
        for i in range(3, 6):
            resumed.step(scene.train_cameras[i], scene.train_images[i])
        resumed.finalize()
        np.testing.assert_allclose(
            resumed.materialized_model().params,
            straight.materialized_model().params,
            rtol=1e-9, atol=1e-12,
        )

    def test_checkpoint_shard_count_mismatch_rejected(self, tmp_path, scene):
        path = str(tmp_path / "k.npz")
        s = make(scene, "sharded", num_shards=2)
        s.step(scene.train_cameras[0], scene.train_images[0])
        save_checkpoint(path, s)
        other = make(scene, "sharded", num_shards=3)
        with pytest.raises((ValueError, KeyError)):
            load_checkpoint(path, other)

    def test_resume_model_reassembles_packed(self, tmp_path, scene):
        path = str(tmp_path / "m.npz")
        s, _ = run(scene, "sharded", steps=2, num_shards=3)
        save_checkpoint(path, s)
        model = resume_model(path)
        np.testing.assert_allclose(
            model.params, s.materialized_model().params, rtol=1e-12
        )

    def test_trains_end_to_end_with_densification(self, scene):
        """K=4 end-to-end through the Trainer: densification rebuilds the
        partition, accounting survives, quality is finite."""
        cfg = GSScaleConfig(
            system="sharded", num_shards=4, scene_extent=scene.extent,
            ssim_lambda=0.0, mem_limit=1.0, seed=0,
        )
        densify = DensifyConfig(
            interval=4, start_iteration=4, stop_iteration=100,
            grad_threshold=1e-9, percent_dense=0.01,
            max_gaussians=scene.initial.num_gaussians + 80,
        )
        trainer = Trainer(scene.initial.copy(), cfg, densify=densify)
        _built.append(trainer)
        hist = trainer.train(scene.train_cameras, scene.train_images, 12)
        assert hist.num_iterations == 12
        assert len(hist.densify_reports) >= 1
        assert np.isfinite(hist.final_loss)
        assert hist.h2d_bytes > 0
        reports = trainer.system.shard_reports()
        assert sum(r.num_gaussians for r in reports) == trainer.num_gaussians
        ev = trainer.evaluate(scene.test_cameras, scene.test_images)
        assert np.isfinite(ev.psnr)

    def test_loss_decreases(self, scene):
        s = make(scene, "sharded", num_shards=4, ssim_lambda=0.0)
        first, last = [], []
        for epoch in range(5):
            for cam, img in zip(scene.train_cameras, scene.train_images):
                r = s.step(cam, img)
                (first if epoch == 0 else last).append(r.loss)
        assert np.mean(last[-6:]) < np.mean(first)
