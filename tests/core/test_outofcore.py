"""Regression tests of the out-of-core placement tier.

The PR-acceptance bar: an out-of-core K=4 run is numerically identical
(<= 1e-12; in fact bit-exact) to the in-memory sharded run while its peak
*tracked host* bytes equal the resident-set budget — placement changes
accounting, never numerics. Plus the spill/prefetch lifecycle, the page
ledger channel, checkpointing from spilled state, and trainer integration.
"""

import os

import numpy as np
import pytest

from repro.core import GSScaleConfig, Trainer, create_system
from repro.core.checkpoint import load_checkpoint, resume_model, save_checkpoint
from repro.core.stores import ResidentSet
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.densify import DensifyConfig
from repro.gaussians import layout


@pytest.fixture(scope="module")
def scene():
    # num_points chosen so the (pruned) Gaussian count divides evenly by
    # K=4: equal shards make the resident-budget assertion exact
    s = build_scene(
        SyntheticSceneConfig(
            num_points=240, width=36, height=28,
            num_train_cameras=6, num_test_cameras=2,
            altitude=12.0, seed=11,
        )
    )
    assert s.initial.num_gaussians % 4 == 0
    return s


#: systems the running test built, closed at its teardown
_built = []


@pytest.fixture(autouse=True)
def _close_built():
    yield
    while _built:
        _built.pop().close()


def make(scene, system="outofcore", **cfg):
    defaults = dict(
        system=system, scene_extent=scene.extent, ssim_lambda=0.2,
        mem_limit=1.0, seed=0, num_shards=4,
    )
    defaults.update(cfg)
    s = create_system(scene.initial.copy(), GSScaleConfig(**defaults))
    _built.append(s)
    return s


def run(scene, system="outofcore", steps=8, **cfg):
    s = make(scene, system, **cfg)
    reports = []
    for i in range(steps):
        reports.append(
            s.step(scene.train_cameras[i % 6], scene.train_images[i % 6])
        )
    s.finalize()
    return s, reports


def shard_state_bytes(system) -> int:
    """fp32-equivalent pageable bytes of one (equal-size) shard."""
    per_shard = system.num_gaussians // system.num_shards
    return 3 * layout.param_bytes(per_shard, layout.NON_GEOMETRIC_DIM)


class TestNumericalIdentity:
    def test_outofcore_k4_is_bit_identical_to_sharded(self, scene):
        """The acceptance bar (<=1e-12); paging round-trips are bit-exact,
        so the runs agree to the last bit."""
        a, ra = run(scene, "sharded", steps=8)
        b, rb = run(scene, "outofcore", steps=8, resident_shards=1)
        np.testing.assert_array_equal(
            a.materialized_model().params, b.materialized_model().params
        )
        for x, y in zip(ra, rb):
            assert x.loss == y.loss
            assert x.num_visible == y.num_visible

    def test_resident_budget_does_not_change_numerics(self, scene):
        models = {}
        for r in (1, 2, 4):
            s, _ = run(scene, "outofcore", steps=6, resident_shards=r)
            models[r] = s.materialized_model().params
        np.testing.assert_array_equal(models[1], models[2])
        np.testing.assert_array_equal(models[1], models[4])

    def test_pcie_traffic_matches_sharded(self, scene):
        """The disk tier adds page traffic; it must not perturb the PCIe
        channel (same staged rows, same bytes)."""
        a, _ = run(scene, "sharded", steps=5)
        b, _ = run(scene, "outofcore", steps=5, resident_shards=1)
        assert a.ledger.h2d_bytes == b.ledger.h2d_bytes
        assert a.ledger.d2h_bytes == b.ledger.d2h_bytes
        assert a.ledger.page_in_bytes == 0  # in-memory system never pages
        assert b.ledger.page_in_bytes > 0


class TestResidentSetAccounting:
    @pytest.mark.parametrize("budget", [1, 2])
    def test_peak_host_bytes_equal_resident_budget(self, scene, budget):
        """The acceptance bar: peak tracked host bytes == the resident-set
        size (budget shards' pageable state + every shard's counters)."""
        s, _ = run(scene, "outofcore", steps=8, resident_shards=budget)
        expected = budget * shard_state_bytes(s) + s.num_gaussians
        assert s.host_memory.peak_bytes == expected

    def test_full_budget_keeps_every_shard_host_resident_at_peak(self, scene):
        s, _ = run(scene, "outofcore", steps=4, resident_shards=4)
        expected = 4 * shard_state_bytes(s) + s.num_gaussians
        assert s.host_memory.peak_bytes == expected

    def test_live_host_bytes_never_exceed_budget(self, scene):
        s = make(scene, "outofcore", resident_shards=1)
        cap = shard_state_bytes(s) + s.num_gaussians
        for i in range(6):
            s.step(scene.train_cameras[i % 6], scene.train_images[i % 6])
            assert s.host_memory.live_bytes <= cap

    def test_page_ledger_rolls_up_and_quantizes(self, scene):
        """Per-shard page traffic partitions the aggregate, and every
        page-in/out moves exactly one shard's pageable state."""
        s, _ = run(scene, "outofcore", steps=6, resident_shards=1)
        reports = s.shard_reports()
        assert sum(r.page_in_bytes for r in reports) == s.ledger.page_in_bytes
        assert sum(r.page_out_bytes for r in reports) == s.ledger.page_out_bytes
        state = shard_state_bytes(s)
        assert s.ledger.page_in_bytes == s.ledger.page_in_count * state
        assert s.ledger.page_out_bytes == s.ledger.page_out_count * state
        # each spill has (at most) one matching page-in outstanding
        assert s.ledger.page_out_count >= s.ledger.page_in_count

    def test_device_side_accounting_unchanged(self, scene):
        """Moving host state out-of-core must not move a single device
        byte: per-shard device trackers match the in-memory run."""
        a, _ = run(scene, "sharded", steps=5)
        b, _ = run(scene, "outofcore", steps=5, resident_shards=1)
        for ta, tb in zip(a.shard_trackers, b.shard_trackers):
            assert ta.peak_bytes == tb.peak_bytes
            assert ta.live_bytes == tb.live_bytes


class TestSpillLifecycle:
    def test_spill_inactive_leaves_active_resident(self, scene):
        s = make(scene, "outofcore", resident_shards=4)
        cam = scene.train_cameras[0]
        s.step(cam, scene.train_images[0])
        active = set(s.active_shard_ids(cam))
        for k in range(s.num_shards):
            assert s._nongeo_store(k).is_resident == (k in active)

    def test_inactive_shard_ticks_without_paging(self, scene, tmp_path):
        """A spilled store with unsaturated counters commits empty steps
        as metadata only — the deferred update is what makes out-of-core
        placement affordable (an untouched shard pages in at most once
        per max_defer steps)."""
        from repro.core.stores import DiskStore
        from repro.core.systems import TransferLedger
        from repro.optim.base import AdamConfig
        from repro.sim.memory import MemoryTracker

        ledger = TransferLedger()
        store = DiskStore(
            np.random.default_rng(0).normal(size=(12, 49)),
            layout.NON_GEOMETRIC_BLOCK, AdamConfig(lr=1e-2),
            MemoryTracker(), ledger,
            spill_path=str(tmp_path / "tick"),
            forwarding=True, deferred=True, max_defer=15,
        )
        store.spill()
        empty = np.empty(0, dtype=np.int64)
        zeros = np.zeros((0, store.dim), dtype=store.dtype)
        for tick in range(1, 16):  # 15 = max_defer empty ticks, no paging
            store.return_grads(empty, zeros)
            store.commit()
            assert store.optimizer.step_count == tick
            assert not store.is_resident
        assert ledger.page_in_count == 0
        # the 16th tick saturates every counter: the store must page in
        store.return_grads(empty, zeros)
        store.commit()
        assert store.is_resident
        assert ledger.page_in_count == 1

    def test_saturated_counters_force_page_in(self, scene):
        """After max_defer empty ticks, the shard must page in to apply
        the saturation flush — and then keeps matching the in-memory run."""
        a, _ = run(scene, "sharded", steps=8, max_defer=2)
        b, _ = run(scene, "outofcore", steps=8, max_defer=2,
                   resident_shards=1)
        np.testing.assert_array_equal(
            a.materialized_model().params, b.materialized_model().params
        )

    def test_explicit_spill_dir_is_used_and_kept(self, scene, tmp_path):
        spill = str(tmp_path / "spill")
        s, _ = run(scene, "outofcore", steps=2, spill_dir=spill,
                   resident_shards=1)
        files = sorted(os.listdir(spill))
        assert any(f.startswith("shard0_host.params") for f in files)
        s.close()
        assert os.path.isdir(spill)  # caller-provided dirs are never deleted

    def test_resident_set_budget_validation(self):
        with pytest.raises(ValueError):
            ResidentSet(0)
        with pytest.raises(ValueError):
            GSScaleConfig(system="outofcore", resident_shards=0)


class TestCheckpointAndTrainer:
    def test_checkpoint_from_spilled_state_roundtrips(self, tmp_path, scene):
        """save -> spill everything -> save again: identical checkpoints
        (serialization streams from the spill files); resume continues
        bit-exactly against a finalize-aligned uninterrupted run."""
        straight = make(scene, "outofcore", resident_shards=1)
        for i in range(3):
            straight.step(scene.train_cameras[i], scene.train_images[i])
        straight.finalize()
        for i in range(3, 6):
            straight.step(scene.train_cameras[i], scene.train_images[i])
        straight.finalize()

        first = make(scene, "outofcore", resident_shards=1)
        for i in range(3):
            first.step(scene.train_cameras[i], scene.train_images[i])
        path_a = str(tmp_path / "resident.npz")
        save_checkpoint(path_a, first)
        for k in range(first.num_shards):
            first._nongeo_store(k).spill()
        path_b = str(tmp_path / "spilled.npz")
        save_checkpoint(path_b, first)
        with np.load(path_a) as a, np.load(path_b) as b:
            assert set(a.files) == set(b.files)
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)

        resumed = make(scene, "outofcore", resident_shards=1)
        load_checkpoint(path_b, resumed)
        assert resumed.iteration == 3
        for i in range(3, 6):
            resumed.step(scene.train_cameras[i], scene.train_images[i])
        resumed.finalize()
        np.testing.assert_array_equal(
            resumed.materialized_model().params,
            straight.materialized_model().params,
        )

    def test_resume_model_reassembles_packed(self, tmp_path, scene):
        path = str(tmp_path / "m.npz")
        s, _ = run(scene, "outofcore", steps=2, resident_shards=1)
        save_checkpoint(path, s)
        model = resume_model(path)
        np.testing.assert_allclose(
            model.params, s.materialized_model().params, rtol=1e-12
        )

    def test_trains_end_to_end_with_densification(self, scene):
        """Densification rebuilds the partition and the spill files; the
        accounting and the budget survive."""
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            scene_extent=scene.extent, ssim_lambda=0.0, mem_limit=1.0,
            seed=0,
        )
        densify = DensifyConfig(
            interval=4, start_iteration=4, stop_iteration=100,
            grad_threshold=1e-9, percent_dense=0.01,
            max_gaussians=scene.initial.num_gaussians + 80,
        )
        with Trainer(scene.initial.copy(), cfg, densify=densify) as trainer:
            hist = trainer.train(scene.train_cameras, scene.train_images, 12)
            assert hist.num_iterations == 12
            assert len(hist.densify_reports) >= 1
            assert np.isfinite(hist.final_loss)
            system = trainer.system
            # densification rebuilds reset the ledger; step twice more so
            # the post-rebuild system shows live page traffic
            for i in range(2):
                system.step(scene.train_cameras[i], scene.train_images[i])
            assert system.ledger.page_out_bytes > 0
            # post-rebuild shards are near-equal; the budget still caps
            # live host state at the worst shard + counters
            worst = max(
                3 * layout.param_bytes(r.size, layout.NON_GEOMETRIC_DIM)
                for r in system.shard_rows
            )
            assert system.host_memory.live_bytes <= worst + system.num_gaussians
            ev = trainer.evaluate(scene.test_cameras, scene.test_images)
            assert np.isfinite(ev.psnr)
