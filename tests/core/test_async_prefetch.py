"""Tests of the out-of-core async prefetch leg and the view-locality
schedule.

Acceptance bar: an ``async_prefetch`` run is bit-identical to the
synchronous out-of-core run — the overlap moves the page-read off the
critical path, it never changes what is read, when it is accounted, or
what the optimizer computes. Plus: the double-buffer actually hits on
shard-local view schedules, the thread-safe ``DiskStore``
preload/adopt protocol rejects stale snapshots, and the trainer wires
hints and locality ordering through.
"""

import gc
import os
import weakref

import numpy as np
import pytest

from repro.cameras import Camera
from repro.core import GSScaleConfig, Trainer, create_system, locality_view_order
from repro.core.checkpoint import save_checkpoint
from repro.core.stores import DiskStore
from repro.core.systems import TransferLedger
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import GaussianModel, layout
from repro.optim.base import AdamConfig
from repro.sim.memory import MemoryTracker

CLUSTER_CENTERS = np.array(
    [[-6.0, -6.0, 0.0], [6.0, -6.0, 0.0], [-6.0, 6.0, 0.0], [6.0, 6.0, 0.0]]
)


@pytest.fixture(scope="module")
def clustered():
    """Four well-separated clusters with one narrow camera per cluster.

    Each view frustum-culls to exactly one spatial shard, the regime the
    async leg is built for: the next view's shard is spilled and
    untouched while the current view renders, so the background snapshot
    stays valid and gets adopted.
    """
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
    images = [np.zeros((18, 24, 3)) for _ in cameras]
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


def make_system(model, async_prefetch, **cfg):
    defaults = dict(
        system="outofcore", num_shards=4, resident_shards=1,
        scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
        async_prefetch=async_prefetch,
    )
    defaults.update(cfg)
    return built(create_system(model.copy(), GSScaleConfig(**defaults)))


def run_hinted(model, cameras, images, async_prefetch, steps=8, **cfg):
    """Step loop issuing next-view hints, like the trainer does."""
    s = make_system(model, async_prefetch, **cfg)
    losses = []
    for i in range(steps):
        if i + 1 < steps:
            s.hint_upcoming_views([cameras[(i + 1) % len(cameras)]])
        losses.append(s.step(cameras[i % len(cameras)], images[i % len(cameras)]).loss)
    s.finalize()
    return s, losses


class TestBitIdentity:
    def test_async_matches_sync_on_clustered_views(self, clustered):
        model, cameras, images = clustered
        sync, loss_sync = run_hinted(model, cameras, images, False)
        asyn, loss_async = run_hinted(model, cameras, images, True)
        assert loss_sync == loss_async
        np.testing.assert_array_equal(
            sync.materialized_model().params,
            asyn.materialized_model().params,
        )

    def test_ledger_and_accounting_identical(self, clustered):
        """Adoption replays the exact page-in records of the synchronous
        schedule: same counts, same bytes, same PCIe channel."""
        model, cameras, images = clustered
        sync, _ = run_hinted(model, cameras, images, False)
        asyn, _ = run_hinted(model, cameras, images, True)
        for field in (
            "page_in_bytes", "page_out_bytes", "page_in_count",
            "page_out_count", "h2d_bytes", "d2h_bytes",
        ):
            assert getattr(sync.ledger, field) == getattr(asyn.ledger, field)
        assert sync.host_memory.peak_bytes == asyn.host_memory.peak_bytes

    def test_async_matches_sync_generic_scene(self):
        """Overlapping-frustum views (every snapshot goes stale) still
        agree bit-for-bit — staleness only costs hits, never numerics."""
        scene = build_scene(
            SyntheticSceneConfig(
                num_points=240, width=36, height=28,
                num_train_cameras=6, num_test_cameras=1,
                altitude=12.0, seed=11,
            )
        )
        results = {}
        for flag in (False, True):
            cfg = GSScaleConfig(
                system="outofcore", num_shards=4, resident_shards=1,
                scene_extent=scene.extent, ssim_lambda=0.2, mem_limit=1.0,
                seed=0, async_prefetch=flag,
            )
            t = built(Trainer(scene.initial.copy(), cfg))
            t.train(scene.train_cameras, scene.train_images, 10)
            results[flag] = t.system.materialized_model().params
        np.testing.assert_array_equal(results[False], results[True])


class TestOverlapActuallyHits:
    def test_hits_on_shard_local_schedule(self, clustered):
        model, cameras, images = clustered
        asyn, _ = run_hinted(model, cameras, images, True, steps=8)
        # steps 2..8 visit a cluster whose shard was prefetched while the
        # previous cluster rendered; at least most must adopt the buffer
        assert asyn.prefetch_hits >= 4
        assert asyn.prefetch_hits + asyn.prefetch_misses > 0

    def test_sync_run_counts_nothing(self, clustered):
        model, cameras, images = clustered
        sync, _ = run_hinted(model, cameras, images, False)
        assert sync.prefetch_hits == 0
        assert sync.prefetch_misses == 0
        assert sync.prefetch_staged_peak_bytes == 0

    def test_staging_double_buffer_is_accounted(self, clustered):
        """The async leg's buffers are real host memory: the high-water
        mark is reported (bounded by the budget's worth of pageable
        state), complementing the sim's staging_shards term."""
        model, cameras, images = clustered
        asyn, _ = run_hinted(model, cameras, images, True)
        per_shard = max(
            3 * layout.param_bytes(r.size, layout.NON_GEOMETRIC_DIM)
            for r in asyn.shard_rows
        )
        assert 0 < asyn.prefetch_staged_peak_bytes
        assert (
            asyn.prefetch_staged_peak_bytes
            <= asyn.resident_set.budget * per_shard
        )

    def test_trainer_issues_hints(self, clustered):
        model, cameras, images = clustered
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
            async_prefetch=True,
        )
        trainer = built(Trainer(model.copy(), cfg))
        trainer.train(cameras, images, 8)
        assert trainer.system.prefetch_hits >= 4

    def test_close_stops_the_worker(self, clustered):
        model, cameras, images = clustered
        asyn, _ = run_hinted(model, cameras, images, True)
        worker = asyn._pager.prefetcher._thread
        assert worker.is_alive()  # finalize() only settles the math
        asyn.close()
        assert not worker.is_alive()
        asyn.close()  # idempotent
        # post-close hints are harmless no-ops
        asyn.hint_upcoming_views([cameras[0]])


class TestLifecycle:
    """``finalize()`` settles the math and leaves the async leg running;
    ``close()`` is the only teardown."""

    CONFIG = dict(
        system="outofcore", num_shards=4, resident_shards=1,
        scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
        async_prefetch=True,
    )

    def test_second_train_keeps_prefetching(self, clustered):
        model, cameras, images = clustered
        trainer = built(Trainer(model.copy(), GSScaleConfig(**self.CONFIG)))
        trainer.train(cameras, images, 8)  # ends in finalize()
        first = trainer.system.prefetch_hits
        assert first >= 4
        assert trainer.system.prefetch_depth == 1
        trainer.train(cameras, images, 8)
        assert trainer.system.prefetch_hits - first >= 4

    def test_mid_run_checkpoint_keeps_prefetching(self, clustered, tmp_path):
        model, cameras, images = clustered
        trainer = built(Trainer(model.copy(), GSScaleConfig(**self.CONFIG)))
        trainer.train(cameras, images, 4)
        save_checkpoint(str(tmp_path / "mid.npz"), trainer.system)
        before = trainer.system.prefetch_hits
        trainer.train(cameras, images, 8, start_iteration=4)
        assert trainer.system.prefetch_hits - before >= 4

    def test_counters_survive_a_rebuild(self, clustered):
        """A densification rebuild replaces every store; the run-level
        paging counters carry over, and the async leg keeps working."""
        model, cameras, images = clustered
        s, _ = run_hinted(model, cameras, images, True)
        current = s.materialized_model()  # pages (and spills) shards too
        counters = (s.prefetch_hits, s.prefetch_misses, s.sync_spill_bytes)
        assert counters[0] >= 4 and counters[2] > 0
        s.rebuild(current)
        assert (s.prefetch_hits, s.prefetch_misses) == counters[:2]
        # building the new stores under the budget spills some at once
        assert s.sync_spill_bytes >= counters[2]
        for i in range(8):
            s.hint_upcoming_views([cameras[(i + 1) % len(cameras)]])
            s.step(cameras[i % len(cameras)], images[i % len(cameras)])
        assert s.prefetch_hits >= counters[0] + 4

    def test_close_releases_threads_and_spill_dir(self, clustered):
        model, cameras, images = clustered
        with make_system(model, True, write_behind=True) as s:
            for i in range(3):
                s.hint_upcoming_views([cameras[(i + 1) % len(cameras)]])
                s.step(cameras[i], images[i])
            spill_root = s._pager.spill_root
            threads = [s._pager.prefetcher._thread, s._pager.writer._thread]
            assert os.path.isdir(spill_root)
            assert all(t.is_alive() for t in threads)
        assert not os.path.exists(spill_root)
        assert not any(t.is_alive() for t in threads)

    def test_dropped_system_is_collected(self, clustered, tmp_path):
        """The prefetch thread holds its system weakly: an unclosed system
        that goes out of scope is still garbage (its caller-provided spill
        directory stays, as always)."""
        model, cameras, images = clustered
        s = create_system(
            model.copy(),
            GSScaleConfig(**self.CONFIG, spill_dir=str(tmp_path / "spill")),
        )
        for i in range(3):
            s.hint_upcoming_views([cameras[(i + 1) % len(cameras)]])
            s.step(cameras[i], images[i])
        ref = weakref.ref(s)
        del s
        gc.collect()
        assert ref() is None


class TestPreloadAdoptProtocol:
    def _store(self, tmp_path, ledger=None):
        return DiskStore(
            np.random.default_rng(0).normal(size=(12, 49)),
            layout.NON_GEOMETRIC_BLOCK, AdamConfig(lr=1e-2),
            MemoryTracker(), ledger if ledger is not None else TransferLedger(),
            spill_path=str(tmp_path / "shard"),
            forwarding=True, deferred=True,
        )

    def test_preload_none_while_resident(self, tmp_path):
        store = self._store(tmp_path)
        assert store.is_resident
        assert store.preload() is None

    def test_adopt_is_a_page_in(self, tmp_path):
        ledger = TransferLedger()
        store = self._store(tmp_path, ledger)
        before = store.params.copy()
        store.spill()
        pre = store.preload()
        assert pre is not None and pre.nbytes > 0
        pages = ledger.page_in_count
        assert store.adopt(pre)
        assert store.is_resident
        assert ledger.page_in_count == pages + 1  # accounted exactly once
        np.testing.assert_array_equal(store.params, before)  # bit-exact

    def test_adopt_rejects_after_page_in(self, tmp_path):
        store = self._store(tmp_path)
        store.spill()
        pre = store.preload()
        store.page_in()
        assert not store.adopt(pre)  # already resident

    def test_adopt_rejects_snapshot_from_before_checkpoint_restore(
        self, tmp_path
    ):
        """load_state_dict on a spilled store rewrites the spill files:
        it must invalidate outstanding preload snapshots like any other
        write, or a restore could resume from mixed old/new state."""
        store = self._store(tmp_path)
        store.spill()
        pre = store.preload()
        state = {
            k: np.asarray(v) + (1.0 if k != "steps" else 0)
            for k, v in store.state_dict().items()
        }
        store.load_state_dict(state)
        assert not store.adopt(pre)  # pre-restore snapshot is stale
        store.page_in()
        np.testing.assert_array_equal(store.params, state["params"])

    def test_adopt_rejects_stale_epoch(self, tmp_path):
        """A spill after the snapshot invalidates it: the spill wrote
        newer state (and may have raced the read)."""
        store = self._store(tmp_path)
        store.spill()
        pre = store.preload()
        store.page_in()
        store.optimizer.params += 1.0  # shard trained meanwhile
        store.spill()
        assert not store.adopt(pre)
        store.page_in()
        np.testing.assert_array_equal(
            store.params, store.optimizer.params
        )  # the stale buffer never leaked into the working set


class TestLocalityOrder:
    def test_is_a_permutation(self, clustered):
        _, cameras, _ = clustered
        order = locality_view_order(cameras)
        assert sorted(order.tolist()) == list(range(len(cameras)))

    def test_chains_nearest_neighbors(self):
        """Cameras along a line, given shuffled: the schedule must walk
        the line instead of jumping."""
        rng = np.random.default_rng(0)
        xs = np.arange(10, dtype=np.float64)
        perm = rng.permutation(10)
        cams = [
            Camera.look_at([x, 0.0, 5.0], [x, 0.0, 0.0], up=(0, 1, 0),
                           width=8, height=8)
            for x in xs[perm]
        ]
        order = locality_view_order(cams)
        walked = xs[perm][order]
        hops = np.abs(np.diff(walked)).sum()
        assert hops <= 2 * (xs.max() - xs.min())

    def test_locality_reduces_page_traffic(self, clustered):
        """The point of the schedule: grouping same-shard views pages
        less than ping-ponging between shards."""
        model, cameras, images = clustered
        # ping-pong: alternate clusters every step
        ping, _ = run_hinted(model, cameras, images, False, steps=8)
        # locality: 2 consecutive views per cluster (simulated revisit)
        grouped_cams = [cameras[i // 2] for i in range(8)]
        grouped_imgs = [images[i // 2] for i in range(8)]
        s = make_system(model, False)
        for cam, img in zip(grouped_cams, grouped_imgs):
            s.step(cam, img)
        s.finalize()
        assert s.ledger.page_in_count < ping.ledger.page_in_count

    def test_trainer_validates_view_order(self, clustered):
        model, cameras, images = clustered
        cfg = GSScaleConfig(system="gsscale", scene_extent=8.0)
        t = built(Trainer(model.copy(), cfg))
        with pytest.raises(ValueError, match="view_order"):
            t.train(cameras, images, 2, view_order="zigzag")
        with pytest.raises(ValueError, match="mutually exclusive"):
            t.train(cameras, images, 2, shuffle=True, view_order="locality")

    def test_trainer_locality_run(self, clustered):
        model, cameras, images = clustered
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
        )
        t = built(Trainer(model.copy(), cfg))
        hist = t.train(cameras, images, 8, view_order="locality")
        assert hist.num_iterations == 8
        assert np.isfinite(hist.final_loss)
