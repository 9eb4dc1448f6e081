"""Seeded randomized protocol fuzz: stores vs an in-memory oracle.

Drives random interleavings of the store protocol — ``stage``/``unstage``,
``return_grads``, ``commit``, ``materialize``, ``set_lr``, ``flush``, and
(for the disk tier) ``spill``/``page_in`` at arbitrary points — for a few
hundred operations against an oracle holding the same state in plain
memory, asserting parameter arrays and optimizer state stay bit-identical
throughout. Placement and paging must be invisible to the math no matter
how the operations interleave.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.stores import (
    DeviceStore,
    DiskStore,
    HostStore,
    HybridStore,
    ResidentSet,
    ShardedStore,
)
from repro.core.systems import TransferLedger
from repro.gaussians import layout
from repro.optim.base import AdamConfig
from repro.sim.memory import MemoryTracker

N = 30
ADAM = AdamConfig(lr=5e-3)


def _params(seed):
    return np.random.default_rng(seed).normal(size=(N, layout.PARAM_DIM))


def _random_ids(rng, n=N):
    size = int(rng.integers(0, n + 1))
    return np.sort(rng.choice(n, size=size, replace=False))


class _ProtocolFuzzer:
    """Applies one random-op stream to a pair of protocol-equal stores."""

    def __init__(self, seed, subject, oracle, disk_ops=False):
        self.rng = np.random.default_rng(seed)
        self.subject = subject
        self.oracle = oracle
        self.ops = [
            self.op_step, self.op_step, self.op_step,  # weighted: common
            self.op_materialize, self.op_set_lr, self.op_flush,
        ]
        if disk_ops:
            self.ops += [self.op_spill, self.op_page_in]

    def both(self, fn):
        fn(self.subject)
        fn(self.oracle)

    def op_step(self):
        """One full training-step protocol round with shared gradients."""
        ids = _random_ids(self.rng)
        grads = self.rng.normal(size=(ids.size, layout.PARAM_DIM))
        returned = bool(self.rng.integers(0, 2))
        for store in (self.subject, self.oracle):
            store.stage(ids)
            store.unstage(ids, returned=returned)
            store.commit()
            store.return_grads(ids, grads)

    def op_materialize(self):
        ids = _random_ids(self.rng)
        np.testing.assert_array_equal(
            self.subject.materialize(ids), self.oracle.materialize(ids)
        )

    def op_set_lr(self):
        # lr changes at settled step boundaries: a forwarding store
        # commits pending gradients with the *commit-time* lr, so changing
        # rates under a pending batch is outside the protocol contract
        # (the systems only ever re-rate device-resident columns)
        self.both(lambda s: s.flush())
        if hasattr(self.subject, "spill") and self.rng.integers(0, 2):
            self.subject.spill()  # exercise the spilled lr-stash path
        lr = np.exp(self.rng.normal(size=layout.PARAM_DIM) - 5.0)
        self.both(lambda s: s.set_lr(lr))

    def op_flush(self):
        self.both(lambda s: s.flush())

    def op_spill(self):
        self.subject.spill()  # oracle has no disk tier: no-op there

    def op_page_in(self):
        self.subject.page_in()

    def run(self, rounds):
        for i in range(rounds):
            self.rng.choice(self.ops)()
            if i % 10 == 0:
                self.op_materialize()
        self.both(lambda s: s.flush())
        np.testing.assert_array_equal(
            self.subject.materialize(), self.oracle.materialize()
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("deferred", [False, True], ids=["dense", "deferred"])
@pytest.mark.parametrize("codec", ["raw", "lossless"])
def test_disk_store_matches_host_store(tmp_path, seed, deferred, codec):
    """DiskStore under random spill/page-in interleavings is bit-identical
    to a HostStore with the same flags: the disk tier is pure placement —
    including through the lossless page codec (shuffle+zlib must round-trip
    every spill bit-exactly)."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    disk = DiskStore(
        _params(seed), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / f"fuzz{seed}"),
        resident_set=ResidentSet(1),
        forwarding=True, deferred=deferred, codec=codec,
    )
    host = HostStore(
        _params(seed), layout.ALL_BLOCK, ADAM, MemoryTracker(),
        TransferLedger(), forwarding=True, deferred=deferred,
    )
    _ProtocolFuzzer(seed, disk, host, disk_ops=True).run(rounds=120)
    # optimizer state (not just parameters) must agree bit-for-bit
    a, b = disk.state_dict(), host.state_dict()
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(np.asarray(a[key]), b[key], err_msg=key)


@pytest.mark.parametrize("seed", [3, 4])
def test_sharded_hybrid_matches_device(seed):
    """A sharded composition of hybrid (device+forwarding-host) stores is
    bit-identical to one flat DeviceStore under random interleavings."""
    p = _params(seed)
    rows = [np.arange(k, N, 4) for k in range(4)]
    stores = []
    parent_tracker, parent_ledger = MemoryTracker(), TransferLedger()
    for r in rows:
        tracker = MemoryTracker(parent=parent_tracker)
        ledger = TransferLedger(parent=parent_ledger)
        geo = DeviceStore(
            p[r][:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, ADAM,
            tracker, label="geo",
        )
        host = HostStore(
            p[r][:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK,
            ADAM, tracker, ledger, forwarding=True,
        )
        stores.append(HybridStore([geo, host]))
    sharded = ShardedStore(rows, stores)
    oracle = DeviceStore(p, layout.ALL_BLOCK, ADAM, MemoryTracker())
    _ProtocolFuzzer(seed, sharded, oracle).run(rounds=100)


@pytest.mark.parametrize("seed", [5])
def test_float16_disk_store_mirror_pair(tmp_path, seed):
    """Two float16-codec DiskStores driven by the same op stream stay
    bit-identical to *each other*: the lossy codec is deterministic, and
    idempotent across repeated spill/page-in cycles (a page spilled twice
    without intervening math writes the same bytes both times)."""
    stores = []
    for run in range(2):
        disk = DiskStore(
            _params(seed), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), spill_path=str(tmp_path / f"f16_{run}"),
            forwarding=True, deferred=True, codec="float16",
        )
        rng = np.random.default_rng(seed + 100)
        for step in range(40):
            ids = _random_ids(rng)
            grads = rng.normal(size=(ids.size, layout.PARAM_DIM))
            disk.stage(ids)
            disk.unstage(ids)
            disk.commit()
            disk.return_grads(ids, grads)
            if step % 3 == 2:
                disk.spill()
        disk.flush()
        stores.append(disk)
    a, b = (s.state_dict() for s in stores)
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(np.asarray(a[key]), np.asarray(b[key]),
                                      err_msg=key)
    # idempotence on disk: spill -> page_in -> spill with no math between
    # reproduces the page file byte-for-byte
    disk = stores[0]
    disk.spill()
    first = {f: Path(p).read_bytes() for f, p in disk._page_files.items()}
    disk.page_in()
    disk.spill()
    second = {f: Path(p).read_bytes() for f, p in disk._page_files.items()}
    assert first == second


@pytest.mark.parametrize("seed", [7])
def test_fuzz_is_deterministic(tmp_path, seed):
    """Same seed, same stream: the fuzzer itself is reproducible, so any
    failure it ever finds can be replayed."""
    finals = []
    for run in range(2):
        tracker, ledger = MemoryTracker(), TransferLedger()
        disk = DiskStore(
            _params(seed), layout.ALL_BLOCK, ADAM, tracker, ledger,
            spill_path=str(tmp_path / f"det{run}"),
            forwarding=True, deferred=True,
        )
        host = HostStore(
            _params(seed), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), forwarding=True, deferred=True,
        )
        _ProtocolFuzzer(seed, disk, host, disk_ops=True).run(rounds=60)
        finals.append(disk.materialize())
    np.testing.assert_array_equal(finals[0], finals[1])
