"""The configuration lattice, sampled.

Every sample is decided by :func:`tests.lattice.check`: its result arrays
against the oracle under the per-axis contract, a mechanism twin against
its whole observation, the laws on every engine, and no residue.  Tier-1
draws a fixed, derandomized set of samples; ``pytest
tests/test_lattice.py --hypothesis-profile=lattice`` draws the heavier
random set registered in ``tests/conftest.py``.
"""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from repro.algorithms import registry
from repro.core.options import FORCEABLE_LAYOUTS, PARTITION_ORDERS
from repro.layout import EDGE_ORDERS
from repro.layout.grid import STRIPE_MODES
from repro.resilience import FaultPlan
from tests.lattice import BACKENDS, GRAINS, LATTICE_GRAPHS, Config, NotKilled, check


def tier1(examples: int) -> settings:
    """``examples`` derandomized samples, or the ``lattice`` profile's when
    it is the one loaded."""
    if settings.get_current_profile_name() == "lattice":
        return settings()
    return settings(max_examples=examples, derandomize=True, deadline=None)


@st.composite
def points(draw, grid: bool = False) -> Config:
    """A point of the lattice, in RAM or (``grid``) through an on-disk grid."""
    order = draw(st.sampled_from(PARTITION_ORDERS))
    config = Config(
        code=draw(st.sampled_from(registry.names())),
        graph=draw(st.sampled_from(LATTICE_GRAPHS)),
        partitions=draw(st.integers(1, 24)),
        forced_layout=draw(st.sampled_from((None, *FORCEABLE_LAYOUTS))),
        sparse_layout=draw(st.sampled_from(("csr", "pcsr"))),
        edge_order=draw(st.sampled_from(EDGE_ORDERS)),
        partition_order=order,
        order_seed=draw(st.integers(0, 3)) if order == "shuffle" else 0,
        grain=draw(st.sampled_from(GRAINS)),
        bitmap=draw(st.booleans()),
        backend=draw(st.sampled_from(BACKENDS)),
        supervised=draw(st.sampled_from((False, False, True))),
    )
    if not grid:
        return config
    return dataclasses.replace(
        config,
        stripes=draw(st.integers(1, 6)),
        stripe_mode=draw(st.sampled_from(STRIPE_MODES)),
        budget=draw(st.sampled_from(("4K", "8K", "64K"))),
        spill=draw(st.booleans()),
    )


def twins(config: Config) -> st.SearchStrategy[Config]:
    """``config`` at another task grain and any forced bitmap, backend spec
    and prefetch shim.  Under faults the backend keeps its family: a
    partition-scoped fault recovers one partition in process but the whole
    phase on the pool, and the journal counts say which."""
    pooled = config.backend.startswith("threads")
    backends = [b for b in BACKENDS if not config.faults or b.startswith("threads") == pooled]
    return st.builds(
        dataclasses.replace, st.just(config),
        grain=st.sampled_from([g for g in GRAINS if g != config.grain]),
        bitmap=st.booleans(), backend=st.sampled_from(backends),
    )


@tier1(24)
@given(data=st.data())
def test_every_point_in_ram_matches_the_oracle_and_its_twin(data):
    config = data.draw(points())
    check(config, data.draw(twins(config)))


@tier1(10)
@given(data=st.data())
def test_every_point_through_a_grid_matches_the_oracle_and_its_twin(data):
    config = data.draw(points(grid=True))
    check(config, data.draw(twins(config)))


def _events(partitions: int, grid: bool) -> st.SearchStrategy[str]:
    """One fault event of a kind the recovery paths handle."""
    phase, part = st.integers(0, 3), st.integers(0, partitions - 1)
    kinds = [
        st.builds("worker_crash@{}".format, phase),
        st.builds("oom@{}".format, phase),
        *(st.builds(f"{kind}@{{}}:{{}}".format, phase, part)
          for kind in ("worker_crash", "partition", "stall")),
    ]
    if grid:
        kinds += [st.builds(f"{kind}@{{}}".format, st.integers(0, 3))
                  for kind in ("io_error", "slow_io", "torn_block", "disk_full")]
    return st.one_of(kinds)


def _one_full_disk(events: list[str]) -> bool:
    """A second full disk may hit the first one's retry: a device that stays
    full is a typed error, not a fault to recover from."""
    return sum(event.startswith("disk_full") for event in events) <= 1


@pytest.mark.faultinjection
@tier1(14)
@given(data=st.data())
def test_every_faulted_or_killed_point_recovers_to_the_oracle(data):
    """The checkpoint store and the seed of one drawn plan come from
    ``REPRO_STORE`` and ``REPRO_FAULT_SEED``, as in CI's fault matrix."""
    config = data.draw(points(grid=data.draw(st.booleans())))
    grid, p = config.stripes is not None, config.partitions
    seed = int(os.environ.get("REPRO_FAULT_SEED", "7"))
    seeded = FaultPlan.random(
        seed, iterations=4, num_faults=2, kinds=("worker_crash", "partition"),
        max_partition=min(4, p),
    ).to_spec()
    events = data.draw(st.lists(_events(p, grid) | st.just(seeded), min_size=1, max_size=3,
                                unique=True).filter(_one_full_disk))
    config = dataclasses.replace(config, faults=",".join(events))
    if not registry.get(config.code).resumable or not data.draw(st.booleans()):
        check(config, data.draw(twins(config)))
        return
    stored = dataclasses.replace(config, store=os.environ.get("REPRO_STORE", "sharded"))
    phases = len(check(stored).rows)
    assume(phases >= 2)
    phase, stripes = st.integers(1, phases - 1), config.stripes or p
    kill = st.one_of(
        st.builds("{}@{}".format, st.sampled_from(("worker_crash", "oom")), phase),
        # mid-phase: the partitions before ``p`` have committed when it dies
        st.builds("worker_crash@{}:{}".format, phase, st.integers(0, min(p, stripes) - 1)),
    )
    try:
        check(dataclasses.replace(stored, kill=data.draw(kill)))
    except AssertionError as exc:
        if not isinstance(exc.__cause__, NotKilled):
            raise
        reject()  # the drawn partition starts no task of that phase
