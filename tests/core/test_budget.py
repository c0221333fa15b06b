"""Unit tests for the memory-budget grammar and the pinned + LRU governor."""

import pytest

from repro.core.budget import MemoryBudget, parse_memory_budget
from repro.errors import CapacityError, ValidationError


# ----------------------------------------------------------------------
# parse_memory_budget: the --memory-budget grammar


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("8192", 8192),
        (8192, 8192),
        ("64K", 64 << 10),
        ("64k", 64 << 10),
        ("64KiB", 64 << 10),
        ("64KB", 64 << 10),
        ("512M", 512 << 20),
        ("1.5G", int(1.5 * (1 << 30))),
        ("2GiB", 2 << 30),
        ("1T", 1 << 40),
        ("  8192  ", 8192),
        ("100B", 100),
    ],
)
def test_parse_valid_specs(spec, expected):
    assert parse_memory_budget(spec) == expected


@pytest.mark.parametrize(
    "spec",
    [
        "0",
        "-1",
        "",
        "abc",
        "64Q",
        "K",
        "1..5G",
        "64 K extra",
        0,
        -4096,
        1.5,  # fractional bytes make no sense without a unit
        True,  # bool is an int subclass; rejected explicitly
        None,
        ["64K"],
    ],
)
def test_parse_rejects_malformed_specs(spec):
    with pytest.raises(ValidationError):
        parse_memory_budget(spec)


def test_units_are_binary():
    # The grammar follows Figure 4's GiB axis: powers of 1024, not 1000.
    assert parse_memory_budget("1K") == 1024
    assert parse_memory_budget("1KB") == 1024


# ----------------------------------------------------------------------
# MemoryBudget: pinned + LRU-governed resident-byte accounting


def test_budget_rejects_nonpositive_limit():
    with pytest.raises(ValidationError):
        MemoryBudget(0)
    with pytest.raises(ValidationError):
        MemoryBudget(-1)


def test_unlimited_budget_accounts_without_evicting():
    b = MemoryBudget(None)
    assert b.admit("a", 100) == []
    assert b.admit("b", 200) == []
    assert b.resident_bytes == 300
    assert b.high_water_bytes == 300
    assert b.evictions == 0


def test_lru_eviction_order():
    b = MemoryBudget(300)
    b.admit("a", 100)
    b.admit("b", 100)
    b.admit("c", 100)
    # "a" is the least recently used; the next admission evicts it.
    assert b.admit("d", 100) == ["a"]
    # "b", "c", "d" stay resident, least recently used first
    assert [b.admit(key, 100) for key in "efg"] == [["b"], ["c"], ["d"]]


def test_touch_promotes_to_most_recently_used():
    b = MemoryBudget(300)
    b.admit("a", 100)
    b.admit("b", 100)
    b.admit("c", 100)
    b.touch("a")  # cache hit: "b" becomes the eviction victim
    assert b.admit("d", 100) == ["b"]
    assert b.admit("e", 100) == ["c"]
    assert b.admit("f", 100) == ["a"]  # "a" was still resident


def test_high_water_never_exceeds_limit():
    b = MemoryBudget(250)
    for key in range(20):
        b.admit(key, 100)
    assert b.high_water_bytes <= 250
    assert b.resident_bytes <= 250
    assert b.admissions == 20
    assert b.evictions == 18


def test_readmitting_resident_key_is_a_touch():
    b = MemoryBudget(300)
    b.admit("a", 100)
    b.admit("b", 100)
    assert b.admit("a", 100) == []  # no double charge
    assert b.resident_bytes == 200
    assert b.admit("c", 100) == []
    assert b.admit("d", 100) == ["b"]  # "a" was touched, "b" is LRU


def test_oversized_block_raises_structured_capacity_error():
    b = MemoryBudget(100)
    with pytest.raises(CapacityError) as info:
        b.admit("huge", 101)
    assert info.value.required_bytes == 101
    assert info.value.available_bytes == 100
    assert "grid block" in str(info.value.what)


def test_exact_fit_admits_without_error():
    b = MemoryBudget(100)
    assert b.admit("a", 100) == []
    assert b.high_water_bytes == 100


def test_negative_admission_rejected():
    b = MemoryBudget(100)
    with pytest.raises(ValidationError):
        b.admit("a", -1)


# ----------------------------------------------------------------------
# pinning: the largest blocks that leave room for the rest stay resident


def test_pin_largest_leaves_room_for_the_largest_unpinned():
    b = MemoryBudget(1100)
    sizes = {"a": 500, "c": 300, "b": 300, "d": 200, "e": 100}
    # a (500) + b (300) + the next-largest (c, 300) = 1100 fits; adding c
    # would leave 1100 + d (200) > 1100.  The tie b/c goes to the key.
    assert b.pin_largest(sizes) == 800
    assert b.pinned == {"a", "b"}
    largest_unpinned = max(n for k, n in sizes.items() if k not in b.pinned)
    assert 800 + largest_unpinned <= b.limit_bytes


def test_pinning_fills_the_room_beside_the_largest_unpinned_block():
    b = MemoryBudget(1000)
    # 600 + 500 > 1000 pins no prefix; LRU needs room for the 600 only, so
    # the 400 beside it stays open and 300 then 100 are pinned into it.
    assert b.pin_largest({"a": 600, "b": 500, "c": 300, "d": 200, "e": 100}) == 400
    assert b.pinned == {"c", "e"}
    evicted = []
    for _ in range(3):
        for key, n in (("a", 600), ("b", 500), ("c", 300), ("d", 200), ("e", 100)):
            evicted += b.admit(key, n)
    assert not {"c", "e"} & set(evicted) and b.high_water_bytes <= 1000


def test_pinned_blocks_are_never_evicted():
    b = MemoryBudget(1100)
    b.pin_largest({"a": 500, "b": 300, "c": 300, "d": 200, "e": 100})
    evicted = []
    for _ in range(3):  # a cyclic scan larger than the budget
        for key, n in (("a", 500), ("b", 300), ("c", 300), ("d", 200), ("e", 100)):
            evicted += b.admit(key, n)
    assert not {"a", "b"} & set(evicted)
    assert set(evicted) == {"c", "d", "e"}
    assert b.high_water_bytes <= 1100


def test_unlimited_budget_pins_everything():
    b = MemoryBudget(None)
    assert b.pin_largest({"a": 10, "b": 20}) == 30
    assert b.pinned == {"a", "b"}


def test_pinning_leaves_out_blocks_over_the_whole_limit():
    b = MemoryBudget(400)
    assert b.pin_largest({"huge": 500, "x": 200, "y": 100}) == 300
    assert b.pinned == {"x", "y"}


def test_clear_releases_pinned_and_unpinned_residents():
    b = MemoryBudget(300)
    b.pin_largest({"a": 200, "b": 100})
    b.admit("a", 200)
    b.admit("c", 100)
    b.clear()
    assert b.resident_bytes == 0
    assert b.admit("a", 200) == []  # charged again, not a hit
    assert b.resident_bytes == 200 and b.admissions == 3
