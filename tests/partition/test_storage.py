"""Unit tests for the closed-form storage models (paper §II.E, Figure 4)."""

import re

import pytest

from repro.errors import CapacityError
from repro.partition.storage import StorageModel


@pytest.fixture
def twitter_model():
    return StorageModel(41_700_000, 1_467_000_000)


def test_coo_independent_of_partitions(twitter_model):
    # 2 |E| bv — flat in p.
    assert twitter_model.coo_bytes() == 2 * 1_467_000_000 * 4


def test_csc_formula(twitter_model):
    assert twitter_model.csc_bytes() == 1_467_000_000 * 4 + 41_700_000 * 8


def test_csr_dense_linear_in_p(twitter_model):
    b1 = twitter_model.csr_dense_bytes(1)
    b2 = twitter_model.csr_dense_bytes(2)
    b4 = twitter_model.csr_dense_bytes(4)
    # Linear in p: equal increments per added partition.
    assert (b2 - b1) == (b4 - b2) / 2
    assert b2 - b1 == 41_700_000 * 8


def test_csr_pruned_grows_with_replication(twitter_model):
    assert twitter_model.csr_pruned_bytes(2.0) > twitter_model.csr_pruned_bytes(1.0)


def test_csr_pruned_at_r1_smaller_than_dense_at_high_p(twitter_model):
    assert twitter_model.csr_pruned_bytes(1.0) < twitter_model.csr_dense_bytes(100)


def test_three_copy_scheme_independent_of_p(twitter_model):
    # §III.B: GG-v2's memory use does not grow with partitions and is less
    # than double Ligra's two-copy scheme.
    gg2 = twitter_model.graphgrind_v2_bytes()
    ligra = twitter_model.ligra_bytes()
    assert gg2 < 2 * ligra


def test_to_gib():
    assert StorageModel.to_gib(1 << 30) == 1.0


def test_custom_byte_sizes():
    m = StorageModel(10, 100, bytes_per_vid=8, bytes_per_eid=8)
    assert m.coo_bytes() == 1600
    assert m.csc_bytes() == 880


def test_csr_whole_matches_csc_formula(twitter_model):
    # Same closed form — one index array over vertices plus one neighbour
    # id per edge — under the name that matches what it models.
    assert twitter_model.csr_whole_bytes() == twitter_model.csc_bytes()
    assert twitter_model.graphgrind_v2_bytes() == (
        twitter_model.csr_whole_bytes()
        + twitter_model.csc_bytes()
        + twitter_model.coo_bytes()
    )


def test_assert_fits(twitter_model):
    from repro.errors import CapacityError
    import pytest as _pytest

    twitter_model.assert_fits(10, 100)
    with _pytest.raises(CapacityError, match="GiB"):
        twitter_model.assert_fits(300 << 30, 256 << 30, what="CSR at P=384")


def test_a_small_budget_refusal_shows_which_number_exceeded_which():
    """Under an 8 KiB budget both sides are far below 0.1 GiB: the message
    still tells them apart, in GiB and in bytes."""
    model = StorageModel(num_vertices=512, num_edges=2_048)
    with pytest.raises(CapacityError) as info:
        model.assert_fits(model.graphgrind_v2_bytes(), 8 << 10, what="three-copy layout")
    message = str(info.value)
    need, have = re.findall(r"(\S+) GiB \(([\d,]+) B\)", message)
    assert need != have and need[0] != have[0], message
    assert have[1] == "8,192" and int(need[1].replace(",", "")) == model.graphgrind_v2_bytes()


def test_assert_fits_exact_boundary(twitter_model):
    # num_bytes == dram_bytes fits: the wall is strict inequality.
    twitter_model.assert_fits(256 << 30, 256 << 30)
    with pytest.raises(CapacityError):
        twitter_model.assert_fits((256 << 30) + 1, 256 << 30)


def test_capacity_error_structured_fields(twitter_model):
    with pytest.raises(CapacityError) as info:
        twitter_model.assert_fits(300 << 30, 256 << 30, what="CSR at P=384")
    err = info.value
    assert err.required_bytes == 300 << 30
    assert err.available_bytes == 256 << 30
    assert err.what == "CSR at P=384"
    assert err.deficit_bytes == (300 << 30) - (256 << 30)
