"""The generators are deterministic: a seed fixes every byte they write."""

import pytest

import workloads
from workloads import GENERATORS


def _write(wl, root):
    root.mkdir()
    for name, text in wl.files.items():
        (root / name).write_text(text, encoding="utf-8")
    return {p.name: p.read_bytes() for p in root.iterdir()}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_writes_identical_files(name, tmp_path):
    a, b = GENERATORS[name](7), GENERATORS[name](7)
    assert _write(a, tmp_path / "a") == _write(b, tmp_path / "b")
    assert a.queries == b.queries


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_other_seed_changes_values_not_shapes(name):
    a, b = GENERATORS[name](7), GENERATORS[name](8)
    assert [q.qid for q in a.queries] == [q.qid for q in b.queries]
    assert a.files != b.files


def test_random_slice_is_the_same_for_every_seed():
    a, b = workloads.decompose(7), workloads.decompose(8)
    rand = [f for f in a.files if f.startswith("random")]
    assert len(rand) == workloads.RANDOM_SLICE
    assert all(a.files[f] == b.files[f] for f in rand)


def test_planted_order_matrix_has_a_unique_optimum():
    import random

    a, value, sigma = workloads._order_matrix(random.Random(3), workloads.BRUTE_MAX_N + 1)
    assert workloads.brute_jacobi(a) == (value, sigma)
    n = len(a)
    for j in range(n):
        others = [a[i][j] for i in range(n) if i != sigma[j]]
        assert a[sigma[j]][j] > max(others)


def test_brute_force_takes_the_smallest_witness():
    assert workloads.brute_jacobi([[1, 0], [2, 3]]) == (4, (0, 1))
    assert workloads.brute_jacobi([[1, 1], [1, 1]]) == (2, (0, 1))
