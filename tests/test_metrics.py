import numpy as np
import pytest

from wocd import Cover, onmi

from conftest import random_cover
from oracles import onmi_loop, onmi_reference


def cover_from_sets(sets, n):
    m = np.zeros((n, len(sets)), dtype=np.uint8)
    for k, s in enumerate(sets):
        for v in s:
            m[v, k] = 1
    return Cover(memberships=m)


def cover_to_sets(cover):
    return [set(cover.members(k).tolist()) for k in range(cover.n_communities)]


class TestOnmi:
    def test_identical_covers(self, rng):
        c = random_cover(rng, 15, 4)
        assert onmi(c, c) == pytest.approx(1.0, abs=1e-12)

    def test_crossed_partition(self):
        x = cover_from_sets([{0, 1}, {2, 3}], 4)
        y = cover_from_sets([{0, 2}, {1, 3}], 4)
        want = onmi_reference(cover_to_sets(x), cover_to_sets(y), 4)
        assert onmi(x, y) == pytest.approx(want, abs=1e-10)

    def test_single_blob_reference(self, rng):
        x = random_cover(rng, 12, 3)
        y = cover_from_sets([set(range(12))], 12)
        want = onmi_reference(cover_to_sets(x), cover_to_sets(y), 12)
        assert onmi(x, y) == pytest.approx(want, abs=1e-10)

    def test_empty_cover_is_zero(self, rng):
        x = random_cover(rng, 10, 3)
        y = Cover(memberships=np.zeros((10, 2), dtype=np.uint8))
        assert onmi(x, y) == 0.0

    def test_mismatched_n(self, rng):
        with pytest.raises(ValueError):
            onmi(random_cover(rng, 5, 2), random_cover(rng, 6, 2))

    def test_symmetry_range_and_oracle(self, rng):
        for trial in range(100):
            n = int(rng.integers(5, 21))
            x = random_cover(rng, n, int(rng.integers(1, 5)), p=float(rng.uniform(0.2, 0.7)))
            y = random_cover(rng, n, int(rng.integers(1, 5)), p=float(rng.uniform(0.2, 0.7)))
            a = onmi(x, y)
            b = onmi(y, x)
            assert abs(a - b) <= 1e-12
            assert 0.0 <= a <= 1.0
            want = onmi_reference(cover_to_sets(x), cover_to_sets(y), n)
            assert a == pytest.approx(max(min(want, 1.0), 0.0), abs=1e-10)

    def test_permutation_invariance(self, rng):
        x = random_cover(rng, 14, 4)
        y = random_cover(rng, 14, 4)
        perm = rng.permutation(4)
        y2 = Cover(memberships=y.memberships[:, perm])
        assert onmi(x, y) == pytest.approx(onmi(x, y2), abs=1e-12)

    def test_empty_communities_dropped(self, rng):
        x = random_cover(rng, 12, 3)
        y = random_cover(rng, 12, 3)
        padded = Cover(memberships=np.concatenate(
            [y.memberships, np.zeros((12, 2), dtype=np.uint8)], axis=1))
        assert onmi(x, padded) == pytest.approx(onmi(x, y), abs=1e-12)


    def test_equals_per_pair_loop_exactly(self, rng):
        # random covers up to K=100 with empty columns and zero-entropy
        # (all-member) columns; the float must be the loop's to the last bit
        for trial in range(40):
            n = int(rng.integers(1, 300))
            covers = []
            for _ in range(2):
                k = int(rng.integers(0, 101))
                m = (rng.random((n, k)) < rng.uniform(0.0, 0.5)).astype(np.uint8)
                cols = rng.random(k)
                m[:, cols < 0.1] = 0
                m[:, cols > 0.9] = 1
                covers.append(Cover(memberships=m))
            x, y = covers
            assert onmi(x, y) == onmi_loop(x, y)
            assert onmi(y, x) == onmi_loop(y, x)
