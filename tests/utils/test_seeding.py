"""Determinism guarantees of the seeding helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.utils.seeding import derive_seed, new_rng


class TestNewRng:
    def test_deterministic(self):
        a = new_rng(42).normal(size=8)
        b = new_rng(42).normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_default_seed_is_stable(self):
        a = new_rng().normal(size=4)
        b = new_rng().normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(new_rng(1).normal(size=8), new_rng(2).normal(size=8))


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1, "worker", 3) == derive_seed(1, "worker", 3)

    def test_path_sensitivity(self):
        assert derive_seed(1, "worker", 3) != derive_seed(1, "worker", 4)
        assert derive_seed(1, "a") != derive_seed(2, "a")

    # Fault plans and the elastic event stream draw from these sub-seeds,
    # so their values are part of every pinned digest.
    @pytest.mark.parametrize(
        ("seed", "names", "expected"),
        [
            (0, (), 0),
            (1, ("worker", 3), 17538156101661484584),
            (7, ("faults",), 3565043398129835126),
            (0, ("é",), 186698173944957136),
        ],
        ids=["no-path", "worker", "faults", "utf8"],
    )
    def test_pinned_values(self, seed, names, expected):
        assert derive_seed(seed, *names) == expected

    @given(
        seed=st.integers(-(2**70), 2**70),
        names=st.lists(st.one_of(st.text(max_size=8), st.integers(-99, 99)), max_size=4),
    )
    def test_is_64_bit_fnv1a_over_the_utf8_path(self, seed, names):
        mask = (1 << 64) - 1
        h = seed & mask
        for byte in "".join(str(n) for n in names).encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & mask
        assert derive_seed(seed, *names) == h

    def test_a_name_is_its_string_form(self):
        assert derive_seed(5, 3) == derive_seed(5, "3")

    def test_stable_across_interpreters_and_hash_seeds(self):
        code = (
            "from repro.utils.seeding import derive_seed;"
            "print(derive_seed(11, 'elastic', 'events'))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout.strip()
            for hash_seed in ("1", "2")
        }
        assert outputs == {str(derive_seed(11, "elastic", "events"))}

    def test_sub_seeds_feed_new_rng(self):
        a = new_rng(derive_seed(3, "data")).normal(size=4)
        b = new_rng(derive_seed(3, "data")).normal(size=4)
        c = new_rng(derive_seed(3, "model")).normal(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

