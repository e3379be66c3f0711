"""Property: random config dicts round-trip losslessly.

``RunConfig``/``SchedConfig`` are the declarative surface of the whole
simulator — sweep grids, CLI ``--set`` overrides, and BENCH payload
provenance all assume ``from_dict`` and ``to_dict`` are exact inverses.
Hypothesis drives randomly-drawn *valid* config dicts (every registry
name, every optional section including ``brain``, floats and all)
through the cycle and asserts nothing is lost, renamed, or coerced:

* ``from_dict(d)`` equals ``from_dict(to_dict(from_dict(d)))`` —
  dataclass equality, so every field survives;
* the second ``to_dict`` is *identical* to the first — serialisation is
  a fixed point after one normalisation;
* ``to_json`` is stable across the cycle (sorted keys, so this is the
  byte-level contract the determinism suites compare).

And the hostile half: a valid ``RunConfig`` / ``SchedConfig`` /
``ServeConfig`` dict with the value at one random path replaced by
random JSON-typed junk either still loads or raises ``ValueError``
(``ConfigError`` / ``FaultError``) — never a ``TypeError`` /
``AttributeError`` out of a comparison or a registry lookup.
"""

from __future__ import annotations

import copy

import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it in brain-smoke

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import registry
from repro.api.config import RunConfig, SchedConfig, ServeConfig
from repro.brain.base import BRAINS
from repro.sched.policies import POLICIES

# -- section strategies (valid by construction) -----------------------------

cluster_dicts = st.fixed_dictionaries(
    {
        "instance": st.sampled_from(sorted(registry.CLUSTERS.available())),
        "num_nodes": st.integers(1, 8),
        "gpus_per_node": st.integers(1, 8),
    }
)

comm_dicts = st.fixed_dictionaries(
    {
        "scheme": st.sampled_from(sorted(registry.SCHEMES.available())),
        "density": st.floats(0.001, 1.0, allow_nan=False),
        "wire_bytes": st.sampled_from([2, 4]),
        "n_samplings": st.integers(1, 50),
    }
)

train_dicts = st.fixed_dictionaries(
    {
        "model": st.sampled_from(sorted(registry.MODELS.available())),
        "epochs": st.integers(1, 4),
        "num_samples": st.integers(1, 512),
        "local_batch": st.integers(1, 64),
        "lr": st.floats(1e-4, 1.0, allow_nan=False),
        "momentum": st.floats(0.0, 0.99, allow_nan=False),
        "data_seed": st.none() | st.integers(0, 2**31 - 1),
    }
)

elastic_dicts = st.fixed_dictionaries(
    {
        "iterations": st.integers(1, 50),
        "schedule": st.sampled_from(["poisson", "none"]),
        "rate": st.floats(0.0, 0.1, allow_nan=False),
        "warned_fraction": st.floats(0.0, 1.0, allow_nan=False),
        "rejoin_delay": st.integers(0, 30),
        "min_nodes": st.just(1),  # always <= cluster.num_nodes
        "checkpoint_every": st.integers(1, 30),
        "compute_seconds": st.floats(0.01, 1.0, allow_nan=False),
        "sigma": st.floats(0.0, 0.5, allow_nan=False),
    }
)


def fault_event_dicts(kinds: list[str]) -> st.SearchStrategy:
    """One valid fault-event mapping for any of ``kinds``."""
    return st.fixed_dictionaries(
        {
            "kind": st.sampled_from(kinds),
            "at": st.floats(0.0, 500.0, allow_nan=False),
            "duration": st.floats(0.0, 120.0, allow_nan=False),
            "scale": st.floats(0.05, 0.95, allow_nan=False),
            "stretch": st.floats(1.1, 5.0, allow_nan=False),
            "fraction": st.floats(0.1, 1.0, allow_nan=False),
            "node": st.none() | st.integers(0, 2),
            "repeat": st.integers(1, 3),
            "period": st.floats(1.0, 60.0, allow_nan=False),
            "loss_rate": st.floats(0.0, 0.5, allow_nan=False),
            "jitter": st.floats(0.0, 2.0, allow_nan=False),
            "jitter_dist": st.sampled_from(["exp", "lognormal"]),
        }
    )


def faults_dicts(kinds: list[str]) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {
            "seed": st.none() | st.integers(0, 2**31 - 1),
            "events": st.lists(fault_event_dicts(kinds), min_size=1, max_size=4),
            "checkpoint_iterations": st.integers(1, 50),
            "checkpoint_timeout": st.floats(0.0, 10.0, allow_nan=False),
            "quarantine_threshold": st.floats(0.5, 5.0, allow_nan=False),
            "health_half_life": st.floats(10.0, 600.0, allow_nan=False),
            "probe_cooldown": st.floats(0.0, 600.0, allow_nan=False),
        }
    )


RUN_FAULT_KINDS = ["node-crash", "straggler", "gray-net", "disk-slow"]
SCHED_FAULT_KINDS = ["node-crash", "straggler", "gray-net", "nic-degrade", "az-reclaim"]

brain_dicts = st.fixed_dictionaries(
    {
        "name": st.sampled_from(sorted(BRAINS.available())),
        "interval": st.floats(1.0, 600.0, allow_nan=False),
        "min_dwell": st.floats(0.0, 600.0, allow_nan=False),
        "migrate_suspicion": st.floats(0.05, 1.0, allow_nan=False),
        "grow_efficiency": st.floats(0.05, 1.0, allow_nan=False),
        "shrink_efficiency": st.floats(0.0, 0.95, allow_nan=False),
        "rollback_weight": st.floats(0.0, 5.0, allow_nan=False),
        "max_actions": st.integers(1, 8),
    }
)

run_config_dicts = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["run", "prop", "a-b_c.1"]),
        "seed": st.integers(0, 2**31 - 1),
        "cluster": cluster_dicts,
        "comm": comm_dicts,
        "train": train_dicts,
    },
    optional={
        "elastic": elastic_dicts,
    },
).flatmap(
    # faults require an elastic section; attach them only when one exists.
    lambda data: st.just(data)
    if "elastic" not in data
    else st.fixed_dictionaries(
        {key: st.just(value) for key, value in data.items()},
        optional={"faults": faults_dicts(RUN_FAULT_KINDS)},
    )
)


def job_dicts(index: int) -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {
            "name": st.just(f"job-{index}"),
            "profile": st.sampled_from(["resnet50", "vgg19", "transformer"]),
            "scheme": st.sampled_from(sorted(registry.SCHEMES.available())),
            "density": st.floats(0.001, 1.0, allow_nan=False),
            "iterations": st.integers(1, 400),
            "priority": st.integers(0, 3),
            "deadline_seconds": st.none() | st.floats(60.0, 5000.0, allow_nan=False),
            "preference": st.sampled_from(["spot", "on-demand"]),
            "min_nodes": st.just(1),  # always <= cluster.num_nodes
            "max_nodes": st.integers(1, 4),
            "arrival_seconds": st.floats(0.0, 300.0, allow_nan=False),
        },
        optional={
            "payload": st.none()
            | st.fixed_dictionaries(
                {
                    "model": st.sampled_from(sorted(registry.MODELS.available())),
                    "seed": st.integers(0, 2**31 - 1),
                }
            ),
        },
    )


sched_config_dicts = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["sched", "prop-sched"]),
        "seed": st.integers(0, 2**31 - 1),
        "cluster": cluster_dicts,
        "policies": st.lists(
            st.sampled_from(sorted(POLICIES.available())),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        "jobs": st.integers(1, 3).flatmap(
            lambda n: st.tuples(*[job_dicts(i) for i in range(n)]).map(list)
        ),
    },
    optional={
        "faults": faults_dicts(SCHED_FAULT_KINDS),
        "brain": brain_dicts,
    },
)


# -- the properties ---------------------------------------------------------


class TestRunConfigRoundTrip:
    @given(data=run_config_dicts)
    @settings(max_examples=60, deadline=None)
    def test_lossless(self, data):
        config = RunConfig.from_dict(data)
        cycled = RunConfig.from_dict(config.to_dict())
        assert cycled == config
        assert cycled.to_dict() == config.to_dict()
        assert cycled.to_json() == config.to_json()

    @given(data=run_config_dicts)
    @settings(max_examples=25, deadline=None)
    def test_input_values_survive(self, data):
        emitted = RunConfig.from_dict(data).to_dict()
        # Every scalar the caller wrote is still there, uncoerced (the
        # emitted dict may add defaulted fields the input omitted).
        assert emitted["name"] == data["name"]
        assert emitted["seed"] == data["seed"]
        for section in ("cluster", "comm", "train"):
            for key, value in data[section].items():
                assert emitted[section][key] == value, (section, key)


class TestSchedConfigRoundTrip:
    @given(data=sched_config_dicts)
    @settings(max_examples=60, deadline=None)
    def test_lossless(self, data):
        config = SchedConfig.from_dict(data)
        cycled = SchedConfig.from_dict(config.to_dict())
        assert cycled == config
        assert cycled.to_dict() == config.to_dict()
        assert cycled.to_json() == config.to_json()

    @given(data=sched_config_dicts)
    @settings(max_examples=25, deadline=None)
    def test_optional_sections_survive(self, data):
        emitted = SchedConfig.from_dict(data).to_dict()
        assert ("brain" in emitted) == ("brain" in data)
        assert ("faults" in emitted) == ("faults" in data)
        if "brain" in data:
            assert emitted["brain"] == data["brain"]
        assert [job["name"] for job in emitted["jobs"]] == [
            job["name"] for job in data["jobs"]
        ]


# -- junk at a random path --------------------------------------------------

serve_config_dicts = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["serve", "prop-serve"]),
        "seed": st.integers(0, 2**31 - 1),
        "cluster": cluster_dicts,
        "policy": st.sampled_from(sorted(POLICIES.available())),
        "queue_limit": st.integers(1, 64),
        "snapshot_every": st.integers(1, 16),
        "tick_seconds": st.floats(1.0, 600.0, allow_nan=False),
    },
    optional={
        "faults": faults_dicts(SCHED_FAULT_KINDS),
        "brain": brain_dicts,
    },
)

# Any JSON value, NaN and the infinities included.  Integers stay small:
# a huge *well-typed* count (``repeat``) is a resource question, not the
# type-safety one asked here.
json_junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10_000, 10_000)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every addressable location below the root of a JSON document."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


def _with_junk(data, pick: int, junk):
    mutated = copy.deepcopy(data)
    paths = list(_paths(mutated))
    *parents, last = paths[pick % len(paths)]
    node = mutated
    for key in parents:
        node = node[key]
    node[last] = junk
    return mutated


class TestJunkAtRandomPath:
    @pytest.mark.parametrize(
        "cls, dicts",
        [
            (RunConfig, run_config_dicts),
            (SchedConfig, sched_config_dicts),
            (ServeConfig, serve_config_dicts),
        ],
    )
    def test_loads_or_raises_value_error(self, cls, dicts):
        @given(data=dicts, pick=st.integers(0, 10_000), junk=json_junk)
        @settings(max_examples=150, deadline=None)
        def check(data, pick, junk):
            try:
                config = cls.from_dict(_with_junk(data, pick, junk))
            except ValueError:
                return
            assert isinstance(config, cls)

        check()
