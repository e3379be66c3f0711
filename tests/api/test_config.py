"""RunConfig: lossless serialization, strict validation, overrides."""

import hashlib
import json
import pathlib

import pytest

from repro.api import (
    ClusterConfig,
    CommConfig,
    ConfigError,
    ElasticConfig,
    RunConfig,
    SchedConfig,
    TrainConfig,
    apply_overrides,
)
from repro.api.config import ServeConfig

FULL = {
    "name": "full",
    "seed": 42,
    "cluster": {"instance": "aws", "num_nodes": 3, "gpus_per_node": 4},
    "comm": {"scheme": "gtopk", "density": 0.01, "wire_bytes": 2,
             "n_samplings": 20, "compressor": None},
    "train": {"model": "cnn", "epochs": 3, "num_samples": 128,
              "local_batch": 8, "lr": 0.1, "momentum": 0.8, "data_seed": 9},
    "elastic": {"iterations": 50, "schedule": "poisson", "rate": 0.02,
                "warned_fraction": 0.3, "rejoin_delay": 10, "min_nodes": 2,
                "checkpoint_every": 10, "compute_seconds": 0.1,
                "checkpoint_seconds": 0.2, "restart_seconds": 3.0,
                "warning_seconds": 60.0, "timing_d": 1000000, "sigma": 0.05},
}


class TestRoundTrip:
    def test_dict_round_trip_lossless(self):
        config = RunConfig.from_dict(FULL)
        assert RunConfig.from_dict(config.to_dict()) == config
        # And the dict itself carries every section verbatim.
        assert config.to_dict()["elastic"]["timing_d"] == 1000000

    def test_json_round_trip_lossless(self):
        config = RunConfig.from_dict(FULL)
        again = RunConfig.from_json(config.to_json())
        assert again == config
        assert json.loads(config.to_json()) == config.to_dict()

    def test_defaults_round_trip_without_elastic(self):
        config = RunConfig()
        assert config.elastic is None
        again = RunConfig.from_json(config.to_json())
        assert again == config
        assert "elastic" not in config.to_dict()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        config = RunConfig.from_dict(FULL)
        path.write_text(config.to_json())
        assert RunConfig.from_file(path) == config

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_file(tmp_path / "absent.json")

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            RunConfig.from_json("{nope")


REPO = pathlib.Path(__file__).resolve().parent.parent.parent

#: sha256 of ``from_file(path).to_json()``, recorded at the last commit
#: whose ``to_dict`` was written out by hand per config (f8e0d3a): the
#: codec may not reorder, drop or re-default a key of any shipped config.
#: The four run configs were re-pinned once, when ``RunConfig.exec`` was
#: removed: each new form is the old one with exactly its default
#: ``"exec"`` entry deleted.  The three sched configs were re-pinned
#: once, when ``exec`` shrank to its width: each new form is the old one
#: with exactly ``exec.backend`` and ``exec.start_method`` deleted.
CANONICAL_FORMS = {
    "examples/configs/dense_baseline.json":
        (RunConfig, "4ac4729b53f2a52e9c43f510ca7bcae50d273f2c92ebc65b11e3026ae6c74a85"),
    "examples/configs/elastic_spot.json":
        (RunConfig, "9abf66dfed63b19850d9425245161baa7c5bec24e2c6cf950dd5b7dd38290396"),
    "examples/configs/fault_drill.json":
        (RunConfig, "30133822776c57cef142f83b8c61c7f82a766b6fe4ccaae2c8d74eca0ef3f4c4"),
    "examples/configs/smoke.json":
        (RunConfig, "aa1d529788d05409dd9bb63403664e0453808cad2d0f75d12fabbd479a8efd67"),
    "examples/configs/gray_storm.json":
        (SchedConfig, "2841dc23f93e3d8643149b5cb7e67ce86aea986dcf4667a79799d449eaa937ea"),
    "examples/configs/multi_tenant.json":
        (SchedConfig, "1e3824d335a4eb64765bee6db12e69df2910dec3a89fecb718f3e7c4c328d88c"),
    "examples/configs/trace_replay.json":
        (SchedConfig, "525a388b2196819fecac41d549dd03eb1af68f7b2acb666be60687b3aaf14117"),
    "examples/configs/serve_smoke.json":
        (ServeConfig, "f4d7ca9aaf9d0d102a8fb6ec48318a9e69256322894d3ec0ab2d1b899e3a0d29"),
    "benchmarks/e2e/fixtures/serve_config.json":
        (ServeConfig, "e3fbc2b944449a780a74aa5164b55a2179fc439ed85a8eb94c7dcbbc805838d7"),
}


class TestCanonicalForm:
    @pytest.mark.parametrize("path", sorted(CANONICAL_FORMS))
    def test_shipped_config_serialises_to_the_pinned_bytes(self, path):
        cls, digest = CANONICAL_FORMS[path]
        text = cls.from_file(REPO / path).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_every_shipped_config_is_pinned(self):
        shipped = {
            f"examples/configs/{p.name}"
            for p in (REPO / "examples" / "configs").glob("*.json")
        }
        assert shipped <= set(CANONICAL_FORMS)


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "data, needle",
        [
            ({"clustre": {}}, "clustre"),
            ({"cluster": {"nodes": 4}}, "nodes"),
            ({"comm": {"schema": "mstopk"}}, "schema"),
            ({"train": {"epoch": 3}}, "epoch"),
            ({"elastic": {"rates": 0.1}}, "rates"),
        ],
    )
    def test_unknown_key_raises_with_accepted_list(self, data, needle):
        with pytest.raises(ConfigError, match=needle) as err:
            RunConfig.from_dict(data)
        assert "accepted keys" in str(err.value)

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="must be a mapping"):
            RunConfig.from_dict({"comm": "mstopk"})

    @pytest.mark.parametrize(
        "cls, data, message",
        [
            (ServeConfig, {"queue_limit": "many"},
             "serve.queue_limit must be int, got 'many'"),
            (SchedConfig, {"cluster": {"num_nodes": "four"}},
             "cluster.num_nodes must be int, got 'four'"),
            (RunConfig, {"comm": {"density": "hi"}},
             "comm.density must be float, got 'hi'"),
            (RunConfig, {"seed": True}, "run.seed must be int, got True"),
            (RunConfig, {"comm": {"density": False}},
             "comm.density must be float, got False"),
            (RunConfig, {"train": {"data_seed": "x"}},
             "train.data_seed must be int or null, got 'x'"),
            (RunConfig, {"elastic": {}, "faults": {"events": [{"at": "soon"}]}},
             "faults.events[0].at must be float, got 'soon'"),
            # Below the top level too: list elements and nested sections.
            (SchedConfig, {"policies": [3]}, "policies[0] must be str, got 3"),
            (SchedConfig, {"jobs": [{"name": "b", "payload": {"model": 3}}]},
             "jobs[0].payload.model must be str, got 3"),
            (SchedConfig, {"jobs": [{"payload": 3}]},
             "'jobs[0].payload' must be a mapping, got int"),
            (SchedConfig, {"jobs": {"name": "b"}}, "'jobs' must be a list, got dict"),
            # NaN passes every ``<= 0`` range check; no float field takes it.
            (SchedConfig, {"brain": {"interval": float("nan")}},
             "brain.interval must be finite, got nan"),
            (ServeConfig, {"tick_seconds": float("inf")},
             "serve.tick_seconds must be finite, got inf"),
            (RunConfig, {"comm": {"density": float("-inf")}},
             "comm.density must be finite, got -inf"),
        ],
    )
    def test_wrong_typed_scalar_is_a_config_error(self, cls, data, message):
        """A str where a number belongs fails at load, not as a TypeError
        from a comparison inside validate()."""
        with pytest.raises(ConfigError) as err:
            cls.from_dict(data)
        assert str(err.value) == message

    def test_integer_beyond_float_range_is_not_finite(self):
        with pytest.raises(ConfigError, match="comm.density must be finite"):
            RunConfig.from_dict({"comm": {"density": 10**400}})

    def test_json_number_and_null_forms_load(self):
        config = RunConfig.from_dict(
            {"comm": {"density": 1}, "train": {"data_seed": None, "lr": 1}}
        )
        assert config.comm.density == 1 and config.train.data_seed is None


class TestNameValidation:
    def test_unregistered_scheme(self):
        with pytest.raises(ConfigError, match="unknown comm scheme 'warp'"):
            RunConfig.from_dict({"comm": {"scheme": "warp"}})

    def test_unregistered_model(self):
        with pytest.raises(ConfigError, match="unknown model .*registered:"):
            RunConfig.from_dict({"train": {"model": "bert-large"}})

    def test_unregistered_cluster(self):
        with pytest.raises(ConfigError, match="unknown cluster instance"):
            RunConfig.from_dict({"cluster": {"instance": "azure"}})

    def test_unregistered_compressor(self):
        with pytest.raises(ConfigError, match="unknown compressor"):
            RunConfig.from_dict({"comm": {"compressor": "zip"}})

    def test_alias_names_validate(self):
        config = RunConfig.from_dict({"comm": {"scheme": "hitopkcomm"}})
        assert config.comm.scheme == "hitopkcomm"

    def test_value_sanity(self):
        with pytest.raises(ConfigError, match="density"):
            RunConfig.from_dict({"comm": {"density": 2.0}})
        with pytest.raises(ConfigError, match="min_nodes"):
            RunConfig.from_dict(
                {"cluster": {"num_nodes": 2}, "elastic": {"min_nodes": 5}}
            )
        with pytest.raises(ConfigError, match="unknown elastic schedule"):
            RunConfig.from_dict({"elastic": {"schedule": "weibull"}})


class TestOverrides:
    def test_nested_and_top_level(self):
        config = RunConfig.from_dict(FULL)
        out = apply_overrides(
            config, ["comm.density=0.5", "seed=7", "name=renamed"]
        )
        assert out.comm.density == 0.5
        assert out.seed == 7
        assert out.name == "renamed"
        # Untouched sections survive verbatim.
        assert out.train == config.train

    def test_json_values_and_bare_strings(self):
        deep = "[" * 100_000
        out = apply_overrides(RunConfig(), ["comm.scheme=dense", "train.data_seed=null", f"name={deep}"])
        assert out.comm.scheme == "dense"
        assert out.train.data_seed is None
        assert out.name == deep  # past the recursion limit it is not JSON either

    def test_elastic_materialised_on_demand(self):
        base = RunConfig()
        assert base.elastic is None
        out = apply_overrides(base, ["elastic.rate=0.05"])
        assert out.elastic is not None
        assert out.elastic.rate == 0.05
        # Other elastic fields get their defaults.
        assert out.elastic.schedule == ElasticConfig().schedule

    def test_bad_overrides(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(RunConfig(), ["comm.density"])
        with pytest.raises(ConfigError, match="not a section"):
            apply_overrides(RunConfig(), ["seed.depth=1"])
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(RunConfig(), ["comm.densty=0.1"])
        with pytest.raises(ConfigError, match="unknown comm scheme"):
            apply_overrides(RunConfig(), ["comm.scheme=warp"])


class TestDataclassDefaults:
    def test_nested_defaults(self):
        config = RunConfig()
        assert config.cluster == ClusterConfig()
        assert config.comm == CommConfig()
        assert config.train == TrainConfig()
        assert config.validate() is config
