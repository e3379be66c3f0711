"""End-to-end elastic training: rollback, rescale, residual carry-over."""

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.cluster.variability import VariabilityModel
from repro.elastic.elastic_trainer import MAX_WALL_FACTOR, ElasticRunReport, ElasticTrainer
from repro.elastic.events import ChurnEvent, PoissonChurn, TraceSchedule
from repro.models.nn.mlp import MLPClassifier
from repro.train.synthetic import make_spiral_classification
from repro.utils.seeding import new_rng
from tests.conftest import assert_ledger_balances

CONFIGS = pathlib.Path(__file__).resolve().parent.parent.parent / "examples" / "configs"


def make_elastic(tmp_path, **overrides):
    defaults = dict(
        scheme="mstopk",
        density=0.1,
        num_nodes=3,
        gpus_per_node=2,
        checkpoint_every=10,
        checkpoint_dir=tmp_path,
        compute_seconds=0.05,
        checkpoint_seconds=0.5,
        restart_seconds=2.0,
        seed=4,
    )
    defaults.update(overrides)
    return ElasticTrainer(
        MLPClassifier(input_dim=2, hidden=(12,), num_classes=4), **defaults
    )


@pytest.fixture
def data():
    return make_spiral_classification(512, num_classes=4, rng=new_rng(3))


class TestStaticRun:
    def test_trains_to_target(self, tmp_path, data):
        x, y = data
        report = make_elastic(tmp_path).run(x, y, iterations=30, local_batch=8)
        assert report.useful_iterations == 30
        assert report.wall_iterations == 30
        assert report.lost_iterations == 0
        assert len(report.losses) == 30
        assert report.losses[-1] < report.losses[0]  # it actually learns
        assert report.goodput > 0
        assert report.node_seconds > 0

    def test_periodic_checkpoints_counted(self, tmp_path, data):
        x, y = data
        report = make_elastic(tmp_path).run(x, y, iterations=30, local_batch=8)
        # Initial + iterations 10 and 20 (not 30: the run ends there).
        assert report.checkpoints == 3


class TestRevocation:
    def test_surprise_revocation_rolls_back(self, tmp_path, data):
        x, y = data
        trace = TraceSchedule([ChurnEvent(14, "revoke", warned=False)])
        report = make_elastic(tmp_path).run(
            x, y, iterations=30, local_batch=8, schedule=trace
        )
        assert report.revocations == 1
        assert report.rollbacks == 1
        # Checkpointed at 10, revoked at 14 -> 4 iterations replayed.
        assert report.lost_iterations == 4
        assert report.useful_iterations == 30
        assert report.wall_iterations == 34
        assert report.world_sizes == [6, 4]
        assert len(report.losses) == 30

    def test_churn_that_outpaces_checkpoints_stops_at_the_wall_cap(self, tmp_path, data):
        # Every revocation rolls back to the initial checkpoint, so the
        # run never finishes and stops at iterations x MAX_WALL_FACTOR.
        x, y = data
        trace = TraceSchedule([ChurnEvent(i, "revoke", warned=False) for i in (4, 8, 12, 16)])
        report = make_elastic(tmp_path, num_nodes=5, checkpoint_every=100).run(
            x, y, iterations=5, local_batch=8, schedule=trace
        )
        assert report.wall_iterations == 5 * MAX_WALL_FACTOR
        assert report.useful_iterations == 4
        assert report.rollbacks == 4 and report.lost_iterations == 16

    def test_warned_revocation_loses_nothing(self, tmp_path, data):
        x, y = data
        trace = TraceSchedule([ChurnEvent(14, "revoke", warned=True)])
        report = make_elastic(tmp_path).run(
            x, y, iterations=30, local_batch=8, schedule=trace
        )
        assert report.warned_revocations == 1
        assert report.rollbacks == 0
        assert report.lost_iterations == 0
        assert report.wall_iterations == 30

    def test_warning_too_short_for_checkpoint_degrades_to_surprise(
        self, tmp_path, data
    ):
        x, y = data
        trace = TraceSchedule([ChurnEvent(14, "revoke", warned=True)])
        trainer = make_elastic(
            tmp_path, checkpoint_seconds=10.0, warning_seconds=5.0
        )
        report = trainer.run(x, y, iterations=20, local_batch=8, schedule=trace)
        assert report.warned_revocations == 0
        assert report.rollbacks == 1
        assert report.lost_iterations == 4

    def test_world_shrinks_and_scheme_rebuilt(self, tmp_path, data):
        x, y = data
        trainer = make_elastic(tmp_path)
        trace = TraceSchedule([ChurnEvent(5, "revoke", warned=True)])
        trainer.run(x, y, iterations=10, local_batch=8, schedule=trace)
        assert trainer.trainer.world_size == 4
        assert trainer.trainer.scheme.topology.num_nodes == 2

    def test_min_nodes_revocation_skipped(self, tmp_path, data):
        x, y = data
        trainer = make_elastic(tmp_path, num_nodes=2, min_nodes=2)
        trace = TraceSchedule([ChurnEvent(5, "revoke")])
        report = trainer.run(x, y, iterations=10, local_batch=8, schedule=trace)
        assert report.revocations == 0
        assert trainer.membership.num_nodes == 2

    def test_min_nodes_warned_revocation_pays_no_overhead(self, tmp_path, data):
        """A refused warned revocation must not checkpoint or charge time."""
        x, y = data
        trace = TraceSchedule([ChurnEvent(5, "revoke", warned=True)])
        churny = make_elastic(tmp_path / "a", num_nodes=2, min_nodes=2)
        calm = make_elastic(tmp_path / "b", num_nodes=2, min_nodes=2)
        with_event = churny.run(x, y, iterations=10, local_batch=8, schedule=trace)
        without = calm.run(x, y, iterations=10, local_batch=8)
        assert with_event.checkpoints == without.checkpoints
        assert with_event.overhead_seconds == without.overhead_seconds

    def test_stale_trace_node_skipped(self, tmp_path, data):
        """A trace revoking an already-departed node is ignored, not fatal."""
        x, y = data
        trace = TraceSchedule(
            [
                ChurnEvent(5, "revoke", node=2, warned=True),
                ChurnEvent(10, "revoke", node=2, warned=True),  # already gone
            ]
        )
        report = make_elastic(tmp_path).run(
            x, y, iterations=20, local_batch=8, schedule=trace
        )
        assert report.revocations == 1
        assert report.useful_iterations == 20

    def test_rollback_restores_momentum_to_checkpoint(self, tmp_path, data):
        """Surprise rollback before the first periodic checkpoint replays
        the run from scratch — bit-identical to a run that never churned
        up to the checkpointed step (momentum included)."""
        x, y = data
        trace = TraceSchedule([ChurnEvent(4, "revoke", warned=False)])
        churny = make_elastic(tmp_path / "a", checkpoint_every=50)
        report = churny.run(x, y, iterations=12, local_batch=8, schedule=trace)
        assert report.rollbacks == 1 and report.lost_iterations == 4
        # The four replayed losses come from a world of 2 nodes, but the
        # trajectory is internally consistent: losses list has exactly
        # the useful steps, and training still descends.
        assert len(report.losses) == 12
        assert report.losses[-1] < report.losses[0]

    def test_residuals_carried_across_shrink(self, tmp_path, data):
        x, y = data
        trainer = make_elastic(tmp_path, checkpoint_every=5)
        trace = TraceSchedule([ChurnEvent(7, "revoke", warned=True)])
        trainer.run(x, y, iterations=10, local_batch=8, schedule=trace)
        ef = trainer.trainer.scheme.ef
        assert ef is not None
        # Folded residuals exist for the shrunken world's ranks only.
        assert set(ef.keys()) == set(range(4))


class TestJoin:
    def test_join_grows_world_without_loss(self, tmp_path, data):
        x, y = data
        trace = TraceSchedule([ChurnEvent(12, "join")])
        trainer = make_elastic(tmp_path)
        report = trainer.run(x, y, iterations=25, local_batch=8, schedule=trace)
        assert report.joins == 1
        assert report.lost_iterations == 0
        assert trainer.trainer.world_size == 8
        assert report.world_sizes == [6, 8]


class TestComposition:
    def test_stragglers_stretch_time(self, tmp_path, data):
        x, y = data
        calm = make_elastic(tmp_path / "a").run(x, y, iterations=15, local_batch=8)
        jittery = make_elastic(
            tmp_path / "b", variability=VariabilityModel(sigma=0.3)
        ).run(x, y, iterations=15, local_batch=8)
        assert jittery.total_seconds > calm.total_seconds
        # Same work, same model trajectory — jitter only affects time.
        np.testing.assert_allclose(jittery.losses, calm.losses)

    def test_poisson_churn_composes_with_stragglers(self, tmp_path, data):
        x, y = data
        trainer = make_elastic(
            tmp_path, variability=VariabilityModel(sigma=0.2), min_nodes=1
        )
        schedule = PoissonChurn(0.03, warned_fraction=0.5, rejoin_delay=10)
        report = trainer.run(x, y, iterations=40, local_batch=8, schedule=schedule)
        assert report.useful_iterations == 40
        assert report.revocations > 0
        assert report.losses[-1] < report.losses[0]

    def test_dense_and_gtopk_schemes_survive_churn(self, tmp_path, data):
        x, y = data
        trace = TraceSchedule(
            [ChurnEvent(8, "revoke", warned=False), ChurnEvent(20, "join")]
        )
        for scheme in ("dense", "gtopk"):
            trainer = make_elastic(tmp_path / scheme, scheme=scheme)
            report = trainer.run(x, y, iterations=25, local_batch=8, schedule=trace)
            assert report.useful_iterations == 25
            assert report.revocations == 1 and report.joins == 1

    def test_deterministic_given_seed(self, tmp_path, data):
        x, y = data
        schedule = PoissonChurn(0.02, rejoin_delay=10)
        a = make_elastic(tmp_path / "a").run(
            x, y, iterations=30, local_batch=8, schedule=schedule
        )
        b = make_elastic(tmp_path / "b").run(
            x, y, iterations=30, local_batch=8, schedule=schedule
        )
        assert a.losses == b.losses
        assert a.total_seconds == b.total_seconds
        assert a.world_sizes == b.world_sizes


class TestLedger:
    """Iterations done + lost = attempted, on the shipped elastic configs."""

    @pytest.mark.parametrize("name", ["elastic_spot.json", "fault_drill.json"])
    def test_shipped_config_balances(self, name):
        report = run(RunConfig.from_file(CONFIGS / name)).elastic_run
        assert report.lost_iterations > 0  # the ledger has rollbacks to balance
        assert_ledger_balances(report)

    def test_an_unbalanced_report_fails(self):
        report = ElasticRunReport(
            "mstopk", useful_iterations=2, wall_iterations=3, lost_iterations=1,
            losses=[0.5, 0.4],
        )
        assert_ledger_balances(report)
        for broken in (replace(report, wall_iterations=4), replace(report, losses=[0.5])):
            with pytest.raises(AssertionError):
                assert_ledger_balances(broken)


class TestValidation:
    def test_bad_iterations_rejected(self, tmp_path, data):
        x, y = data
        with pytest.raises(ValueError):
            make_elastic(tmp_path).run(x, y, iterations=0, local_batch=8)

    def test_oversized_batch_rejected(self, tmp_path):
        x, y = make_spiral_classification(64, num_classes=4, rng=new_rng(0))
        with pytest.raises(ValueError, match="local_batch"):
            make_elastic(tmp_path).run(x, y, iterations=5, local_batch=64)

    def test_bad_checkpoint_every_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_elastic(tmp_path, checkpoint_every=0)
