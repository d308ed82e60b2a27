"""Intelligence tests: scoring rules, determinism, the baseline gate."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from eincasm.cppn import empty_genome
from eincasm.environments import chemoattractant_field, generate
from eincasm.harness import (
    HarnessError,
    IqReport,
    TestScore,
    build_arena,
    chemotaxis_baseline,
    coordination_spec,
    coordination_test,
    corridor_spec,
    detour_spec,
    harness_lifecycle,
    harness_physics,
    iq_report,
    pathfinding_test,
    run_battery,
)
from eincasm.lifecycle import run_population


class TestScoring:
    def test_iq_report_mean(self):
        scores = [
            TestScore("a", True, 3, 0.1, {}, 1.0),
            TestScore("b", False, None, 0.0, {}, 0.0),
        ]
        assert iq_report(scores).iq == pytest.approx(0.5)

    def test_iq_report_single(self):
        s = TestScore("a", True, 3, 0.1, {}, 0.7)
        assert iq_report([s]).iq == pytest.approx(0.7)

    def test_iq_report_permutation_invariant(self):
        scores = [TestScore(str(i), True, i + 1, 0.0, {}, v) for i, v in enumerate((0.2, 0.5, 0.9))]
        assert iq_report(scores).iq == iq_report(scores[::-1]).iq

    def test_iq_report_empty_rejected(self):
        with pytest.raises(HarnessError):
            iq_report([])

    def test_steps_present_iff_completed(self):
        with pytest.raises(HarnessError):
            TestScore("a", True, None, 0.0, {}, 1.0)
        with pytest.raises(HarnessError):
            TestScore("a", False, 5, 0.0, {}, 0.0)


class TestInertGenome:
    def test_inert_pathfinding_scores_zero(self):
        score = pathfinding_test(empty_genome(4), harness_physics(), corridor_spec(), 0, harness_lifecycle())
        assert not score.completed
        assert score.iq_component == 0.0
        assert score.steps_to_completion is None

    def test_inert_coordination_index_zero(self):
        score = coordination_test(empty_genome(4), harness_physics(), coordination_spec(), 0, harness_lifecycle())
        assert not score.completed
        assert score.metrics["redistribution_index"] == 0.0
        assert score.iq_component == 0.0

    def test_one_step_coordination_schedules_no_removal(self):
        """Its cluster removal would come after the only step, where no
        schedule may put an event; the test runs without it."""
        score = coordination_test(empty_genome(4), harness_physics(), coordination_spec(), 0, harness_lifecycle(t=1))
        assert score.metrics["removal_step"] == 1 and score.metrics["redistribution_index"] == 0.0


class TestBaseline:
    def test_baseline_completes_corridor(self):
        score = pathfinding_test(chemotaxis_baseline(), harness_physics(), corridor_spec(), 0, harness_lifecycle())
        assert score.completed
        assert 0.0 < score.iq_component <= 1.0
        assert "fluid_failure" not in score.metrics  # the run lived its lifespan

    def test_baseline_coordination_positive_index(self):
        score = coordination_test(chemotaxis_baseline(), harness_physics(), coordination_spec(), 0, harness_lifecycle())
        assert score.metrics["redistribution_index"] > 0.0

    def test_deterministic_scores(self):
        a = pathfinding_test(chemotaxis_baseline(), harness_physics(), corridor_spec(), 3, harness_lifecycle())
        b = pathfinding_test(chemotaxis_baseline(), harness_physics(), corridor_spec(), 3, harness_lifecycle())
        assert asdict(a) == asdict(b)

    def test_iq_formula_limits(self):
        score = pathfinding_test(chemotaxis_baseline(), harness_physics(), corridor_spec(), 0, harness_lifecycle())
        t = score.metrics["lifespan"]
        assert score.iq_component == pytest.approx(1.0 - score.steps_to_completion / t)


class TestArenas:
    def test_corridor_layout(self):
        bundle = build_arena(corridor_spec())
        assert bundle.statics.food.max() > 0
        assert bundle.statics.obstacle.sum() == 0

    def test_detour_bar_blocks_straight_line(self):
        spec = detour_spec()
        bundle = build_arena(spec)
        bar = bundle.statics.obstacle
        x = spec.obstacles[0].x
        sy, sx = bundle.seed_cell[1], bundle.seed_cell[0]
        assert bar[sy, x] == 1.0  # straight east is blocked

    def test_detour_chemo_is_one_pass_around_the_bar(self):
        spec = detour_spec()
        statics = generate(spec).statics
        assert statics.obstacle.sum() == 5
        expected = chemoattractant_field(statics.food, statics.obstacle, spec.resolved_chemo_iters(), spec.chemo_decay)
        np.testing.assert_array_equal(statics.chemo, expected)

    def test_coordination_arena_has_two_clusters(self):
        bundle = generate(coordination_spec())
        assert bundle.cluster_a is not None and bundle.cluster_b is not None


def test_run_battery_reports_three_tests():
    report = run_battery(empty_genome(4), harness_physics(), 0)
    assert isinstance(report, IqReport)
    assert [t.name for t in report.tests] == ["coordination", "pathfinding", "pathfinding_detour"]
    assert report.iq == 0.0
    payload = report.to_dict()
    assert set(payload) == {"iq", "tests"}


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_battery_and_evolution_score_one_lifecycle_alike(seed):
    """A pathfinding test's final mass is the fitness evolution gives the
    same genome on the same arena, physics, lifecycle and seed; at p_update
    0.5 the seed's selection stream matters."""
    genome, params, spec = chemotaxis_baseline(), harness_physics(), corridor_spec()
    cfg = replace(harness_lifecycle(t=60), p_update=0.5)
    score = pathfinding_test(genome, params, spec, seed, cfg)
    assert score.metrics["final_mass"] == run_population([genome], [spec], params, cfg, seed)[0].fitness
