"""Tests for the population-based genetic optimizer."""

from __future__ import annotations

import pytest

from repro.core.genetic import GeneticConfig, GeneticOptimizer
from repro.exceptions import ConfigurationError
from repro.protein.datasets import make_pdz_target
from repro.protein.mpnn import MPNNConfig, SurrogateProteinMPNN


class TestGeneticConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GeneticConfig(population_size=0)
        with pytest.raises(ConfigurationError):
            GeneticConfig(offspring_per_parent=0)
        with pytest.raises(ConfigurationError, match="n_generations"):
            GeneticConfig(n_generations=0)


class TestGeneticOptimizer:
    @pytest.fixture()
    def optimizer(self, target):
        config = GeneticConfig(population_size=6, offspring_per_parent=2, n_generations=3)
        return GeneticOptimizer(target, config=config, seed=17)

    def test_best_requires_run(self, optimizer):
        with pytest.raises(ConfigurationError):
            optimizer.best()

    def test_run_improves_over_native(self, optimizer, target, models):
        best = optimizer.run()
        baseline = models.folding.predict(target.complex, target.landscape).metrics
        assert best.composite > baseline.composite()
        assert best.fitness > target.landscape.fitness(target.landscape.native_sequence)

    def test_history_length_and_population_size(self, optimizer):
        optimizer.run()
        history = optimizer.history
        assert len(history) == optimizer.config.n_generations + 1
        assert all(len(population) == optimizer.config.population_size for population in history)

    def test_best_per_generation_overall_improves(self, optimizer):
        optimizer.run()
        series = optimizer.best_per_generation()
        assert series[-1] >= series[0]

    def test_elitism_keeps_best_individuals(self, target):
        config = GeneticConfig(population_size=5, offspring_per_parent=1, n_generations=2)
        optimizer = GeneticOptimizer(target, config=config, seed=5)
        optimizer.run()
        history = optimizer.history
        for previous, current in zip(history, history[1:]):
            best_before = max(ind.composite for ind in previous)
            best_after = max(ind.composite for ind in current)
            assert best_after >= best_before - 1e-9

    def test_no_generation_holds_an_individual_twice(self):
        # The protease example's setup, where selecting the elites again
        # beside the population that holds them filled 8 slots with 6 or 7
        # distinct individuals.
        target = make_pdz_target("PROTEASE_LIKE", seed=11)
        fixed = tuple(target.complex.designable_positions[:3])
        mpnn = SurrogateProteinMPNN(MPNNConfig(fixed_positions=fixed), seed=11)
        config = GeneticConfig(population_size=8, offspring_per_parent=2, n_generations=4)
        optimizer = GeneticOptimizer(
            target, mpnn=mpnn, config=config, seed=11,
            objective=lambda metrics: metrics.plddt,
        )
        optimizer.run()
        for population in optimizer.history:
            assert len({id(individual) for individual in population}) == len(population)

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_fixed_positions_respected_through_generations(self, seed):
        # The protease example's setup: crossover and point mutation used to
        # draw from every designable position, fixed ones included, and
        # broke the catalytic residues at these seeds.
        target = make_pdz_target("PROTEASE_LIKE", seed=seed)
        fixed = tuple(target.complex.designable_positions[:3])
        mpnn = SurrogateProteinMPNN(MPNNConfig(fixed_positions=fixed), seed=seed)
        config = GeneticConfig(population_size=8, offspring_per_parent=2, n_generations=4)
        optimizer = GeneticOptimizer(
            target, mpnn=mpnn, config=config, seed=seed,
            objective=lambda metrics: metrics.plddt,
        )
        optimizer.run()
        native = target.complex.receptor.sequence
        for population in optimizer.history:
            for individual in population:
                assert [individual.sequence[p] for p in fixed] == [native[p] for p in fixed]

    def test_custom_objective(self, target):
        config = GeneticConfig(population_size=4, offspring_per_parent=1, n_generations=1)
        optimizer = GeneticOptimizer(
            target, config=config, seed=3, objective=lambda metrics: metrics.ptm
        )
        best = optimizer.run()
        everyone = [ind for population in optimizer.history for ind in population]
        assert best.metrics.ptm == max(ind.metrics.ptm for ind in everyone)

    def test_deterministic_given_seed(self, target):
        config = GeneticConfig(population_size=4, offspring_per_parent=1, n_generations=2)
        a = GeneticOptimizer(target, config=config, seed=21).run()
        b = GeneticOptimizer(target, config=config, seed=21).run()
        assert a.sequence.residues == b.sequence.residues
        assert a.composite == pytest.approx(b.composite)
