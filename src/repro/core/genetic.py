"""Genetic-algorithm framing of the design protocol.

The paper describes its protocol as "a genetic algorithm that couples
AlphaFold2 and ProteinMPNN".  The pipeline/coordinator implementation keeps
exactly one lineage per pipeline; this module exposes the more general
population-based view — maintain a population of designs, generate variants
with ProteinMPNN (or plain mutation/crossover), evaluate them with the
folding surrogate, select survivors — as a standalone optimizer.  It is used
by the ``custom_pipeline`` example, and it is the natural extension point for
the paper's future-work scenarios (protease redesign with fixed catalytic
residues, monomeric prediction).

Evaluation is batch-first: each generation (initial population and offspring)
is scored through one :meth:`SurrogateAlphaFold.predict_batch` call — a single
vectorized landscape evaluation — while per-design RNG streams keep seeded
runs identical to per-individual evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.protein.datasets import DesignTarget
from repro.protein.folding import SurrogateAlphaFold
from repro.protein.metrics import QualityMetrics, composite_score
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.mutation import crossover, point_mutations
from repro.protein.sequence import ProteinSequence
from repro.protein.structure import ComplexStructure
from repro.utils.rng import spawn_rng

__all__ = ["Individual", "GeneticConfig", "GeneticOptimizer"]

#: Probability that an offspring recombines two parents before mutation
#: (otherwise it descends from a single parent).
_CROSSOVER_RATE = 0.25
#: Probability of plain random point mutation instead of ProteinMPNN-guided
#: generation (keeps diversity up).
_MUTATION_FALLBACK_RATE = 0.15


@dataclass(frozen=True)
class Individual:
    """One member of the design population."""

    sequence: ProteinSequence
    metrics: QualityMetrics
    fitness: float
    structure: ComplexStructure
    generation: int

    @property
    def composite(self) -> float:
        return composite_score(self.metrics)


@dataclass(frozen=True)
class GeneticConfig:
    """Population-level optimizer parameters.

    Attributes
    ----------
    population_size:
        Number of individuals kept after selection each generation.
    offspring_per_parent:
        Variants generated per surviving parent per generation.
    n_generations:
        Number of generations to run.
    """

    population_size: int = 8
    offspring_per_parent: int = 3
    n_generations: int = 4

    def __post_init__(self) -> None:
        if self.population_size < 1 or self.offspring_per_parent < 1:
            raise ConfigurationError("population and offspring sizes must be >= 1")
        if self.n_generations < 1:
            raise ConfigurationError("n_generations must be >= 1")


class GeneticOptimizer:
    """Population-based design optimizer over one target."""

    def __init__(
        self,
        target: DesignTarget,
        mpnn: Optional[SurrogateProteinMPNN] = None,
        folding: Optional[SurrogateAlphaFold] = None,
        config: Optional[GeneticConfig] = None,
        seed: int = 0,
        objective: Optional[Callable[[QualityMetrics], float]] = None,
    ) -> None:
        self._target = target
        self._mpnn = mpnn or SurrogateProteinMPNN(seed=seed)
        self._folding = folding or SurrogateAlphaFold(seed=seed)
        self._config = config or GeneticConfig()
        self._seed = seed
        self._objective = objective or composite_score
        self._history: List[List[Individual]] = []

    @property
    def config(self) -> GeneticConfig:
        return self._config

    @property
    def history(self) -> List[List[Individual]]:
        """Population snapshots, one per generation (after selection)."""
        return [list(population) for population in self._history]

    # -- internals --------------------------------------------------------------- #

    def _evaluate_batch(
        self,
        entries: Sequence[Tuple[ProteinSequence, ComplexStructure, object]],
        generation: int,
    ) -> List[Individual]:
        """Evaluate ``(sequence, structure, stream-key)`` entries in one batch.

        The whole population goes through a single
        :meth:`SurrogateAlphaFold.predict_batch` call (one vectorized
        landscape evaluation); per-entry RNG streams keep results identical to
        the scalar path.
        """
        results = self._folding.predict_batch(
            [structure for _, structure, _ in entries],
            self._target.landscape,
            [sequence for sequence, _, _ in entries],
            streams=[("ga", generation, key) for _, _, key in entries],
        )
        return [
            Individual(
                sequence=sequence,
                metrics=result.metrics,
                fitness=result.fitness,
                structure=result.structure,
                generation=generation,
            )
            for (sequence, _, _), result in zip(entries, results)
        ]

    def _initial_population(self) -> List[Individual]:
        complex_structure = self._target.complex
        candidates = self._mpnn.generate(
            complex_structure,
            self._target.landscape,
            n_sequences=self._config.population_size,
            stream=("ga-init",),
        )
        return self._evaluate_batch(
            [
                (scored.sequence, complex_structure, index)
                for index, scored in enumerate(candidates)
            ],
            generation=0,
        )

    def _offspring(
        self, parents: Sequence[Individual], generation: int, rng: np.random.Generator
    ) -> List[Individual]:
        # First generate every child sequence (the GA RNG draw order is
        # unchanged), then evaluate the whole generation in one batch.
        entries: List[Tuple[ProteinSequence, ComplexStructure, object]] = []
        # The operators may change what ProteinMPNN may: the designable
        # positions minus the fixed ones.
        fixed = self._mpnn.config.fixed_positions
        designable = [
            position
            for position in self._target.complex.designable_positions
            if position not in fixed
        ]
        for parent_index, parent in enumerate(parents):
            for child_index in range(self._config.offspring_per_parent):
                roll = rng.random()
                if roll < _CROSSOVER_RATE and len(parents) > 1:
                    other = parents[int(rng.integers(0, len(parents)))]
                    child_sequence = crossover(
                        parent.sequence, other.sequence, rng, positions=designable
                    )
                elif roll < _CROSSOVER_RATE + _MUTATION_FALLBACK_RATE:
                    child_sequence = point_mutations(
                        parent.sequence, designable, n_mutations=2, rng=rng
                    )
                else:
                    scored = self._mpnn.generate(
                        parent.structure,
                        self._target.landscape,
                        n_sequences=1,
                        stream=("ga", generation, parent_index, child_index),
                    )[0]
                    child_sequence = scored.sequence
                entries.append(
                    (child_sequence, parent.structure, (parent_index, child_index))
                )
        return self._evaluate_batch(entries, generation)

    @staticmethod
    def _select(
        population: Sequence[Individual], size: int, objective: Callable[[QualityMetrics], float]
    ) -> List[Individual]:
        ranked = sorted(population, key=lambda ind: objective(ind.metrics), reverse=True)
        return list(ranked[:size])

    # -- public API --------------------------------------------------------------------- #

    def run(self) -> Individual:
        """Run the optimizer and return the best individual found."""
        rng = spawn_rng(self._seed, "ga", self._target.name)
        population = self._select(
            self._initial_population(), self._config.population_size, self._objective
        )
        self._history = [population]
        for generation in range(1, self._config.n_generations + 1):
            offspring = self._offspring(population, generation, rng)
            # Parents and offspring compete for the next generation, so the
            # best individuals survive unchanged and each enters only once.
            population = self._select(
                offspring + population,
                self._config.population_size,
                self._objective,
            )
            self._history.append(population)
        return self.best()

    def best(self) -> Individual:
        """Best individual across all generations run so far."""
        if not self._history:
            raise ConfigurationError("the optimizer has not been run yet")
        everyone = [ind for population in self._history for ind in population]
        return max(everyone, key=lambda ind: self._objective(ind.metrics))

    def best_per_generation(self) -> List[float]:
        """Best objective value in each recorded generation (monotone check)."""
        return [
            max(self._objective(ind.metrics) for ind in population)
            for population in self._history
        ]
