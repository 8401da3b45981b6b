"""Protein-design application substrate.

The real IMPRESS pipelines call ProteinMPNN (sequence design) and AlphaFold2
(structure prediction) on PDZ-domain / peptide complexes.  Neither model nor
the experimental structures are available offline, so this subpackage
provides surrogate equivalents that preserve the *interfaces* and the
*statistical behaviour* the protocol depends on (see DESIGN.md §2):

* :mod:`repro.protein.alphabet`, :mod:`repro.protein.sequence` —
  amino-acid sequences.
* :mod:`repro.protein.structure` — coarse CA-backbone structures and
  two-chain complexes.
* :mod:`repro.protein.landscape` — the latent, epistatic sequence-fitness
  landscape that couples the two surrogates per design target.
* :mod:`repro.protein.mpnn` — :class:`SurrogateProteinMPNN`.
* :mod:`repro.protein.folding` — :class:`SurrogateAlphaFold` producing
  pLDDT / pTM / inter-chain pAE.
* :mod:`repro.protein.metrics` — metric containers and comparison logic.
* :mod:`repro.protein.scoring` — coarse backbone energy scoring.
* :mod:`repro.protein.mutation` — mutation and crossover operators.
* :mod:`repro.protein.datasets` — the four named PDZ targets, the
  alpha-synuclein peptide, and the 70-complex expanded set.
"""

from repro._lazy import lazy_namespace

#: Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    "AMINO_ACIDS": "alphabet",
    "is_valid_sequence": "alphabet",
    "ProteinSequence": "sequence",
    "ScoredSequence": "sequence",
    "Chain": "structure",
    "ComplexStructure": "structure",
    "FitnessLandscape": "landscape",
    "MPNNConfig": "mpnn",
    "SurrogateProteinMPNN": "mpnn",
    "FoldingResult": "folding",
    "SurrogateAlphaFold": "folding",
    "QualityMetrics": "metrics",
    "is_improvement": "metrics",
    "composite_score": "metrics",
    "ScoringFunction": "scoring",
    "EnergyBreakdown": "scoring",
    "point_mutations": "mutation",
    "crossover": "mutation",
    "ALPHA_SYNUCLEIN_C10": "datasets",
    "ALPHA_SYNUCLEIN_C4": "datasets",
    "DesignTarget": "datasets",
    "named_pdz_targets": "datasets",
    "expanded_pdz_set": "datasets",
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
