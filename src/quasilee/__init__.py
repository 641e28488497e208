"""Two-quasi-perfect Lee codes from quadratic curves over finite fields.

Builds the two generator families (the norm-one circle of a quadratic
extension and the unit hyperbola of the split algebra), analyzes their
iterated sumset growth, computes exact Cayley-graph spectra against the
Ramanujan bounds, derives the Lee-metric code parameters, and decodes by
coset leaders.  Every supporting counting fact is verifiable by the
brute-force battery in :mod:`quasilee.lemmas` or from the command line
via ``quasilee lemma-suite``.
"""

from .codes import (CosetLeaderTable, DecodeResult, LeeCode, ParityCheckMatrix,
                    QuasiPerfectReport, VerificationError, build_code,
                    code_parameters, coset_leader_table, decode, decode_words,
                    matrix_from_json_dict, matrix_from_text,
                    parity_check_matrix, rank_mod_p, round_trip_check,
                    syndrome, syndromes, verify_quasi_perfect)
from .curves import (AdmissibilityReport, GeneratorSet, admissibility,
                     from_representatives, generator_set, norm_circle,
                     unit_hyperbola)
from .fields import (FieldCtx, QuadExt, ResidueClassReport, SizeCapError,
                     fold_counts, is_prime, kloosterman, make_field,
                     minus3_character, pair_add, pair_index, pair_neg,
                     residue_class_mod12)
from .lemmas import LemmaCheck, lemma_battery
from .spectra import SpectrumReport, full_spectrum
from .sumsets import (Classification, CoverageError, SumsetLayers, classify,
                      cumulative_layers, lee_ball_size, sumset)

__version__ = "0.1.0"
