"""Exact-integer continued fractions, continuants, asymmetry types, and congruences."""

from .asymmetry import (AsymmetryDecomposition, ExtendedAsymmetryType,
                        ParametricFamily, TypeCatalog, compose, decompose,
                        enumerate_types, extended_type, type_value)
from .cf import (ParityPrediction, alternate_expansion, evaluate, expand,
                 expand_with_parity, parity_by_inverse, representations)
from .congruence import (CongruenceSpec, ExceptionalCertificate, FoldedForm,
                         FoldedParams, candidate_pairs, exceptional_candidates,
                         folded_expand_classify, folded_normalize, main_theorem_specs,
                         solve_quadratic, true_exceptions)
from .continuants import (anticontinuant, anticontinuant_range, continuant,
                          continuant_range, euler_residual, fibonacci)
from .errors import DomainError, FoldedFormError
from .verifier import (TableDocument, VerificationReport, build_table,
                       verify_enumeration, verify_identities, verify_main_theorem)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryDecomposition", "CongruenceSpec", "DomainError",
    "ExceptionalCertificate", "ExtendedAsymmetryType", "FoldedForm",
    "FoldedFormError", "FoldedParams", "ParametricFamily", "ParityPrediction",
    "TableDocument", "TypeCatalog", "VerificationReport",
    "alternate_expansion", "anticontinuant", "anticontinuant_range",
    "build_table", "candidate_pairs", "compose", "continuant",
    "continuant_range", "decompose", "enumerate_types", "euler_residual",
    "evaluate", "exceptional_candidates", "expand", "expand_with_parity",
    "extended_type", "fibonacci", "folded_expand_classify", "folded_normalize",
    "main_theorem_specs", "parity_by_inverse", "representations", "solve_quadratic",
    "true_exceptions", "type_value",
    "verify_enumeration", "verify_identities", "verify_main_theorem",
]
