"""Exact growth series of affine Weyl groups and distinction of degree-1
discrete series of the associated Hecke algebras.

The package enumerates affine Weyl groups as exact integer affine maps,
forms class-graded generating series over arbitrary-precision rationals,
transcribes the classical closed product formulas (single-variable over the
exponents, and the two/three-variable displays for the non-simply-laced
affine types), cross-checks the two against each other, and evaluates the
numerical distinction criterion for sign characters of the Hecke algebra.
"""

__version__ = "0.1.0"

import importlib

from .cartan import (
    AffineCoxeterSystem,
    CartanType,
    ClassPartition,
    SignCharacter,
    borel_discrete_series_list,
    build_affine_system,
    conjugacy_partition,
    exponents,
    parse_cartan_type,
    steinberg_character,
    tables_document,
)
from .closed_forms import (
    CalibrationError,
    ClosedForm,
    Factor,
    PoleError,
    bott_closed_form,
    calibrate_indexing,
    diagram_growth_series,
    growth_closed_form,
    macdonald_closed_form,
)
from .distinction import (
    BindingDependentVerdictError,
    DistinctionVerdict,
    EvaluationPoint,
    NotDiscreteSeriesError,
    classify,
    distinction_value,
    distinction_value_witnessed,
    expected_distinguished,
    robustness_check,
)
from .limits import ResourceLimitExceeded
from .series import TruncatedSeries

# Names resolved on first access (PEP 562), so that ``import gyoja`` does not
# import numpy (hecke, weyl) or the counter and characters that only the counting
# commands use.
_LAZY = {
    **dict.fromkeys(
        (
            "COUNTING",
            "char_value_e_w",
            "character_series",
            "count_multilengths",
            "parse_sign_vector",
            "partial_sums_at_point",
        ),
        "counting",
    ),
    **dict.fromkeys(("MatrixRep", "counting_series", "gyoja_series", "validate_rep"), "hecke"),
    **dict.fromkeys(
        (
            "Ball",
            "GroupElement",
            "NotReducedWordError",
            "enumerate_ball",
            "enumerate_levels",
            "evaluate_word",
            "is_reduced",
            "multilength_of_word",
            "write_jsonl",
        ),
        "weyl",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "__version__",
    "AffineCoxeterSystem",
    "Ball",
    "BindingDependentVerdictError",
    "COUNTING",
    "CalibrationError",
    "CartanType",
    "ClassPartition",
    "ClosedForm",
    "DistinctionVerdict",
    "EvaluationPoint",
    "Factor",
    "GroupElement",
    "MatrixRep",
    "NotDiscreteSeriesError",
    "NotReducedWordError",
    "PoleError",
    "ResourceLimitExceeded",
    "SignCharacter",
    "TruncatedSeries",
    "borel_discrete_series_list",
    "bott_closed_form",
    "build_affine_system",
    "calibrate_indexing",
    "char_value_e_w",
    "character_series",
    "classify",
    "conjugacy_partition",
    "count_multilengths",
    "counting_series",
    "diagram_growth_series",
    "distinction_value",
    "distinction_value_witnessed",
    "enumerate_ball",
    "enumerate_levels",
    "evaluate_word",
    "expected_distinguished",
    "exponents",
    "growth_closed_form",
    "gyoja_series",
    "is_reduced",
    "macdonald_closed_form",
    "multilength_of_word",
    "parse_cartan_type",
    "parse_sign_vector",
    "partial_sums_at_point",
    "robustness_check",
    "steinberg_character",
    "tables_document",
    "validate_rep",
    "write_jsonl",
]
