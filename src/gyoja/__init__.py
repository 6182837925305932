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

# Every public name and its defining module.  Names resolve on first access
# (PEP 562), so ``import gyoja`` imports no submodule: not numpy (hecke,
# weyl), and nothing that a command does not use.
_LAZY = {
    **dict.fromkeys(
        (
            "AffineCoxeterSystem",
            "CartanType",
            "ClassPartition",
            "SignCharacter",
            "borel_discrete_series_list",
            "build_affine_system",
            "conjugacy_partition",
            "exponents",
            "parse_cartan_type",
            "steinberg_character",
            "tables_document",
        ),
        "cartan",
    ),
    **dict.fromkeys(
        (
            "CalibrationError",
            "ClosedForm",
            "Factor",
            "PoleError",
            "bott_closed_form",
            "calibrate_indexing",
            "diagram_growth_series",
            "growth_closed_form",
            "macdonald_closed_form",
        ),
        "closed_forms",
    ),
    **dict.fromkeys(
        (
            "char_value_e_w",
            "character_series",
            "count_multilengths",
            "parse_sign_vector",
            "partial_sums_at_point",
        ),
        "counting",
    ),
    **dict.fromkeys(
        (
            "BindingDependentVerdictError",
            "DistinctionVerdict",
            "NotDiscreteSeriesError",
            "classify",
            "distinction_value",
            "distinction_value_witnessed",
            "expected_distinguished",
            "robustness_check",
        ),
        "distinction",
    ),
    **dict.fromkeys(("MatrixRep", "counting_series", "gyoja_series", "validate_rep"), "hecke"),
    "ResourceLimitExceeded": "limits",
    "TruncatedSeries": "series",
    **dict.fromkeys(("Ball", "enumerate_ball", "enumerate_levels", "write_jsonl"), "weyl"),
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
