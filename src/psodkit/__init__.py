"""psodkit: exact combinatorics of preordered semi-orthogonal decompositions.

Finite preorders with order-reflecting maps and their (co)limits, the
recursive factorial order on characters of roots of unity, normal-crossing
stratification combinatorics, graded abelian-group gluing over diagrams, and
K-theory direct-sum reports for root constructions.

``import psodkit`` loads no library module: each public name below is
resolved from its home module on first access (PEP 562), so a command pays
only for the modules it runs.
"""

import importlib

# home module -> the public names it exports at the package level
_EXPORTS = {
    "abelian": ("GradedGroup", "GradedHom", "IntMatrix", "graded_limit", "hnf", "kernel", "snf"),
    "atlas": ("Chart", "ChartAtlas", "Overlap", "strata_from_atlas"),
    "colimits": ("colimit", "coproduct", "pushout"),
    "config": ("Caps",),
    "engine": ("FactorDescriptor", "PsodIndex", "build_infinite_psod", "build_root_psod",
               "filtration"),
    "errors": (
        "CapExceededError", "InputError", "InvariantError", "ParseError",
        "PreconditionError", "PsodkitError",
    ),
    "factorial": (
        "CharTuple", "FactorialForm", "Residue", "cmp_bang", "enumerate_characters",
        "to_factorial_form", "zr_elements",
    ),
    "gluing": ("GluingScenario", "glue"),
    "groups": ("FgAbGroup",),
    "kreport": ("KTheoryMode", "ktheory_report"),
    "preorders": (
        "DiagramArrow", "FinitePreorder", "OrderReflectingMap", "PreorderDiagram",
        "complete_preorder", "directed_numbering", "discrete_preorder", "is_directed",
        "is_order_reflecting",
    ),
    "strata": ("Stratification", "Stratum", "skeleton", "validate"),
    "verify": ("verify_colimit",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
