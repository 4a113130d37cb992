"""What importing the package costs and exports.

Every CLI call is a fresh process, so whatever ``import posetlab.cli``
loads is paid on each one. The heavy standard-library modules below
(``dataclasses`` pulls in the rest) must stay out of that import, and
argparse, with the gettext and locale modules its first message loads,
out of a well-formed call.
"""

import os
import subprocess
import sys

import posetlab

HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis"}
PARSER_MODULES = {"argparse", "gettext", "locale"}

PUBLIC_NAMES = [
    "BoundTooLarge", "ChainPoset", "ConjectureReport", "CyclicCovers", "DivisibilityPoset",
    "DomainError", "DuplicateElement", "ElementOutsideWindow", "EvaluableFunction",
    "ExplicitPoset", "FiniteSupportFunction", "GaussianRational", "InsufficientWitnesses",
    "IntervalFunction", "InvalidElement", "InvalidInput", "MultisetPoset", "NoClosedForm",
    "NoUniqueBottom", "NotComparable", "NotInverses", "NotInvertible", "NotStrictlyAbove",
    "PairSearchResult", "Poset", "PosetLabError", "PosetMismatch", "SubsetPoset",
    "SupportCensus", "UnknownElementInCover", "UsageError", "Window", "WindowNotNested",
    "WitnessCertificate", "WitnessConclusionViolated", "ZeroFunction", "alpha_transform",
    "bottom", "check_witness_conditions", "classical_mobius", "closed_form_mobius",
    "conjecture_experiment", "convolve", "custom_function", "delta_function",
    "enumerate_window", "evaluate", "finite_support_pair_search", "function_from_document",
    "function_to_document", "get_poset", "ideal", "integer_to_multiset", "interval",
    "invert", "leq", "load_explicit_poset", "materialize", "mobius_function",
    "mobius_inversion", "mobius_value", "multiset_to_integer", "support_census",
    "verify_uncertainty_witnesses", "witnesses", "zeta_function", "zeta_transform",
]


def loaded_modules(statement: str) -> set:
    """The names in ``sys.modules`` after ``statement`` in a fresh
    interpreter, read from the last line it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetlab.__file__)))
    code = f"{statement}\nimport sys\nprint(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_cli_import_leaves_out_heavy_modules():
    bare = loaded_modules("pass")
    added = loaded_modules("import posetlab.cli") - bare
    assert "posetlab.cli" in added
    assert not added & HEAVY_MODULES


def test_a_well_formed_call_loads_no_argparse():
    loaded = loaded_modules("import posetlab.cli\nposetlab.cli.run(['classical-mobius', '--n', '6'])")
    assert "posetlab.cli" in loaded
    assert not loaded & PARSER_MODULES


def test_public_names_are_pinned_and_resolve():
    assert posetlab.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(posetlab, name) is not None
