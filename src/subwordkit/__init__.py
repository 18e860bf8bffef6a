"""subwordkit: subword closures, interiors, and state-complexity certificates
for regular languages, at a scale where every number can be checked.

The package works with epsilon-free NFAs and partial DFAs over named
alphabets.  Core verbs: closure_dfa and up/down_interior produce minimal
DFAs; gen_family builds the witness languages whose closure and interior
sizes are known exactly; verify_fooling and ufa_lower_bound certify lower
bounds; the decisions module answers closedness, inclusion and
universality questions with counterexample witnesses; run_experiment
reproduces the headline measurements.

Exports load on first access (PEP 562): `import subwordkit` imports no
submodule, and reading `subwordkit.closure_dfa` imports
`subwordkit.closures` the first time.
"""

import importlib

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "errors": ("BudgetExceededError", "FormatError", "InputError", "SubwordkitError",
               "VerificationError"),
    "core": ("DEFAULT_BUDGET", "Alphabet", "Dfa", "Nfa", "Word", "accepts",
             "as_nfa", "auto_alphabet", "canonical_dfa", "complement", "completed",
             "determinize", "determinize_subsets", "dfa_from_words", "empty_language_dfa",
             "enumerate_upto", "equivalent", "intersect", "is_unambiguous", "map_symbols",
             "minimize", "sigma_star_dfa", "trim"),
    "subwords": ("embeds", "leftmost_embedding", "minimal_words"),
    "closures": ("closure_dfa", "down_closure", "up_closure"),
    "interiors": ("SubstitutionSpec", "dedekind_count", "down_interior",
                  "down_interior_spec", "identity_substitution", "substitution_preimage",
                  "up_interior", "up_interior_spec"),
    "witnesses": ("FAMILY_NAMES", "FOOLING_NAMES", "TwoLetterParams", "c_word", "d_word",
                  "distinguisher_words", "fooling_for", "gen_family", "max_prefix_power",
                  "min_cover_power", "morphism_value"),
    "bounds": ("FoolingMatrix", "FoolingSet", "fooling_matrix", "mx_matrix",
               "rational_rank", "subsets_in_order", "ufa_lower_bound", "verify_fooling"),
    "decisions": ("Certificate", "closure_equal", "closure_inclusion", "dfa_closed_witness",
                  "down_universal", "is_closed", "shortest_in_difference"),
    "formats": ("parse_automaton", "parse_dfa", "render_dot", "serialize_automaton"),
    "experiments": ("ExperimentReport", "ExperimentRow", "describe_experiment",
                    "experiment_ids", "random_dfa", "random_nfa", "run_experiment"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_OWNER, "KERNEL_BACKEND", "__version__"]


def __getattr__(name):
    if name == "KERNEL_BACKEND":
        module, attr = "kernels", "ACTIVE"
    elif name in _OWNER:
        module, attr = _OWNER[name], name
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
