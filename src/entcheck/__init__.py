"""Entanglement checks for three- and four-qubit density matrices.

The core idea: reduce the multiqubit state to a small set of two-qubit
density matrices (6 reductions for three qubits, 25 for four), then
apply the exact two-qubit PPT separability test to each.  Any reduction
that fails PPT certifies entanglement of the full state; if all pass,
the result is inconclusive for mixed states but exact for pure ones.

``DEFAULT_TOL`` is defined here; every other name is loaded from its
home module on first use (PEP 562), so ``import entcheck`` loads neither
numpy nor any submodule, and a command of :mod:`entcheck.cli` loads only
the modules it calls.
"""

__version__ = "0.1.0"

# validation tolerance; inputs are exact constructions or ~1e-15 file noise.
# Defined here, without numpy, for the CLI's help texts; linalg imports it.
DEFAULT_TOL = 1e-9

# every other public name and submodule of the package, with the submodule that holds it
_HOMES = {
    **{module: module for module in ("linalg", "reductions", "separability", "states")},
    **dict.fromkeys((
        "RANK_TOL", "BadSubsetError", "BadToleranceError", "DensityMatrix", "NonFiniteError",
        "NotHermitianError", "NotNormalizedError", "NotPSDError", "TraceNotOneError", "ValidationError",
        "hermitian_eigenvalues", "hermitian_eigenvalues_stack", "kron", "partial_trace", "pure_density",
        "validate_density",
    ), "linalg"),
    **dict.fromkeys((
        "BadLabelError", "PARTY_NAMES", "ReductionKind", "ReductionLabel", "WrongArityError", "apply_reduction",
        "labels_for", "parse_label", "quadripartite_labels", "reduce_all_quadripartite", "reduce_all_tripartite",
        "reduce_split", "reduce_split_channel", "reduce_trace_then_split", "tripartite_labels",
    ), "reductions"),
    **dict.fromkeys((
        "ENTANGLED", "INCONCLUSIVE", "PURE_SPLITS", "PptVerdict", "SplitVerdict", "WitnessReport", "WrongDimError",
        "min_pt_eigenvalues", "necessary_condition_holds", "partial_transpose", "ppt_separable",
        "pure_fully_separable", "pure_split_separable", "split_coefficient_matrix", "witness",
        "witness_quadripartite", "witness_tripartite",
    ), "separability"),
    **dict.fromkeys((
        "BadGammaError", "BadParamsError", "BadWayError", "OutOfRangeError", "bell_pair", "coherence_factor",
        "embed_bipartite", "ghz", "maximally_mixed", "molecule_pair_reduction", "molecule_state", "omega_matrix",
        "product_pure", "upb_state", "werner_embedded",
    ), "states"),
}

__all__ = ["DEFAULT_TOL", *_HOMES]


def __getattr__(name):
    """A name of the table, loaded from its submodule and kept, so each is
    looked up once; a submodule's own entry is the submodule."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_HOMES[name]}")
    value = module if _HOMES[name] == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
