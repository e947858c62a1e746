"""The argument contract of every callable the package exports.

Each call below is valid; one argument at a time is replaced by a bad value.
The call then returns, or raises ValueError or TypeError, never
AttributeError, IndexError, KeyError or RecursionError, and it never warns.
A bad state, label, tolerance, side or keep is named in the message."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entcheck
from entcheck import bell_pair, ghz, parse_label

# the bad values, by the name a failing example shows
BAD = {
    "bool": True,
    "1.0": 1.0,
    "1.5": 1.5,
    "-1": -1,
    "2**70": 2 ** 70,
    "nan": math.nan,
    "inf": math.inf,
    "None": None,
    "str": "x",
    "()": (),
    "[]": [],
    "ragged list": [[1.0, 0.0], [0.0]],
    "0-d array": np.array(1.0),
    "0x0 array": np.zeros((0, 0)),
    "nan matrix": np.full((4, 4), math.nan),
    "object()": object(),
}

# the kinds of parameter whose errors must name the parameter
NAMED = {"state", "label", "tolerance", "side", "keep"}

A_BC = parse_label("A,BC", 3)
VECTOR = [1.0, 0.0]
PSI = np.eye(8)[0]

# every exported callable: the kind of each parameter, in signature order,
# and one valid value for each
CALLS = {
    "DensityMatrix": ({"mat": "matrix", "n_qubits": "integer", "tol": "tolerance"},
                      (np.eye(8) / 8, 3, 1e-9)),
    "apply_reduction": ({"rho": "state", "label": "label"}, (ghz(3), A_BC)),
    "bell_pair": ({}, ()),
    "coherence_factor": ({"w": "vector"}, (VECTOR,)),
    "embed_bipartite": ({"r": "state", "way": "integer"}, (bell_pair(), 1)),
    "ghz": ({"n_qubits": "integer"}, (3,)),
    "hermitian_eigenvalues": ({"mat": "matrix"}, (np.eye(2),)),
    "hermitian_eigenvalues_stack": ({"stack": "matrix"}, (np.eye(2)[None],)),
    "kron": ({"a": "matrix", "b": "matrix"}, (np.eye(2), np.eye(2))),
    "labels_for": ({"n_qubits": "integer"}, (3,)),
    "min_pt_eigenvalues": ({"states": "states"}, ([ghz(3)],)),
    "molecule_pair_reduction": ({"p_ab": "real", "p_ac": "real", "p_bc": "real", "pair": "pair"},
                                (0.5, 0.25, 0.25, (0, 1))),
    "molecule_state": ({"p_ab": "real", "p_ac": "real", "p_bc": "real"}, (0.5, 0.25, 0.25)),
    "necessary_condition_holds": ({"rho": "state"}, (ghz(3),)),
    "omega_matrix": ({"u": "vector", "gamma": "real"}, (VECTOR, 0.5)),
    "parse_label": ({"text": "text", "n_qubits": "integer"}, ("A,BC", 3)),
    "partial_trace": ({"rho": "state", "keep": "keep"}, (ghz(3), (0, 1))),
    "partial_transpose": ({"sigma": "matrix", "side": "side"}, (np.eye(4) / 4, "Y")),
    "ppt_separable": ({"sigma": "state", "tol": "tolerance"}, (bell_pair(), None)),
    "product_pure": ({"a": "vector", "b": "vector", "c": "vector"}, (VECTOR, VECTOR, VECTOR)),
    "pure_density": ({"coeffs": "vector"}, (VECTOR,)),
    "pure_fully_separable": ({"psi": "vector"}, (PSI,)),
    "pure_split_separable": ({"psi": "vector", "split": "text"}, (PSI, "A-BC")),
    "quadripartite_labels": ({}, ()),
    "reduce_all_quadripartite": ({"rho": "state", "validate": "flag"}, (ghz(4), True)),
    "reduce_all_tripartite": ({"rho": "state", "validate": "flag"}, (ghz(3), True)),
    "reduce_split": ({"rho": "state", "label": "label"}, (ghz(3), A_BC)),
    "reduce_split_channel": ({"rho": "state", "label": "label"}, (ghz(3), A_BC)),
    "reduce_trace_then_split": ({"rho": "state", "traced_party": "integer", "label": "label"},
                                (ghz(4), 3, A_BC)),
    "split_coefficient_matrix": ({"psi": "vector", "split": "text"}, (PSI, "A-BC")),
    "upb_state": ({}, ()),
    "validate_density": ({"mat": "matrix", "n_qubits": "integer", "tol": "tolerance"},
                         (np.eye(8) / 8, 3, 1e-9)),
    "werner_embedded": ({"x": "real"}, (0.5,)),
    "witness": ({"rho": "state", "tol": "tolerance", "validate_reductions": "flag"}, (ghz(3), None, True)),
    "witness_quadripartite": ({"rho": "state"}, (ghz(4),)),
    "witness_tripartite": ({"rho": "state"}, (ghz(3),)),
}

# exported callables outside the contract, each with the reason
EXEMPT = {
    "BadLabelError": "an exception class takes any message",
    "BadToleranceError": "an exception class takes any message",
    "NonFiniteError": "an exception class takes any message",
    "ValidationError": "an exception class takes any message",
    "PptVerdict": "a record a witness builds; a named tuple checks no field",
    "WitnessReport": "a record a witness builds; a named tuple checks no field",
    "ReductionKind": "an Enum lookup, whose errors and signature the standard library owns",
}

PARAMETERS = [(name, param) for name, (kinds, _) in sorted(CALLS.items()) for param in kinds]


def test_every_exported_callable_is_listed():
    """A new public name must come with a row above, or a reason to have none."""
    exported = {name for name in entcheck.__all__
                if callable(getattr(entcheck, name)) and not inspect.ismodule(getattr(entcheck, name))}
    assert not set(CALLS) & set(EXEMPT)
    assert exported == set(CALLS) | set(EXEMPT)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_row_lists_the_parameters_and_a_valid_call(name):
    kinds, valid = CALLS[name]
    assert list(inspect.signature(getattr(entcheck, name)).parameters) == list(kinds)
    assert set(kinds.values()) <= {"state", "states", "label", "tolerance", "integer", "real", "matrix",
                                   "vector", "text", "side", "keep", "pair", "flag"}
    getattr(entcheck, name)(**dict(zip(kinds, valid)))


@pytest.mark.parametrize("name, param", PARAMETERS, ids=[f"{name}-{param}" for name, param in PARAMETERS])
@settings(max_examples=2 * len(BAD), deadline=1000, derandomize=True, database=None)
@given(bad=st.sampled_from(sorted(BAD)))
def test_a_bad_argument_returns_or_raises_a_value_or_type_error(name, param, bad):
    kinds, valid = CALLS[name]
    kwargs = dict(zip(kinds, valid))
    kwargs[param] = BAD[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(entcheck, name)(**kwargs)
        except (ValueError, TypeError) as exc:
            if kinds[param] in NAMED:
                assert re.search(rf"\b{param}\b", str(exc)), f"{name}({param}={bad}): {exc!r} does not name {param}"
