"""JSON rendering: ``json_text`` against ``json.dumps`` of a value tree.

``reference`` builds the tree that the JSON text stands for, with one dict
per rational, {"exact": "p/q", "value": float} (a bare float when ``exact`` is
off).  ``json.dumps(..., indent=2)`` of that tree is the text ``json_text``
must write byte for byte.  It is the renderer ``json_text`` replaced, with a
dict branch for the command line's own dicts.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel.relations import RelationReport, SweepResult, SweepRow
from centrel.serialize import json_text


def reference(x, exact=True):
    if isinstance(x, Fraction):
        return {"exact": str(x), "value": float(x)} if exact else float(x)
    if hasattr(x, "FIELDS"):
        return {name: reference(getattr(x, name), exact) for name in x.FIELDS}
    if isinstance(x, dict):
        return {k: reference(v, exact) for k, v in x.items()}
    if isinstance(x, list):
        return [reference(v, exact) for v in x]
    return x


def reference_text(x, exact=True):
    return json.dumps(reference(x, exact), indent=2)


texts = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\ré \U0001f600ab')
fractions = (st.fractions()
             | st.builds(Fraction, st.integers(-10**300, 10**300), st.integers(1, 10**9))
             | st.builds(Fraction, st.integers(-10**30, 10**30)))  # integral
scalars = fractions | st.integers(-10**40, 10**40) | st.booleans() | st.none() | texts
relation_reports = st.builds(
    RelationReport, relation=texts, direction=st.sampled_from(["eq", "le", "ge", "none"]),
    lhs=fractions, rhs=fractions, holds=st.booleans(), slack=fractions,
    equality_expected=st.booleans(), equality_observed=st.booleans(),
    hypothesis_met=st.booleans(), notes=st.lists(texts, max_size=3))
sweep_rows = st.builds(SweepRow, st.integers(1, 10**4), fractions, fractions)
sweep_results = st.builds(SweepResult, st.integers(3, 10), st.lists(sweep_rows, max_size=4),
                          st.booleans(), st.booleans())
values = st.recursive(
    scalars | relation_reports | sweep_rows | sweep_results,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=50, deadline=None)
@given(values, st.booleans())
def test_json_text_is_indented_json_dumps_of_the_reference(x, exact):
    assert json_text(x, exact) == reference_text(x, exact)


@pytest.mark.parametrize("x", [
    [], {}, [[]], {"a": {}}, Fraction(-7, 3), Fraction(10**300, 3), Fraction(0),
    'quote " slash \\ nul \x00 é',
    SweepResult(3, [], True, False),
    RelationReport("thm1", "le", Fraction(1, 3), Fraction(1, 2), True, Fraction(1, 6),
                   False, False, notes=["a\nb"]),
])
@pytest.mark.parametrize("exact", [True, False])
def test_edge_values(x, exact):
    assert json_text(x, exact) == reference_text(x, exact)


@pytest.mark.parametrize("x, error", [
    (Fraction(10**400), OverflowError),  # past the largest float
    ([1, object()], TypeError),
])
def test_refused_as_json_dumps_refuses(x, error):
    for render in (json_text, reference_text):
        with pytest.raises(error):
            render(x)


@pytest.mark.parametrize("x", [[0.5], [(1, 2)], {1: 2}])
def test_takes_report_types_only(x):
    # a report holds no float but a rational's, no tuple but a NamedTuple
    # record and no key but a str; json.dumps would render these
    with pytest.raises(TypeError):
        json_text(x)
