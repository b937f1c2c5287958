"""Hypothesis properties of every relation on random min-degree-2 graphs.

The graphs are a random Hamiltonian cycle plus random chords, so they are
connected with minimum degree at least 2 and meet every checker's
hypotheses.  Identities must hold at slack 0, bounds must hold, the
structural equality detectors of Thm 2 (diameter at most 2) and Thm 3
(unique 2-paths between neighbors) must agree with observed equality in
both directions, and no report may depend on the vertex labels.  Each
property runs on graphs of up to 30 vertices, and again up to 60 under
``slow``, with 50 examples each.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (all_pairs, check_all, check_cor_sandwich, check_lemma1,
                     check_lemma2, check_lemma3, check_thm1, check_thm2,
                     check_thm3, check_thm4, check_thm5)
from centrel.graphs import Graph

PROPERTY = settings(max_examples=50, deadline=None)
MAX_N = pytest.mark.parametrize("max_n", [30, pytest.param(60, marks=pytest.mark.slow)])


@st.composite
def min_degree_2_graphs(draw, max_n=30):
    """A random Hamiltonian cycle plus a random subset of the other pairs."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    order = draw(st.permutations(range(n)))
    edges = {tuple(sorted((order[k], order[(k + 1) % n]))) for k in range(n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=2 * n)))
    return Graph(sorted(edges), n)


@MAX_N
@given(st.data())
@PROPERTY
def test_identities_hold_at_zero_slack(max_n, data):
    an = all_pairs(data.draw(min_degree_2_graphs(max_n)))
    for check in (check_lemma1, check_thm1, check_lemma3, check_thm5):
        r = check(an)
        assert r.holds and r.slack == 0 and r.lhs == r.rhs, r.relation


@MAX_N
@given(st.data())
@PROPERTY
def test_bounds_hold(max_n, data):
    an = all_pairs(data.draw(min_degree_2_graphs(max_n)))
    for check in (check_thm2, check_thm3, check_cor_sandwich, check_lemma2,
                  check_thm4):
        r = check(an)
        assert r.holds and r.slack >= 0, r.relation


@MAX_N
@given(st.data())
@PROPERTY
def test_equality_detectors_agree_with_equality(max_n, data):
    an = all_pairs(data.draw(min_degree_2_graphs(max_n)))
    for check in (check_thm2, check_thm3):
        r = check(an)
        assert r.equality_expected == r.equality_observed, r.relation
        assert r.equality_observed == (r.lhs == r.rhs), r.relation


@MAX_N
@given(st.data(), st.randoms(use_true_random=False))
@PROPERTY
def test_reports_do_not_depend_on_vertex_labels(max_n, data, rng):
    g = data.draw(min_degree_2_graphs(max_n))
    relabel = list(range(g.n))
    rng.shuffle(relabel)
    h = Graph([(relabel[i], relabel[j]) for i, j in g.edges()], g.n)
    assert check_all(h) == check_all(g)
