"""Neighborhood-restricted measures and their per-vertex identities."""

from fractions import Fraction

import dataclasses

import pytest

from centrel import (FamilySpec, all_pairs, bc_loc, clo_loc, generate, profile,
                     rad_loc)
from centrel.centralities import betweenness_and_stress
from centrel.neighborhood import is_complete_neighborhood, profiles
from centrel.oracle import oracle_measures


def make(family, *params, seed=None):
    return generate(FamilySpec(family, params, seed=seed))


def with_dd(g):
    return g, all_pairs(g)


def field(an, i, name):
    return getattr(profile(an, i), name)


class TestAvgPath:
    def test_complete(self):
        g, dd = with_dd(make("complete", 4))
        assert all(field(dd, i, "avg_path") == 1 for i in range(4))

    def test_cycle(self):
        g, dd = with_dd(make("cycle", 5))
        assert all(field(dd, i, "avg_path") == 2 for i in range(5))

    def test_windmill_hub(self):
        g, dd = with_dd(make("windmill", 2, 3))
        assert field(dd, 0, "avg_path") == Fraction(5, 3)

    def test_degree_one_convention(self, path3):
        dd = all_pairs(path3)
        assert field(dd, 0, "avg_path") == 0


class TestBetweenness:
    def test_complete(self):
        g, dd = with_dd(make("complete", 5))
        assert all(field(dd, i, "betweenness") == 0 for i in range(5))
        assert bc_loc(dd) == 0

    def test_c4(self):
        g, dd = with_dd(make("cycle", 4))
        assert field(dd, 0, "betweenness") == 1
        assert bc_loc(dd) == Fraction(1, 2)

    def test_c5(self):
        g, dd = with_dd(make("cycle", 5))
        assert field(dd, 0, "betweenness") == 2
        assert bc_loc(dd) == 1

    def test_windmill_hub(self):
        g, dd = with_dd(make("windmill", 2, 3))
        assert field(dd, 0, "betweenness") == 8

    def test_common_neighbor_form(self, full_suite):
        # each non-adjacent neighbor pair contributes 1 / (number of common
        # neighbors), twice for the two orientations
        for name, g in full_suite[:25]:
            dd = all_pairs(g)
            for i in range(g.n):
                nbrs = g.neighbors(i)
                expected = Fraction(0)
                for a_idx in range(len(nbrs)):
                    for b_idx in range(a_idx + 1, len(nbrs)):
                        s, t = nbrs[a_idx], nbrs[b_idx]
                        if not g.adjacent(s, t):
                            common = sum(1 for w in g.neighbors(s)
                                         if g.adjacent(w, t))
                            expected += Fraction(2, common)
                assert field(dd, i, "betweenness") == expected, name


class TestRadiality:
    def test_complete(self):
        g, dd = with_dd(make("complete", 4))
        assert all(field(dd, i, "radiality") == 1 for i in range(4))
        assert rad_loc(dd) == 1

    def test_cycle(self):
        g, dd = with_dd(make("cycle", 5))
        assert rad_loc(dd) == 1

    def test_windmill(self):
        g, dd = with_dd(make("windmill", 2, 3))
        assert rad_loc(dd) == Fraction(16, 15)


class TestCloseness:
    def test_complete(self):
        g, dd = with_dd(make("complete", 4))
        assert all(field(dd, i, "closeness") == 1 for i in range(4))
        assert clo_loc(dd) == 1

    def test_cycle(self):
        g, dd = with_dd(make("cycle", 5))
        assert all(field(dd, i, "closeness") == Fraction(1, 2)
                   for i in range(5))
        assert clo_loc(dd) == Fraction(1, 2)

    def test_windmill_bound(self):
        g, dd = with_dd(make("windmill", 2, 3))
        value = clo_loc(dd)
        assert value == Fraction(23, 25)
        assert value >= Fraction(15, 17)


class TestPerVertexInvariants:
    def test_profiles_on_suite(self, full_suite):
        for name, g in full_suite[:35]:
            dd = all_pairs(g)
            _, stress = betweenness_and_stress(dd)
            clustering = oracle_measures(g).local_clustering
            for p in profiles(dd):
                i = p.vertex
                d = g.degree(i)
                if d < 2:
                    continue
                c_i = clustering[i]
                # neighborhood path length is pinned between 1 and 2
                assert 1 <= p.avg_path <= 2, name
                assert p.avg_path == 2 - c_i, name
                # diameter flags completeness
                assert p.diameter in (1, 2), name
                assert p.diameter == 2 - int(p.is_complete), name
                # betweenness bound and the sandwich
                pairs = d * (d - 1)
                links = c_i * pairs / 2
                assert p.betweenness <= pairs - 2 * links, name
                assert p.betweenness / pairs <= 1 - c_i, name
                left = p.betweenness / pairs
                mid = p.avg_path - 1
                right = Fraction(stress[i], pairs)
                assert left <= mid <= right, name
                # radiality identity with the completeness indicator
                assert p.radiality == c_i + 1 - int(p.is_complete), name

    def test_degree_one_profile_is_zero(self, path3):
        p = profile(all_pairs(path3), 0)
        assert (p.avg_path, p.betweenness, p.diameter, p.radiality,
                p.closeness, p.is_complete) == (0, 0, 0, 0, 0, True)

    def test_profiles_memoized_and_read_only(self):
        g, dd = with_dd(make("windmill", 2, 3))
        first = profiles(dd)
        first.clear()
        assert profiles(dd) == [profile(dd, i) for i in range(g.n)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            profiles(dd)[0].avg_path = Fraction(0)

    def test_is_complete_neighborhood(self):
        g = make("windmill", 2, 3)
        assert not is_complete_neighborhood(g, 0)
        assert all(is_complete_neighborhood(g, i) for i in range(1, 5))
