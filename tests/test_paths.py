"""Distance/path-count correctness and the global distance metrics."""

import errno
import math
import os
import random
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centrel import (DisconnectedGraphError, FamilySpec, all_pairs,
                     avg_path_length, bfs, density, diameter, generate,
                     global_efficiency, paths)
from centrel.cli import main
from centrel.graphs import Graph, PreconditionError, is_connected
from centrel.neighborhood import profiles
from centrel.oracle import (_bfs_levels, _path_counts, oracle_measures,
                            oracle_neighborhood_profiles)
from centrel.paths import exact_sum, orbits, weighted_mean
from enumeration import enumerate_shortest_paths


def cycle(n):
    return generate(FamilySpec("cycle", (n,)))


def complete(n):
    return generate(FamilySpec("complete", (n,)))


def rows(g):
    """The BFS distance and path-count rows from every source."""
    dist, sigma = [], []
    for s in range(g.n):
        _, dist_s, sigma_s = bfs(g, s)
        dist.append(dist_s)
        sigma.append(sigma_s)
    return dist, sigma


class TestAllPairs:
    def test_c4_antipodal(self):
        _, dist, sigma = bfs(cycle(4), 0)
        assert dist[2] == 2
        assert sigma[2] == 2

    def test_complete_all_unit(self):
        for n in (3, 5, 7):
            dist, sigma = rows(complete(n))
            for s in range(n):
                for t in range(n):
                    if s != t:
                        assert dist[s][t] == 1 and sigma[s][t] == 1

    def test_c5_unique_two_hop(self):
        _, dist, sigma = bfs(cycle(5), 1)
        assert dist[4] == 2
        assert sigma[4] == 1

    def test_sigma_diagonal_convention(self):
        _, sigma = rows(cycle(5))
        assert all(sigma[v][v] == 1 for v in range(5))

    def test_disconnected_rejected(self, two_triangles):
        with pytest.raises(DisconnectedGraphError):
            all_pairs(two_triangles)

    def test_single_vertex_rejected(self):
        with pytest.raises(PreconditionError, match="at least 2 vertices"):
            all_pairs(Graph([], 1))

    def test_matrices_symmetric_zero_diagonal(self, family_suite):
        for name, g in family_suite[:10]:
            dist, sigma = rows(g)
            for s in range(g.n):
                assert dist[s][s] == 0
                for t in range(g.n):
                    assert dist[s][t] == dist[t][s]
                    assert sigma[s][t] == sigma[t][s]

    def test_distance_one_iff_edge(self):
        g = generate(FamilySpec("windmill", (3, 4)))
        dist, sigma = rows(g)
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                assert (dist[s][t] == 1) == g.adjacent(s, t)
                if dist[s][t] == 1:
                    assert sigma[s][t] == 1

    @pytest.mark.parametrize("keep_rows, cpus", [(False, 1), (True, 1), (False, 2), (True, 2)],
                             ids=["clean", "rows-kept", "clean-split", "rows-kept-split"])
    def test_analysis_keeps_no_dense_rows(self, monkeypatch, keep_rows, cpus):
        # the dense dist and sigma rows took 2 * 8 * n^2 bytes.  A sparse graph
        # keeps the traced run short: a seeded random tree plus 20 chords,
        # whose few symmetries (twin leaves) still leave about n passes.  The
        # control keeps every BFS row the pass asks for and must break the bound.
        # tracemalloc sees this process only: with one CPU it sweeps every
        # source, with two it sweeps half of them and merges the child's sums
        n = 200
        rng = random.Random(1)
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        g = Graph(edges + [tuple(rng.sample(range(n), 2))
                           for _ in range(20)], n)
        if keep_rows:
            kept = []

            def keeping(*args):
                kept.append(bfs(*args))
                return kept[-1]
            monkeypatch.setattr(paths, "bfs", keeping)
        tracemalloc.start()
        try:
            forked = pass_on(monkeypatch, g, cpus)[1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert forked == cpus - 1
        assert (peak < 3000 * n) != keep_rows, f"{peak / n:.0f} B/vertex"


FIELDS = ("row_sums", "hists", "pair_hists", "pair_sums", "detours",
          "betweenness", "stress")


def random_graph(n, seed=1):
    return generate(FamilySpec("random-min-degree-2", (n,), seed=seed))


def with_false_twins(g, count):
    """g with a false twin (a new vertex joined to N(v)) for each of the
    first ``count`` vertices v of a greedy independent set, so that no twin
    joins the neighbourhood of another twinned vertex."""
    chosen = []
    for v in range(g.n):
        if len(chosen) < count and not any(g.adjacent(u, v) for u in chosen):
            chosen.append(v)
    twins = [(g.n + k, u) for k, v in enumerate(chosen) for u in g.neighbors(v)]
    return Graph(list(g.edges()) + twins, g.n + count), chosen


def pass_on(monkeypatch, g, cpus, **options):
    """``all_pairs(g, **options)`` with ``cpus`` CPUs in the affinity mask,
    and the number of children it forked."""
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    return all_pairs(g, **options), len(forked)


def open_fds():
    """This process's open file descriptors; None where /proc/self/fd is
    missing, which leaves that check out."""
    try:
        return set(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def assert_nothing_left(fds):
    # every child reaped: none running and none a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # and no end of a pipe left open: the descriptors open before the pass
    assert open_fds() == fds


def sweep_args(g):
    """The neighbor lists, orbits and orbit of each vertex that ``all_pairs``
    hands to ``paths._sweep``."""
    nbrs, classes = [g.neighbors(v) for v in range(g.n)], orbits(g)
    orbit = [k for _, k in sorted((v, k) for k, vs in enumerate(classes) for v in vs)]
    return nbrs, classes, orbit


def assert_equal_but_betweenness(without, full):
    """``without`` is ``full`` in every field but ``betweenness``, which is
    None."""
    assert without.betweenness is None
    assert full.betweenness is not None
    for name in (*FIELDS, "orbits"):
        if name != "betweenness":
            assert getattr(without, name) == getattr(full, name), name


class TestWithoutBetweenness:
    """``all_pairs(g, betweenness=False)``: the same pass with no Brandes
    betweenness recurrence."""

    def test_family_suite(self, family_suite):
        for name, g in family_suite:
            assert_equal_but_betweenness(all_pairs(g, betweenness=False), all_pairs(g))

    @pytest.mark.parametrize("g", [
        random_graph(60), random_graph(150), with_false_twins(random_graph(150), 30)[0],
    ], ids=["random-60", "random-150", "twins-180"])
    def test_a_split_pass(self, monkeypatch, g):
        monkeypatch.setattr(paths, "SPLIT_WORK", 1)  # n = 60 splits too
        one, forked = pass_on(monkeypatch, g, 1)
        assert forked == 0
        fds = open_fds()
        split, forked = pass_on(monkeypatch, g, 2, betweenness=False)
        assert forked == 1
        assert_equal_but_betweenness(split, one)
        assert_nothing_left(fds)

    @pytest.mark.parametrize("g", [random_graph(60), with_false_twins(random_graph(60), 10)[0]],
                             ids=["random-60", "twins-70"])
    def test_the_sweep_keeps_its_record_shape(self, g):
        # the same eight entries of the same types, so the forked half, the
        # merge and the orbit shares never ask which pass made a record
        nbrs, classes, orbit = sweep_args(g)
        ks = range(len(classes))
        full = paths._sweep(g, nbrs, classes, orbit, ks)
        without = paths._sweep(g, nbrs, classes, orbit, ks, betweenness=False)

        def types(record):
            return [(type(f), {type(x) for x in f}) if isinstance(f, list) else type(f)
                    for f in record]
        assert len(without) == len(full) == 8
        assert types(without) == types(full)
        *fields, totals, denom = without
        assert totals == [0] * len(classes) and denom == 1
        assert fields == full[:-2]
        assert any(full[-2])


class TestSplit:
    """The pass in two halves of the orbits, the second in a forked child:
    every field as one sweep gives it."""

    @pytest.mark.parametrize("g", [
        *(random_graph(n) for n in (60, 75, 80, 150, 300)),
        with_false_twins(random_graph(150), 30)[0],
    ], ids=["random-60", "random-75", "random-80", "random-150", "random-300",
            "twins-180"])
    def test_a_split_pass_equals_one_chunk(self, monkeypatch, g):
        monkeypatch.setattr(paths, "SPLIT_WORK", 1)  # n = 60 splits too
        one, forked = pass_on(monkeypatch, g, 1)
        assert forked == 0
        for cpus in (2, 3, 4):  # one child whatever the CPUs; 75 halves unevenly
            fds = open_fds()
            split, forked = pass_on(monkeypatch, g, cpus)
            assert forked == 1
            for name in FIELDS:
                assert getattr(split, name) == getattr(one, name), (cpus, name)
            assert_nothing_left(fds)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_both_halves_are_rescaled_in_the_merge(self, monkeypatch, seed):
        # the halves' betweenness denominators differ and neither divides the
        # other, so the merge rescales the totals of both before adding them
        g = random_graph(150, seed)
        nbrs, classes, orbit = sweep_args(g)
        half = len(classes) // 2
        first, second = (paths._sweep(g, nbrs, classes, orbit, ks)[-1]
                         for ks in (range(half), range(half, len(classes))))
        assert first % second and second % first, (first, second)
        one, forked = pass_on(monkeypatch, g, 1)
        assert forked == 0
        split, forked = pass_on(monkeypatch, g, 2)
        assert forked == 1
        for name in FIELDS:
            assert getattr(split, name) == getattr(one, name), name

    def test_the_twins_share_passes_across_the_split(self):
        g, chosen = with_false_twins(random_graph(150), 30)
        classes = orbits(g)
        assert [vs for vs in classes if len(vs) > 1] == [
            [v, 150 + k] for k, v in enumerate(chosen)]
        assert len(classes) * g.m >= paths.SPLIT_WORK  # it splits unpatched

    def test_a_chunk_needs_its_share_of_the_work(self, monkeypatch, full_suite):
        def cpus(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

        def splits(g):
            return paths._splits(len(orbits(g)), g.m)
        cpus(2)
        # passes x edges against SPLIT_WORK = 20,000
        assert (paths._splits(2, 9_999), paths._splits(2, 10_000)) == (False, True)
        assert not paths._splits(1, 10**6)
        # 366,600 on random(300), 11,700 on random(60)
        assert (splits(random_graph(300)), splits(random_graph(60))) == (True, False)
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(60,))
        thread.start()
        try:
            assert not paths._splits(2, 10_000)
        finally:
            done.set()
            thread.join(60)
        assert not thread.is_alive()
        cpus(1)
        assert not paths._splits(2, 10_000)
        cpus(64)
        # one pass each, and every small graph of the family and random suites
        for spec in (FamilySpec("hypercube", (8,)),
                     FamilySpec("circulant", (300, 1, 2, 3, 5, 8, 13)),
                     FamilySpec("windmill", (60, 5)), FamilySpec("complete", (60,))):
            assert not splits(generate(spec)), spec
        for name, g in full_suite:
            assert not splits(g), name
        monkeypatch.delattr(os, "fork")
        assert not paths._splits(2, 10_000)

    def test_the_analysis_records_the_orbits_of_its_pass(self, monkeypatch):
        for spec in (FamilySpec("hypercube", (8,)),
                     FamilySpec("circulant", (300, 1, 2, 3, 5, 8, 13)),
                     FamilySpec("windmill", (60, 5)), FamilySpec("complete", (60,))):
            g = generate(spec)
            an, forked = pass_on(monkeypatch, g, 2)
            assert (an.orbits, forked) == (orbits(g), 0), spec
        g = random_graph(300)
        for cpus in (2, 1):
            an, forked = pass_on(monkeypatch, g, cpus)
            assert (an.orbits, forked) == (orbits(g), cpus - 1)

    def test_one_cpu_or_no_fork_sweeps_one_chunk_here(self, monkeypatch):
        g = random_graph(300)
        split, forked = pass_on(monkeypatch, g, 2)
        assert forked == 1
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for name in FIELDS:
            assert getattr(all_pairs(g), name) == getattr(split, name), name
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.delattr(os, "fork")
        for name in FIELDS:
            assert getattr(all_pairs(g), name) == getattr(split, name), name

    @pytest.mark.parametrize("refused", ["pipe", "fork"])
    def test_no_pipe_or_process_sweeps_every_orbit_here(self, monkeypatch, refused):
        # a full descriptor table refuses the pipe, a full process table the
        # fork; either way no child runs and this process sweeps every orbit
        g = random_graph(150)
        one = pass_on(monkeypatch, g, 1)[0]
        calls, fork = [], os.fork

        def full(*args):
            raise OSError(errno.EMFILE, "Too many open files")

        def fork_refused():
            calls.append(1)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fork_refused)
        if refused == "pipe":
            monkeypatch.setattr(os, "pipe", full)
        fds = open_fds()
        split = all_pairs(g)
        assert len(calls) == (refused == "fork")
        for name in FIELDS:
            assert getattr(split, name) == getattr(one, name), name
        assert_nothing_left(fds)

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(60,))
        thread.start()
        try:
            assert pass_on(monkeypatch, random_graph(300), 2)[1] == 0
        finally:
            done.set()
            thread.join(60)
        assert not thread.is_alive()
        assert pass_on(monkeypatch, random_graph(300), 2)[1] == 1


class TestForkedChildren:
    """No child outlives the pass, and none fails it silently."""

    def test_a_disconnected_graph_is_refused_through_the_cli(self, monkeypatch,
                                                             capfd, tmp_path):
        # this process's half waits until the child has met the same
        # unreachable vertex: the child must end without a word of its own
        a, b = random_graph(100, 1), random_graph(100, 2)
        path = tmp_path / "two.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in a.edges()) +
                        "".join(f"{u + 100} {v + 100}\n" for u, v in b.edges()))
        parent, kernel = os.getpid(), paths.bfs

        def bfs_late_here(g, s):
            if os.getpid() == parent:
                time.sleep(0.2)
            return kernel(g, s)
        monkeypatch.setattr(paths, "bfs", bfs_late_here)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(paths, "SPLIT_WORK", 1)
        for command in ("compute", "check"):
            fds = open_fds()
            assert main([command, "--input", str(path)]) == 3
            assert capfd.readouterr().err == (
                "error: vertex 0 cannot reach every vertex; distance sums undefined\n")
            assert_nothing_left(fds)

    def test_a_failing_child_fails_the_pass(self, monkeypatch, capfd):
        parent, kernel = os.getpid(), paths.bfs

        def bfs_failing_in_children(g, s):
            if os.getpid() != parent:
                raise ValueError("planted cause")
            return kernel(g, s)
        monkeypatch.setattr(paths, "bfs", bfs_failing_in_children)
        fds = open_fds()
        with pytest.raises(RuntimeError, match="the forked half of the all-pairs "
                           r"pass failed \(wait status 256\)"):
            pass_on(monkeypatch, random_graph(150), 3)
        assert_nothing_left(fds)
        # the child says why on stderr before it ends
        assert "ValueError: planted cause" in capfd.readouterr().err

    def test_a_child_that_exits_with_failure_fails_the_pass(self, monkeypatch):
        # it writes every sum, then ends with status 3 in place of 0
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_(3))
        fds = open_fds()
        with pytest.raises(RuntimeError, match=r"pass failed \(wait status 768\)"):
            pass_on(monkeypatch, random_graph(150), 2)
        assert_nothing_left(fds)

    def test_an_interrupted_parent_kills_its_children(self, monkeypatch):
        # the child would sweep for a minute; the parent stops at its first
        # source, and must not wait for it
        parent, kernel = os.getpid(), paths.bfs

        def bfs_interrupted(g, s):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return kernel(g, s)
        monkeypatch.setattr(paths, "bfs", bfs_interrupted)
        start = time.perf_counter()
        fds = open_fds()
        with pytest.raises(KeyboardInterrupt) as interrupted:
            pass_on(monkeypatch, random_graph(150), 4)
        assert time.perf_counter() - start < 30
        # while its traceback keeps the pass's frame, and so its pipe, alive
        assert interrupted.traceback
        assert_nothing_left(fds)

    @pytest.mark.slow
    def test_exact_identities_at_2000(self, monkeypatch):
        """Four exact identities on the split pass over random-min-degree-2
        (2000), seed 1, far past the oracle's 300 vertices.  The right-hand
        sides come from the oracle's own BFS and path counts, one source at a
        time, and the pass computes nothing through them."""
        g = random_graph(2000)
        an, forked = pass_on(monkeypatch, g, 2)
        assert forked == 1
        detour_sum = stress_sum = at_two = 0
        for s in range(g.n):
            dist = _bfs_levels(g, s)
            sigma = _path_counts(g, dist)
            detour_sum += sum(d - 1 for d in dist if d)
            stress_sum += sum(p * (d - 1) for p, d in zip(sigma, dist) if d)
            at_two += dist.count(2)
        # sum_v BC(v) = sum over s != t of (d(s, t) - 1)
        assert exact_sum(x.as_integer_ratio() for x in an.betweenness) == detour_sum
        # sum_v Str(v) = sum over s != t of sigma(s, t) * (d(s, t) - 1)
        assert sum(an.stress) == stress_sum
        # sum_i BC(i, N(i)) = the ordered pairs at distance 2
        assert exact_sum(p.betweenness.as_integer_ratio()
                         for p in profiles(an)) == at_two
        # both fields fold sum over s, t in N(i) of d(s, t)
        for i in range(g.n):
            assert (sum(k * c for k, c in an.pair_sums[i].items()) ==
                    sum(x * c for x, c in an.pair_hists[i].items())), i


class TestGlobalMetrics:
    def test_complete_k4(self):
        g = complete(4)
        dd = all_pairs(g)
        assert diameter(dd) == 1
        assert avg_path_length(dd) == 1
        assert global_efficiency(dd) == 1
        assert density(g) == 1

    def test_c5(self):
        g = cycle(5)
        dd = all_pairs(g)
        assert diameter(dd) == 2
        assert avg_path_length(dd) == Fraction(3, 2)
        assert global_efficiency(dd) == Fraction(3, 4)
        assert density(g) == Fraction(1, 2)

    def test_c4(self):
        g = cycle(4)
        dd = all_pairs(g)
        assert diameter(dd) == 2
        assert avg_path_length(dd) == Fraction(4, 3)
        assert density(g) == Fraction(2, 3)

    def test_density_needs_two_vertices(self):
        with pytest.raises(PreconditionError, match="^density needs at least 2 vertices$"):
            density(Graph([], 1))

    def test_efficiency_and_length_bounds(self, full_suite):
        for name, g in full_suite[:40]:
            dd = all_pairs(g)
            eg = global_efficiency(dd)
            apl = avg_path_length(dd)
            assert 0 < eg <= 1, name
            assert apl >= 1, name
            complete_graph = g.m == g.n * (g.n - 1) // 2
            assert (eg == 1) == complete_graph, name
            assert (apl == 1) == complete_graph, name
            # harmonic vs arithmetic mean of the same distance multiset
            assert 1 / apl <= eg, name


@st.composite
def connected_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=3, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    g = Graph(edges, n)
    if not is_connected(g):
        # connect greedily along the vertex order; keeps the sample broad
        extra = [(i, i + 1) for i in range(n - 1)]
        g = Graph(sorted(set(edges) | set(extra)), n)
    return g


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_bfs_matches_enumeration(g):
    pe = enumerate_shortest_paths(g)
    for s in range(g.n):
        order, dist, sigma = bfs(g, s)
        assert sorted(order) == list(range(g.n)) and order[0] == s
        assert all(dist[a] <= dist[b] for a, b in zip(order, order[1:]))
        for t in range(g.n):
            if s == t:
                continue
            assert dist[t] == pe.dist[s][t]
            assert sigma[t] == pe.count(s, t)


@given(connected_graphs(max_n=10))
# two diamonds in a row: sigma(0, 3) = sigma(3, 6) = 2, and 4 paths through 3
@example(Graph([(0, 1), (0, 2), (1, 3), (2, 3),
                (3, 4), (3, 5), (4, 6), (5, 6)], 7))
@settings(max_examples=60, deadline=None)
def test_oracle_counts_match_enumeration(g):
    """Betweenness, stress and BC(i, N(i)) counted on the enumerated paths
    equal the oracle's sigma(s, i) * sigma(i, t) / sigma(s, t) sums."""
    pe = enumerate_shortest_paths(g)
    slow = oracle_measures(g)
    slow_profiles = oracle_neighborhood_profiles(g)

    def through(s, t, i):
        return sum(1 for p in pe.paths[(s, t)] if i in p[1:-1])

    def bc(i, ends):
        return sum((Fraction(through(s, t, i), pe.count(s, t))
                    for s in ends for t in ends if i != s != t != i), Fraction(0))

    everyone = range(g.n)
    for i in everyone:
        assert slow.stress[i] == sum(through(s, t, i) for s in everyone
                                     for t in everyone if i != s != t != i)
        assert slow.betweenness[i] == bc(i, everyone)
        assert slow_profiles[i].betweenness == bc(i, g.neighbors(i))


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_triangle_inequality(g):
    dist, _ = rows(g)
    for s in range(g.n):
        for t in range(g.n):
            for u in range(g.n):
                assert dist[s][t] <= dist[s][u] + dist[u][t]


def fraction_sum(terms):
    return sum((Fraction(p, q) for p, q in terms), Fraction(0))


NUMERATORS = st.integers(min_value=-10 ** 9, max_value=10 ** 9)
PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


class TestExactSum:
    def test_empty(self):
        total = exact_sum([])
        assert isinstance(total, Fraction) and total == 0

    @given(st.lists(st.tuples(NUMERATORS, st.integers(1, 10 ** 6)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_sum(self, terms):
        assert exact_sum(terms) == fraction_sum(terms)

    @given(st.lists(st.integers(1, 10 ** 6), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_zero_numerators(self, denominators):
        assert exact_sum((0, q) for q in denominators) == 0

    @given(st.integers(1, 10 ** 6), st.lists(NUMERATORS, max_size=60),
           st.lists(st.tuples(NUMERATORS, st.integers(1, 50)), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_repeated_denominators(self, q, numerators, others):
        terms = [(p, q) for p in numerators] + others + [(p, q) for p in numerators]
        assert exact_sum(terms) == fraction_sum(terms)

    @given(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=len(PRIMES),
                    unique=True), st.data())
    @settings(max_examples=50, deadline=None)
    def test_many_pairwise_coprime_denominators(self, primes, data):
        terms = [(data.draw(NUMERATORS), p) for p in primes]
        assert exact_sum(terms) == fraction_sum(terms)
        assert exact_sum((1, p) for p in primes).denominator == math.prod(primes)


class TestMean:
    def test_no_values_is_zero(self):
        total = weighted_mean([])
        assert isinstance(total, Fraction) and total == 0

    @given(st.lists(st.fractions(max_denominator=10 ** 6), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_mean(self, values):
        # once each, and the k-th value k + 1 times, as an orbit of k + 1 members
        pairs = [x.as_integer_ratio() for x in values]
        assert weighted_mean((p, q, 1) for p, q in pairs) == sum(values, Fraction(0)) / len(values)
        repeated = [x for k, x in enumerate(values) for _ in range(k + 1)]
        assert (weighted_mean((p, q, k + 1) for k, (p, q) in enumerate(pairs))
                == sum(repeated, Fraction(0)) / len(repeated))
