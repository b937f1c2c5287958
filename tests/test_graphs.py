"""Graph construction, validation, generators, and file formats."""

import hashlib
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrel import (FamilySpec, Graph, generate, is_connected, load_graph,
                     read_edge_list_text, read_json_graph, to_edge_list_text,
                     to_json_graph)
from centrel.graphs import (FAMILIES, FamilyParameterError, GraphFormatError,
                            PreconditionError, parse_family)


class TestConstructor:
    def test_triangle(self):
        g = Graph([(0, 1), (1, 2), (2, 0)], 3)
        assert g.n == 3 and g.m == 3
        assert g.degrees() == [2, 2, 2]

    def test_duplicate_collapsed(self):
        g = Graph([(0, 1), (1, 0)], 2)
        assert g.m == 1
        assert g.duplicates_collapsed

    def test_no_duplicates_flag_clear(self):
        g = Graph([(0, 1), (1, 2)], 3)
        assert not g.duplicates_collapsed

    def test_no_vertex_rejected(self):
        with pytest.raises(GraphFormatError, match="^vertex count must be at least 1$"):
            Graph([], 0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph([(0, 0)], 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph([(0, 3)], 3)

    def test_size_cap_refused(self):
        with pytest.raises(PreconditionError, match="too large"):
            Graph([], 20_001)
        assert Graph([], 20_000).n == 20_000

    def test_label_table_size_checked(self):
        assert Graph([(0, 1)], 2, labels=["a", "b"]).label_of(1) == "b"
        with pytest.raises(GraphFormatError, match="label table size"):
            Graph([(0, 1)], 2, labels=["a"])

    def test_neighbors_sorted(self):
        g = Graph([(2, 0), (0, 1), (0, 3)], 4)
        assert g.neighbors(0) == (1, 2, 3)

    def test_adjacency_is_symmetric(self):
        g = Graph([(0, 1), (2, 1)], 3)
        for i in range(3):
            for j in g.neighbors(i):
                assert g.adjacent(j, i)


# A few legal parameter sets per family, the smallest first; the random
# family is drawn at each of RANDOM_SEEDS.
FAMILY_CONTRACT = {
    "complete": [(2,), (3,), (5,)],
    "cycle": [(3,), (7,)],
    "circulant": [(3, 1), (4, 1, 2), (9, 2), (9, 1, 3), (10, 1, 5)],
    "hypercube": [(2,), (4,)],
    "windmill": [(1, 3), (2, 3), (3, 4)],
    "friendship": [(1,), (4,)],
    "complete-with-glued-4-cycles": [(1,), (2,), (4,)],
    "random-min-degree-2": [(3,), (12,), (15,)],
}
RANDOM_SEEDS = (0, 1, 3)


class TestGenerators:
    def test_complete_4(self):
        g = generate(FamilySpec("complete", (4,)))
        assert g.n == 4 and g.m == 6
        assert all(d == 3 for d in g.degrees())

    def test_windmill_2_3(self):
        g = generate(FamilySpec("windmill", (2, 3)))
        assert g.n == 5 and g.m == 6
        assert g.degree(0) == 4
        assert all(g.degree(i) == 2 for i in range(1, 5))
        assert [t for t in combinations(range(g.n), 3)  # the two triangles
                if all(g.adjacent(a, b) for a, b in combinations(t, 2))] == [
            (0, 1, 2), (0, 3, 4)]

    def test_friendship_equals_windmill_k3(self):
        f = generate(FamilySpec("friendship", (3,)))
        w = generate(FamilySpec("windmill", (3, 3)))
        assert f.edges() == w.edges()

    def test_glued_4_cycles_3(self):
        g = generate(FamilySpec("complete-with-glued-4-cycles", (3,)))
        assert g.n == 12
        assert sorted(g.degrees()) == [2] * 9 + [4] * 3
        assert g.min_degree() == 2

    def test_windmill_counts(self):
        for eta in range(1, 5):
            for k in range(3, 6):
                g = generate(FamilySpec("windmill", (eta, k)))
                assert g.n == 1 + eta * (k - 1)
                assert g.m == eta * k * (k - 1) // 2

    @pytest.mark.parametrize("eta, eta_max, k", [(1, 1, 3), (1, 4, 3), (2, 5, 3),
                                                 (3, 3, 4), (2, 7, 5), (6, 9, 6)])
    def test_smaller_windmill_is_a_vertex_prefix_of_a_larger_one(self, eta, eta_max, k):
        # the sweep reads windmill(eta, k) off windmill(eta_max, k) this way
        small = generate(FamilySpec("windmill", (eta, k)))
        large = generate(FamilySpec("windmill", (eta_max, k)))
        s = 1 + eta * (k - 1)
        assert small.n == s
        assert [small.neighbors(v) for v in range(s)] == [
            tuple(u for u in large.neighbors(v) if u < s) for v in range(s)]

    def test_complete_and_cycle_counts(self):
        for n in range(3, 9):
            assert generate(FamilySpec("complete", (n,))).m == n * (n - 1) // 2
            assert generate(FamilySpec("cycle", (n,))).m == n

    def test_hypercube(self):
        g = generate(FamilySpec("hypercube", (3,)))
        assert g.n == 8 and g.m == 12
        assert all(d == 3 for d in g.degrees())

    def test_circulant(self):
        g = generate(FamilySpec("circulant", (8, 1, 2)))
        assert all(d == 4 for d in g.degrees())

    def test_all_families_connected_min_degree_2(self):
        # generate checks connectivity but not the degree: this contract keeps
        # every family but K_2 inside the relations' hypothesis
        for family in FAMILIES:
            seeds = RANDOM_SEEDS if family == "random-min-degree-2" else (None,)
            for params in FAMILY_CONTRACT[family]:
                for seed in seeds:
                    spec = FamilySpec(family, params, seed=seed)
                    g = generate(spec)
                    assert is_connected(g), spec.name()
                    if (family, params) != ("complete", (2,)):
                        assert g.min_degree() >= 2, spec.name()

    def test_random_family_deterministic(self):
        a = generate(FamilySpec("random-min-degree-2", (20,), seed=11))
        b = generate(FamilySpec("random-min-degree-2", (20,), seed=11))
        c = generate(FamilySpec("random-min-degree-2", (20,), seed=12))
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()

    def test_parameter_validation(self):
        with pytest.raises(FamilyParameterError):
            FamilySpec("windmill", (2,))
        with pytest.raises(FamilyParameterError):
            generate(FamilySpec("windmill", (1, 2)))
        with pytest.raises(FamilyParameterError):
            FamilySpec("no-such-family", (3,))
        with pytest.raises(FamilyParameterError):
            FamilySpec("cycle", (0,))

    def test_disconnected_circulant_rejected(self):
        with pytest.raises(FamilyParameterError):
            generate(FamilySpec("circulant", (6, 2)))

    def test_complete_2_is_k2(self):
        # the one family graph of minimum degree 1: the relation check, not
        # the generator, refuses it
        g = generate(FamilySpec("complete", (2,)))
        assert (g.n, g.m, g.degrees()) == (2, 1, [1, 1])

    def test_parse_family(self):
        spec = parse_family("windmill", "2,3")
        assert spec.family == "windmill" and spec.params == (2, 3)
        with pytest.raises(FamilyParameterError):
            parse_family("windmill", "2,x")


# Every family in its listed order: one instance (params, seed) and the
# SHA-256 of its edge-list text.
FAMILY_INSTANCES = {
    "complete": ((5,), None,
                 "ba863e08cce39e19271278ac0df22f4c59abad25bb4e8c5cd60d5bc0f2b525d6"),
    "cycle": ((6,), None,
              "ad5857d08be18ea941efb52566f34fa5d316995352b95defa78404731a1d163d"),
    "circulant": ((8, 1, 3), None,
                  "fcae0a54ed904cd8edb7c6ac5eff9f1844cf535144618d1426d6db58df56c86b"),
    "hypercube": ((3,), None,
                  "6987ae2346b5aa85cf4e101a2a92c8d2b999cb242d4330927ce5c6c32accd7af"),
    "windmill": ((3, 4), None,
                 "6905a391e90a880d16d15f707d2228db97d7a0aab3ef05e561b5c8f88d222e54"),
    "friendship": ((3,), None,
                   "fac370749c511023aad2225d54167a68974bcca1115189175fe2b9de83298d8d"),
    "complete-with-glued-4-cycles": (
        (3,), None, "832235fc3192642108c781d7e61d069a3122561e03a951832630635037a00e91"),
    "random-min-degree-2": (
        (12,), 5, "db2f9946f5fbc31669ffb9c51ea85a4bc358434e3bf50728fd6ab91131de5573"),
}


class TestFamilyTable:
    @pytest.mark.parametrize("family", FAMILY_INSTANCES)
    def test_wrong_parameter_count_names_the_family(self, family):
        params = FAMILY_INSTANCES[family][0]
        # circulant takes two or more parameters, every other family a fixed count
        too_many_or_few = params[:1] if family == "circulant" else params + (3,)
        for bad in ((), too_many_or_few):
            with pytest.raises(FamilyParameterError,
                               match=f"parameters for {re.escape(family)}:"):
                FamilySpec(family, bad)

    @pytest.mark.parametrize("family, params", [("cycle", (4.9,)),
                                                ("windmill", (True, "3"))])
    def test_parameters_of_another_type_refused(self, family, params):
        # not converted: int(4.9) would build cycle(4), True windmill(1, 3)
        with pytest.raises(FamilyParameterError, match="positive integers"):
            FamilySpec(family, params)

    def test_only_a_family_that_reads_the_seed_shows_it(self):
        assert FamilySpec("cycle", (4,), seed=3).name() == "cycle(4)"
        assert (FamilySpec("random-min-degree-2", (12,), seed=3).name()
                == "random-min-degree-2(12)@seed=3")

    def test_a_seedless_random_spec_is_refused(self):
        # with no seed each graph would come from OS entropy under one name
        with pytest.raises(FamilyParameterError, match="^random-min-degree-2 needs a seed$"):
            FamilySpec("random-min-degree-2", (12,))

    def test_unknown_family_lists_every_family_in_order(self):
        with pytest.raises(FamilyParameterError) as exc:
            FamilySpec("moebius", (5,))
        assert str(exc.value).endswith("known: " + ", ".join(FAMILY_INSTANCES))

    @pytest.mark.parametrize("family", FAMILY_INSTANCES)
    def test_order_is_the_generated_vertex_count(self, family):
        params, seed, _ = FAMILY_INSTANCES[family]
        spec = FamilySpec(family, params, seed=seed)
        assert spec.order() == generate(spec).n

    @pytest.mark.parametrize("family, params", [("hypercube", (40,)),
                                                ("complete", (20_001,))])
    def test_oversized_family_refused_before_it_is_built(self, unbuildable,
                                                        family, params):
        unbuildable(family)
        with pytest.raises(PreconditionError, match="too large"):
            generate(FamilySpec(family, params))

    def test_order_past_64_bits_builds_no_huge_integer(self):
        assert FamilySpec("hypercube", (63,)).order() == 1 << 63
        assert FamilySpec("hypercube", (10 ** 30,)).order() == float("inf")
        assert FamilySpec("windmill", (10 ** 3000, 10 ** 3000)).order() == float("inf")

    @pytest.mark.parametrize("family", FAMILY_INSTANCES)
    def test_edge_list_text_pinned(self, family):
        params, seed, digest = FAMILY_INSTANCES[family]
        text = to_edge_list_text(generate(FamilySpec(family, params, seed=seed)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPredicates:
    def test_is_connected(self, two_triangles):
        assert is_connected(generate(FamilySpec("complete", (4,))))
        assert not is_connected(two_triangles)
        assert is_connected(generate(FamilySpec("windmill", (5, 4))))


class TestFileFormats:
    def test_edge_list_round_trip(self):
        g = generate(FamilySpec("windmill", (2, 4)))
        g2 = read_edge_list_text(to_edge_list_text(g))
        assert g2.n == g.n and g2.edges() == g.edges()

    def test_json_round_trip(self):
        g = generate(FamilySpec("cycle", (6,)))
        g2 = read_json_graph(to_json_graph(g))
        assert g2.n == g.n and g2.edges() == g.edges()

    def test_labels_mapped_in_appearance_order(self):
        g = read_edge_list_text("alice bob\nbob carol # a comment\n\ncarol alice\n")
        assert g.n == 3 and g.m == 3
        assert g.labels == ("alice", "bob", "carol")
        assert g.label_of(0) == "alice"

    def test_header_preserves_isolated_vertex(self):
        g = read_edge_list_text("n=3\n0 1\n")
        assert g.n == 3 and g.degree(2) == 0
        assert not is_connected(g)

    @pytest.mark.parametrize("text, message", [
        ("n=x\n0 1\n", "line 1: bad vertex count 'n=x'"),
        ("n=0\n", "line 1: vertex count must be >= 1"),
        ("# n=2 in a comment\n\nn=2\nn=3\n0 1\n", "line 4: expected two labels, got 1"),
        ("0 1\nn=2\n", "line 2: expected two labels, got 1"),
        ("n=3\n0 a\n0 1 2\n", "labels must be integers in [0, n) when n= is declared"),
        ("a b\nb c\nc\n", "line 3: expected two labels, got 1"),
    ], ids=["bad-count", "zero", "second-header", "header-after-edge", "first-fault",
            "bad-line-after-edges"])
    def test_header_rules(self, text, message):
        # a header is read only before any other header or edge, and a file
        # is refused at its first fault
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            read_edge_list_text(text)

    def test_labels_keep_their_first_appearance(self):
        g = read_edge_list_text("z y\n3 z\nb 3\na y\n")
        assert g.labels == ("z", "y", "3", "b", "a")
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 4), (2, 3)]

    def test_header_requires_integer_labels(self):
        with pytest.raises(GraphFormatError):
            read_edge_list_text("n=3\na b\n")

    def test_bad_lines_rejected(self):
        with pytest.raises(GraphFormatError):
            read_edge_list_text("0 1 2\n")
        with pytest.raises(GraphFormatError):
            read_edge_list_text("# only a comment\n")

    def test_bad_json_rejected(self):
        with pytest.raises(GraphFormatError):
            read_json_graph("{not json")
        with pytest.raises(GraphFormatError):
            read_json_graph('{"n": 2}')
        with pytest.raises(GraphFormatError):
            read_json_graph('{"n": 2, "edges": [[0, 1, 2]]}')

    def test_load_graph_dispatches_on_extension(self, tmp_path):
        g = generate(FamilySpec("cycle", (5,)))
        edge_path = tmp_path / "g.edges"
        json_path = tmp_path / "g.json"
        edge_path.write_text(to_edge_list_text(g))
        json_path.write_text(to_json_graph(g))
        assert load_graph(str(edge_path)).edges() == g.edges()
        assert load_graph(str(json_path)).edges() == g.edges()

    @pytest.mark.parametrize("name, text", [
        ("labelled.edges", "a b\nb c\nc a\n"),
        ("header.edges", "n=3\n0 1\n1 2\n2 0\n"),
        ("triangle.json", '{"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}'),
    ], ids=["labelled", "header", "json"])
    def test_byte_order_mark_is_dropped(self, tmp_path, name, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        (plain / name).write_bytes(text.encode("utf-8"))
        (marked / name).write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want, got = load_graph(str(plain / name)), load_graph(str(marked / name))
        assert (got.n, got.edges(), got.labels) == (want.n, want.edges(), want.labels)
        assert (got.n, got.m) == (3, 3)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return n, edges


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_graph_invariants_hold(data):
    n, edges = data
    g = Graph(edges, n)
    assert g.n == n
    assert g.m == len(edges)
    assert 2 * g.m == sum(g.degrees())
    for i in range(n):
        assert i not in g.neighbors(i)
    # round trip up to edge ordering
    assert sorted(g.edges()) == sorted(edges)
