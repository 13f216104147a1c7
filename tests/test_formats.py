"""File formats: parsing, serialization, round trips, error reporting."""

from fractions import Fraction

import pytest

from mmtw._bits import mask_of
from mmtw.decomposition import TreeDecomposition, validate
from mmtw.errors import InputError
from mmtw.formats import (parse_hypergraph, parse_td, serialize_hypergraph,
                          serialize_td)
from mmtw.generate import (random_decomposition, random_graph,
                           random_hypergraph, random_weights, rng_from_seed)
from mmtw.hypergraph import Hypergraph


def test_parse_p3():
    h = parse_hypergraph("p hg 3 2\ne 1 2\ne 2 3\n")
    assert h.n == 3 and h.edges == (0b011, 0b110)


def test_parse_weights_and_comments():
    text = "c a comment\np hg 2 1\ne 1 2\nw 1 3/2\nw 2 -1\n"
    h = parse_hypergraph(text)
    assert h.weights == (Fraction(3, 2), Fraction(-1))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_hypergraph("p hg 3 1\ne 1 4\n")
    with pytest.raises(InputError, match="line 3"):
        parse_hypergraph("p hg 3 2\ne 1 2\nz 9\n")
    with pytest.raises(InputError):
        parse_hypergraph("e 1 2\n")
    with pytest.raises(InputError, match="declares"):
        parse_hypergraph("p hg 3 2\ne 1 2\n")
    with pytest.raises(InputError):
        parse_hypergraph("p hg 2 1\ne 1 2\nw 1 1/0\n")


def test_hypergraph_round_trip():
    rng = rng_from_seed(60)
    for it in range(60):
        n = rng.randrange(1, 12)
        h = random_hypergraph(rng, n, rng.randrange(0, n + 3))
        if it % 3 == 0:
            h = Hypergraph(h.n, h.edges, tuple(random_weights(rng, n)))
        text = serialize_hypergraph(h)
        assert parse_hypergraph(text) == h
        assert serialize_hypergraph(parse_hypergraph(text)) == text


def test_degenerate_round_trips():
    cases = [
        Hypergraph(0, []),
        Hypergraph(1, []),                    # single isolated vertex
        Hypergraph(3, [0]),                   # empty edge
        Hypergraph(4, [0b0011]),              # isolated vertices 2, 3
        Hypergraph(2, [0b01, 0b11]),
    ]
    for h in cases:
        assert parse_hypergraph(serialize_hypergraph(h)) == h


def test_td_parse_and_round_trip():
    t = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert t.node_count == 2 and set(t.bags) == {0b011, 0b110}
    text = serialize_td(t, 3)
    t2 = parse_td(text)
    assert t2.bags == t.bags and t2.tree_edges == t.tree_edges
    # P5 under {1, 2}, {1, 2}, {2, 3}, {3, 4, 5}, and three equal bags on a
    # star: each b line is read as its own node and written back as it came
    for text, n in (("s td 4 3 5\nb 1 1 2\nb 2 1 2\nb 3 2 3\nb 4 3 4 5\n"
                     "1 2\n2 3\n3 4\n", 5),
                    ("s td 3 2 2\nb 1 1 2\nb 2 1 2\nb 3 1 2\n1 3\n2 3\n", 2)):
        assert serialize_td(parse_td(text), n) == text


def test_td_single_and_duplicate_edges():
    t = parse_td("s td 1 1 1\nb 1 1\n")
    assert t.node_count == 1
    t2 = parse_td("s td 2 1 2\nb 1 1\nb 2 2\n1 2\n2 1\n")
    assert t2.node_count == 2  # duplicate edge deduplicated


def test_td_errors():
    with pytest.raises(InputError):
        parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 3\n")  # unknown bag id
    with pytest.raises(InputError):
        parse_td("s td 3 2 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n3 1\n")  # cycle
    with pytest.raises(InputError):
        parse_td("s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 2\n")  # duplicate bag
    with pytest.raises(InputError):
        parse_td("s td 1 1 3\nb 1 1 2\n")  # exceeds declared max bag size
    with pytest.raises(InputError):
        parse_td("b 1 1\n")


def test_round_trip_preserves_validity():
    rng = rng_from_seed(61)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 10), 0.4)
        t = random_decomposition(rng, g)
        t2 = parse_td(serialize_td(t, g.n))
        assert validate(g, t2)
        assert t2.bags == t.bags


def test_vertex_and_weight_messages_are_word_for_word():
    # vertex lists are read in one loop and integer weights with int(); a
    # bad token still gets the message it got from the per-token reader
    for text, message in (
            ("p hg 3 1\ne 1 x 2\n", "line 2: non-integer vertex 'x'"),
            ("p hg 3 1\ne 1 0\n", "line 2: vertex 0 out of range 1..3"),
            ("p hg 3 1\ne 2 4\n", "line 2: vertex 4 out of range 1..3"),
            ("p hg 3 1\ne 4 x\n", "line 2: vertex 4 out of range 1..3"),
            ("p hg 2 0\nw 1 ²\n", "line 2: bad rational '²'"),
            ("p hg 2 0\nw 1 1/0\n", "line 2: bad rational '1/0'")):
        with pytest.raises(InputError) as err:
            parse_hypergraph(text)
        assert str(err.value) == message
    for text, message in (
            ("s td 1 2 3\nb 1 1 x\n", "line 2: non-integer vertex 'x'"),
            ("s td 1 2 3\nb 1 0 1\n", "line 2: vertex 0 out of range 1..3"),
            ("s td 1 2 3\nb 1 1 4\n", "line 2: vertex 4 out of range 1..3")):
        with pytest.raises(InputError) as err:
            parse_td(text)
        assert str(err.value) == message
    for token, weight in (("07", 7), ("3/2", Fraction(3, 2)), ("-1", -1)):
        h = parse_hypergraph(f"p hg 2 1\ne 1 2\nw 1 {token}\n")
        assert h.weights == (weight, 1)
        assert all(type(x) is Fraction for x in h.weights)
    assert parse_hypergraph("p hg 3 2\ne 3 1 1\ne\n").edges == (0, 0b101)


def test_tree_edge_messages_are_word_for_word():
    # a well-formed tree-edge line is read on a fast path; every other line
    # keeps the message of the general reader
    head = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n"
    for text, message in (
            (head + "1 3\n", "line 4: unknown bag id 3"),
            (head + "0 2\n", "line 4: unknown bag id 0"),
            (head + "2 -1\n", "line 4: unknown bag id -1"),
            (head + "1 x\n", "line 4: non-integer bag id"),
            (head + "y 2\n", "line 4: non-integer bag id"),
            (head + "1 2 3\n", "line 4: expected '<id1> <id2>'"),
            (head + "1\n", "line 4: expected '<id1> <id2>'"),
            ("1 2\n" + head, "line 1: tree edge before header"),
            ("c x\n1 2\n" + head, "line 2: tree edge before header")):
        with pytest.raises(InputError) as err:
            parse_td(text)
        assert str(err.value) == message
    # a two-token line that starts with c is a comment, wherever it stands
    t = parse_td("c 1\ns td 2 2 3\nc 1 2\nb 1 1 2\n  c2 x\nb 2 2 3\n"
                 "cc 7\n 2  1 \n\n")
    assert t.bags == (0b011, 0b110) and t.tree_edges == ((0, 1),)
    # ids read as int() reads them
    t = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n+2 01\n")
    assert t.tree_edges == ((0, 1),)
