"""End-to-end CLI behavior: subcommands, exit codes, JSON reports."""

import json
import os
import resource
import subprocess
import sys

import pytest

import mmtw.dp
from mmtw._bits import bits, mask_of
from mmtw.cli import _build_parser, _parse, main
from mmtw.formats import parse_td, serialize_hypergraph, serialize_td
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_cobipartite, random_decomposition,
                           rng_from_seed)
from mmtw.decomposition import (TreeDecomposition, single_bag, validate,
                                width)
from mmtw.hypergraph import Graph, Hypergraph
from mmtw.oracles import (chromatic_bruteforce, hom_bruteforce, independent_in,
                          mwis_bruteforce)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stats_and_json_schema(files, capsys):
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    code, out, err = run(capsys, "stats", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["status"] == "ok"
    assert doc["n"] == 3 and doc["m"] == 2


def test_stats_counts_vertices_in_no_edge(files, capsys):
    # vertex 1 is isolated; vertex 2 lies in a singleton edge only, and the
    # empty edge touches no vertex
    hg = files("iso.hg", serialize_hypergraph(Hypergraph(5, [0, 0b00100,
                                                             0b11001])))
    code, out, _ = run(capsys, "stats", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["isolated"] == 1 and doc["gaifman_edges"] == 3


def test_trace_example(files, capsys):
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    code, out, _ = run(capsys, "trace", "-S", "1,3", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == [[], [1, 3]]


def test_solve_mwis_example(files, capsys):
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    td = files("p3.td", "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "2" and doc["witness"] == [1, 3]


def test_solve_refuted_exit_code(files, capsys):
    c5 = cycle_graph(5)
    hg = files("c5.hg", serialize_hypergraph(c5))
    rng = rng_from_seed(1)
    td = files("c5.td", serialize_td(random_decomposition(rng, c5), 5))
    code, out, _ = run(capsys, "solve", "--problem", "color", "-k", "2",
                       hg, td, "--json")
    assert code == 10
    assert json.loads(out)["status"] == "refuted"
    k2 = files("k2.hg", serialize_hypergraph(complete_graph(2)))
    code, out, _ = run(capsys, "solve", "--problem", "hom", hg, td,
                       "--target", k2, "--json")
    assert code == 10


def test_decompose_revalidates_as_separate_invocations(files, capsys):
    # plain mode: stdout is the decomposition alone, the report goes to
    # stderr, and the payload is the one that --json carries
    k8 = complete_graph(8)
    hg = files("k8.hg", serialize_hypergraph(k8))
    code, out, err = run(capsys, "decompose", "-k", "1", hg)
    assert code == 0
    assert err.splitlines()[0] == "status: ok" and "width: " in err
    _, doc, _ = run(capsys, "decompose", "-k", "1", hg, "--json")
    assert json.loads(doc)["payload"] == out
    out_td = files("k8.td", out)
    code, _, _ = run(capsys, "validate", hg, out_td, "--json")
    assert code == 0
    code, out, _ = run(capsys, "width", hg, out_td, "--measure", "mu", "--json")
    assert code == 0
    assert json.loads(out)["width"] <= 10


def test_decompose_json_payload_validates(files, capsys):
    c5 = cycle_graph(5)
    hg = files("c5.hg", serialize_hypergraph(c5))
    code, out, _ = run(capsys, "decompose", "-k", "2", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    t = parse_td(doc["payload"])
    assert validate(c5, t)
    assert width(c5, t, "mu").width <= doc["width_bound"] == 33


def test_invalid_emitted_decomposition_is_an_internal_error(files, capsys,
                                                            monkeypatch):
    # one bag that misses vertex 3 covers neither it nor the edge {2, 3}
    monkeypatch.setattr("mmtw.cli.approximate_mu_tw",
                        lambda g, k: TreeDecomposition([0b011], []))
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    with pytest.raises(RuntimeError, match="^internal: "):
        main(["decompose", "-k", "1", hg])


@pytest.mark.parametrize("n", [40, 100, 200])
def test_decompose_long_cycles_exact_mu_width(files, capsys, n):
    # the final mu check stays within the oracle cap on long cycles
    cn = cycle_graph(n)
    hg = files(f"c{n}.hg", serialize_hypergraph(cn))
    code, out, _ = run(capsys, "decompose", "-k", "2", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    t = parse_td(doc["payload"])
    assert validate(cn, t)
    assert doc["width"] == width(cn, t, "mu").width <= 33
    if n == 40:
        # one bag of C40 measures 13, and the min-fill elimination that
        # answers in its place 2
        assert doc["width"] == 2
        assert width(cn, single_bag(cn), "mu").width == 13


def test_decompose_output_on_the_grid_is_solvable(files, capsys):
    # one bag of the 10x10 grid has mu-width 25, past what mwis can tabulate
    pairs = [(v, v + step) for v in range(100) for step in (1, 10)
             if v + step < 100 and (step == 10 or v % 10 < 9)]
    grid = Graph.from_pairs(100, pairs)
    hg = files("grid.hg", serialize_hypergraph(grid))
    code, out, _ = run(capsys, "decompose", "-k", "2", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 8
    td = files("grid.td", doc["payload"])
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "50"
    wit = mask_of(v - 1 for v in doc["witness"])
    assert wit.bit_count() == 50 and independent_in(grid, wit)


def test_invalid_input_exit_code(files, capsys):
    hg = files("bad.hg", "p hg 3 1\ne 1 4\n")
    code, out, err = run(capsys, "stats", hg, "--json")
    assert code == 2
    assert json.loads(out)["status"] == "invalid-input"
    assert "line 2" in err


def test_resource_exit_code(files, capsys):
    hg = files("k8.hg", serialize_hypergraph(complete_graph(8)))
    code, out, _ = run(capsys, "trace", "-S", "1,2,3", hg,
                       "--caps", "nodes=1", "--json")
    assert code == 20
    assert json.loads(out)["status"] == "resource-exceeded"


def test_trace_caps_bound_the_berge_leaf(files, capsys):
    # every edge lies in S, so the root answers with the blocker at once;
    # its transversals are still charged as nodes
    hg = files("k4.hg", serialize_hypergraph(complete_graph(4)))
    code, out, _ = run(capsys, "trace", "-S", "1,2,3,4", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4 and doc["nodes_explored"] == 5
    code, out, _ = run(capsys, "trace", "-S", "1,2,3,4", hg,
                       "--caps", "nodes=1", "--json")
    assert code == 20
    assert json.loads(out)["status"] == "resource-exceeded"
    # a 30-edge matching inside S has 2^30 transversals; the leaf stops at
    # the cap instead of enumerating them
    matching = Hypergraph(60, [3 << 2 * i for i in range(30)])
    hg = files("m30.hg", serialize_hypergraph(matching))
    code, out, _ = run(capsys, "trace", "-S", ",".join(map(str, range(1, 61))),
                       hg, "--caps", "nodes=1", "--json")
    assert code == 20
    assert json.loads(out)["nodes"] == 2


def test_recursion_depth_is_a_resource_exit(files, capsys):
    # the blocker trace recurses once per vertex of N[S] outside S; the
    # centre of the star K_{1,1199} has all 1200 vertices in N[S], past the
    # default interpreter stack, and the answer must be exit 20, not a
    # traceback
    star = Hypergraph(1200, [1 | 1 << v for v in range(1, 1200)])
    hg = files("star1200.hg", serialize_hypergraph(star))
    code, out, _ = run(capsys, "trace", "-S", "1", hg, "--json")
    assert code == 20
    doc = json.loads(out)
    assert doc["status"] == "resource-exceeded" and doc["error"]


def _limit_memory():
    # runs in the child only, before it starts Python
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


@pytest.mark.parametrize("case", ["color", "decompose"])
def test_out_of_memory_is_a_resource_exit(files, case):
    # under a 256 MB address-space limit, the 7-colouring of C8 in one bag
    # builds leaf rows past the limit, and so does the edge list of L^2 over
    # K_100's 4,950 edges; each must end in exit 20 with a report, not a
    # MemoryError traceback
    if case == "color":
        c8 = cycle_graph(8)
        hg = files("c8.hg", serialize_hypergraph(c8))
        td = files("c8.td", serialize_td(
            TreeDecomposition([c8.vertex_mask], []), 8))
        argv = ["solve", hg, td, "--problem", "color", "-k", "7"]
    else:
        hg = files("k100.hg", serialize_hypergraph(complete_graph(100)))
        argv = ["decompose", hg, "-k", "1"]
    src = os.path.dirname(os.path.dirname(mmtw.dp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "mmtw.cli", *argv, "--json"],
                          capture_output=True, text=True, env=env,
                          preexec_fn=_limit_memory, timeout=60)
    assert done.returncode == 20, done.stderr
    doc = json.loads(done.stdout)
    assert doc["status"] == "resource-exceeded"
    assert doc["error"] == "out of memory"


def test_trace_searches_only_the_closed_neighbourhood(files, capsys):
    # the ends of P_1200 have N[S] = {1, 2, 1199, 1200}: the middle of the
    # path is never branched on, so the trace answers at once
    hg = files("p1200.hg", serialize_hypergraph(path_graph(1200)))
    code, out, _ = run(capsys, "trace", "-S", "1,1200", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == [[], [1], [1200], [1, 1200]]


def test_rho_width_of_a_long_path_bag(files, capsys):
    # the rho search keeps its own stack, so one bag of 1200 path vertices
    # is measured, not refused at the interpreter's recursion limit
    p = path_graph(1200)
    hg = files("p1200.hg", serialize_hypergraph(p))
    td = files("p1200.td", serialize_td(TreeDecomposition([p.vertex_mask], []),
                                        p.n))
    code, out, _ = run(capsys, "width", hg, td, "--measure", "rho", "--json")
    assert code == 0
    assert json.loads(out)["width"] == 600


def test_mu_width_of_a_loose_path_searches_each_neighbourhood(files, capsys,
                                                              monkeypatch):
    # mu of a bag is searched on H[N[bag]] alone, so on the loose 3-uniform
    # path with 41 vertices each bag costs what its neighbourhood costs; a
    # search over all 41 vertices runs past even the default cap
    monkeypatch.setattr("mmtw.measures.ORACLE_CAP", 1_000)
    edges = [mask_of((i, i + 1, i + 2)) for i in range(0, 39, 2)]
    h = Hypergraph(41, edges)
    hg = files("loose41.hg", serialize_hypergraph(h))
    tree = [(i, i + 1) for i in range(len(edges) - 1)]
    td = files("loose41.td", serialize_td(TreeDecomposition(edges, tree), 41))
    code, out, _ = run(capsys, "width", hg, td, "--measure", "mu", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 2
    assert doc["per_bag"] == [1] + [2] * 18 + [1]


def test_a_width_oracle_cap_names_the_bag_of_the_file(files, capsys,
                                                      monkeypatch):
    # P5 under bags {1, 2}, {2, 3}, {3, 4, 5}: alpha of the third bag takes
    # two steps of the search, over a cap of one
    monkeypatch.setattr("mmtw.measures.ORACLE_CAP", 1)
    hg = files("p5.hg", serialize_hypergraph(path_graph(5)))
    td = files("p5.td", serialize_td(
        TreeDecomposition([0b00011, 0b00110, 0b11100], [(0, 1), (1, 2)]), 5))
    code, out, _ = run(capsys, "width", hg, td, "--measure", "alpha", "--json")
    assert code == 20
    doc = json.loads(out)
    assert doc["bag"] == 3 and doc["best"] == 1
    assert doc["error"] == "width oracle cap exceeded on bag 3"


# P5 under the b lines {1, 2}, {1, 2}, {2, 3}, {3, 4, 5}: the first two are
# equal and adjacent, and each line is read as its own node
P5_MERGED = "s td 4 3 5\nb 1 1 2\nb 2 1 2\nb 3 2 3\nb 4 3 4 5\n1 2\n2 3\n3 4\n"


def test_width_names_the_b_lines_of_a_file_whose_bags_merged(files, capsys,
                                                              monkeypatch):
    hg = files("p5.hg", serialize_hypergraph(path_graph(5)))
    td = files("p5.td", P5_MERGED)
    assert parse_td(P5_MERGED).node_count == 4
    code, out, _ = run(capsys, "width", hg, td, "--measure", "alpha", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["per_bag"] == [1, 1, 1, 2] and doc["witness_bag"] == 4
    monkeypatch.setattr("mmtw.measures.ORACLE_CAP", 1)
    code, out, _ = run(capsys, "width", hg, td, "--measure", "alpha", "--json")
    assert code == 20
    doc = json.loads(out)
    assert doc["bag"] == 4
    assert doc["error"] == "width oracle cap exceeded on bag 4"


def test_a_table_cap_names_the_b_line_of_a_file_whose_bags_merged(files,
                                                                  capsys):
    # the leaf of {3, 4, 5} has two 2-colourings, over a cap of one; in the
    # second file that bag is the line b 3 and the equal line b 4 after it
    hg = files("p5.hg", serialize_hypergraph(path_graph(5)))
    second = ("s td 4 3 5\nb 1 1 2\nb 2 2 3\nb 3 3 4 5\nb 4 3 4 5\n"
              "1 2\n2 3\n3 4\n")
    for text, bag in ((P5_MERGED, 4), (second, 3)):
        td = files("p5.td", text)
        code, out, _ = run(capsys, "solve", hg, td, "--problem", "color",
                           "-k", "2", "--caps", "table=1", "--json")
        assert code == 20
        doc = json.loads(out)
        assert doc["bag"] == bag
        assert doc["error"] == f"table cap exceeded at bag {bag}"


def test_a_mu_decompose_request_builds_the_conflict_index_once(
        files, capsys, monkeypatch):
    # line_square builds the index of P32's edges, and the width check of
    # each of the 31 bags reads it from the same Graph
    built = []
    build = Hypergraph.conflicts

    def spy(self):
        index = build(self)
        if not any(index is seen for seen in built):
            built.append(index)
        return index

    monkeypatch.setattr(Hypergraph, "conflicts", spy)
    hg = files("p32.hg", serialize_hypergraph(path_graph(32)))
    code, out, _ = run(capsys, "decompose", hg, "-k", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["measure"] == "mu" and doc["bags"] == 31 and doc["width"] == 1
    assert len(built) == 1


def test_rho_with_only_an_empty_edge(files, capsys):
    # vertex 1 lies in no edge, so rho(V) is infinite and decompose refutes;
    # an empty bag has rho 0
    hg = files("empty-edge.hg", "p hg 1 1\ne\n")
    code, out, err = run(capsys, "decompose", "-k", "1", "--measure", "rho",
                         hg)
    assert code == 10 and "lambda-tw exceeds k" in out
    assert "Traceback" not in err
    td = files("empty-bag.td", "s td 2 1 1\nb 1 1\nb 2\n1 2\n")
    code, out, _ = run(capsys, "width", hg, td, "--measure", "rho", "--json")
    assert code == 0
    assert json.loads(out)["per_bag"] == ["inf", 0]


def test_covering_solves_ignore_the_trace_caps(files, capsys, monkeypatch):
    # nodes bounds the blocker trace, which only mwis reads
    c5 = cycle_graph(5)
    hg = files("c5.hg", serialize_hypergraph(c5))
    k2 = files("k2.hg", serialize_hypergraph(complete_graph(2)))
    t = TreeDecomposition([0b00111, 0b01101, 0b11001], [(0, 1), (1, 2)])
    td = files("c5.td", serialize_td(t, 5))
    for k in (2, 3):
        code, out, _ = run(capsys, "solve", "--problem", "color", "-k", str(k),
                           hg, td, "--caps", "nodes=1", "--json")
        want = chromatic_bruteforce(c5, k)
        assert code == (0 if want else 10)
        assert json.loads(out)["colorable"] == want
    code, out, _ = run(capsys, "solve", "--problem", "hom", hg, td,
                       "--target", k2, "--caps", "nodes=1", "--json")
    assert code == 10
    assert json.loads(out)["homomorphic"] == hom_bruteforce(c5, complete_graph(2))
    # with every candidate left to the trace, as in a merge that meets an
    # undecided one
    monkeypatch.setattr(mmtw.dp._MergeTrace, "_settle", lambda self, a: None)
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td,
                       "--caps", "nodes=1", "--json")
    assert code == 20


def undecided_files(files):
    """An .hg and .td where bag 1 = {1, 2, 3, 5} merges its child, vertices
    0-4, and meets the candidate {5}: the greedy blocks 1 with 4, and 2 is
    then left with 0, which 4 blocks, so the search settles it.  5 and 6
    are isolated, and keep each bag out of its neighbours' bags."""
    g = Hypergraph(7, [mask_of(e) for e in ((0, 2), (0, 3), (2, 3), (0, 4),
                                            (1, 4), (3, 4))])
    t = TreeDecomposition([0b1100000, 0b0101110, 0b0011111],
                          [(0, 1), (1, 2)])
    return (g, files("undecided.hg", serialize_hypergraph(g)),
            files("undecided.td", serialize_td(t, 7)))


def test_a_trace_cap_on_an_undecided_merge_names_the_bag(files, capsys,
                                                         monkeypatch):
    # with the search handing {} over, the trace runs there and exceeds
    # nodes=1
    monkeypatch.setattr(mmtw.dp._MergeTrace, "_search",
                        lambda self, a, rest: None)
    _, hg, td = undecided_files(files)
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td,
                       "--caps", "nodes=1", "--json")
    assert code == 20
    doc = json.loads(out)
    # node 1, the file's bag 2
    assert doc["bag"] == 2 and "trace cap exceeded at bag 2" in doc["error"]
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td, "--json")
    assert code == 0


def test_a_merge_the_search_settles_answers_under_any_trace_cap(files,
                                                                capsys):
    g, hg, td = undecided_files(files)
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td,
                       "--caps", "nodes=1", "--json")
    assert code == 0
    assert json.loads(out)["value"] == str(mwis_bruteforce(g)[0])


def test_reduce_outputs_parse(files, capsys):
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    from mmtw.formats import parse_hypergraph
    code, out, _ = run(capsys, "reduce", hg, "l2", "--json")
    assert code == 0
    doc = json.loads(out)
    g = parse_hypergraph(doc["payload"])
    assert g.n == 2 and len(g.edges) == 1
    assert "c map 1 edge 1 2" in doc["payload"]
    code, out, _ = run(capsys, "reduce", hg, "m", "--json")
    assert code == 0
    g2 = parse_hypergraph(json.loads(out)["payload"])
    assert g2.n == 6 and len(g2.edges) == 5


def test_bad_caps_rejected(files, capsys):
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    code, _, _ = run(capsys, "trace", "-S", "1", hg, "--caps", "bogus=3")
    assert code == 2


def test_caps_rejected_where_unread(files, capsys):
    # --caps exists only on trace and solve, the subcommands that read it
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    td = files("p3.td", "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    with pytest.raises(SystemExit) as info:
        main(["validate", hg, td, "--caps", "nodes=1"])
    assert info.value.code == 2


def test_decompose_has_no_table_cap(files, capsys):
    # table bounds DP tables only; separator guesses have their own fixed cap
    hg = files("p40.hg", serialize_hypergraph(path_graph(40)))
    with pytest.raises(SystemExit) as info:
        main(["decompose", "-k", "1", hg, "--caps", "table=1"])
    assert info.value.code == 2


@pytest.mark.parametrize("measure", ["kappa", "mu"])
def test_decompose_offers_only_the_well_behaved_measures(files, capsys,
                                                         measure):
    # kappa and mu are bag measures but not well-behaved; mu is decompose's
    # default, reached through L^2 rather than by name
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    with pytest.raises(SystemExit) as info:
        main(["decompose", "-k", "1", hg, "--measure", measure])
    assert info.value.code == 2


def test_trace_has_no_table_cap(files, capsys):
    # trace builds no DP table, so table is an unknown cap there; solve,
    # which does, takes both.  Neither takes a depth cap: nodes bounds the
    # trace's depth too
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    code, out, err = run(capsys, "trace", "-S", "1", hg, "--caps", "table=0",
                         "--json")
    assert code == 2
    assert json.loads(out)["error"] == "unknown cap 'table'; known: nodes"
    assert "unknown cap 'table'" in err
    code, _, _ = run(capsys, "trace", "-S", "1", hg, "--caps", "nodes=5")
    assert code == 0
    td = files("p3.td", "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    code, _, _ = run(capsys, "solve", hg, td, "--problem", "mwis", "--caps",
                     "nodes=5,table=100")
    assert code == 0
    code, out, _ = run(capsys, "trace", "-S", "1", hg, "--caps", "depth=1",
                       "--json")
    assert code == 2
    assert json.loads(out)["error"] == "unknown cap 'depth'; known: nodes"
    code, out, _ = run(capsys, "solve", hg, td, "--problem", "mwis", "--caps",
                       "depth=1", "--json")
    assert code == 2
    assert json.loads(out)["error"] == \
        "unknown cap 'depth'; known: nodes, table"


def _path_bags_td(n):
    lines = [f"s td {n - 1} 2 {n}"]
    lines += [f"b {i} {i} {i + 1}" for i in range(1, n)]
    lines += [f"{i} {i + 1}" for i in range(1, n - 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [300, 1200])
def test_solve_mwis_long_paths(files, capsys, n):
    # each merge traces only its bag's closed neighbourhood, so the trace
    # depth no longer grows with the path
    p = path_graph(n)
    hg = files(f"p{n}.hg", serialize_hypergraph(p))
    td = files(f"p{n}.td", _path_bags_td(n))
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == str(n // 2)
    wit = mask_of(v - 1 for v in doc["witness"])
    assert wit.bit_count() == n // 2 and independent_in(p, wit)


def test_solve_mwis_fractional_weights(files, capsys):
    hg = files("frac.hg", "p hg 5 3\ne 1 2\ne 2 3 4\ne 4 5\nw 1 7/6\n"
                          "w 2 1/2\nw 3 5/4\nw 4 2/3\nw 5 -1/3\n")
    td = files("frac.td", "s td 3 3 5\nb 1 1 2\nb 2 2 3 4\nb 3 4 5\n1 2\n2 3\n")
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td)
    assert code == 0
    assert out == "status: ok\nproblem: mwis\nvalue: 37/12\nwitness: [1, 3, 4]\n"


def test_negative_caps_rejected(files, capsys):
    # a negative cap is bad input (exit 2), not a cap that fired (exit 20)
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    td = files("p3.td", "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    for caps in ("nodes=-5", "table=-1"):
        code, out, err = run(capsys, "solve", "--problem", "mwis", hg, td,
                             "--caps", caps, "--json")
        assert code == 2
        assert json.loads(out)["status"] == "invalid-input"
        assert "bad cap value" in err
    code, out, _ = run(capsys, "trace", "-S", "1,3", hg, "--caps", "nodes=-1",
                       "--json")
    assert code == 2
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td,
                       "--caps", "table=0", "--json")
    assert code == 20


def test_refutation_stops_before_a_bag_over_the_table_cap(files, capsys):
    # root bag: a perfect matching on 10 vertices, 2^5 = 32 maximal
    # independent sets, above table=10; child bag, processed first: a
    # triangle, which refutes -k 2 before the root's sets are enumerated
    t = 5
    pairs = [(2 * i, 2 * i + 1) for i in range(t)]
    a, b, c = 2 * t, 2 * t + 1, 2 * t + 2
    g = Hypergraph(2 * t + 3, [mask_of(e) for e in pairs + [(a, b), (b, c),
                                                            (a, c)]])
    hg = files("mt.hg", serialize_hypergraph(g))
    td = files("mt.td", serialize_td(TreeDecomposition(
        [(1 << (2 * t)) - 1, mask_of((a, b, c))], [(0, 1)]), g.n))
    code, out, _ = run(capsys, "solve", "--problem", "color", "-k", "2", hg,
                       td, "--caps", "table=10", "--json")
    assert code == 10
    assert json.loads(out)["colorable"] is False
    code, _, _ = run(capsys, "solve", "--problem", "color", "-k", "3", hg,
                     td, "--caps", "table=10")
    assert code == 20


def colour_2(files, capsys, n, pairs, bags, tree, cap):
    """``solve --problem color -k 2 --caps table=cap --json`` on the graph
    and decomposition given by vertex tuples: (exit code, report)."""
    g = Hypergraph(n, [mask_of(e) for e in pairs])
    hg = files("g.hg", serialize_hypergraph(g))
    td = files("g.td", serialize_td(TreeDecomposition(
        [mask_of(b) for b in bags], tree), n))
    code, out, _ = run(capsys, "solve", "--problem", "color", "-k", "2", hg,
                       td, "--caps", f"table={cap}", "--json")
    return code, json.loads(out)


def matching(first, t):
    return [(first + 2 * i, first + 2 * i + 1) for i in range(t)]


def test_a_merge_refutation_before_an_over_cap_leaf_exits_10(files, capsys):
    # C5 split over nodes 1 and 2: each leaf is 2-colourable, and their
    # merge, before the root in post-order, is empty; the root bag holds a
    # perfect matching with 2^5 maximal independent sets, above table=10
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    code, doc = colour_2(files, capsys, 15, c5 + matching(5, 5),
                         [range(5, 15), (0, 1, 2), (0, 2, 3, 4)],
                         [(0, 1), (1, 2)], 10)
    assert code == 10 and doc["colorable"] is False


def test_an_over_cap_leaf_before_a_refuting_leaf_exits_20(files, capsys):
    # the matching's bag is node 1, first in post-order; the triangle at the
    # root refutes, but only after it
    code, doc = colour_2(files, capsys, 13,
                         matching(0, 5) + [(10, 11), (11, 12), (10, 12)],
                         [(10, 11, 12), range(10)], [(0, 1)], 10)
    assert code == 20   # node 1, the file's bag 2
    assert doc["bag"] == 2 and "table cap exceeded at bag 2" in doc["error"]


def test_a_refuting_leaf_comes_before_a_merge_over_the_cap(files, capsys):
    # node 2 (edge 01) merges node 3 (path 2-4-3, so 2 and 3 share a
    # colour): two tuples each, whose meets are four, above table=3.  The
    # triangle at node 1 comes after that merge in post-order, and every
    # leaf is built before the first merge, so the triangle refutes
    code, doc = colour_2(files, capsys, 8,
                         [(0, 1), (2, 4), (3, 4), (5, 6), (6, 7), (5, 7)],
                         [(0, 5), (5, 6, 7), (0, 1, 2, 3), (2, 3, 4)],
                         [(0, 1), (0, 2), (2, 3)], 3)
    assert code == 10 and doc["colorable"] is False
    # without the triangle, the merge at node 2 goes over the cap
    code, doc = colour_2(files, capsys, 8, [(0, 1), (2, 4), (3, 4)],
                         [(0, 5), (5, 6, 7), (0, 1, 2, 3), (2, 3, 4)],
                         [(0, 1), (0, 2), (2, 3)], 3)
    assert code == 20   # node 2, the file's bag 3
    assert doc["bag"] == 3 and doc["size"] == 4


def test_a_merge_over_the_cap_names_the_node_that_absorbed_node_0(
        files, capsys):
    # node 0 = {2, 3} lies inside node 1 = {0, 1, 2, 3}, which absorbs it,
    # takes node 2 = {2, 3, 4} (path 2-4-3) as its child and becomes the
    # root; that merge meets the two tuples of each table into four, above
    # table=3
    code, doc = colour_2(files, capsys, 5, [(0, 1), (2, 4), (3, 4)],
                         [(2, 3), (0, 1, 2, 3), (2, 3, 4)],
                         [(0, 1), (0, 2)], 3)
    assert code == 20   # node 1, the file's bag 2
    assert doc["bag"] == 2 and doc["size"] == 4
    assert "table cap exceeded at bag 2" in doc["error"]


def test_an_invalid_decomposition_that_contraction_would_repair_exits_2(
        files, capsys):
    # the tree w - u - v with bag(u) = {2} inside bag(v) = {1, 2, 3}: 1 lies
    # in w and v but not in u.  Contracting u into v would make the
    # decomposition valid, so validation has to come first
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    k2 = files("k2.hg", serialize_hypergraph(complete_graph(2)))
    td = files("wuv.td", serialize_td(TreeDecomposition(
        [0b011, 0b010, 0b111], [(0, 1), (1, 2)]), 3))
    for problem in (("mwis",), ("color", "-k", "2"), ("hom", "--target", k2)):
        code, _, _ = run(capsys, "solve", "--problem", *problem, hg, td)
        assert code == 2


def test_hom_validates_before_its_shortcuts(files, capsys):
    # H with no vertices, F with no vertices and F with an empty edge are
    # answered without the DP, and only after the decomposition is checked
    one_bag = files("one.td", "s td 1 1 2\nb 1 1\n")
    empty = files("empty.hg", "p hg 0 0\n")
    h2 = files("h2.hg", serialize_hypergraph(Hypergraph(2, [])))
    empty_edge = files("empty_edge.hg", serialize_hypergraph(
        Hypergraph(1, [0])))
    for hg, td, target in (
            (empty, files("outside.td", "s td 1 1 1\nb 1 1\n"),
             files("k2.hg", serialize_hypergraph(complete_graph(2)))),
            (h2, one_bag, empty),
            (h2, one_bag, empty_edge)):
        code, out, _ = run(capsys, "solve", "--problem", "hom", hg, td,
                           "--target", target, "--json")
        assert code == 2
        assert json.loads(out)["status"] == "invalid-input"
    # with a valid decomposition the three answers stand
    both = files("both.td", "s td 1 2 2\nb 1 1 2\n")
    none = files("none.td", "s td 1 0 0\nb 1\n")
    assert run(capsys, "solve", "--problem", "hom", empty, none,
               "--target", empty)[0] == 0
    assert run(capsys, "solve", "--problem", "hom", h2, both,
               "--target", empty)[0] == 10
    assert run(capsys, "solve", "--problem", "hom", h2, both,
               "--target", empty_edge)[0] == 0


def _two_colourable(adj):
    side = {}
    for root in range(len(adj)):
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in bits(adj[u]):
                if v not in side:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return False
    return True


@pytest.mark.parametrize("family,n,p", [("complete", 30, None),
                                        ("complete", 40, None),
                                        ("cobipartite", 4, 0.0),
                                        ("cobipartite", 12, 0.3),
                                        ("cobipartite", 40, 0.3)])
def test_solve_reads_one_bag_of_many_vertices(files, capsys, family, n, p):
    # mu <= 2 on both families, so decompose -k 2 answers with one bag of n
    # vertices; the solves bound its leaf table by the table cap, not by n.
    # Two cliques of two vertices and no cross edge are 2-colourable.
    rng = rng_from_seed(n)
    if family == "complete":
        g, weights, colours = complete_graph(n), [1] * n, 3
    else:
        g = random_cobipartite(rng, n, p)
        weights, colours = [rng.randint(0, 9) for _ in range(n)], 2
    hg = files(f"{family}{n}.hg",
               serialize_hypergraph(Hypergraph(n, g.edges, weights)))
    code, out, _ = run(capsys, "decompose", "-k", "2", hg)
    assert code == 0
    assert list(parse_td(out).bags) == [g.vertex_mask]
    td = files(f"{family}{n}.td", out)
    # an independent set meets each of the two cliques at most once
    adj = g.gaifman_adj()
    best = max(weights)
    for u in range(n):
        for v in bits(g.vertex_mask & ~adj[u] & ~((2 << u) - 1)):
            best = max(best, weights[u] + weights[v])
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td, "--json")
    assert code == 0
    assert json.loads(out)["value"] == str(best)
    want = colours == 2 and _two_colourable(adj)
    code, out, _ = run(capsys, "solve", "--problem", "color", "-k",
                       str(colours), hg, td, "--json")
    assert code == (0 if want else 10)
    assert json.loads(out)["colorable"] == want
    code, _, _ = run(capsys, "solve", "--problem", "mwis", hg, td,
                     "--caps", "table=0")
    assert code == 20


def test_a_hypergraph_that_is_not_utf8_is_invalid_input(tmp_path, capsys):
    hg = tmp_path / "bad.hg"
    hg.write_bytes(b"p hg 2 1\ne 1 2\nc \xff\n")
    code, out, err = run(capsys, "stats", str(hg), "--json")
    assert code == 2
    assert json.loads(out)["status"] == "invalid-input"
    assert f"{hg} is not UTF-8 text" in err


def test_a_decomposition_that_is_not_utf8_is_invalid_input(files, tmp_path,
                                                           capsys):
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    td = tmp_path / "bad.td"
    td.write_bytes(b"s td 1 3 3\nb 1 1 2 3\xfe\n")
    code, out, err = run(capsys, "solve", "--problem", "color", "-k", "2",
                         hg, str(td), "--json")
    assert code == 2
    assert json.loads(out)["status"] == "invalid-input"
    assert f"{td} is not UTF-8 text" in err


def test_crlf_line_ends_read_as_newlines(tmp_path, capsys):
    hg, td = tmp_path / "p3.hg", tmp_path / "p3.td"
    hg.write_bytes(b"p hg 3 2\r\ne 1 2\r\ne 2 3\r\n")
    td.write_bytes(b"s td 2 2 3\r\nb 1 1 2\r\nb 2 2 3\r\n1 2\r\n")
    code, out, _ = run(capsys, "validate", str(hg), str(td), "--json")
    assert code == 0 and json.loads(out)["valid"]


# valid argvs over every subcommand and its options, files named but not read
ROUTED_ARGVS = [
    ["decompose", "h.hg", "-k", "2"],
    ["decompose", "-k", "-1", "h.hg", "--measure", "alpha", "--json"],
    ["decompose", "h.hg", "-k", "1", "--measure=rho"],
    ["decompose", "-k1", "--js", "--", "-h.hg"],
    ["validate", "h.hg", "t.td"],
    ["validate", "--json", "h.hg", "t.td"],
    ["width", "h.hg", "t.td"],
    ["width", "h.hg", "t.td", "--measure", "kappa", "--json"],
    ["trace", "h.hg", "-S", "1,3"],
    ["trace", "-S", "", "h.hg", "--caps", "nodes=5", "--json"],
    ["solve", "h.hg", "t.td", "--problem", "mwis"],
    ["solve", "--problem", "color", "-k", "3", "h.hg", "t.td",
     "--caps", "table=9,nodes=2", "--json"],
    ["solve", "h.hg", "t.td", "--problem=hom", "--target", "f.hg"],
    ["reduce", "h.hg", "m"],
    ["reduce", "h.hg", "l2", "--json"],
    ["stats", "h.hg"],
    ["stats", "--json", "h.hg"],
]


@pytest.mark.parametrize("argv", ROUTED_ARGVS)
def test_a_subcommand_argv_parses_as_the_top_level_parser_does(argv):
    assert vars(_parse(argv)) == vars(_build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0), (["--version"], 0), ([], 2), (["bogus", "h.hg"], 2),
    (["solve", "h.hg", "t.td"], 2), (["stats", "-h"], 0)])
def test_argvs_that_name_no_runnable_command_exit(argv, code, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code


def test_an_unrecognized_argument_is_reported_under_the_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["stats", "h.hg", "--bogus"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mmtw stats ")
    assert "mmtw stats: error: unrecognized arguments: --bogus" in err


# one argv per subcommand, files named but not read
ONE_ARGV_PER_SUBCOMMAND = [
    ["decompose", "h.hg", "-k", "1"],
    ["validate", "h.hg", "t.td"],
    ["width", "h.hg", "t.td"],
    ["trace", "h.hg", "-S", "1"],
    ["solve", "h.hg", "t.td", "--problem", "mwis"],
    ["reduce", "h.hg", "m"],
    ["stats", "h.hg"],
]


def test_one_argv_per_subcommand_names_them_all():
    commands = _build_parser()._subparsers._group_actions[0].choices
    assert sorted(argv[0] for argv in ONE_ARGV_PER_SUBCOMMAND) == \
        sorted(commands)


@pytest.mark.parametrize("flag", ["-o", "--output"])
@pytest.mark.parametrize("argv", ONE_ARGV_PER_SUBCOMMAND)
def test_no_subcommand_takes_an_output_file(argv, flag, capsys):
    # a payload goes to stdout, or into the JSON report with --json
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, "out.txt"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} out.txt" in capsys.readouterr().err


@pytest.mark.parametrize("problem, extra, option", [
    ("mwis", ["-k", "2"], "-k"),
    ("hom", ["-k", "2"], "-k"),
    ("mwis", ["--target", "missing.hg"], "--target"),
    ("color", ["-k", "2", "--target", "missing.hg"], "--target"),
])
def test_solve_refuses_an_option_its_problem_does_not_read(
        files, capsys, problem, extra, option):
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    td = files("p3.td", "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    if problem == "hom":
        extra = [*extra, "--target",
                 files("k2.hg", serialize_hypergraph(complete_graph(2)))]
    code, out, _ = run(capsys, "solve", "--problem", problem, hg, td,
                       *extra, "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "invalid-input"
    assert doc["error"].startswith(f"{option} is read by ")
    assert doc["error"].endswith(f"not {problem}")


@pytest.mark.parametrize("problem, error", [("color", "color needs -k"),
                                            ("hom", "hom needs --target")])
def test_solve_without_the_option_its_problem_reads(files, capsys, problem,
                                                    error):
    hg = files("p3.hg", serialize_hypergraph(path_graph(3)))
    td = files("p3.td", "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    code, out, err = run(capsys, "solve", "--problem", problem, hg, td,
                         "--json")
    assert code == 2
    assert json.loads(out) == {"schema": 1, "status": "invalid-input",
                               "error": error}
    assert err == f"error: {error}\n"


def test_hom_on_a_hypergraph_that_is_not_uniform(files, capsys):
    # edges {1, 2} and {1, 2, 3} have two ranks
    hg = files("mixed.hg", serialize_hypergraph(Hypergraph(3, [0b011,
                                                               0b111])))
    td = files("one.td", "s td 1 3 3\nb 1 1 2 3\n")
    k2 = files("k2.hg", serialize_hypergraph(complete_graph(2)))
    code, out, _ = run(capsys, "solve", "--problem", "hom", hg, td,
                       "--target", k2, "--json")
    assert code == 2
    assert json.loads(out)["error"] == "hypergraphs must be uniform"


@pytest.mark.parametrize("flag", [(), ("--json",)])
def test_validate_reports_an_invalid_decomposition(files, capsys, flag):
    # the one bag misses vertex 3, so it covers neither 3 nor the edge {2, 3}
    p3 = path_graph(3)
    hg = files("p3.hg", serialize_hypergraph(p3))
    text = "s td 1 2 3\nb 1 1 2\n"
    reason = validate(p3, parse_td(text)).reason
    assert reason
    code, out, _ = run(capsys, "validate", hg, files("bad.td", text), *flag)
    assert code == 2
    if flag:
        assert json.loads(out) == {"schema": 1, "status": "invalid-input",
                                   "valid": False, "reason": reason}
    else:
        assert out.splitlines() == ["status: invalid-input", "valid: False",
                                    f"reason: {reason}"]


def test_decompose_words_each_refutation(files, capsys):
    # C30 has mu-tw above 1; without --measure the refutation names mu
    hg = files("c30.hg", serialize_hypergraph(cycle_graph(30)))
    code, out, _ = run(capsys, "decompose", "-k", "1", hg, "--json")
    assert code == 10
    assert json.loads(out) == {"schema": 1, "status": "refuted",
                               "reason": "mu-tw exceeds k", "k": 1}
    code, out, _ = run(capsys, "decompose", "-k", "1", "--measure", "alpha",
                       hg, "--json")
    assert code == 10
    assert json.loads(out) == {"schema": 1, "status": "refuted",
                               "reason": "lambda-tw exceeds k", "k": 1}
