"""End-to-end CLI behavior: subcommands, exit codes, JSON reports."""

import json

import pytest

from mmtw._bits import mask_of
from mmtw.cli import main
from mmtw.formats import parse_td, serialize_hypergraph, serialize_td
from mmtw.generate import (complete_graph, cycle_graph, path_graph,
                           random_decomposition, rng_from_seed)
from mmtw.decomposition import TreeDecomposition, validate, width
from mmtw.hypergraph import Hypergraph
from mmtw.oracles import chromatic_bruteforce, hom_bruteforce, independent_in


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


def test_decompose_revalidates_as_separate_invocations(files, capsys, tmp_path):
    k8 = complete_graph(8)
    hg = files("k8.hg", serialize_hypergraph(k8))
    out_td = str(tmp_path / "k8.td")
    code, out, _ = run(capsys, "decompose", "-k", "1", hg, "-o", out_td)
    assert code == 0
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
        assert doc["width"] == 13


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
    # its transversals are still charged as nodes one level down
    hg = files("k4.hg", serialize_hypergraph(complete_graph(4)))
    code, out, _ = run(capsys, "trace", "-S", "1,2,3,4", hg, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4 and doc["nodes_explored"] == 5
    for caps in ("nodes=1", "depth=0"):
        code, out, _ = run(capsys, "trace", "-S", "1,2,3,4", hg,
                           "--caps", caps, "--json")
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
    # the blocker trace recurses once per vertex; 1200 is past the default
    # interpreter stack, and the answer must be exit 20, not a traceback
    hg = files("p1200.hg", serialize_hypergraph(path_graph(1200)))
    code, out, _ = run(capsys, "trace", "-S", "1,1200", hg, "--json")
    assert code == 20
    doc = json.loads(out)
    assert doc["status"] == "resource-exceeded" and doc["error"]


def test_covering_solves_ignore_the_trace_caps(files, capsys):
    # nodes/depth bound the blocker trace, which only mwis reads
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
                       "--target", k2, "--caps", "nodes=1,depth=1", "--json")
    assert code == 10
    assert json.loads(out)["homomorphic"] == hom_bruteforce(c5, complete_graph(2))
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td,
                       "--caps", "nodes=1", "--json")
    assert code == 20


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


def test_selftest_deterministic(files, capsys):
    code, out1, _ = run(capsys, "selftest", "--seed", "7", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "selftest", "--seed", "7", "--json")
    assert out1 == out2


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
    for caps in ("nodes=-5", "depth=-1", "table=-1"):
        code, out, err = run(capsys, "solve", "--problem", "mwis", hg, td,
                             "--caps", caps, "--json")
        assert code == 2
        assert json.loads(out)["status"] == "invalid-input"
        assert "bad cap value" in err
    code, out, _ = run(capsys, "trace", "-S", "1,3", hg, "--caps", "depth=-1",
                       "--json")
    assert code == 2
    code, out, _ = run(capsys, "solve", "--problem", "mwis", hg, td,
                       "--caps", "table=0", "--json")
    assert code == 20
