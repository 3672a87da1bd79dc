"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import check  # noqa: E402
import clock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gaplab import cli, complete_graph, cycle_power, decide, graph_from_edges, path_power  # noqa: E402


def decide_output(g) -> str:
    result = decide(g)
    text = f"labelable: {'yes' if result.labelable else 'no'}\nassignments: {result.assignments_tried}\n"
    return text + (check.labels_text(result.witness) if result.witness else "")


def test_same_seed_same_corpus():
    assert workloads.corpus_graphs(3) == workloads.corpus_graphs(3)


def test_seed_changes_only_the_seeded_members():
    a, b = workloads.corpus_graphs(3), workloads.corpus_graphs(4)
    assert len(a) == len(b) == 181
    for (name, n, ea), (name_b, _, eb) in zip(a, b):
        assert name == name_b
        if not name.startswith("seeded"):
            assert ea == eb
    assert any(ea != eb for (name, _, ea), (_, _, eb) in zip(a, b) if name.startswith("seeded"))


def test_outlier_is_the_heavy_tail_instance():
    name, n, edges = workloads.corpus_graphs(1)[-1]
    assert name == "outlier-G(18,0.2)"
    assert decide(graph_from_edges(n, edges)).assignments_tried == 27418


def test_checker_accepts_true_answers():
    c82 = cycle_power(8, 2)
    assert check.check_decide(decide_output(c82), c82, None) == check.OK
    k4 = complete_graph(4)
    assert check.check_decide(decide_output(k4), k4, None) == check.OK
    assert check.check_decide(decide_output(k4), k4, False) == check.OK


def test_checker_rejects_tampered_witness():
    g = path_power(8, 2)
    lines = decide_output(g).splitlines()
    assert check.check_decide("\n".join(lines) + "\n", g, None) == check.OK
    lines[2:] = [f"{v} 7" for v in range(g.n)]  # one label everywhere: every gap is 0
    assert check.check_decide("\n".join(lines) + "\n", g, None).startswith("wrong")
    del lines[-1]  # a vertex missing
    assert check.check_decide("\n".join(lines) + "\n", g, None).startswith("wrong")


def test_checker_rejects_flipped_verdicts():
    g = path_power(8, 2)  # labelable
    assert check.check_decide("labelable: no\nassignments: 8\n", g, True).startswith("wrong")
    k4 = complete_graph(4)  # refuted by the shared-gap argument
    flipped = "labelable: yes\nassignments: 4\n" + check.labels_text((1, 2, 3, 4))
    assert check.check_decide(flipped, k4, None).startswith("wrong")
    assert check.check_decide("labelable: yes\nassignments: 4\n", k4, None).startswith("wrong")


def test_unprovable_no_is_uncertified_not_passed():
    g = path_power(8, 2)  # labelable, and the shared-gap test cannot refute it
    assert check.check_decide("labelable: no\nassignments: 8\n", g, None) == check.UNCERTIFIED


def test_lower_bound_table_check():
    out = cli_output(["strength-lb", "--nmax", "80"])
    assert check.check_lb_table(out, 80, 60) == check.OK
    tampered = out.replace("\n20,", "\n20,1", 1)
    assert check.check_lb_table(tampered, 80, 60).startswith("wrong")


def test_path_chi_certificate():
    assert workloads.path_chi(1200) == 2
    assert check.least_label_count(6, workloads.path_power_edges(6, 1), 3) == 2


def cli_output(argv) -> str:
    from contextlib import redirect_stdout
    from io import StringIO

    buf = StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_self_times_on_hand_built_tree():
    tree = [
        ("a", -1, 0.0, 10.0, 0, None),
        ("b", 0, 1.0, 4.0, 0, None),
        ("c", 1, 2.0, 3.0, 0, None),
        ("d", 0, 5.0, 9.0, 0, None),
        ("e", -1, 11.0, 12.5, 0, None),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_pass_totals_on_hand_built_tree():
    tree = [
        ("cli.main", -1, 0.0, 10.0, 0, None),
        ("graph.parse_graph", 0, 0.0, 2.0, 2_000_000, None),
        ("decide.decide", 0, 2.0, 9.0, 500, None),
        ("symmetry.orbit_representatives", 2, 2.0, 3.0, 4, None),
        ("cli.main", -1, 10.0, 11.0, 0, None),
        ("decide.decide", 4, 10.0, 10.5, 30000, "SearchBudgetExceeded"),
    ]
    t = spans.pass_totals(tree)
    assert t["cli.self_s"] == 1.0 + 0.5
    assert t["decide.self_s"] == 6.0 + 0.5
    assert t["graph.parse_mb"] == 2.0
    assert (t["decide.nodes"], t["decide.max_nodes"], t["decide.budget_exhausted"]) == (30500, 30000, 1)
    assert (t["symmetry.orbits_calls"], t["symmetry.orbit_count"]) == (1, 4)


class RaisingCli:
    def __init__(self, exc=None, code=0):
        self.exc, self.code = exc, code

    def main(self, argv):
        if self.exc is not None:
            raise self.exc
        return self.code


def make_runner(fake_cli):
    query = workloads.Query(name="q", argv=["decide"], check=lambda out: check.OK)
    return run.Runner([query], fake_cli, check, workloads.Outcome)


def test_raised_recursion_error_is_counted_not_propagated():
    runner = make_runner(RaisingCli(RecursionError("maximum recursion depth exceeded")))
    normalised, raw = runner.run_pass()
    assert len(normalised) == len(raw) == 1
    assert runner.failures() == {"q": "failed: RecursionError: maximum recursion depth exceeded"}
    assert runner.correct()


def test_budget_exhaustion_counts_as_failure():
    runner = make_runner(RaisingCli(code=3))
    runner.run_pass()
    assert runner.failures()["q"] == "failed: exit 3 (search budget exhausted)"


def test_changed_output_between_passes_is_wrong():
    fake = RaisingCli(code=0)
    runner = make_runner(fake)
    runner.run_pass()
    fake.code = 1
    runner.run_pass()
    assert not runner.correct()


def test_tracer_nests_spans_and_restores_functions(tmp_path):
    graph_file = tmp_path / "c62.graph"
    graph_file.write_text(check.graph_text(6, workloads.cycle_power_edges(6, 2)))
    original = cli.decide
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli_output_traced = tracer.call("cli.main", cli.main, ["decide", "--graph", str(graph_file)])
    finally:
        tracer.uninstall()
    assert cli_output_traced == 0
    assert cli.decide is original
    names = [s[0] for s in tracer.spans]
    parent = {s[0]: names[s[1]] if s[1] >= 0 else None for s in tracer.spans}
    assert parent["decide.decide"] == "cli.main"
    assert parent["symmetry.orbit_representatives"] == "decide.decide"
    decide_span = tracer.spans[names.index("decide.decide")]
    assert decide_span[4] == decide(cycle_power(6, 2)).assignments_tried


def test_normalise_uses_neighbouring_references():
    got = clock.normalise([0.002, 0.004], [0.001, 0.003, 0.001])
    assert got == [0.002 * 2 * 0.001 / 0.004, 0.004 * 2 * 0.001 / 0.004]


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in spans.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
