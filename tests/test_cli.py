import sys

import pytest

from gaplab import (
    DomainError,
    FamilySpec,
    build_family,
    complete_graph,
    family_labelling,
    parse_graph,
    parse_labelling,
    serialize_graph,
    serialize_labelling,
)
from gaplab import cli
from gaplab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_label_verify_flow(tmp_path, capsys):
    graph_file = tmp_path / "c62.graph"
    labels_file = tmp_path / "c62.labels"
    code, _, _ = run(capsys, "gen", "--family", "cycle-power", "--n", "6", "--k", "2",
                     "-o", str(graph_file))
    assert code == 0
    code, _, _ = run(capsys, "label", "--family", "cycle-power", "--n", "6", "--k", "2",
                     "-o", str(labels_file))
    assert code == 0
    assert parse_labelling(labels_file.read_text()) == (1, 2, 4, 1, 2, 4)
    code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                       "--labels", str(labels_file))
    assert code == 0
    assert out.strip() == "VALID"


@pytest.mark.parametrize("family, n, k", [
    ("complete", 3, None), ("complete", 5, None),
    ("path-power", 30, 3), ("path-power", 7, 4),
    ("cycle-power", 30, 4), ("cycle-power", 9, 3),
])
def test_gen_and_label_print_the_family_graph_and_labelling(capsys, family, n, k):
    spec = FamilySpec(family, n, k)
    flags = ["--family", family, "--n", str(n)] + ([] if k is None else ["--k", str(k)])
    assert run(capsys, "gen", *flags) == (0, serialize_graph(build_family(spec)), "")
    try:
        expected = (0, serialize_labelling(family_labelling(spec)), "")
    except DomainError as exc:
        expected = (1, "", f"error: {exc}\n")
    assert run(capsys, "label", *flags) == expected


def test_out_of_memory_exits_one(capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "build_family", exhausted)
    code, out, err = run(capsys, "gen", "--family", "complete", "--n", "100000000000")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_verify_reports_conflicts_and_fails(tmp_path, capsys):
    graph_file = tmp_path / "k4.graph"
    labels_file = tmp_path / "k4.labels"
    graph_file.write_text(serialize_graph(complete_graph(4)))
    labels_file.write_text("0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                       "--labels", str(labels_file))
    assert code == 1
    assert "INVALID" in out
    assert "conflict 0 3" in out and "conflict 1 2" in out


def test_decide_labelable_prints_witness(tmp_path, capsys):
    graph_file = tmp_path / "k3.graph"
    graph_file.write_text(serialize_graph(complete_graph(3)))
    code, out, _ = run(capsys, "decide", "--graph", str(graph_file))
    assert code == 0
    assert "labelable: yes" in out
    assert "assignments:" in out


def test_decide_deep_search_exits_cleanly(tmp_path, capsys):
    from gaplab import path_power

    graph_file = tmp_path / "p1200_2.graph"
    graph_file.write_text(serialize_graph(path_power(1200, 2)))
    code, out, err = run(capsys, "decide", "--graph", str(graph_file))
    assert code == 0
    assert "labelable: yes" in out
    assert "Traceback" not in err


def test_decide_refutation(tmp_path, capsys):
    graph_file = tmp_path / "k4.graph"
    graph_file.write_text(serialize_graph(complete_graph(4)))
    code, out, _ = run(capsys, "decide", "--graph", str(graph_file))
    assert code == 0
    assert "labelable: no" in out


def test_label_by_search_witness(tmp_path, capsys):
    graph_file = tmp_path / "k3.graph"
    graph_file.write_text(serialize_graph(complete_graph(3)))
    code, out, _ = run(capsys, "label", "--graph", str(graph_file))
    assert code == 0
    assert parse_labelling(out) == (31, 18, 25)


def test_label_fails_cleanly_on_unlabelable_graph(tmp_path, capsys):
    graph_file = tmp_path / "k4.graph"
    graph_file.write_text(serialize_graph(complete_graph(4)))
    code, _, err = run(capsys, "label", "--graph", str(graph_file))
    assert code == 1
    assert "not gap-vertex-labelable" in err


def test_label_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["label"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_chi_reports_value_and_cap(tmp_path, capsys):
    graph_file = tmp_path / "k3.graph"
    graph_file.write_text(serialize_graph(complete_graph(3)))
    code, out, _ = run(capsys, "chi", "--graph", str(graph_file), "--kmax", "5")
    assert code == 0 and out.strip() == "4"
    graph_file.write_text(serialize_graph(complete_graph(4)))
    code, out, _ = run(capsys, "chi", "--graph", str(graph_file), "--kmax", "5")
    assert code == 0 and out.strip() == "none <= 5"


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_bad_budget_env_var_exits_one(tmp_path, capsys, monkeypatch, raw):
    graph_file = tmp_path / "k6.graph"
    graph_file.write_text(serialize_graph(complete_graph(6)))
    monkeypatch.setenv("GAPLAB_SEARCH_BUDGET", raw)
    code, _, err = run(capsys, "decide", "--graph", str(graph_file))
    assert code == 1
    assert "GAPLAB_SEARCH_BUDGET" in err


def test_budget_env_var_gives_exit_three(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "k6.graph"
    graph_file.write_text(serialize_graph(complete_graph(6)))
    monkeypatch.setenv("GAPLAB_SEARCH_BUDGET", "2")
    code, _, err = run(capsys, "decide", "--graph", str(graph_file))
    assert code == 3
    assert "budget" in err


def test_chi_respects_budget_env(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "k3.graph"
    graph_file.write_text(serialize_graph(complete_graph(3)))
    monkeypatch.setenv("GAPLAB_SEARCH_BUDGET", "5")
    code, _, err = run(capsys, "chi", "--graph", str(graph_file), "--kmax", "5")
    assert code == 3 and "budget" in err


def test_strength_lb_emits_csv(capsys):
    code, out, _ = run(capsys, "strength-lb", "--nmax", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,lprime,general,omega"
    assert lines[1].startswith("4,1,1,")


def test_strength_ub_writes_prefix_files(tmp_path, capsys):
    prefix = tmp_path / "k15"
    code, out, _ = run(capsys, "strength-ub", "--n", "15", "-o", str(prefix))
    assert code == 0
    assert "removed: 27" in out
    assert "iteration: n=15 i=3 x=10" in out
    ledger_text = (tmp_path / "k15.removed").read_text()
    assert ledger_text.startswith("# removed from K_15")
    assert parse_graph(ledger_text).edge_count == 27
    labels = parse_labelling((tmp_path / "k15.labels").read_text())
    assert labels[0] == 1 << 14


def test_strength_exact_value(capsys):
    code, out, _ = run(capsys, "strength-exact", "--n", "4")
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("n, strength", [("5", "2"), ("6", "3")])
def test_strength_exact_larger_orders(capsys, n, strength):
    code, out, _ = run(capsys, "strength-exact", "--n", n)
    assert code == 0 and out.strip() == strength


def test_strength_exact_out_of_range(capsys):
    code, _, err = run(capsys, "strength-exact", "--n", "9")
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "complete"],
    ["gen", "--family", "path-power", "--n", "5"],
    ["label", "--family", "cycle-power", "--n", "9"],
    ["decide", "--graph", "F", "--workers", "2"],
    ["label", "--graph", "F", "--workers", "2"],
    ["strength-lb", "--nmax", "6", "--format", "csv"],
], ids=["gen-missing-n", "gen-missing-k", "label-missing-k", "decide-workers", "label-workers", "strength-lb-format"])
def test_usage_error_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 1\n1 1\n")
    code, _, err = run(capsys, "decide", "--graph", str(bad))
    assert code == 1
    assert "line 2" in err


def test_verify_reads_a_label_past_the_digit_limit(tmp_path, capsys):
    # P_3 with labels 1, 10^5000, 1: the ends take colour 10^5000, the centre 0.
    graph_file = tmp_path / "p3.graph"
    labels_file = tmp_path / "p3.labels"
    graph_file.write_text("3 2\n0 1\n1 2\n")
    labels_file.write_text("0 1\n1 1" + "0" * 5000 + "\n2 1\n")
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run(capsys, "verify", "--graph", str(graph_file), "--labels", str(labels_file))
    assert (code, out, err) == (0, "VALID\n", "")
    assert get_limit() == limit


def test_verify_names_a_negative_label_past_the_digit_limit(tmp_path, capsys):
    graph_file = tmp_path / "p3.graph"
    labels_file = tmp_path / "p3.labels"
    graph_file.write_text("3 2\n0 1\n1 2\n")
    labels_file.write_text("0 1\n1 -1" + "0" * 5000 + "\n2 1\n")
    code, out, err = run(capsys, "verify", "--graph", str(graph_file), "--labels", str(labels_file))
    assert (code, out) == (1, "")
    assert err == "error: label of vertex 1 must be a positive integer, got -1" + "0" * 5000 + "\n"
