import argparse
import hashlib
import io
import sys

import pytest

from gaplab import (
    DomainError,
    FamilySpec,
    build_family,
    complete_graph,
    cycle_power,
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


def test_gen_to_dash_writes_stdout_and_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "gen", "--family", "complete", "--n", "4", "-o", "-")
    assert (code, out) == (0, serialize_graph(complete_graph(4)))
    assert list(tmp_path.iterdir()) == []


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


def test_a_reused_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    from gaplab import path_power

    graph_file = tmp_path / "p92.graph"
    graph_file.write_text(serialize_graph(path_power(9, 2)))
    first = ["label", "--family", "path-power", "--n", "9", "--k", "2"]
    calls = [
        first,
        ["label", "--graph", str(graph_file)],
        ["gen", "--family", "cycle-power", "--n", "9"],
        ["decide", "--graph", str(graph_file)],
        ["chi", "--graph", str(graph_file), "--kmax", "4"],
        first,
    ]

    def outcomes():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    assert cli.build_parser() is cli.build_parser()
    reused = outcomes()
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert reused == outcomes()


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


def test_decide_reads_crlf_text_from_stdin(tmp_path, capsys, monkeypatch):
    text = serialize_graph(cycle_power(6, 2))
    graph_file = tmp_path / "c62.graph"
    graph_file.write_text(text)
    from_file = run(capsys, "decide", "--graph", str(graph_file))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text.replace("\n", "\r\n")))
    assert run(capsys, "decide", "--graph", "-") == from_file
    assert from_file[1].startswith("labelable: ")


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


# sha256 digests of strength-ub's whole output: the rounds, the count, the
# ledger and the labelling are pinned byte for byte.
@pytest.mark.parametrize("n, digest", [
    ("15", "609c200befc047b958b462a5e549f3a4469d59b9a2e69bc06893ba4d9a9570a7"),
    ("200", "8ef971b293962cac0c2e5102c997e264c7b0543986cd57332c11940561a79566"),
])
def test_strength_ub_stdout_digest(capsys, n, digest):
    code, out, err = run(capsys, "strength-ub", "--n", n)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 digests of decide's whole output: the verdict, the node count and
# every witness line, at orders up to 400.
@pytest.mark.parametrize("family, n, k, digest", [
    ("path-power", 50, 1, "bc3298fb98c87462a09057e783ead5672cb7150cefb344ac736e625e7750d4a2"),
    ("path-power", 7, 3, "d674c6cdc12e744adffb17257df36d832c79fb1d343e2d8b3bd0da5501aadee8"),
    ("cycle-power", 120, 5, "660ce32bef58b7348a82f48e3426315c0689e70649aeea0a8f57fcb291afa17f"),
    ("path-power", 400, 3, "aeb9095f6ea1717bafc3f1ceba4e060268cd4dd4c2516ba335ff5ce00910617f"),
])
def test_decide_stdout_digest(tmp_path, capsys, family, n, k, digest):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text(serialize_graph(build_family(FamilySpec(family, n, k))))
    code, out, err = run(capsys, "decide", "--graph", str(graph_file))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_strength_ub_prefix_file_digests(tmp_path, capsys):
    prefix = tmp_path / "k200"
    code, out, err = run(capsys, "strength-ub", "--n", "200", "-o", str(prefix))
    assert (code, err) == (0, "")
    digests = {
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "removed": hashlib.sha256((tmp_path / "k200.removed").read_bytes()).hexdigest(),
        "labels": hashlib.sha256((tmp_path / "k200.labels").read_bytes()).hexdigest(),
    }
    assert digests == {
        "stdout": "ba68deffc357538884943ae873e5b3b902b43f574d36e29079628020566218ef",
        "removed": "fba73fb2553299b45c867431a4acc244ca43be021d995c339911a07d7fa04213",
        "labels": "3c728567f055aa0449bed2d83b95ad6845248225ff240fdecb6da3522db07ed5",
    }
    assert out.endswith("iteration: n=5 i=2 x=1\nremoved: 2363\n")


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


# The last field is True where the error is one main raises after parsing;
# its usage line is the subcommand's, like argparse's own for a missing --n.
@pytest.mark.parametrize("argv, from_main", [
    (["gen", "--family", "complete"], False),
    (["gen", "--family", "path-power", "--n", "5"], True),
    (["label", "--family", "cycle-power", "--n", "9"], True),
    (["label", "--family", "complete"], True),
    (["label"], True),
    (["label", "--family", "complete", "--n", "4", "--graph", "F"], True),
    (["decide", "--graph", "F", "--workers", "2"], False),
    (["label", "--graph", "F", "--workers", "2"], False),
    (["strength-lb", "--nmax", "6", "--format", "csv"], False),
], ids=["gen-missing-n", "gen-missing-k", "label-missing-k", "label-missing-n",
        "label-neither", "label-both", "decide-workers", "label-workers", "strength-lb-format"])
def test_usage_error_exits_two(capsys, argv, from_main):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if from_main:
        assert err.splitlines()[0].startswith(f"usage: gaplab {argv[0]} [-h]"), err


HELP_ARGVS = [[], ["gen"], ["label"], ["verify"], ["decide"], ["chi"], ["strength-lb"],
              ["strength-ub"], ["strength-exact"]]
# sha256 of the nine --help texts above joined by NUL, printed by argparse's
# stock formatter on Python 3.10 to 3.12; 3.13 prints an option's metavar once.
HELP_DIGESTS = {
    "60": "90ed42bcb870c13195eeeee7e2cd0aa586d0aea4a47ddcb9274906241edcbeaa",
    "100": "4b8766418875bb2e0bf2c679156d1e02130a0e9f7c96bb7c305edf3b78fd0bf4",
}


@pytest.mark.parametrize("columns", sorted(HELP_DIGESTS))
def test_help_is_what_the_stock_formatter_prints(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)

    def helps(parser):
        texts = []
        for argv in HELP_ARGVS:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + ["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        return "\0".join(texts)

    ours = helps(cli.build_parser())
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    assert ours == helps(cli.build_parser.__wrapped__())
    if sys.version_info < (3, 13):
        assert hashlib.sha256(ours.encode()).hexdigest() == HELP_DIGESTS[columns]


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
