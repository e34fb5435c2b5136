"""Serialization, alpha expressions, report rows, and the CLI driver."""

import json
from dataclasses import replace
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest
from hypothesis import given, settings

from gadgets import directed_ring, path3, profile
from strategies import profiles

from ncg import (
    BudgetExceededError,
    EnumerationCapError,
    NcgError,
    ProfileFormatError,
    TreeConjectureViolation,
    VerificationReport,
    profile_hash,
    verify_equilibrium,
)
from ncg.audit import audit_failures, audit_full
from ncg.cli import cmd_run
from ncg.harness import (
    SweepSpec,
    build_report_row,
    cell_alpha,
    contexts_by_graph,
    enumerate_cell,
    fold_records,
    load_profile,
    parse_alpha_expression,
    profile_from_document,
    profile_to_document,
    rows_to_csv,
    run_sweep,
    save_profile,
    sweep_cells,
)
from ncg.equilibrium import EXACT, DeviationClass
from ncg.structure import build_context

RESTRICTED_CSV = Path(__file__).parent / "data" / "sweep_restricted.csv"


# ---------------------------------------------------------------------------
# profile documents


def test_document_round_trip(tmp_path):
    p = profile(3, Fraction(21, 2), [(0, 1), (1, 2)])
    path = tmp_path / "p.json"
    save_profile(p, path)
    assert load_profile(path) == p
    # canonical documents round-trip byte-identically
    doc = profile_to_document(p)
    save_profile(profile_from_document(doc), path)
    assert json.loads(path.read_text()) == doc


def test_document_examples():
    doc = {"n": 3, "alpha": "5", "edges": [{"buyer": 0, "other": 1}, {"buyer": 1, "other": 2}]}
    assert profile_from_document(doc) == path3(alpha=5)
    assert profile_from_document({"n": 2, "alpha": "21/2", "edges": []}).alpha == Fraction(21, 2)
    assert profile_from_document({"n": 2, "alpha": 7, "edges": []}).alpha == Fraction(7)


@pytest.mark.parametrize(
    "doc,code",
    [
        ({"n": 2, "alpha": "1"}, "missing-field"),
        ({"n": 0, "alpha": "1", "edges": []}, "bad-n"),
        ({"n": 2, "alpha": "x", "edges": []}, "bad-alpha"),
        ({"n": 2, "alpha": "1", "edges": [{"buyer": 0, "other": 5}]}, "id-out-of-range"),
        ({"n": 3, "alpha": "1", "edges": [{"buyer": 2, "other": 2}]}, "self-loop"),
        (
            {"n": 3, "alpha": "1",
             "edges": [{"buyer": 0, "other": 1}, {"buyer": 0, "other": 1}]},
            "duplicate-edge",
        ),
        ({"n": 2, "alpha": "1", "edges": [{"buyer": 0}]}, "bad-type"),
        ({"n": True, "alpha": "1", "edges": []}, "bad-n"),
        ({"n": 2, "alpha": "1/0", "edges": []}, "bad-alpha"),
        ({"n": 2, "alpha": True, "edges": []}, "bad-alpha"),
        ({"n": 3, "alpha": "2", "edges": 5}, "bad-type"),
        ({"n": 3, "alpha": "2", "edges": None}, "bad-type"),
        ({"n": 3, "alpha": "2", "edges": [{"buyer": True, "other": 2}]}, "bad-type"),
        ({"n": 3, "alpha": "2", "edges": [{"buyer": 0, "other": False}]}, "bad-type"),
        ({"n": 2, "alpha": "0", "edges": []}, "bad-alpha"),
        ({"n": 2, "alpha": "-1", "edges": []}, "bad-alpha"),
        ({"n": 2, "alpha": -3, "edges": []}, "bad-alpha"),
    ],
)
def test_document_error_codes(doc, code):
    with pytest.raises(ProfileFormatError) as err:
        profile_from_document(doc)
    assert err.value.code == code


@given(profiles(min_n=1, max_n=7))
@settings(max_examples=60, deadline=None)
def test_profile_json_round_trips(tmp_path_factory, p):
    assert profile_from_document(profile_to_document(p)) == p
    path = tmp_path_factory.mktemp("round-trip") / "p.json"
    save_profile(p, path)
    assert load_profile(path) == p


def test_load_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProfileFormatError) as err:
        load_profile(bad)
    assert err.value.code == "malformed-json"


# ---------------------------------------------------------------------------
# alpha expressions


@pytest.mark.parametrize(
    "expr,n,value",
    [
        ("7", 3, Fraction(7)),
        ("21/2", 3, Fraction(21, 2)),
        ("n", 5, Fraction(5)),
        ("2n", 4, Fraction(8)),
        ("2n+1", 3, Fraction(7)),
        ("3n-3", 4, Fraction(9)),
        ("n/2", 5, Fraction(5, 2)),
        ("3n/2", 4, Fraction(6)),
        ("5n", 4, Fraction(20)),
    ],
)
def test_alpha_expressions(expr, n, value):
    assert parse_alpha_expression(expr)(n) == value


def test_alpha_expression_rejects_garbage():
    for expr in ("2(n-1)", "n^2", "alpha", "", "1/0", "n/0", "3n/00"):
        with pytest.raises(ValueError):
            parse_alpha_expression(expr)


# ---------------------------------------------------------------------------
# report rows


def test_report_row_counts_trees():
    result = enumerate_cell(3, Fraction(7), DeviationClass.parse("exact"))
    row = build_report_row(result)
    assert row.ne_count == row.tree_ne_count >= 1
    assert row.non_tree_ne_count == 0
    assert row.min_girth_among_ne == inf
    assert row.profiles_scanned == 27


def _first_middle_last(equilibria):
    """The first, middle and last equilibrium of each graph."""
    groups = {}
    for item in equilibria:
        groups.setdefault(item[0].adj, []).append(item)
    return [m[i] for m in groups.values() for i in sorted({0, len(m) // 2, len(m) - 1})]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("alpha", ["1/2", "1", "2", "3", "2n+1"])
def test_shared_graph_contexts_audit_like_build_context(n, alpha):
    equilibria = enumerate_cell(n, cell_alpha(alpha, n), DeviationClass.parse("exact")).equilibria
    if (n, alpha) == (5, "1"):
        # 43,728 equilibria on 368 graphs take minutes to audit twice; check
        # the first, middle and last ownership of every graph
        equilibria = _first_middle_last(equilibria)
    shared = list(contexts_by_graph(equilibria))
    key = lambda item: item[0].edges
    assert sorted(((c.profile, r) for c, r in shared), key=key) == sorted(equilibria, key=key)
    # one graph's contexts share its graph facts: its distances are one object
    assert len({id(c.dist) for c, _ in shared}) == len({p.adj for p, _ in equilibria})
    for ctx, report in shared:
        ref = build_context(ctx.profile)
        assert ctx == ref and ctx.connections == ref.connections
        got, want = audit_full(ctx, ne_certificate=report), audit_full(ref, ne_certificate=report)
        assert got == want and got.summary == want.summary
        assert [f.detail for f in got.findings] == [f.detail for f in want.findings]
        summed = got.summary["findings_failing"] + got.summary["bound_violations"]
        assert audit_failures(ctx, report) == summed


def _passed_off(ring, dev_class):
    """A certificate that ``ring`` is an equilibrium under ``dev_class``,
    whatever the verifier says."""
    return VerificationReport(profile_hash(ring), dev_class.spec(), True, None, 0)


def test_report_row_rejects_non_tree_above_2n():
    # a cyclic profile passed off as an exact equilibrium at alpha > 2n
    ring = directed_ring(3, 7)
    with pytest.raises(TreeConjectureViolation):
        fold_records(3, Fraction(7), 1, [(ring, _passed_off(ring, EXACT), 1)])


def test_report_row_open_band_is_exploratory():
    # alpha inside [n, 2n): non-tree exact equilibria are data, not failures
    ring = directed_ring(3, 4)
    row = fold_records(3, Fraction(4), 1, [(ring, _passed_off(ring, EXACT), 1)])
    assert row.non_tree_ne_count == 1
    assert row.min_girth_among_ne == 3


def test_report_row_weights_class_records():
    # one record of weight 3 stands for three labelled equilibria: its tree,
    # non-tree and audit-failure counts triple, and an exact non-tree record
    # above 2n still fails the row
    single_add = DeviationClass.parse("single-add")
    ring = directed_ring(3, 7)
    report = _passed_off(ring, single_add)
    failures = audit_failures(build_context(ring), report)
    assert failures > 0
    row = fold_records(3, Fraction(7), 1, [(ring, report, 3)])
    assert (row.ne_count, row.tree_ne_count, row.non_tree_ne_count) == (3, 0, 3)
    assert row.audit_failures == 3 * failures
    with pytest.raises(TreeConjectureViolation):
        fold_records(3, Fraction(7), 1, [(ring, _passed_off(ring, EXACT), 3)])


def test_report_row_refuses_a_result_without_class_records():
    # a result rebuilt from its five positional fields has no records to fold
    result = replace(enumerate_cell(3, Fraction(2), EXACT), representatives=None)
    with pytest.raises(ValueError, match=r"no class records \(representatives\)"):
        build_report_row(result)


def test_report_row_counts_restricted_non_trees_above_2n(capsys):
    # a restricted class proves stability only against its own deviations
    ring = directed_ring(3, 7)
    single_add = DeviationClass.parse("single-add")
    assert verify_equilibrium(ring, single_add).is_equilibrium
    row = fold_records(3, Fraction(7), 1, [(ring, _passed_off(ring, single_add), 1)])
    assert row.non_tree_ne_count == 1
    # single-add finds non-tree "equilibria" at n=4, alpha=9; exact finds none
    assert cmd_run(["sweep", "--n", "4", "--alpha", "2n+1", "--class", "single-add"]) == 0
    assert ",496,3," in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_restricted_sweeps_match_recorded_rows(capsys, jobs):
    # the only sweep rows with nonzero audit_failures, pinned byte for byte
    for dev_class in ("single-add", "single-swap"):
        argv = ["sweep", "--n", "3,4", "--alpha", "1/2,1,2,3,2n+1", "--class", dev_class]
        assert cmd_run(argv + ["--jobs", jobs]) == 0
    assert capsys.readouterr().out == RESTRICTED_CSV.read_text(encoding="utf-8")


def test_csv_shape():
    result = enumerate_cell(3, Fraction(7), DeviationClass.parse("exact"))
    text = rows_to_csv([build_report_row(result)])
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "n"
    assert lines[2].split(",")[:2] == ["3", "7"]
    assert text.endswith("\n") and "\r" not in text


def test_parallel_and_serial_cells_agree():
    # every cell runs serially; jobs is accepted and changes nothing
    cells = (
        (3, Fraction(7), "exact"),
        (4, Fraction(3), "exact"),
        (4, Fraction(2), "k-subset:2"),
        (4, Fraction(9), "single-add"),
    )
    for n, alpha, spec in cells:
        cls = DeviationClass.parse(spec)
        assert enumerate_cell(n, alpha, cls, jobs=1) == enumerate_cell(n, alpha, cls, jobs=2)


def _counted_decodes(monkeypatch) -> list:
    """The argument tuples of every ``profile_from_index`` call from now on."""
    import ncg.equilibrium as eq

    calls = []
    decode = eq.profile_from_index
    counted = lambda *args: calls.append(args) or decode(*args)  # noqa: E731
    monkeypatch.setattr(eq, "profile_from_index", counted)
    # also wherever the harness might import it by name
    monkeypatch.setattr("ncg.harness.profile_from_index", counted, raising=False)
    return calls


def test_exact_cell_decodes_each_equilibrium_once(monkeypatch):
    # the scan decodes one profile per class record, and the labelled
    # expansion each labelled equilibrium once, in the result's order
    from ncg.equilibrium import profile_from_index

    calls = _counted_decodes(monkeypatch)
    result = enumerate_cell(4, Fraction(3), EXACT)
    assert result.equilibria
    records = len(result.representatives)
    assert len(calls) == records + len(result.equilibria)
    labelled = sorted(calls[records:], key=lambda args: args[2])  # by profile index
    assert [p for p, _ in result.equilibria] == [profile_from_index(*args) for args in labelled]


def test_sweep_decodes_one_profile_per_class_record(monkeypatch):
    # the sweep-n5 cells: 6, 5, 18 and 12 class records, one per orbit of
    # equilibrium ownerships, stand for 62, 56, 1,104 and 620 labelled
    # equilibria
    cells = [(4, "2"), (4, "9"), (5, "2"), (5, "11")]
    records = [len(enumerate_cell(n, Fraction(a), EXACT).representatives) for n, a in cells]
    calls = _counted_decodes(monkeypatch)
    for (n, alpha), count in zip(cells, records):
        calls.clear()
        run_sweep(SweepSpec((n,), (alpha,), EXACT))
        assert len(calls) == count, (n, alpha)
    assert records == [6, 5, 18, 12]


SWEEP_ALPHAS = ("1/2", "2", "3", "n", "2n+1")
THREE_STRATEGIES = "paper-strategy-1,paper-strategy-2,paper-strategy-3"


@pytest.mark.parametrize("spec", ["exact", "single-add", "k-subset:2", THREE_STRATEGIES])
def test_sweep_cells_equal_one_cell_scans(spec):
    # one catalogue per n decides every alpha of that n as the cell's own
    # scan does: the same records, reports with deviations_checked and
    # weights included, in the same order, and the same rows
    cls = DeviationClass.parse(spec)
    sweep = SweepSpec(tuple(range(1, 6)), SWEEP_ALPHAS, cls)
    cells = [(n, cell_alpha(expr, n)) for n in sweep.n_values for expr in SWEEP_ALPHAS]
    swept = list(sweep_cells(sweep))
    assert len(swept) == len(cells)
    for (n, alpha), (records, row) in zip(cells, swept):
        expected = enumerate_cell(n, alpha, cls).representatives
        assert records == expected, (n, alpha)
        assert row == fold_records(n, alpha, 3 ** (n * (n - 1) // 2), expected), (n, alpha)


def _counted_catalogues(monkeypatch) -> list:
    """The n of every ``graph_classes`` call the sweep makes from now on."""
    import ncg.harness as harness

    calls = []
    build = harness.graph_classes
    monkeypatch.setattr(harness, "graph_classes", lambda n: calls.append(n) or build(n))
    return calls


def test_sweep_builds_one_catalogue_per_n(monkeypatch):
    # each n's catalogue serves all its alphas, and lives for one sweep only
    calls = _counted_catalogues(monkeypatch)
    spec = SweepSpec((3, 4, 5), ("1/2", "2", "2n+1"), EXACT)
    first = run_sweep(spec)
    assert calls == [3, 4, 5]
    assert run_sweep(spec) == first
    assert calls == [3, 4, 5, 3, 4, 5]


def test_over_budget_exact_sweep_is_refused_before_its_catalogue(monkeypatch):
    # n = 3 needs 9 checks per profile and n = 4 needs 28: the n = 4 row is
    # refused as its one-cell scan is, before its graphs are walked
    with pytest.raises(BudgetExceededError) as cell:
        enumerate_cell(4, Fraction(2), EXACT, budget=27)
    calls = _counted_catalogues(monkeypatch)
    with pytest.raises(BudgetExceededError) as swept:
        run_sweep(SweepSpec((3, 4), ("2", "3"), EXACT, budget=27))
    assert calls == [3]
    assert str(swept.value) == str(cell.value)
    assert swept.value.required == cell.value.required == 28


# ---------------------------------------------------------------------------
# CLI


def _write_profile(tmp_path, p, name="p.json"):
    path = tmp_path / name
    save_profile(p, path)
    return str(path)


def test_cli_verify_equilibrium(tmp_path, capsys):
    path = _write_profile(tmp_path, path3(alpha=5))
    assert cmd_run(["verify", "--input", path, "--class", "exact"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_equilibrium"] is True
    assert out["witness"] is None
    assert out["schema_version"] == 1


def test_cli_verify_witness(tmp_path, capsys):
    path = _write_profile(tmp_path, directed_ring(3, 5))
    assert cmd_run(["verify", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_equilibrium"] is False
    assert out["witness"]["vertex"] == 0
    assert out["witness"]["delta"] == "-4"


def test_cli_enumerate_row(tmp_path, capsys):
    dump = tmp_path / "ne"
    code = cmd_run(
        ["enumerate", "--n", "3", "--alpha", "7", "--class", "exact",
         "--jobs", "1", "--dump-dir", str(dump)]
    )
    assert code == 0
    out = capsys.readouterr().out
    row = out.splitlines()[2].split(",")
    assert row[0] == "3" and row[5] == "0"  # no non-tree equilibria
    dumped = sorted(dump.glob("*.json"))
    assert len(dumped) == int(row[3])
    load_profile(dumped[0])  # dumps are valid profile documents


def test_cli_dump_dir_writes_the_enumerated_equilibria(tmp_path):
    # same file names and bytes as a dump of enumerate_cell's equilibria
    dump = tmp_path / "ne"
    assert cmd_run(["enumerate", "--n", "4", "--alpha", "2,3/2", "--dump-dir", str(dump)]) == 0
    want = tmp_path / "want"
    want.mkdir()
    for alpha, name in ((Fraction(2), "2"), (Fraction(3, 2), "3_2")):
        for idx, (p, _) in enumerate(enumerate_cell(4, alpha, EXACT).equilibria):
            save_profile(p, want / f"n4_alpha{name}_{idx}.json")
    files = {f.name: f.read_bytes() for f in want.iterdir()}
    assert len(files) > 62
    assert {f.name: f.read_bytes() for f in dump.iterdir()} == files


def test_cli_dynamics(tmp_path, capsys):
    path = _write_profile(tmp_path, directed_ring(3, 5))
    assert cmd_run(["dynamics", "--input", path, "--class", "single-delete"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["converged"] is True
    assert out["steps"][0]["delta"] == "-4"


def test_cli_dynamics_paper_strategy_on_disconnected_profile(tmp_path, capsys):
    # Paper strategies add no candidates until the profile is connected.
    path = _write_profile(tmp_path, profile(4, 9, [(0, 1), (2, 3)]))
    assert cmd_run(["dynamics", "--input", path, "--class", "single-add,paper-strategy-1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["steps"][0] == {"vertex": 0, "new_edge_set": [1, 2], "delta": "-inf"}
    assert out["converged"] is True


def test_cli_audit(tmp_path, capsys):
    path = _write_profile(tmp_path, path3(alpha=7))
    assert cmd_run(["audit", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certified_class"] == "exact-all-subsets"
    ids = {f["lemma_id"] for f in out["findings"]}
    assert "mincyclesize" in ids and "degree-sum" in ids


def test_cli_sweep_deterministic(tmp_path):
    args = ["sweep", "--n", "3,4", "--alpha", "2n+1,3n", "--class", "exact", "--jobs", "1"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cmd_run(args + ["--out", str(out_a)]) == 0
    assert cmd_run(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_text().splitlines()) == 6  # comment + header + 4 cells


def test_cli_usage_errors(tmp_path, capsys):
    assert cmd_run(["verify"]) == 2  # missing --input
    assert cmd_run(["frobnicate"]) == 2
    capsys.readouterr()
    bad = tmp_path / "missing.json"
    assert cmd_run(["verify", "--input", str(bad)]) == 2
    assert cmd_run(["sweep", "--n", "3", "--alpha", "n^2"]) == 2


def test_cli_budget_error(tmp_path, capsys):
    path = _write_profile(tmp_path, profile(12, 9, [(0, i) for i in range(1, 12)]))
    assert cmd_run(["verify", "--input", path, "--budget", "100"]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("n,cap", [("8", "8"), ("9", "64")])
def test_cli_enumeration_ceiling(monkeypatch, capsys, n, cap):
    # refused before anything is allocated or scanned, whatever --cap says
    def refuse(*args):
        raise AssertionError("the cell was scanned")

    monkeypatch.setattr("ncg.harness.graph_classes", refuse)
    monkeypatch.setattr("ncg.harness.decide_classes", refuse)
    assert cmd_run(["enumerate", "--n", n, "--alpha", "1", "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"budget error: n={n} above the enumeration ceiling 7\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "6,8", "--alpha", "3", "--cap", "8"],
        ["--n", "6,7", "--alpha", "3", "--cap", "6"],
        ["--n", "6,0", "--alpha", "3", "--cap", "6"],
        ["--n", "6,3", "--alpha", "n-4", "--cap", "6"],
        ["--n", "6", "--alpha", "3,n-7", "--cap", "6"],
    ],
)
def test_cli_sweep_validates_the_grid_before_scanning(monkeypatch, capsys, argv):
    # a bad n or alpha anywhere in the grid exits 2 before the first
    # catalogue is built or a cell decided
    def refuse(*args):
        raise AssertionError("a catalogue was built or a cell was scanned")

    monkeypatch.setattr("ncg.harness.graph_classes", refuse)
    monkeypatch.setattr("ncg.harness.decide_classes", refuse)
    assert cmd_run(["sweep", *argv, "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_cli_unknown_flag_rejected(capsys):
    assert cmd_run(["verify", "--input", "x.json", "--frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["enumerate", "--n", "3", "--alpha", "1/0"], None),
        (["enumerate", "--n", "3", "--alpha", "2n/0"], None),
        (["enumerate", "--n", "3", "--alpha", "0"], None),
        (["enumerate", "--n", "3", "--alpha", "n-5"], None),
        (["sweep", "--n", "3", "--alpha", "1/0"], None),
        (["enumerate", "--n", "3", "--alpha", "7", "--jobs", "0"], None),
        (["sweep", "--n", "3", "--alpha", "7", "--jobs", "-1"], None),
        (["verify", "--input"], {"n": 3, "alpha": "1/0", "edges": []}),
        (["audit", "--input"], {"n": True, "alpha": "1", "edges": []}),
        (["verify", "--input"], {"n": 3, "alpha": "2", "edges": 5}),
        (["verify", "--input"], {"n": 3, "alpha": "2", "edges": None}),
        (["dynamics", "--input"], {"n": 3, "alpha": "2", "edges": [{"buyer": True, "other": 2}]}),
        (["verify", "--input"], {"n": 3, "alpha": "-1", "edges": [{"buyer": 0, "other": 1}]}),
        (["audit", "--input"], {"n": 2, "alpha": "0", "edges": [{"buyer": 0, "other": 1}]}),
        (["dynamics", "--input"], {"n": 3, "alpha": "-1/2", "edges": []}),
        (["enumerate", "--n", "0", "--alpha", "1"], None),
        (["sweep", "--n", "-1", "--alpha", "7"], None),
        (["enumerate", "--n", ",", "--alpha", "7"], None),
        (["enumerate", "--n", "3", "--alpha", ","], None),
        (["sweep", "--n", ",", "--alpha", "7"], None),
        (["sweep", "--n", "3", "--alpha", ","], None),
    ],
)
def test_cli_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, doc):
    if doc is not None:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    assert cmd_run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_cli_seed_only_on_dynamics(tmp_path, capsys):
    path = _write_profile(tmp_path, directed_ring(3, 5))
    assert cmd_run(["dynamics", "--input", path, "--order", "random", "--seed", "3"]) == 0
    capsys.readouterr()
    for argv in (
        ["verify", "--input", path],
        ["audit", "--input", path],
        ["enumerate", "--n", "3", "--alpha", "7"],
        ["sweep", "--n", "3", "--alpha", "7"],
    ):
        assert cmd_run(argv + ["--seed", "3"]) == 2


@pytest.mark.parametrize(
    "error,code",
    [
        (TreeConjectureViolation("non-tree"), 1),
        (BudgetExceededError("budget"), 2),
        (EnumerationCapError("cap"), 2),
        (ProfileFormatError("bad-n", "format"), 2),
        (NcgError("ncg"), 2),
        (ValueError("value"), 2),
        (OSError("os"), 2),
        (AssertionError("witness\nre-check"), 3),
        (TypeError("type"), 3),
        (KeyError("key"), 3),
        (ZeroDivisionError("zero"), 3),
        (RuntimeError("runtime"), 3),
    ],
)
def test_cli_exit_code_contract(monkeypatch, capsys, error, code):
    # only a tree-conjecture violation may exit 1; anything unmapped exits 3
    def fail(spec):
        raise error

    monkeypatch.setattr("ncg.cli.run_sweep", fail)
    assert cmd_run(["sweep", "--n", "3", "--alpha", "7"]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: ") == (code == 3)
