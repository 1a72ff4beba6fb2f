import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import rht.algebra
from rht.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data", "catalog.rht")


def run_cli(*args, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "rht.cli", *args],
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_validate_ok():
    code, out, _ = run_cli("validate", DATA)
    assert code == 0
    assert "cdga S2: valid" in out
    assert "arrangement braid3: valid" in out


def test_cohomology_command():
    code, out, _ = run_cli("cohomology", DATA, "--name", "S2", "--max", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"]["2"] == 1 and payload["dims"]["3"] == 0
    assert payload["certified_degree"] == 6


def test_minimal_model_command():
    code, out, _ = run_cli("minimal-model", DATA, "--name", "S2",
                           "--of-cohomology", "2", "--max", "6")
    assert code == 0
    assert "gen v2_0:2;" in out
    assert "certified_degree: 6" in out


def test_homotopy_command():
    code, out, _ = run_cli("homotopy", DATA, "--name", "S2", "--ranks", "6",
                           "--brackets", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == {"2": 1, "3": 1, "4": 0, "5": 0, "6": 0}
    assert payload["lie_table"]["brackets"]["[x_a,x_a]"] == {"x_b": "2"}


def test_bch_command():
    code, out, _ = run_cli("bch", DATA, "--name", "X", "1,0,0", "0,1,0")
    assert code == 0
    assert out.strip() == "a*b = 1*x_u + 1*x_v + 1/2*x_w"


def test_invariants_command():
    code, out, _ = run_cli("invariants", DATA, "--name", "CP3", "--max", "8",
                           "--toomer", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["toomer"]["value"] == 3


def test_massey_flag():
    code, out, _ = run_cli("invariants", DATA, "--name", "X", "--max", "3",
                           "--massey", "u", "v", "v")
    assert code == 0
    assert "nontrivial" in out


def test_elliptic_check_command():
    code, out, _ = run_cli("elliptic-check", "--evens", "1", "--odds", "3")
    assert code == 0 and "True" in out
    code, out, _ = run_cli("elliptic-check", "--evens", "1", "--odds", "")
    assert code == 0 and "False" in out


def test_elliptic_check_large_odd_half_is_fast():
    # The search is bounded by the Frobenius number of the evens, not by b.
    start = time.monotonic()
    code, out, _ = run_cli("elliptic-check", "--evens", "2,3", "--odds", "1000000000",
                           timeout=10)
    assert time.monotonic() - start < 1.0
    assert code == 0 and out == "realizable: False (failing subsequence [3])\n"


def test_elliptic_check_below_schur_bound_is_fast():
    # F = A(A+1) - 2A - 1 is the Frobenius number of (A, A+1), just below
    # Schur's bound, so the residue-class table has to decide it.
    a = 10_000
    start = time.monotonic()
    code, out, _ = run_cli("elliptic-check", "--evens", "%d,%d" % (a, a + 1),
                           "--odds", "%d,%d,%d" % (2 * a, 2 * a + 2, a * (a + 1) - 2 * a - 1),
                           timeout=10)
    assert time.monotonic() - start < 1.0
    assert code == 0 and out == "realizable: True\n"


def test_invariants_reads_one_window(monkeypatch, capsys):
    from rht.cdga import CohomologyReport
    built = []
    init = CohomologyReport.__init__

    def counting_init(self, pres, lo, hi):
        built.append((pres.name, lo, hi))
        init(self, pres, lo, hi)
    monkeypatch.setattr(CohomologyReport, "__init__", counting_init)
    assert main(["invariants", DATA, "--name", "CP3", "--max", "8",
                 "--toomer", "--cat", "--tc"]) == 0
    assert capsys.readouterr().out == ("toomer e = 3 (window)\ncat bounds: [3, 6]\n"
                                       "TC cup length c_H = 6 (cohomology windowed at 8)\n")
    # the two `pd` declarations of the catalog, then CP3 once
    assert len(built) == 3 and built[-1][1:] == (0, 8)


def test_invariants_cat_and_tc_share_one_cohomology_algebra(monkeypatch, capsys):
    # --cat checks Poincare duality on the algebra of its window, and --tc
    # reads that same algebra: the two `pd` windows, then CP3's once.
    from rht.cdga import CohomologyReport
    windows = []
    algebra = CohomologyReport.algebra

    def recording(self, *args, **kwargs):
        windows.append((self.lo, self.hi))
        return algebra(self, *args, **kwargs)
    monkeypatch.setattr(CohomologyReport, "algebra", recording)
    assert main(["invariants", DATA, "--name", "CP3", "--max", "8", "--cat", "--tc"]) == 0
    assert capsys.readouterr().out == ("cat bounds: [3, 6]\n"
                                       "TC cup length c_H = 6 (cohomology windowed at 8)\n")
    assert windows == [(0, 2), (0, 3), (0, 8)]


def test_each_command_derives_each_object_once(monkeypatch, capsys):
    """In-process counts on the catalog.  The document checks d^2 = 0 once per
    cdga (S2 and S3 at parse time for the `pd` lines), and the commands read
    that record: the Lie commands read d_1 off the checked cdga and skip the
    table's Jacobi pass (a passing record proves d_1^2 = 0), `validate`
    lists its violations, `invariants` builds one cohomology algebra besides
    the `pd` ones, and a pullback restricts nothing."""
    from rht.cdga import CdgaMorphism, CohomologyReport, validate
    from rht.homotopy_lie import LieTable, quadratic_part
    from rht.minimal_model import LambdaExtension
    calls = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append((label, getattr(args[0], "name", None)))
            return fn(*args, **kwargs)
        return wrapper
    # every binding of the two functions, in the module that defines it and in its importers
    for module in [m for name, m in sys.modules.items() if name.startswith("rht.")]:
        for fn in (validate, quadratic_part):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted(fn.__name__, fn))
    for cls, attr in ((CohomologyReport, "algebra"), (CdgaMorphism, "validate"),
                      (LambdaExtension, "_restriction"), (LieTable, "validate")):
        monkeypatch.setattr(cls, attr, counted(cls.__name__ + "." + attr, getattr(cls, attr)))

    def run(*argv):
        calls.clear()
        assert main(list(argv)) == 0
        capsys.readouterr()
        return [label for label, _ in calls], [name for label, name in calls if label == "validate"]

    for argv, name in ((["homotopy", DATA, "--name", "S2", "--brackets", "4"], "S2"),
                       (["homotopy", DATA, "--name", "X", "--filtration", "1"], "X"),
                       (["bch", DATA, "--name", "X", "1,0,0", "0,1,0"], "X")):
        labels, checked = run(*argv)
        assert "quadratic_part" not in labels and "CdgaMorphism.validate" not in labels
        assert "LieTable.validate" not in labels, argv
        assert checked == list(dict.fromkeys(["S2", "S3", name])), argv
    # the five cdgas once each, in parse order, then the two arrangement complexes
    labels, checked = run("validate", DATA)
    assert checked == ["S2", "S3", "CP3", "X", "Hopf", "boolean3", "braid3"]
    assert "CdgaMorphism.validate" not in labels
    # H(S2) is checked by the minimal model of --of-cohomology
    labels, checked = run("invariants", DATA, "--name", "S2", "--max", "6", "--tc",
                          "--trichotomy", "--of-cohomology")
    assert labels.count("CohomologyReport.algebra") == 3     # the two `pd` windows, then S2
    assert checked == ["S2", "S3", "H(S2)"]
    labels, _ = run("fibration", "pullback", DATA, "--total", "Hopf", "--base", "a,b",
                    "--along", "double")
    assert "LambdaExtension._restriction" not in labels


def test_loopspace_command():
    code, out, _ = run_cli("loopspace", DATA, "--name", "S3", "--max", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"]["2"] == 1 and payload["betti"]["0"] == 1


def test_fibration_pullback_command():
    code, out, _ = run_cli("fibration", "pullback", DATA, "--total", "Hopf",
                           "--base", "a,b", "--along", "double")
    assert code == 0
    assert "d z = 2*a;" in out


def test_config_space_command():
    code, out, _ = run_cli("config-space", DATA, "--pd", "S2", "--k", "2",
                           "--max", "11", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_characteristic"] == {"value": 2, "exact": True}


def test_arrangement_command():
    code, out, _ = run_cli("arrangement", DATA, "--name", "braid3")
    assert code == 0
    assert "(1 + t)(1 + 2t)" not in out       # polynomial printed in raw form
    assert '"1": 3' in out and '"2": 2' in out


def test_catalog_command():
    code, out, _ = run_cli("catalog", "product(sphere(2),sphere(3))")
    assert code == 0
    assert "gen a_1:2;" in out and "gen u_2:3;" in out


def test_mapping_space_command():
    code, out, _ = run_cli("mapping-space", DATA, "--morphism", "collapse", "--n", "1")
    assert code == 0
    assert "dim pi_1" in out and ": 1" in out


def test_invariants_cat_flag():
    code, out, _ = run_cli("invariants", DATA, "--name", "CP3", "--max", "8",
                           "--cat", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cat"]["e"] == 3 and payload["cat"]["upper"] == 6


def test_invariants_trichotomy_flag():
    code, out, _ = run_cli("invariants", DATA, "--name", "CP3", "--max", "12",
                           "--trichotomy", "--of-cohomology", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["trichotomy"]["tag"] == "elliptic-evidence"
    assert payload["trichotomy"]["chi_pi"] == 0


def test_invariants_plot_csv(tmp_path):
    target = tmp_path / "ranks.csv"
    code, out, _ = run_cli("invariants", DATA, "--name", "S2", "--max", "6",
                           "--plot", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "degree,rank"
    table = dict(line.split(",") for line in lines[1:])
    assert table["2"] == "1" and table["3"] == "1"


@pytest.mark.parametrize("of_cohomology, models", [([], 1), (["--of-cohomology"], 2)])
def test_invariants_trichotomy_and_plot_share_one_model(
        tmp_path, capsys, monkeypatch, of_cohomology, models):
    # --plot always models the presentation; --trichotomy models it too unless
    # --of-cohomology asks for the model of its cohomology algebra.
    from rht.cli import minimal_model as build
    calls = []

    def counted(A, n):
        calls.append(A.name)
        return build(A, n)
    monkeypatch.setattr("rht.cli.minimal_model", counted)
    plot = str(tmp_path / "ranks.csv")
    argv = ["invariants", DATA, "--name", "CP3", "--max", "8"]
    outputs = []
    for flags in (["--trichotomy"] + of_cohomology, ["--plot", plot],
                  ["--trichotomy", "--plot", plot] + of_cohomology):
        calls.clear()
        assert main(argv + flags) == 0
        with open(plot, encoding="utf-8") if "--plot" in flags else io.StringIO() as fh:
            outputs.append((capsys.readouterr().out, fh.read()))
    (alone, _), (plotted, table), (both, both_table) = outputs
    assert both == alone + plotted and both_table == table
    assert len(calls) == models and calls[-1] == "CP3"


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.rht"
    bad.write_text("cdga Bad { gen a:2; d a = a; }")
    code, _, err = run_cli("validate", str(bad))
    assert code == 2
    assert "degree mismatch" in err


def test_a_cdga_with_d_squared_nonzero_is_refused(tmp_path, capsys):
    # Cohomology windows assume d^2 = 0; every command but `validate` refuses
    # the cdga with its first violation, and `validate` lists them all.
    path = str(tmp_path / "bad.rht")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cdga Bad { gen t:1; gen a:2; d t = a; d a = t*a; }\n")
    for argv in (["cohomology", path, "--name", "Bad", "--max", "5"],
                 ["homotopy", path, "--name", "Bad", "--ranks", "4"],
                 ["invariants", path, "--name", "Bad", "--max", "4", "--toomer"],
                 ["loopspace", path, "--name", "Bad", "--max", "4"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", "error: cdga Bad is invalid: d^2(t) = t*a != 0\n")
    assert main(["validate", path]) == 1
    assert capsys.readouterr() == ("cdga Bad: INVALID\n  - d^2(t) = t*a != 0\n"
                                   "  - d^2(a) = a^2 != 0\n", "")
    # A morphism is refused with its source or target: mapping-space printed
    # a negative rank for it and exited 0.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("cdga S3 { gen u:3; d u = 0; }\n"
                 "morphism g : Bad -> Bad { t |-> t; a |-> a; }\n"
                 "morphism h : Bad -> S3 { t |-> 0; a |-> 0; }\n")
    for argv in (["mapping-space", path, "--morphism", "g", "--n", "1"],
                 ["mapping-space", path, "--morphism", "h", "--n", "1"],
                 ["fibration", "pullback", path, "--total", "S3", "--base", "u", "--along", "h"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", "error: cdga Bad is invalid: d^2(t) = t*a != 0\n")
    assert main(["mapping-space", path, "--morphism", "k", "--n", "1"]) == 1
    assert capsys.readouterr() == ("", "error: no morphism named 'k'\n")


def test_a_pd_declaration_on_a_cdga_with_d_squared_nonzero_names_the_violation(tmp_path, capsys):
    path = str(tmp_path / "bad_pd.rht")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cdga Bad { gen t:1; gen a:2; d t = a; d a = t*a; }\n"
                 "pd Bad dim 2 orientation a;\n")
    assert main(["validate", path]) == 2
    assert capsys.readouterr() == ("", "parse error: line 2, col 26: pd declaration failed: "
                                       "cdga Bad is invalid: d^2(t) = t*a != 0\n")


def test_semantic_error_exit_code():
    code, _, err = run_cli("cohomology", DATA, "--name", "Nope", "--max", "4")
    assert code == 1
    assert "no cdga named" in err


def test_negative_max_is_a_usage_error(capsys):
    commands = [
        ("cohomology", DATA, "--name", "S2"),
        ("minimal-model", DATA, "--name", "S2"),
        ("invariants", DATA, "--name", "CP3", "--toomer"),
        ("loopspace", DATA, "--name", "S3"),
        ("config-space", DATA, "--pd", "S2", "--k", "2"),
        ("arrangement", DATA, "--name", "braid3"),
    ]
    for cmd in commands:
        assert main([*cmd, "--max", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --max must be >= 0, got -3\n"


def test_bch_class_below_nilpotency_class_is_rejected(capsys):
    # L_0 of X is the Heisenberg algebra, nilpotent of class 2.
    for cls in ("1", "0"):
        assert main(["bch", DATA, "--name", "X", "--class", cls, "1,0,0", "0,1,0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --class must lie in 2..64 (the nilpotency class of L_0 "
                       "is 2), got %s\n" % cls)
    assert main(["bch", DATA, "--name", "X", "--class", "65", "1,0,0", "0,1,0"]) == 2
    assert "got 65" in capsys.readouterr().err
    for cls in ("2", "7"):
        assert main(["bch", DATA, "--name", "X", "--class", cls, "1,0,0", "0,1,0"]) == 0
        assert capsys.readouterr().out == "a*b = 1*x_u + 1*x_v + 1/2*x_w\n"


@pytest.mark.parametrize("vec", ["1,x,0", "1,0,0,0,0", "1,0", "", "1/0,0,0", "1.5,0,0"])
def test_bch_malformed_vector_is_a_usage_error(capsys, vec):
    assert main(["bch", DATA, "--name", "X", vec, "0,1,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %r is not 3 comma-separated rationals (dim L_0 = 3)\n" % vec


def test_huge_power_is_a_parse_error(tmp_path):
    path = tmp_path / "pow.rht"
    path.write_text("cdga P { gen x:2; gen y:3; d x = 0; d y = x^3000000; }\n")
    code, out, err = run_cli("validate", str(path), timeout=60)
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "power of degree 6000000" in err
    assert err.count("\n") == 1


def test_seed_accepted_and_ignored():
    args = ("cohomology", DATA, "--name", "S2", "--max", "4")
    runs = [run_cli(*args), run_cli("--seed", "1", *args), run_cli("--seed", "99", *args),
            run_cli(*args, "--seed", "4"), run_cli("--seed", "3", *args, "--seed", "4")]
    assert [code for code, _, _ in runs] == [0] * len(runs), runs
    assert len({out for _, out, _ in runs}) == 1


def test_cached_parser_is_unchanged_by_a_usage_error(capsys):
    good = ["cohomology", DATA, "--name", "S2", "--max", "4", "--seed", "7"]
    first = main(good), capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", DATA, "--max", "4"])        # --name is required
    assert exc.value.code == 2
    assert "--name" in capsys.readouterr().err
    assert (main(good), capsys.readouterr()) == first
    assert first[0] == 0 and first[1].out


def test_basis_over_the_monomial_budget_exits_1(tmp_path):
    # Degree 20 of 700 degree-10 generators: 700 + C(700, 2) = 245,350 monomials.
    names = ["a%d" % i for i in range(700)]
    text = "cdga W {\n%s%s}\n" % ("".join("  gen %s:10;\n" % g for g in names),
                                  "".join("  d %s = 0;\n" % g for g in names))
    path = tmp_path / "wide.rht"
    path.write_text(text)
    code, out, err = run_cli("cohomology", str(path), "--name", "W", "--max", "20", timeout=60)
    assert (code, out) == (1, "")
    assert err == "error: degree 20 basis exceeds 200000 monomials\n"


def test_determinism_three_runs():
    commands = [
        ("cohomology", DATA, "--name", "X", "--max", "4", "--json"),
        ("minimal-model", DATA, "--name", "S2", "--of-cohomology", "2",
         "--max", "6", "--json"),
        ("homotopy", DATA, "--name", "X", "--filtration", "1"),
    ]
    for cmd in commands:
        outs = {run_cli(*cmd)[1] for _ in range(3)}
        assert len(outs) == 1


@pytest.mark.parametrize("evens, odds, bad", [("a", "", "a"), ("1", "1.5", "1.5")])
def test_elliptic_check_non_integer_entry_is_a_usage_error(capsys, evens, odds, bad):
    assert main(["elliptic-check", "--evens", evens, "--odds", odds]) == 2
    assert capsys.readouterr() == ("", "error: --evens and --odds take comma-separated "
                                   "integers (invalid literal for int() with base 10: %r)\n"
                                   % bad)
    assert main(["elliptic-check", "--evens", "1,,2", "--odds", "3,,4,"]) == 0
    assert capsys.readouterr().out == "realizable: True\n"


def test_cohomology_and_config_space_read_chi_from_the_printed_report(
        tmp_path, capsys, report_windows):
    path = tmp_path / "s2.rht"
    path.write_text("cdga S2 { gen a:2; gen b:3; d a = 0; d b = a^2; }\n")
    assert main(["cohomology", str(path), "--name", "S2", "--max", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["euler_characteristic"] == \
        {"value": 2, "exact": False}
    assert report_windows == [("S2", 0, 6)]
    report_windows.clear()
    # The catalog's two pd declarations build one report each while parsing.
    assert main(["config-space", DATA, "--pd", "S2", "--k", "2", "--max", "11"]) == 0
    assert "euler characteristic: 2 (exact)" in capsys.readouterr().out
    assert [hi for _, _, hi in report_windows] == [2, 3, 11]


def test_fibration_unknown_base_generator_exits_1(capsys):
    argv = ["fibration", "pullback", DATA, "--total", "S2", "--base", "u", "--along", "double"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: base generator u is not in S2\n")


@pytest.mark.parametrize("argv, message", [
    # Hopf (da = 0, db = a^2, dz = a) is a non-minimal model of S^3: its dim V^k
    # are not the ranks of pi_k (x) Q, and PBW on them gives the answer for
    # Omega S^2 (1, 1, 1, ...) where Omega S^3 has 1, 0, 1, 0, ...
    (["invariants", DATA, "--name", "Hopf", "--max", "4", "--loop-betti", "4"],
     "--loop-betti requires a minimal presentation"),
    (["homotopy", DATA, "--name", "Hopf", "--ranks", "4"],
     "--ranks requires a minimal presentation"),
    (["homotopy", DATA, "--name", "Hopf", "--hurewicz", "2"],
     "--hurewicz requires a minimal presentation"),
    # X has V^1 != 0: L_0 has dim 3, and the loop-space series would drop it
    (["invariants", DATA, "--name", "X", "--max", "4", "--loop-betti", "3"],
     "--loop-betti needs a simply connected model (V^1 = 0)"),
], ids=["Hopf-loop-betti", "Hopf-ranks", "Hopf-hurewicz", "X-loop-betti"])
def test_ranks_hurewicz_and_loop_betti_need_a_minimal_simply_connected_model(
        capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["minimal-model", DATA, "--name", "S2", "--of-cohomology"],
    ["homotopy", DATA, "--name", "S2", "--ranks"],
    ["homotopy", DATA, "--name", "S2", "--brackets"],
    ["homotopy", DATA, "--name", "X", "--filtration"],
    ["homotopy", DATA, "--name", "S2", "--hurewicz"],
    ["invariants", DATA, "--name", "S2", "--loop-betti"],
])
def test_negative_degree_flags_are_usage_errors(capsys, argv):
    flag = argv[-1]
    assert main([*argv, "-1"]) == 2
    assert capsys.readouterr() == ("", "error: %s must be >= 0, got -1\n" % flag)
    assert main([*argv, "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("spec, types", [
    ("truncated_poly(2)", "int, int"), ("wedge_cohomology(1,2)", "FiniteCDGA, FiniteCDGA"),
    ("product(2,3)", "SullivanPresentation, SullivanPresentation"), ("sphere(point)", "int"),
])
def test_catalog_parameter_of_the_wrong_type_exits_1(capsys, spec, types):
    assert main(["catalog", spec]) == 1
    name = spec.split("(")[0]
    assert capsys.readouterr() == ("", "error: catalog %s takes (%s)\n" % (name, types))


def test_catalog_torus_builds_in_linear_time(capsys):
    # Each generator's image is checked against the context; comparing a
    # context with itself is an identity test, not a walk over n generators.
    t0 = time.perf_counter()
    assert main(["catalog", "torus(40000)"]) == 0
    assert time.perf_counter() - t0 < 2.0
    assert "gen t40000:1;" in capsys.readouterr().out


def test_torus_over_the_budget_exits_1(monkeypatch, capsys):
    # torus(n)'s degree-1 basis is its n generators: over the budget, the
    # catalog exits 1 with a message before building the context.
    monkeypatch.setattr(rht.algebra, "MONOMIAL_BUDGET", 100)
    assert main(["catalog", "torus(101)"]) == 1
    assert capsys.readouterr() == (
        "", "error: torus(101) has a degree 1 basis of 101 monomials, more than 100\n")
    assert main(["catalog", "torus(100)"]) == 0


def test_truncated_poly_over_the_budget_exits_1(capsys):
    # 700 * 701 / 2 = 245,350 nonzero products, over the 200,000 budget.
    assert main(["catalog", "truncated_poly(2, 700)"]) == 1
    assert capsys.readouterr() == (
        "", "error: truncated_poly(2, 700) has 245350 nonzero products, more than 200000\n")


@pytest.mark.parametrize("spec, message", [
    ("wedge_cohomology(k_z(2), sphere(3))", "a^1 is not exact in KZ2"),
    ("wedge_cohomology(product(k_z(2), sphere(5)), point())", "a_1^3 is not exact in KZ2xS5"),
])
def test_wedge_of_infinite_cohomology_exits_1(spec, message):
    # H(K(Z,2)) = Q[a] has no top: no power of a past the formal dimension
    # is exact, so the wedge is refused instead of cut off at a guessed degree.
    code, out, err = run_cli("catalog", spec)
    assert (code, out) == (1, "")
    assert err == "error: wedge_cohomology needs finite cohomology: %s\n" % message


def test_wedge_of_three_cp3_reaches_degree_18():
    # H(CP3 x CP3 x CP3) ends at 18 = 3 * 6, past the 2 * 7 the window once stopped at.
    code, out, _ = run_cli("catalog",
                           "wedge_cohomology(product(product(cp(3),cp(3)),cp(3)), point())")
    assert code == 0
    basis = json.loads(out)["basis"]
    assert {k: len(v) for k, v in basis.items()} == {
        "0": 1, "2": 3, "4": 6, "6": 10, "8": 12, "10": 12, "12": 10, "14": 6, "16": 3, "18": 1}


_MASSEY = ["invariants", DATA, "--name", "X", "--max", "3", "--massey"]


@pytest.mark.parametrize("argv, col, message", [
    (["catalog", "sphere(²)"], 8, "unexpected character '²'"),
    (["catalog", "sphere(--2)"], 9, "expected an integer or a catalog spec, found '-'"),
    (["catalog", "sphere(- 2)"], 10, "expected the digits right after '-'"),
    (["catalog", "sphere(2"], 9, "expected ), found end of input"),
    (["catalog", "sphere(2) x"], 11, "expected end of input, found 'x'"),
    (["catalog", "product(point," * 100 + "point" + ")" * 100], 1395,
     "catalog spec nested deeper than 100 levels"),
    (["catalog", "product(point," * 1000 + "point" + ")" * 1000], 1395,
     "catalog spec nested deeper than 100 levels"),
    (["catalog", "product(" * 1000], 801, "catalog spec nested deeper than 100 levels"),
    (["catalog", "sphere(%s)" % ("9" * 5000)], 8, "integer literal too long"),
    (_MASSEY + ["u v", "v", "v"], 3, "expected end of input, found 'v'"),
    (_MASSEY + ["u)", "v", "v"], 2, "expected end of input, found ')'"),
    (_MASSEY + ["u;", "v", "v"], 2, "expected end of input, found ';'"),
], ids=["superscript-two", "double-minus", "detached-minus", "unclosed", "trailing-text",
        "101-deep", "1000-deep", "1000-open", "long-integer", "massey-two-elements",
        "massey-paren", "massey-semicolon"])
def test_malformed_cli_text_exits_2(capsys, argv, col, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "parse error: line 1, col %d: %s\n" % (col, message))


_LATIN1 = b"cdga X { gen a:2; d a = 0; }\n# caf\xe9\n"


@pytest.mark.parametrize("argv, code, message", [
    (["cohomology", "{tmp}/missing.rht", "--name", "S2"], 1,
     "error: [Errno 2] No such file or directory: '{tmp}/missing.rht'"),
    (["cohomology", "{tmp}", "--name", "S2"], 1, "error: [Errno 21] Is a directory: '{tmp}'"),
    (["invariants", DATA, "--name", "S2", "--max", "4", "--trichotomy",
      "--plot", "{tmp}/missing/x.csv"], 1,
     "error: [Errno 2] No such file or directory: '{tmp}/missing/x.csv'"),
    (["cohomology", "{tmp}/latin1.rht", "--name", "X"], 2,
     "parse error: {tmp}/latin1.rht: byte %d is not UTF-8" % _LATIN1.index(b"\xe9")),
], ids=["missing-file", "directory", "plot-in-missing-directory", "not-utf8"])
def test_file_errors_exit_with_a_message(tmp_path, capsys, argv, code, message):
    (tmp_path / "latin1.rht").write_bytes(_LATIN1)
    tmp = str(tmp_path)
    assert main([a.replace("{tmp}", tmp) for a in argv]) == code
    assert capsys.readouterr() == ("", message.replace("{tmp}", tmp) + "\n")


@pytest.mark.parametrize("specs", [
    ("product(sphere(2),torus(-0))", " product( sphere(2) ,\ttorus(0), ) "),
    ("point", "point()", " point( ) "),
], ids=["spaces-trailing-comma", "point"])
def test_equivalent_catalog_specs_print_the_same(capsys, specs):
    outputs = []
    for spec in specs:
        assert main(["catalog", spec]) == 0
        outputs.append(capsys.readouterr())
    assert outputs == [outputs[0]] * len(specs)


# In-process CLI fuzz: random argv over every subcommand, on copies of the
# catalog with up to three token mutations.  Every run must end in exit code
# 0, 1 or 2 (argparse's SystemExit counts as its code) and raise nothing else,
# and a run that exits 0 under --json prints one JSON document.
with open(DATA, encoding="utf-8") as _fh:
    _CATALOG = "".join(line for line in _fh if not line.startswith("#"))
_TOKENS = re.findall(r"\|->|->|[A-Za-z_]\w*|\d+|\S", _CATALOG)
_POOL = sorted(set(_TOKENS)) + ["0", "1", "7", "99", "-", "pd", "dim", "nope"]

_INT = st.integers(-2, 6).map(lambda v: [str(v)])
_INTS = st.lists(st.sampled_from(["-1", "0", "1", "2", "3", "", "a", "1.5"]),
                 max_size=3).map(lambda xs: [",".join(xs)])
_NAME = st.sampled_from(["S2", "S3", "CP3", "X", "Hopf", "nope"]).map(lambda s: [s])
_MORPHISM = st.sampled_from(["double", "collapse", "nope"]).map(lambda s: [s])
_ON = st.just([])
_FILE = st.just(["{file}"])
_VEC = st.sampled_from(["1,0,0", "0,1,0", "1/2,0,-1", "1,0", "x,0,0"]).map(lambda s: [s])
_ELEMENT = st.sampled_from(["u", "v", "a", "x", "0", "u*v", "a^2"])
_SPEC = st.recursive(
    st.sampled_from(["-1", "2", "3", "6", "point", "nope"]),
    lambda inner: st.builds("{}({})".format,
                            st.sampled_from(["sphere", "cp", "torus", "k_z", "point", "product",
                                             "wedge_cohomology", "truncated_poly", "nope"]),
                            st.lists(inner, max_size=2).map(",".join)),
    max_leaves=3).map(lambda s: [s])

# subcommand -> (positional arguments, options, of which the first `required` are)
_COMMANDS = {
    "validate": ([_FILE], [], 0),
    "cohomology": ([_FILE], [("--name", _NAME), ("--max", _INT), ("--json", _ON)], 1),
    "minimal-model": ([_FILE], [("--name", _NAME), ("--max", _INT),
                                ("--of-cohomology", _INT), ("--json", _ON)], 1),
    "homotopy": ([_FILE], [("--name", _NAME), ("--ranks", _INT), ("--brackets", _INT),
                           ("--filtration", _INT), ("--hurewicz", _INT), ("--json", _ON)], 1),
    "bch": ([_FILE, _VEC, _VEC], [("--name", _NAME), ("--class", _INT), ("--json", _ON)], 1),
    "invariants": ([_FILE], [("--name", _NAME), ("--max", _INT), ("--toomer", _ON),
                             ("--cat", _ON), ("--massey", st.lists(_ELEMENT, min_size=3,
                                                                   max_size=3)),
                             ("--tc", _ON), ("--loop-betti", _INT), ("--trichotomy", _ON),
                             ("--of-cohomology", _ON), ("--plot", st.just(["{dir}/p.csv"])),
                             ("--json", _ON)], 1),
    "elliptic-check": ([], [("--evens", _INTS), ("--odds", _INTS), ("--json", _ON)], 0),
    "loopspace": ([_FILE], [("--name", _NAME), ("--max", _INT), ("--json", _ON)], 1),
    "fibration": ([st.just(["pullback"]), _FILE],
                  [("--total", _NAME), ("--base", st.sampled_from(["a", "a,b", "u", ""])
                                        .map(lambda s: [s])),
                   ("--along", _MORPHISM), ("--json", _ON)], 3),
    "config-space": ([_FILE], [("--pd", _NAME), ("--k", _INT), ("--max", _INT),
                               ("--json", _ON)], 2),
    "arrangement": ([_FILE], [("--name", st.sampled_from(["braid3", "boolean3", "nope"])
                               .map(lambda s: [s])), ("--max", _INT), ("--json", _ON)], 1),
    "catalog": ([_SPEC], [("--json", _ON)], 0),
    "mapping-space": ([_FILE], [("--morphism", _MORPHISM), ("--n", _INT), ("--json", _ON)], 2),
}


@st.composite
def _cli_cases(draw):
    tokens = list(_TOKENS)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):      # half keep the catalog
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = draw(st.sampled_from(_POOL))
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, options, required = _COMMANDS[command]
    argv = [command]
    for strategy in positional:
        argv += draw(strategy)
    for i, (flag, strategy) in enumerate(options):
        if i < required or draw(st.booleans()):
            argv += [flag] + draw(strategy)
    return " ".join(tokens), argv


@settings(max_examples=150, deadline=None)
@given(case=_cli_cases())
@example(case=(_CATALOG, ["elliptic-check", "--evens", "a"]))
@example(case=(_CATALOG, ["elliptic-check", "--evens", "1.5"]))
@example(case=(_CATALOG, ["fibration", "pullback", "{file}", "--total", "S2", "--base", "u",
                          "--along", "double"]))
@example(case=(_CATALOG, ["invariants", "{file}", "--name", "S2", "--loop-betti", "-1"]))
@example(case=(_CATALOG, ["homotopy", "{file}", "--name", "S2", "--hurewicz", "-1"]))
@example(case=(_CATALOG, ["catalog", "wedge_cohomology(1,2)"]))
@example(case=(_CATALOG, ["config-space", "{file}", "--pd", "S2", "--k", "1", "--json"]))
def test_cli_fuzz_exits_0_1_or_2(case):
    text, argv = case
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.rht")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [a.replace("{file}", path).replace("{dir}", tmp) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    if code == 0 and "--json" in argv:
        json.loads(out.getvalue())
