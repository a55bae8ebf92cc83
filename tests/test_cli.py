import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import numpy.testing as npt
import pytest

import curvlab.analysis as analysis_mod
from curvlab.analysis import (
    cross_validate_point,
    lemma_suite,
    reports_to_json,
    run_analysis,
)
from curvlab.classify import TheoremViolationError
from curvlab.cli import main
from curvlab.corpus import CORPUS_NAMES, load_corpus_metric

CORPUS_FILE = "src/curvlab/corpus_data/{}.ini"
NARIAI = CORPUS_FILE.format("nariai")
MINKOWSKI = CORPUS_FILE.format("minkowski")

# SHA-256 of `analyze <metric> --json` at the default seed; a change that
# moves any byte of a corpus report must say why and update these
ANALYZE_JSON_SHA256 = {
    "bertotti_robinson":
        "c21eface5b59c061b705b8fdbdafc70c58170b907ec44e5817ec53adcfea2569",
    "minkowski":
        "f2eeb0ce7c2d94c28e750c354c9fc5ee67ad429cac9abc6350cf21eea27444fa",
    "nariai":
        "6c43e57418a94b1b94ec49dd148e4133b2d191aad52eb26714b4827bcdf33d6a",
    "ppwave_linear":
        "7a71d97afabb8e5e6b01a0038b7edc3cc8f15d34e8736ea63a111ecbbcd36ff5",
    "ppwave_quadratic_u":
        "41d62e2a2a335c4dbd028add9cd8c3a7fa55112ca70a2c23aafd2ff1cc15711f",
    "product2x2":
        "4000892a52fa65daf3850990b54afeb2343a608ae5cb7963a5fa514301c925cb",
    "schwarzschild":
        "7923328436b52472276664c1eff8b041f1309cc6a8114fb58b5495a1f04fbebe",
}

SCHEMA_KEYS = {"metric", "point", "residuals", "petrov", "np",
               "spin_coefficients", "classification", "tolerances", "seed"}
RESIDUAL_KEYS = {"semi", "conformal", "ricci", "second_order",
                 "nabla_riemann"}
CLASSIFICATION_KEYS = {"branch", "A", "B", "constraints", "recurrence",
                       "decomposability", "dec", "purely_electric"}
SPIN_KEYS = {"kappa", "sigma", "rho", "tau", "epsilon", "beta", "alpha",
             "gamma", "pi", "lambda", "mu", "nu"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeJson:
    def analyze(self, capsys, *extra):
        code, out, err = run_cli(capsys, "analyze", NARIAI, "--json",
                                 "--point", "p0", *extra)
        assert code == 0, err
        return json.loads(out)

    def test_document_is_a_list_of_point_objects(self, capsys):
        doc = self.analyze(capsys)
        assert isinstance(doc, list) and len(doc) == 1
        assert set(doc[0]) == SCHEMA_KEYS

    def test_stable_subkeys(self, capsys):
        obj = self.analyze(capsys)[0]
        assert set(obj["residuals"]) == RESIDUAL_KEYS
        for entry in obj["residuals"].values():
            assert set(entry) == {"value", "scale", "verdict"}
        assert set(obj["np"]) == {"psi", "phi", "R"}
        assert set(obj["spin_coefficients"]) == SPIN_KEYS
        assert set(obj["classification"]) == CLASSIFICATION_KEYS
        assert set(obj["tolerances"]) == {"tol", "dead_band"}
        assert set(obj["point"]) == {"name", "coords"}

    def test_complex_values_serialize_as_re_im_pairs(self, capsys):
        obj = self.analyze(capsys)[0]
        assert len(obj["np"]["psi"]) == 5
        assert all(len(entry) == 2 for entry in obj["np"]["psi"])
        assert np.array(obj["np"]["phi"]).shape == (3, 3, 2)
        assert all(len(v) == 2 for v in obj["spin_coefficients"].values())

    def test_known_values_round_trip(self, capsys):
        obj = self.analyze(capsys)[0]
        assert obj["metric"] == "nariai"
        assert obj["point"]["name"] == "p0"
        assert obj["petrov"] == "D"
        npt.assert_allclose(obj["np"]["R"], 4.0, rtol=1e-12)
        npt.assert_allclose(obj["np"]["psi"][2], [-1.0 / 3.0, 0.0],
                            atol=1e-12)
        cls = obj["classification"]
        assert cls["branch"] == "D-generic-decomposable"
        npt.assert_allclose(cls["A"], 2.0, rtol=1e-9)
        npt.assert_allclose(cls["B"], -2.0, rtol=1e-9)
        assert cls["dec"] == "satisfied"
        assert cls["purely_electric"] is True

    def test_seed_and_tol_echoed(self, capsys):
        obj = self.analyze(capsys, "--seed", "123", "--tol", "1e-8")[0]
        assert obj["seed"] == 123
        npt.assert_allclose(obj["tolerances"]["tol"], 1e-8)

    def test_points_sorted_by_name(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", NARIAI, "--json",
                               "--all-points")
        assert code == 0
        names = [obj["point"]["name"] for obj in json.loads(out)]
        assert names == sorted(names) and len(names) == 5

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_reports_are_pinned(self, capsys, name):
        code, out, err = run_cli(capsys, "analyze", CORPUS_FILE.format(name),
                                 "--json")
        assert code == 0, err
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == ANALYZE_JSON_SHA256[name]

    def test_byte_identical_across_runs(self, capsys):
        first = run_cli(capsys, "analyze", NARIAI, "--json", "--seed", "7")
        second = run_cli(capsys, "analyze", NARIAI, "--json", "--seed", "7")
        assert first == second
        assert first[0] == 0


class TestAnalyzeText:
    def test_sections_present(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", NARIAI, "--point", "p0")
        assert code == 0
        for needle in ("residuals:", "petrov: D", "spin coefficients:",
                       "classification: D-generic-decomposable",
                       "spinor condition family D"):
            assert needle in out, needle

    def test_cross_validation_flag_adds_section(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", MINKOWSKI,
                               "--cross-validate")
        assert code == 0
        assert "route cross-validation" in out

    def test_flags_are_mutually_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "analyze", NARIAI, "--point", "p0",
                               "--all-points")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0


class TestClassifyCommand:
    def test_one_line_per_point(self, capsys):
        code, out, _ = run_cli(capsys, "classify", NARIAI)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all("D-generic-decomposable" in ln for ln in lines)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_lines_match_full_analysis(self, capsys, name):
        code, out, err = run_cli(capsys, "classify", CORPUS_FILE.format(name))
        assert code == 0, err
        expected = []
        for rep in run_analysis(load_corpus_metric(name)):
            c = rep.classification
            extra = f"  [{'; '.join(c.warnings)}]" if c.warnings else ""
            expected.append(
                f"{rep.metric} {rep.point_name}: {c.branch} (petrov "
                f"{rep.petrov}, semi-symmetry {c.semi_verdict}, dec "
                f"{c.dec}){extra}")
        assert out.splitlines() == expected


class TestCorpusCommand:
    def test_list_names_every_bundled_metric(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(CORPUS_NAMES)
        for name in CORPUS_NAMES:
            assert any(ln.startswith(name + ":") for ln in lines)

    def test_run_reproduces_golden_records_quickly(self, capsys):
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "corpus", "run")
        elapsed = time.monotonic() - start
        assert code == 0
        assert "all golden records reproduced" in out
        assert "MISMATCH" not in out
        assert elapsed < 60.0
        # one line per corpus point plus the summary
        point_lines = [ln for ln in out.strip().splitlines()
                       if ": ok" in ln]
        assert len(point_lines) == 31


class TestLemmasCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_suite_content(self):
        ok, lines = lemma_suite()
        assert ok
        assert len(lines) == 12


class TestExitCodes:
    def write(self, tmp_path, text):
        target = tmp_path / "case.ini"
        target.write_text(text, encoding="utf-8")
        return str(target)

    def test_missing_file(self, capsys, tmp_path):
        with pytest.raises(OSError):
            main(["analyze", str(tmp_path / "absent.ini")])

    def test_parse_error_is_one(self, capsys, tmp_path):
        path = self.write(tmp_path, "[chart\n")
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 1 and "line 1" in err

    def test_validation_error_is_one(self, capsys, tmp_path):
        path = self.write(tmp_path, "[chart]\ncoords = t, x, y\n")
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 1 and "[chart]" in err

    def test_unknown_point_is_one(self, capsys):
        code, _, err = run_cli(capsys, "analyze", NARIAI, "--point", "nope")
        assert code == 1 and "nope" in err

    def test_degenerate_metric_is_two(self, capsys, tmp_path):
        text = ("[chart]\ncoords = t, x, y, z\n[metric]\n"
                "g00 = t\ng01 = 0\ng02 = 0\ng03 = 0\ng11 = -1\ng12 = 0\n"
                "g13 = 0\ng22 = -1\ng23 = 0\ng33 = -1\n"
                "[points]\np0 = 0, 0, 0, 0\n")
        code, _, err = run_cli(capsys, "analyze", self.write(tmp_path, text))
        assert code == 2 and "degenerate" in err

    def test_invalid_tetrad_is_three(self, capsys, tmp_path):
        text = ("[chart]\ncoords = t, x, y, z\n[metric]\n"
                "g00 = 1\ng01 = 0\ng02 = 0\ng03 = 0\ng11 = -1\ng12 = 0\n"
                "g13 = 0\ng22 = -1\ng23 = 0\ng33 = -1\n"
                "[tetrad]\nk = 1, 1, 0, 0\nl = 1, 1, 0, 0\n"
                "m_re = 0, 0, 1, 0\nm_im = 0, 0, 0, 1\n"
                "[points]\np0 = 0, 0, 0, 0\n")
        code, _, err = run_cli(capsys, "analyze", self.write(tmp_path, text))
        assert code == 3 and "[tetrad]" in err

    def test_missing_tetrad_is_three(self, capsys, tmp_path):
        text = ("[chart]\ncoords = t, x, y, z\n[metric]\n"
                "g00 = 1\ng01 = 0\ng02 = 0\ng03 = 0\ng11 = -1\ng12 = 0\n"
                "g13 = 0\ng22 = -1\ng23 = 0\ng33 = -1\n"
                "[points]\np0 = 0, 0, 0, 0\n")
        path = self.write(tmp_path, text)
        for command in ("analyze", "classify"):
            code, _, err = run_cli(capsys, command, path)
            assert code == 3 and "tetrad" in err

    def minkowski_with_g11(self, tmp_path, g11):
        with open(MINKOWSKI, encoding="utf-8") as fh:
            text = fh.read().replace("g11 = -1\n", f"g11 = {g11}\n")
        assert f"g11 = {g11}" in text
        return self.write(tmp_path, text)

    def test_derivative_error_is_one(self, capsys, tmp_path):
        path = self.minkowski_with_g11(tmp_path, "-1 - abs(x)*0.01")
        code, out, err = run_cli(capsys, "analyze", path, "--json")
        assert code == 1 and out == ""
        assert err == "error: abs has no derivative in this language\n"

    def test_domain_error_is_one(self, capsys, tmp_path):
        # sqrt(x) has an infinite slope at the origin; the error names the
        # live derivative node, not a folded-away 0/(2 sqrt(x))
        path = self.minkowski_with_g11(tmp_path, "-1 - sqrt(x)")
        code, out, err = run_cli(capsys, "analyze", path, "--json")
        assert code == 1 and out == ""
        assert err == ("error: division by zero in "
                       "'1.0/(2.0*sqrt(x))'\n")

    def test_deep_nesting_is_one(self, capsys, tmp_path):
        # 3000 chained terms exceed the recursive evaluator's depth while
        # the signature is checked at load time
        terms = " + ".join(["0.0001*x"] * 3000)
        path = self.minkowski_with_g11(tmp_path, f"-1 - ({terms})")
        for command in ("analyze", "classify"):
            code, out, err = run_cli(capsys, command, path)
            assert code == 1 and out == ""
            assert err == "error: expression nested too deeply to evaluate\n"

    def test_theorem_violation_is_four(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise TheoremViolationError((0, 0, 0, 0), "II", "holds")

        monkeypatch.setattr(analysis_mod, "classify_point", explode)
        code, _, err = run_cli(capsys, "analyze", MINKOWSKI)
        assert code == 4 and "type II" in err


class TestAnalysisHelpers:
    def test_spinor_family_check_skips_mixed_data(self):
        m = load_corpus_metric("schwarzschild")
        reports = run_analysis(m, point="p0")
        # semi-symmetry fails, so the family cross-check must not run
        assert reports[0].spinor_checks is None

    def test_spinor_family_check_matches_radiation(self):
        m = load_corpus_metric("ppwave_linear")
        rep = run_analysis(m, point="p0")[0]
        checks = rep.spinor_checks
        assert checks is not None and checks["family"] == "N"
        for key in ("weyl_condition_1", "contracted_condition",
                    "weyl_condition_2", "ricci_commutator"):
            assert checks[key] <= 1e-12, key

    def test_cross_validation_routes_agree(self):
        m = load_corpus_metric("product2x2")
        for pname, coords in m.points.items():
            for name, (a, b, rel) in cross_validate_point(
                    m, coords, 1e-9).items():
                assert rel <= 1e-7, (pname, name, rel)

    def test_json_serialization_handles_missing_fields(self):
        m = load_corpus_metric("minkowski")
        text = reports_to_json(run_analysis(m), 1e-9, 7)
        obj = json.loads(text)[0]
        assert obj["classification"]["A"] is None
        assert obj["classification"]["recurrence"] is None


class TestInstalledEntryPoint:
    def test_console_script_round_trip(self, tmp_path):
        cmd = [sys.executable, "-m", "curvlab.cli", "analyze", MINKOWSKI,
               "--json", "--seed", "7"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)[0]["metric"] == "minkowski"
