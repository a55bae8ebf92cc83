import dataclasses
import hashlib
import json
import math
import random
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import curvlab.analysis as analysis_mod
from curvlab.analysis import (
    cross_validate_point,
    lemma_suite,
    report_json_object,
    reports_to_json,
    run_analysis,
)
from curvlab.classify import TheoremViolationError
from curvlab.cli import main
from curvlab.corpus import CORPUS_NAMES, load_corpus_metric
from curvlab.expressions import FUNCTIONS
from curvlab.metricfile import parse_metric_text

CORPUS_FILE = "src/curvlab/corpus_data/{}.ini"
NARIAI = CORPUS_FILE.format("nariai")
MINKOWSKI = CORPUS_FILE.format("minkowski")
SCHWARZSCHILD = CORPUS_FILE.format("schwarzschild")

# SHA-256 of `analyze <metric> --json` at the default seed; a change that
# moves any byte of a corpus report must say why and update these
ANALYZE_JSON_SHA256 = {
    "bertotti_robinson":
        "c21eface5b59c061b705b8fdbdafc70c58170b907ec44e5817ec53adcfea2569",
    "minkowski":
        "f2eeb0ce7c2d94c28e750c354c9fc5ee67ad429cac9abc6350cf21eea27444fa",
    "nariai":
        "d9d247746279473cb437f143cb89ce96c7960b4da2847cf228e7ccc1566cb966",
    "ppwave_linear":
        "7a71d97afabb8e5e6b01a0038b7edc3cc8f15d34e8736ea63a111ecbbcd36ff5",
    "ppwave_quadratic_u":
        "41d62e2a2a335c4dbd028add9cd8c3a7fa55112ca70a2c23aafd2ff1cc15711f",
    "product2x2":
        "1984043fd5932fe4ca2e18cab2230ba5f42ec870e1c8bf7a442e06e374ca4f56",
    "schwarzschild":
        "7923328436b52472276664c1eff8b041f1309cc6a8114fb58b5495a1f04fbebe",
}

# SHA-256 of the text outputs that hold the spinor-family residuals and
# the lemma suite, pinned like the JSON reports above: `analyze <metric>`
# and `classify <metric>` at the default seed, `analyze schwarzschild.ini
# --cross-validate` and `lemmas`
ANALYZE_TEXT_SHA256 = {
    "bertotti_robinson":
        "1bfba4409af15747b62bf91c66c3970ebe5bc3b5410bdd0876c9b8320f4895bd",
    "minkowski":
        "39f584ffe667f332e1095aed9e217cdad44eafbf5416410f182ece65d5454fb0",
    "nariai":
        "be89d250f55202b3fc62f65ff31d2b359d0e74a2cdda2fe31bd607d2f54dea3b",
    "ppwave_linear":
        "6c71f8eb4c7fd5bf213980531807d1dad8492002a9bf5f3b99e943fdd5d2f591",
    "ppwave_quadratic_u":
        "75d9f842fc54594939304183faa2bd74d01cb2ecc554645ea43623e66b0a126b",
    "product2x2":
        "dfbcf9fa4b3735c5786f3a76b9fdfb99cd75f9a29c0a1a1cfdf2c31f4666b46d",
    "schwarzschild":
        "71b570711904b80c8eb0fc2abeca57349a70a91ae5f9f27afdf95d6628ac8764",
}
CLASSIFY_SHA256 = {
    "bertotti_robinson":
        "0ac267f1ff99c2fce22803b56f37c06750dc27c0402f4fa05d34429b7b609790",
    "minkowski":
        "75651f41b91b4632f3171d5599ce5a7ce18e0f16e8662cd2ee1801632f39d179",
    "nariai":
        "2062901d9eada61e98a9bf77937bd4cec70df2a33336268b34ed683c4842e74a",
    "ppwave_linear":
        "1cb54af3930caa2bde90826787ca18f3c3a907c4fa7ba7fd0d890f3951023da7",
    "ppwave_quadratic_u":
        "d46eb48930495952aa4de5b0a7630ca68d3e98f11de2e49e35c94ce4b67dcd4d",
    "product2x2":
        "137916f4e8f709a09e8ef6f661c788433b131d8e82fb36ad30de7f1d01525bc6",
    "schwarzschild":
        "0ca1d3403c7bf15655c05604c0b58e10f269d0ac04f43728332788b1c86da61e",
}
CROSS_VALIDATE_TEXT_SHA256 = (
    "5a3cd26481a9dcb296311e7fefdd69835c731feaaf2c0fd67ed0fe90c9409ffe")
LEMMAS_SHA256 = (
    "e8bf0ec5e4a53a20de1506be218804df2c688253bf524e4875f674a2d97723ba")

# `analyze <metric> --json` at the default seed, checked in when the
# pins above were last confirmed.  A change that moves last bits but no
# branch, verdict or Petrov type still passes this value-level guard
# while it re-pins the SHA-256 values; ULP_BOUND never grows to let one
# pass.
REPORT_DIR = Path(__file__).resolve().parent / "data" / "analyze_json"
ULP_BOUND = 64
ABS_FLOOR = 1e-300      # values this close to zero have no useful ulp


def report_differences(got, want, where="$"):
    """Where ``got`` differs from ``want``: any key, string, bool or int,
    or a float further than ULP_BOUND ulps (or ABS_FLOOR) away."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys differ"]
        return [d for k in want
                for d in report_differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in report_differences(g, w, f"{where}[{i}]")]
    if type(want) is float and type(got) is float:
        bound = max(ULP_BOUND * math.ulp(max(abs(got), abs(want))),
                    ABS_FLOOR)
        if got == want or abs(got - want) <= bound:
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


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


def pinned_digest(capsys, *argv):
    """SHA-256 of the standard output of a command that must succeed."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


SCAN_POINTS = 40
# the grid_scan benchmark's coordinate box, where product2x2 is regular
SCAN_BOX = ((-1.0, 1.0), (-1.5, 1.5), (-math.pi, math.pi), (-math.pi, math.pi))


@pytest.fixture(scope="module")
def scan_reports():
    """The reports of a seeded SCAN_POINTS-point scan of product2x2, whose
    [points] section is the last of its file."""
    text = (resources.files("curvlab") / "corpus_data"
            / "product2x2.ini").read_text(encoding="utf-8")
    rng = random.Random(40)
    points = "".join(
        f"p{i:03d} = " + ", ".join(repr(rng.uniform(*r)) for r in SCAN_BOX)
        + "\n" for i in range(SCAN_POINTS))
    m = parse_metric_text(text.split("[points]")[0] + "[points]\n" + points,
                          "product2x2")
    return run_analysis(m)


def edited_reports(reports):
    """Copies of ``reports`` whose values reach what the encoder writes
    specially: NaN, ±inf and None, non-ASCII text, and a quote, a
    backslash, a tab and a newline in a name."""
    out = []
    for k, rep in enumerate(reports):
        c = rep.classification
        residuals = {name: dataclasses.replace(r, residual=math.nan,
                                               scale=math.inf)
                     for name, r in rep.residuals.items()}
        psi = rep.np_data.psi.copy()
        psi[k % 5] = complex(-math.inf, math.nan)
        out.append(dataclasses.replace(
            rep, metric="métrique ✓ Ψ", point_name=f'p"{k}\\ \t\n',
            coords=(math.inf, -math.inf, math.nan, -0.0),
            residuals=residuals,
            np_data=dataclasses.replace(rep.np_data, psi=psi,
                                        scalar=-math.inf),
            spin=dict(rep.spin, kappa=complex(math.nan, math.inf)),
            classification=dataclasses.replace(
                c, A=math.nan, B=-math.inf, recurrence=None,
                decomposability=math.inf, purely_electric=None,
                constraints=dict(c.constraints, edited=math.nan))))
    return out


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
        assert pinned_digest(capsys, "analyze", CORPUS_FILE.format(name),
                             "--json") == ANALYZE_JSON_SHA256[name]

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_reports_match_the_checked_in_values(self, capsys, name):
        code, out, err = run_cli(capsys, "analyze", CORPUS_FILE.format(name),
                                 "--json")
        assert code == 0, err
        want = json.loads((REPORT_DIR / f"{name}.json").read_text("utf-8"))
        assert report_differences(json.loads(out), want) == []

    def test_value_guard_bounds(self):
        want = {"branch": "D", "x": [1.0, 0.0], "n": 7, "ok": True}
        assert report_differences(want, want) == []
        moved = 1.0 + ULP_BOUND * math.ulp(1.0)
        assert report_differences(
            {"branch": "D", "x": [moved, 1e-301], "n": 7, "ok": True},
            want) == []
        for got in ({"branch": "N", "x": [1.0, 0.0], "n": 7, "ok": True},
                    {"branch": "D", "x": [math.nextafter(moved, 2.0), 0.0],
                     "n": 7, "ok": True},
                    {"branch": "D", "x": [1.0, 2e-300], "n": 7, "ok": True},
                    {"branch": "D", "x": [1.0, 0.0], "n": 7.0, "ok": True},
                    {"branch": "D", "x": [1.0, 0.0], "n": 7, "ok": 1},
                    {"branch": "D", "x": [1.0], "n": 7, "ok": True},
                    {"branch": "D", "x": [1.0, 0.0], "n": 7}):
            assert report_differences(got, want) != [], got

    def test_byte_identical_across_runs(self, capsys):
        first = run_cli(capsys, "analyze", NARIAI, "--json", "--seed", "7")
        second = run_cli(capsys, "analyze", NARIAI, "--json", "--seed", "7")
        assert first == second
        assert first[0] == 0

    def test_rendering_is_the_one_call_encoders_bytes(self, scan_reports):
        # reports_to_json must write exactly what one json.dumps call over
        # the whole list writes, for every kind of value a report holds
        def reference(reports, tol, seed):
            return json.dumps([report_json_object(r, tol, seed)
                               for r in reports], indent=2,
                              sort_keys=True) + "\n"

        cases = {"no reports": [], "one report": scan_reports[:1],
                 "scan": scan_reports,
                 "edited": edited_reports(scan_reports[:3])}
        for name in CORPUS_NAMES:
            cases[name] = run_analysis(load_corpus_metric(name))
        for case, reports in cases.items():
            for tol, seed in ((1e-9, 7), (2.5e-7, 123)):
                assert reports_to_json(reports, tol, seed) == reference(
                    reports, tol, seed), case
        edited = reports_to_json(edited_reports(scan_reports[:1]), 1e-9, 7)
        for text in ("NaN", "-Infinity", "null", "\\u00e9", '\\"', "\\\\",
                     "\\t\\n"):
            assert text in edited, text

    def test_rendering_holds_one_reports_chunks_at_a_time(self,
                                                          scan_reports):
        # the pure-Python indent encoder keeps a chunk list of about 8
        # times its output; rendered report by report, the peak is the
        # output and its parts, plus one report's chunks
        tracemalloc.start()
        try:
            text = reports_to_json(scan_reports, 1e-9, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text), peak / len(text)


class TestAnalyzeText:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_reports_are_pinned(self, capsys, name):
        assert pinned_digest(capsys, "analyze", CORPUS_FILE.format(name)) \
            == ANALYZE_TEXT_SHA256[name]

    def test_cross_validated_report_is_pinned(self, capsys):
        assert pinned_digest(capsys, "analyze", SCHWARZSCHILD,
                             "--cross-validate") == CROSS_VALIDATE_TEXT_SHA256

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

    @pytest.mark.parametrize("command", ("analyze", "classify"))
    def test_subcommand_help_documents_tol_and_seed(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "residual tolerance, positive and finite" in out
        assert "seed for the energy-condition sampling" in out


class TestClassifyCommand:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_lines_are_pinned(self, capsys, name):
        assert pinned_digest(capsys, "classify", CORPUS_FILE.format(name)) \
            == CLASSIFY_SHA256[name]

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
    def test_output_is_pinned(self, capsys):
        assert pinned_digest(capsys, "lemmas") == LEMMAS_SHA256

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
        path = str(tmp_path / "absent.ini")
        for command in ("analyze", "classify"):
            code, out, err = run_cli(capsys, command, path)
            assert code == 1 and out == ""
            assert err == (f"error: cannot read '{path}': "
                           "No such file or directory\n")

    def test_unreadable_file_is_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path))
        assert code == 1
        assert err.startswith(f"error: cannot read '{tmp_path}': ")
        assert len(err.splitlines()) == 1
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[chart]\ncoords = t, x, y, \xe9\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert err.startswith(f"error: cannot read '{path}': ")
        assert len(err.splitlines()) == 1

    def test_parse_error_is_one(self, capsys, tmp_path):
        path = self.write(tmp_path, "[chart\n")
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 1 and "line 1" in err

    def test_validation_error_is_one(self, capsys, tmp_path):
        path = self.write(tmp_path, "[chart]\ncoords = t, x, y\n")
        code, _, err = run_cli(capsys, "analyze", path)
        assert code == 1 and "[chart]" in err

    def schwarzschild_with(self, tmp_path, old, new):
        with open(SCHWARZSCHILD, encoding="utf-8") as fh:
            text = fh.read()
        assert old in text
        return self.write(tmp_path, text.replace(old, new))

    def test_param_naming_a_coordinate_is_one(self, capsys, tmp_path):
        path = self.schwarzschild_with(tmp_path, "M = 1.0\n",
                                       "M = 1.0\nr = 7.0\n")
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 1 and out == ""
        assert err == ("error: [params] entry 'r' is also a [chart] "
                       "coordinate\n")

    @pytest.mark.parametrize("command", ("analyze", "classify"))
    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("section", ("params", "points"))
    def test_non_finite_number_is_one(self, capsys, tmp_path, command,
                                      value, section):
        if section == "params":
            path = self.schwarzschild_with(tmp_path, "M = 1.0",
                                           f"M = {value}")
            message = "error: [params] entry 'M' must be a finite number"
        else:
            path = self.schwarzschild_with(
                tmp_path, "p1 = 0.0, 3.0, 1.0, 2.0",
                f"p1 = 0.0, {value}, 1.0, 2.0")
            message = "error: [points] entry 'p1' must hold finite numbers"
        code, out, err = run_cli(capsys, command, path)
        assert code == 1 and out == ""
        assert err.startswith(message)
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_unknown_point_is_one(self, capsys):
        code, _, err = run_cli(capsys, "analyze", NARIAI, "--point", "nope")
        assert code == 1 and "nope" in err

    def test_empty_point_name_is_one(self, capsys):
        # an empty name is a name like any other, not "every point"
        code, out, err = run_cli(capsys, "analyze", NARIAI, "--point", "")
        assert code == 1 and out == ""
        assert "has no point named ''" in err

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

    @pytest.mark.parametrize("command", ("analyze", "classify"))
    @pytest.mark.parametrize("tol", ("nan", "inf", "-inf", "-1", "0", "-0"))
    def test_meaningless_tol_is_one(self, capsys, command, tol):
        code, out, err = run_cli(capsys, command, SCHWARZSCHILD, f"--tol={tol}")
        assert code == 1 and out == ""
        assert err == "error: --tol must be a positive finite number\n"

    @pytest.mark.parametrize("command", ("analyze", "classify"))
    @pytest.mark.parametrize("name", ("minkowski", "product2x2", "nariai"))
    def test_negative_seed_is_one(self, capsys, command, name):
        # the seed reaches numpy only where a point has matter to sample,
        # so a vacuum metric must be rejected up front as well
        code, out, err = run_cli(capsys, command, CORPUS_FILE.format(name),
                                 "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: --seed must be a non-negative integer\n"

    @pytest.mark.parametrize("command, marker", (("analyze", "petrov: D"),
                                                 ("classify", "(petrov D,")))
    def test_positive_tol_is_accepted(self, capsys, command, marker):
        code, out, err = run_cli(capsys, command, SCHWARZSCHILD,
                                 "--tol=1e-8")
        assert code == 0 and err == ""
        assert out.count(marker) == 5

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

    @pytest.mark.parametrize("line, entry, message", (
        ("g11 = -1\n", "g11 = -1 + (-2)^0.5\n",
         "power produced a complex value in '(-2.0)^0.5'"),
        ("g00 = 1\n", "g00 = 1 + 1e308*10\n", "overflow in '1e+308*10.0'"),
        ("g00 = 1\n", "g00 = 1 + 10^400\n", "overflow in '10.0^400.0'"),
        ("g00 = 1\n", "g00 = exp(1000)\n", "overflow in 'exp(1000.0)'"),
        ("g00 = 1\n", "g00 = 1 + 0^(-1)\n", "invalid power: 0.0 cannot be "
         "raised to a negative power in '0.0^-1.0'"),
    ))
    def test_an_unfoldable_constant_is_named(self, capsys, tmp_path, line,
                                             entry, message):
        with open(MINKOWSKI, encoding="utf-8") as fh:
            path = self.write(tmp_path, fh.read().replace(line, entry))
        for command in ("analyze", "classify"):
            code, out, err = run_cli(capsys, command, path)
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_a_folded_away_overflow_leaves_the_report(self, capsys, tmp_path):
        # 0*(1e308*10) is 0, not 0*inf = nan in a tetrad leg
        old = "m_re = 0, 0, 1/(sqrt(2)*r), 0"
        path = tmp_path / "schwarzschild.ini"
        with open(SCHWARZSCHILD, encoding="utf-8") as fh:
            text = fh.read()
        assert old in text
        path.write_text(text.replace(old, old[:-3] + " + 0*(1e308*10), 0"),
                        encoding="utf-8")
        got = run_cli(capsys, "analyze", str(path), "--json")
        assert got == run_cli(capsys, "analyze", SCHWARZSCHILD, "--json")

    def test_large_components_are_scaled_not_overflowed(self, capsys,
                                                        tmp_path):
        # Minkowski with g_ab times 1e100 and every leg times 1e-50
        with open(MINKOWSKI, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        scaled = []
        for line in lines:
            key, _, value = line.partition("=")
            if key.startswith("g"):
                line = f"{key}= ({value.strip()})*1e100\n"
            elif key.strip() in ("k", "l", "m_re", "m_im"):
                legs = ", ".join(f"({c.strip()})*1e-50"
                                 for c in value.split(","))
                line = f"{key}= {legs}\n"
            scaled.append(line)
        path = self.write(tmp_path, "".join(scaled))
        assert "g00 = (1)*1e100" in "".join(scaled)
        code, out, err = run_cli(capsys, "classify", path)
        assert (code, err) == (0, "")
        assert out == "case origin: O (petrov O, semi-symmetry holds, " \
            "dec satisfied)\n"
        path = self.minkowski_with_g11(tmp_path, "-1e200")
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: metric 'case' is degenerate at "
                              "(0.0, 0.0, 0.0, 0.0): det(g/max|g|) = ")

    def test_a_leg_too_large_for_the_metric_is_invalid(self, capsys,
                                                       tmp_path):
        # its products overflow; inf <= tol * inf must not pass the check
        with open(MINKOWSKI, encoding="utf-8") as fh:
            text = fh.read().replace("m_re = 0, 0, 1/sqrt(2), 0",
                                     "m_re = 0, 0, 1e200, 0")
        path = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "classify", path)
        assert code == 3 and out == ""
        assert err == ("error: [tetrad] at point 'origin': tetrad invalid at "
                       "(0.0, 0.0, 0.0, 0.0): worst product m.m has residual "
                       "inf (scale inf)\n")

    def test_deep_nesting_gets_the_bare_report(self, capsys, tmp_path):
        # the parser keeps the rules it is inside of on a stack of its
        # own, so any depth of parentheses parses, to the bare entry
        commands = ("analyze", "classify")
        path = self.minkowski_with_g11(tmp_path, "-1")
        bare = [run_cli(capsys, command, path) for command in commands]
        assert all(code == 0 and err == "" for code, _, err in bare)
        for depth in (600, 5000):
            path = self.minkowski_with_g11(
                tmp_path, "-" + "(" * depth + "1" + ")" * depth)
            assert [run_cli(capsys, command, path)
                    for command in commands] == bare, depth

    def test_deep_sum_gets_a_report(self, capsys, tmp_path):
        # 3000 chained terms: parsed by loops, then differentiated,
        # placed on the tape and evaluated without recursion
        terms = " + ".join(["0.0001*x"] * 3000)
        path = self.minkowski_with_g11(tmp_path, f"-1 - ({terms})")
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 0 and err == ""
        assert out.count("classification: O\n") == 1
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 0 and err == ""
        assert out.count(" origin: O (petrov O, semi-symmetry holds,") == 1

    def test_theorem_violation_is_four(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise TheoremViolationError((0, 0, 0, 0), "II", "holds")

        monkeypatch.setattr(analysis_mod, "classify_point", explode)
        code, _, err = run_cli(capsys, "analyze", MINKOWSKI)
        assert code == 4 and "type II" in err


# pieces of the fuzzed metric entries: numbers at the edges of the double
# range and off the reals under a power, every function, every coordinate
FUZZ_SEED = 3
FUZZ_TEXTS = 300
FUZZ_NUMBERS = ("1e308", "1e400", "1e-300", "-2", "0.5")
FUZZ_NAMES = FUZZ_NUMBERS + ("t", "x", "y", "z")
FUZZ_WRAPS = ("{}", "1 + 0*({})", "1 + 1e-30*({})")
FUZZ_FILES = 80


def fuzz_text(rng, depth=3):
    """A random text of the expression grammar, nested ``depth`` deep."""
    roll = rng.random() if depth else 0.0
    if roll < 0.35:
        return rng.choice(FUZZ_NAMES)
    sub = fuzz_text(rng, depth - 1)
    if roll < 0.5:
        return f"{rng.choice(sorted(FUNCTIONS))}({sub})"
    if roll < 0.6:
        return f"-({sub})" if sub.startswith("-") else f"-{sub}"
    if roll < 0.7:
        return f"({sub})"
    return f"{sub} {rng.choice('+-*/^')} {fuzz_text(rng, depth - 1)}"


# values for [params] and [points] entries: numbers at and past the
# float range, non-finite and malformed words, names and expressions
FUZZ_VALUES = FUZZ_NUMBERS + (
    "0", "-0.0", "2", "1e-320", "-1e308", "nan", "inf", "-inf", "", "M", "r",
    "2*3", "(1)", "1e", "0x10", "1_0", "\u0661")
# whole lines for [section] bodies: headers, entries of every section,
# entries of none, and broken lines
FUZZ_LINES = (
    "[chart]", "[params]", "[metric]", "[tetrad]", "[points]", "[flags]",
    "[metric", "[]", "[ tetrad ]", "[extra]", "=", "= 1", "g00 =",
    "g00 = 1 = 2", "coords = t, r", "coords = t, r, theta, theta",
    "coords = t, r, theta, 2phi", "M = 1", "r = 1", "p9 = 0, 4, 1, 0",
    "p9 = 0, 4, 1", "k = 1, 0, 0, 0", "m_im = 0, 0, 0", "g44 = 1",
    "static = maybe", "static = yes", "x", "# comment only", "; comment")


def fuzz_value(rng) -> str:
    return rng.choice(FUZZ_VALUES) if rng.random() < 0.8 else fuzz_text(rng)


def fuzz_params_and_points(rng, text: str) -> str:
    """Schwarzschild text with one to three [params] or [points] entries
    rewritten or added."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3:
            at = next(i for i, line in enumerate(lines)
                      if line.startswith("M = "))
            lines[at] = f"M = {fuzz_value(rng)}"
        elif roll < 0.45:
            name = rng.choice(["N", "M", "r", "_a", "2x", "a b", "\u00e9"])
            lines.insert(lines.index("[params]") + 1,
                         f"{name} = {fuzz_value(rng)}")
        else:
            # mostly finite coordinates: r = 2 is the horizon, theta = 0
            # and 3.14159 lie on or next to the axis
            coords = [rng.choice(("0", "2", "3", "-4", "0.5", "3.14159"))
                      if rng.random() < 0.8 else
                      rng.choice(("2.0000000001", "1e308", "1e-300", "nan",
                                  "x", "", "(1, 2)"))
                      for _ in range(rng.choice((3, 4, 4, 4, 5)))]
            name = f"p{rng.randrange(6)}"
            point = f"{name} = " + ", ".join(coords)
            at = [i for i, line in enumerate(lines)
                  if line.startswith(f"{name} = ")]
            if at:
                lines[at[0]] = point
            else:       # [points] is the file's last section
                lines.append(point)
    return "\n".join(lines) + "\n"


def fuzz_sections(rng, text: str) -> str:
    """Schwarzschild text with one or two sections dropped, repeated,
    moved, renamed or given a fuzzed body."""
    sections = [block.strip("\n") for block in
                ("\n" + text).split("\n[")[1:]]
    sections = ["[" + block for block in sections]
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        i = rng.randrange(len(sections))
        if roll < 0.2 and len(sections) > 1:
            del sections[i]
        elif roll < 0.35:
            sections.insert(rng.randrange(len(sections) + 1), sections[i])
        elif roll < 0.5:
            sections.insert(rng.randrange(len(sections)), sections.pop(i))
        elif roll < 0.65:
            body = sections[i].split("\n", 1)[1:]
            sections[i] = "\n".join(
                [rng.choice(FUZZ_LINES[:10] + ("[param]", "[Metric]"))]
                + body)
        else:
            header, *body = sections[i].split("\n")
            for _ in range(rng.randint(1, 3)):
                line = rng.choice(FUZZ_LINES) if rng.random() < 0.7 else \
                    f"{rng.choice(('g00', 'M', 'p0', 'k', 'coords'))} = " \
                    + fuzz_text(rng)
                if body and rng.random() < 0.5:
                    body[rng.randrange(len(body))] = line
                else:
                    body.insert(rng.randrange(len(body) + 1), line)
            sections[i] = "\n".join([header] + body)
    return "\n\n".join(sections) + "\n"


# leg components: exact, scaled, singular on the axis or the horizon,
# out of range, and names of every kind
FUZZ_COMPONENTS = ("0", "1", "-1", "1/2", "1/sqrt(2)", "1/(sqrt(2)*r)",
                   "1/(1 - 2*M/r)", "1/sin(theta)", "cos(theta)", "r", "t",
                   "1e-200", "1e200", "M", "k", "l", "theta/0")
FUZZ_LEG_NAMES = ("k", "l", "m_re", "m_im", "m", "n", "K", "k2", "")
FUZZ_SCALES = ("2*({})", "-({})", "0*({})", "1e-160*({})", "1e160*({})",
               "(1 + 1e-9)*({})", "({})/r")


def fuzz_tetrad(rng, text: str) -> str:
    """Schwarzschild text with one to three [tetrad] rewrites: a leg
    component replaced, a leg scaled, rewritten whole (of three to five
    components), dropped, renamed, swapped with another or repeated."""
    lines = text.splitlines()
    legs = [i for i, line in enumerate(lines)
            if line.split("=")[0].strip() in ("k", "l", "m_re", "m_im")]
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        at = rng.choice(legs)
        name, _, value = lines[at].partition("=")
        comps = [c.strip() for c in value.split(",")]
        if roll < 0.35:
            comps[rng.randrange(len(comps))] = (
                rng.choice(FUZZ_COMPONENTS) if rng.random() < 0.7
                else fuzz_value(rng))
        elif roll < 0.5:
            comps = [rng.choice(FUZZ_SCALES).format(c) for c in comps]
        elif roll < 0.6:
            comps = [rng.choice(FUZZ_COMPONENTS)
                     for _ in range(rng.choice((3, 4, 4, 5)))]
        elif roll < 0.7:
            lines[at] = ""
            continue
        elif roll < 0.8:
            name = rng.choice(FUZZ_LEG_NAMES)
        elif roll < 0.9:
            other = rng.choice(legs)
            lines[at], lines[other] = (
                lines[at].split("=")[0] + "=" + lines[other].split("=", 1)[1],
                lines[other].split("=")[0] + "=" + lines[at].split("=", 1)[1])
            continue
        else:
            lines.insert(at, lines[at])
            legs = [i + (i >= at) for i in legs]
            continue
        lines[at] = f"{name.strip()} = " + ", ".join(comps)
    return "\n".join(lines) + "\n"


FUZZ_CHART_NAMES = ("t", "r", "theta", "phi", "x", "T", "M", "sin", "exp",
                    "pi", "e", "k", "_r", "r2", "2r", "r r", "", "\u00e9",
                    "coords", "g00", "p0", "theta", "r")


def fuzz_chart(rng, text: str) -> str:
    """Schwarzschild text with its coordinate names changed: one renamed
    throughout the file (to a fresh name, or one that clashes with a
    parameter, a function or another coordinate), renamed in [chart]
    alone, or the coords list rewritten with three to five names."""
    chart = "coords = t, r, theta, phi"
    old = ["t", "r", "theta", "phi"]
    roll = rng.random()
    if roll < 0.5:
        i = rng.randrange(4)
        new = rng.choice(FUZZ_CHART_NAMES)
        body = text.replace(chart, "")
        body = re.sub(rf"\b{old[i]}\b", new, body)
        names = old[:i] + [new] + old[i + 1:]
        return body.replace("[chart]", "[chart]\ncoords = "
                            + ", ".join(names), 1)
    if roll < 0.75:
        names = list(old)
        names[rng.randrange(4)] = rng.choice(FUZZ_CHART_NAMES)
    else:
        names = [rng.choice(FUZZ_CHART_NAMES)
                 for _ in range(rng.choice((3, 4, 4, 5)))]
    return text.replace(chart, "coords = " + ", ".join(names))


class TestFuzzedEntries:
    def assert_ends_cleanly(self, capsys, path, text, what) -> int:
        """Run ``classify`` and ``analyze --json`` on ``text``; each must
        end in a documented exit code with no traceback and no numpy
        warning.  Returns the exit code of ``analyze``."""
        path.write_text(text, encoding="utf-8")
        for argv in (("classify", str(path)),
                     ("analyze", str(path), "--json")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code, _, err = run_cli(capsys, *argv)
                except Exception as exc:
                    pytest.fail(f"{argv[0]} with {what!r}: {exc!r}")
            assert 0 <= code <= 4, (argv[0], what, code)
            assert len(err.splitlines()) <= 1, (argv[0], what, err)
            assert code == 0 or err.startswith("error: "), (
                argv[0], what, err)
        return code

    def test_each_ends_in_a_report_or_one_error_line(self, capsys, tmp_path):
        # each text goes into g00 or the third component of m_re, bare or
        # under a factor that may fold it away
        with open(MINKOWSKI, encoding="utf-8") as fh:
            base = fh.read()
        slots = {"g00 = 1\n": "g00 = {}\n",
                 "m_re = 0, 0, 1/sqrt(2), 0\n": "m_re = 0, 0, {}, 0\n"}
        assert all(line in base for line in slots)
        path = tmp_path / "fuzz.ini"
        rng = random.Random(FUZZ_SEED)
        for _ in range(FUZZ_TEXTS):
            text = rng.choice(FUZZ_WRAPS).format(fuzz_text(rng))
            line = rng.choice(sorted(slots))
            entry = slots[line].format(text)
            self.assert_ends_cleanly(capsys, path, base.replace(line, entry),
                                     entry)

    def fuzzed_codes(self, capsys, tmp_path, fuzz) -> set:
        """The exit codes of ``analyze`` on FUZZ_FILES texts that
        ``fuzz(rng, text)`` makes of Schwarzschild, each ending cleanly."""
        with open(CORPUS_FILE.format("schwarzschild"), encoding="utf-8") as fh:
            base = fh.read()
        rng = random.Random(FUZZ_SEED)
        codes = set()
        for _ in range(FUZZ_FILES):
            text = fuzz(rng, base)
            codes.add(self.assert_ends_cleanly(
                capsys, tmp_path / "fuzz.ini", text, text))
        return codes

    def test_fuzzed_params_and_points(self, capsys, tmp_path):
        # parameters and points reach every stage: overflow, the horizon
        # (degenerate), the axis (a singular tetrad), extra or missing
        # coordinates, clashing or invalid names
        assert {0, 1, 2} <= self.fuzzed_codes(capsys, tmp_path,
                                              fuzz_params_and_points)

    def test_fuzzed_sections(self, capsys, tmp_path):
        assert {0, 1} <= self.fuzzed_codes(capsys, tmp_path, fuzz_sections)

    def test_fuzzed_tetrad_legs(self, capsys, tmp_path):
        # exit 3: a tetrad that fails its normalization at a point
        assert {0, 1, 3} <= self.fuzzed_codes(capsys, tmp_path, fuzz_tetrad)

    def test_fuzzed_chart_names(self, capsys, tmp_path):
        assert {0, 1} <= self.fuzzed_codes(capsys, tmp_path, fuzz_chart)


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
