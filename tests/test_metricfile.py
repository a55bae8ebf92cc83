import numpy as np
import numpy.testing as npt
import pytest

from curvlab.corpus import CORPUS_NAMES, GOLDEN, load_corpus_metric
from curvlab.geometry import DegenerateMetricError
from curvlab.metricfile import (
    METRIC_KEYS,
    MetricFileError,
    MetricFileParseError,
    MetricFileValidationError,
    load_metric_file,
    parse_metric_text,
)
from curvlab.newman_penrose import InvalidTetradError

FLAT = """
# flat space in rectangular coordinates
[chart]
coords = t, x, y, z

[metric]
g00 = 1
g01 = 0
g02 = 0
g03 = 0
g11 = -1
g12 = 0
g13 = 0
g22 = -1
g23 = 0
g33 = -1

[tetrad]
k    = 1/sqrt(2), 1/sqrt(2), 0, 0
l    = 1/sqrt(2), -1/sqrt(2), 0, 0
m_re = 0, 0, 1/sqrt(2), 0
m_im = 0, 0, 0, 1/sqrt(2)

[points]
origin = 0.0, 0.0, 0.0, 0.0
"""

CURVED = """
[chart]
coords = t, r, theta, phi

[params]
M = 1.0

[metric]
g00 = 1 - 2*M/r          ; static exterior region
g01 = 0
g02 = 0
g03 = 0
g11 = -1/(1 - 2*M/r)
g12 = 0
g13 = 0
g22 = -r^2
g23 = 0
g33 = -r^2*sin(theta)^2

[points]
p0 = 0.0, 4.0, 1.0, 0.0
p1 = 1.0, 6.0, 2.0, 3.0
"""


def without_line(text, fragment):
    return "\n".join(ln for ln in text.splitlines() if fragment not in ln)


class TestWellFormedFiles:
    def test_flat_file_parses(self):
        m = parse_metric_text(FLAT, "flat")
        assert m.name == "flat"
        assert m.chart == ("t", "x", "y", "z")
        assert list(m.points) == ["origin"]
        assert m.tetrad is not None
        assert m.static is False
        npt.assert_allclose(m.metric_value((0, 0, 0, 0)),
                            np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_params_are_substituted(self):
        m = parse_metric_text(CURVED, "exterior")
        npt.assert_allclose(m.metric_value(m.points["p0"])[0, 0],
                            1 - 2 / 4.0)
        assert m.tetrad is None

    def test_comments_and_blank_lines_ignored(self):
        noisy = FLAT.replace("[points]", "; full-line comment\n\n[points]")
        m = parse_metric_text(noisy, "flat")
        assert m.points["origin"] == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("word,value", [
        ("true", True), ("yes", True), ("1", True),
        ("false", False), ("no", False), ("0", False)])
    def test_static_flag_words(self, word, value):
        text = FLAT + f"\n[flags]\nstatic = {word}\n"
        assert parse_metric_text(text, "flat").static is value

    def test_load_names_metric_after_file_stem(self, tmp_path):
        target = tmp_path / "roundtrip.ini"
        target.write_text(FLAT, encoding="utf-8")
        assert load_metric_file(str(target)).name == "roundtrip"


class TestParseErrors:
    def error_for(self, text):
        with pytest.raises(MetricFileParseError) as err:
            parse_metric_text(text, "bad")
        return err.value

    def test_unknown_section_reports_line(self):
        err = self.error_for("[chart]\ncoords = t, x, y, z\n[wat]\n")
        assert err.line == 3
        assert "wat" in str(err)

    def test_unterminated_header(self):
        err = self.error_for("[chart\n")
        assert err.line == 1

    def test_entry_before_any_section(self):
        err = self.error_for("coords = t, x, y, z\n")
        assert err.line == 1

    def test_missing_equals(self):
        err = self.error_for("[chart]\ncoords t x y z\n")
        assert err.line == 2

    def test_duplicate_entry(self):
        err = self.error_for("[points]\np0 = 0,0,0,0\np0 = 1,0,0,0\n")
        assert err.line == 3 and "duplicate" in str(err)

    def test_duplicate_section(self):
        err = self.error_for("[chart]\ncoords = t,x,y,z\n[chart]\n")
        assert err.line == 3 and "duplicate" in str(err)

    def test_bad_expression_reports_its_line(self):
        err = self.error_for(FLAT.replace("g11 = -1", "g11 = -1 +* 2"))
        assert err.line == FLAT.splitlines().index("g11 = -1") + 1

    def test_undeclared_symbol_is_a_parse_error(self):
        err = self.error_for(FLAT.replace("g11 = -1", "g11 = -w"))
        assert "w" in str(err)

    def test_all_errors_share_a_base_type(self):
        with pytest.raises(MetricFileError):
            parse_metric_text("[chart\n", "bad")
        with pytest.raises(MetricFileError):
            parse_metric_text("[chart]\ncoords = t, x\n", "bad")


class TestValidationErrors:
    def error_for(self, text):
        with pytest.raises(MetricFileValidationError) as err:
            parse_metric_text(text, "bad")
        return str(err.value)

    def test_missing_required_sections_named(self):
        assert "[chart]" in self.error_for("[metric]\ng00 = 1\n")
        assert "[metric]" in self.error_for(
            "[chart]\ncoords = t, x, y, z\n[points]\np = 0,0,0,0\n")
        assert "[points]" in self.error_for(without_line(FLAT, "origin =")
                                            .replace("[points]", "")
                                            + "\n[points]\n")

    def test_chart_must_have_four_distinct_names(self):
        assert "[chart]" in self.error_for(
            FLAT.replace("coords = t, x, y, z", "coords = t, x, y"))
        assert "[chart]" in self.error_for(
            FLAT.replace("coords = t, x, y, z", "coords = t, x, y, x"))

    @pytest.mark.parametrize("entry", ["g01", "g13", "g33"])
    def test_missing_metric_entry_named(self, entry):
        msg = self.error_for(without_line(FLAT, f"{entry} ="))
        assert entry in msg and "[metric]" in msg

    def test_unknown_metric_entry_rejected(self):
        assert "g30" in self.error_for(FLAT.replace("g03 = 0", "g30 = 0"))

    def test_point_arity_checked(self):
        msg = self.error_for(FLAT.replace("origin = 0.0, 0.0, 0.0, 0.0",
                                          "origin = 0.0, 0.0, 0.0"))
        assert "[points]" in msg and "origin" in msg

    def test_point_values_must_be_numbers(self):
        msg = self.error_for(FLAT.replace("origin = 0.0, 0.0, 0.0, 0.0",
                                          "origin = 0.0, x, 0.0, 0.0"))
        assert "origin" in msg

    def test_at_least_one_point(self):
        assert "[points]" in self.error_for(without_line(FLAT, "origin ="))

    def test_param_values_must_be_numbers(self):
        assert "[params]" in self.error_for(
            CURVED.replace("M = 1.0", "M = one"))

    def test_param_may_not_name_a_coordinate(self):
        # it would replace that coordinate's value at every point
        msg = self.error_for(CURVED.replace("M = 1.0", "M = 1.0\nr = 7.0"))
        assert "[params]" in msg and "'r'" in msg and "[chart]" in msg

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_param_values_must_be_finite(self, value):
        msg = self.error_for(CURVED.replace("M = 1.0", f"M = {value}"))
        assert "[params]" in msg and "'M'" in msg

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_point_values_must_be_finite(self, value):
        msg = self.error_for(CURVED.replace("p1 = 1.0, 6.0, 2.0, 3.0",
                                            f"p1 = 1.0, {value}, 2.0, 3.0"))
        assert "[points]" in msg and "'p1'" in msg

    # float() alone reads these as 10.0, 1.0 and 3.5
    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\u0663.5"])
    def test_param_values_must_be_ascii_decimals(self, value):
        msg = self.error_for(CURVED.replace("M = 1.0", f"M = {value}"))
        assert msg == ("[params] entry 'M' must be a finite number, "
                       f"got {value!r}")

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\u0663.5"])
    def test_point_values_must_be_ascii_decimals(self, value):
        msg = self.error_for(CURVED.replace("p1 = 1.0, 6.0, 2.0, 3.0",
                                            f"p1 = 1.0, 6.0, {value}, 3.0"))
        assert msg == ("[points] entry 'p1' must hold finite numbers, "
                       f"got '1.0, 6.0, {value}, 3.0'")

    def test_unknown_flag_rejected(self):
        assert "[flags]" in self.error_for(FLAT + "\n[flags]\nspinning = 1\n")

    def test_bad_flag_value_rejected(self):
        assert "static" in self.error_for(FLAT + "\n[flags]\nstatic = maybe\n")

    def test_tetrad_needs_all_four_legs(self):
        assert "m_im" in self.error_for(without_line(FLAT, "m_im ="))

    def test_tetrad_leg_arity(self):
        msg = self.error_for(FLAT.replace(
            "k    = 1/sqrt(2), 1/sqrt(2), 0, 0",
            "k    = 1/sqrt(2), 1/sqrt(2), 0"))
        assert "[tetrad]" in msg and "k" in msg

    def test_unknown_tetrad_leg(self):
        assert "[tetrad]" in self.error_for(
            FLAT.replace("m_re =", "n_re ="))


class TestPointwiseValidation:
    def test_degenerate_metric_rejected_at_named_point(self):
        bad = FLAT.replace("g00 = 1", "g00 = t")  # vanishes at the origin
        with pytest.raises(DegenerateMetricError):
            parse_metric_text(bad, "bad")

    def test_wrong_signature_rejected(self):
        with pytest.raises(DegenerateMetricError):
            parse_metric_text(FLAT.replace("g11 = -1", "g11 = 1"), "bad")

    def test_null_normalization_enforced(self):
        # l duplicated onto k makes k.l = 0: rejected, naming the
        # section and the point
        bad = FLAT.replace("l    = 1/sqrt(2), -1/sqrt(2), 0, 0",
                           "l    = 1/sqrt(2), 1/sqrt(2), 0, 0")
        with pytest.raises(InvalidTetradError) as err:
            parse_metric_text(bad, "bad")
        assert "[tetrad]" in str(err.value)
        assert "origin" in str(err.value)


class TestCorpus:
    def test_every_corpus_file_loads_and_validates(self):
        for name in CORPUS_NAMES:
            m = load_corpus_metric(name)
            assert m.name == name
            assert m.tetrad is not None
            assert len(m.points) >= 1

    def test_minkowski_has_one_point(self):
        assert len(load_corpus_metric("minkowski").points) == 1

    def test_curved_members_have_five_points(self):
        for name in CORPUS_NAMES:
            if name != "minkowski":
                assert len(load_corpus_metric(name).points) == 5, name

    def test_golden_records_cover_the_corpus(self):
        assert set(GOLDEN) == set(CORPUS_NAMES)
        for record in GOLDEN.values():
            assert set(record.verdicts) == {
                "semi", "conformal", "ricci", "second_order",
                "nabla_riemann"}

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load_corpus_metric("kerr")

    def test_metric_entry_names_cover_upper_triangle(self):
        assert len(METRIC_KEYS) == 10
        assert METRIC_KEYS[0] == "g00" and METRIC_KEYS[-1] == "g33"
