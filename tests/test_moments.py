"""Sample and population trimmed/winsorized moments."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_lmoments import moments as moments_module
from robust_lmoments import (
    CompositeH,
    DomainError,
    EmptyWindowError,
    Exponential,
    Identity,
    Log,
    Mode,
    MomentSpec,
    Power,
    SampleFormatError,
    Uniform,
    cov_matrix,
    floor_count,
    load_sample,
    population_moment,
    sample_moment,
)

IDENT = Identity()


class TestSampleTrimmed:
    def test_hand_example(self):
        spec = MomentSpec(IDENT, 0.25, 0.25)
        assert sample_moment([1, 2, 3, 4], spec) == 2.5

    def test_singleton_untrimmed(self):
        assert sample_moment([5], MomentSpec(IDENT)) == 5.0

    def test_top_trim_only(self):
        spec = MomentSpec(IDENT, 0.0, 0.2)
        assert sample_moment([1, 2, 3, 4, 100], spec) == 2.5

    def test_unsorted_input(self):
        spec = MomentSpec(IDENT, 0.25, 0.25)
        assert sample_moment([4, 1, 3, 2], spec) == 2.5

    def test_empty_sample(self):
        with pytest.raises(EmptyWindowError):
            sample_moment([], MomentSpec(IDENT, 0.25, 0.25))

    def test_window_never_empty_for_valid_spec(self):
        # floor(n a) + floor(n b) <= n - 1 whenever a + b < 1, so one
        # observation always survives
        spec = MomentSpec(IDENT, 0.49, 0.49)
        for n in range(1, 30):
            sample_moment(list(range(n)), spec)

    def test_floor_semantics(self):
        # floor(10 * 0.1) must be exactly 1 despite 10*0.1 != 1 in floats
        assert floor_count(10, 0.1) == 1
        assert floor_count(4, 0.25) == 1
        assert floor_count(3, 0.25) == 0
        assert floor_count(100, 0.25) == 25


class TestSampleWinsorized:
    def test_hand_example_symmetric(self):
        spec = MomentSpec(IDENT, 0.25, 0.25, Mode.MWM)
        assert sample_moment([1, 2, 3, 4], spec) == 2.5

    def test_hand_example_top(self):
        spec = MomentSpec(IDENT, 0.0, 0.25, Mode.MWM)
        assert sample_moment([1, 2, 3, 10], spec) == 2.25

    def test_reduces_to_trimmed_at_zero(self):
        data = [3.1, 0.2, 7.7, 1.4, 2.2]
        assert sample_moment(
            data, MomentSpec(IDENT, mode=Mode.MWM)
        ) == sample_moment(data, MomentSpec(IDENT))

    def test_dispatch(self):
        data = [1, 2, 3, 10]
        assert sample_moment(data, MomentSpec(IDENT, 0, 0.25, Mode.MWM)) == 2.25
        assert sample_moment(data, MomentSpec(IDENT, 0.25, 0.25)) == 2.5


def _loop_moment(values, spec):
    """Reference: the estimator written out one order statistic at a time."""
    x = sorted(values)
    n = len(x)
    lo = floor_count(n, spec.a)
    hi = n - floor_count(n, spec.b)
    h = spec.transform.values
    core = math.fsum(h(v) for v in x[lo:hi])
    if spec.mode is Mode.MTM:
        return core / (hi - lo)
    return (lo * h(x[lo]) + core + (n - hi) * h(x[hi - 1])) / n


class TestSampleKernel:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("transform", [IDENT, Power(2.0), Log()], ids=str)
    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.1, 0.25), (0.3, 0.0)])
    def test_matches_loop_reference(self, transform, a, b, mode):
        values = np.random.default_rng(5).lognormal(0.0, 1.0, 997)
        spec = MomentSpec(transform, a, b, mode)
        assert sample_moment(values, spec) == pytest.approx(
            _loop_moment(values, spec), rel=1e-13
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_non_finite_rejected(self, mode, bad):
        # NaN sorts last and would be trimmed away silently
        with pytest.raises(DomainError, match=r"indices \[2\]"):
            sample_moment([1.0, 2.0, bad, 4.0, 5.0], MomentSpec(IDENT, 0.2, 0.2, mode))


    @pytest.mark.parametrize("shape", [(10, 1), (2, 5), (1, 10), ()], ids=str)
    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_sample_that_is_not_one_dimensional_is_refused(self, mode, shape):
        # Sorting runs along the last axis and the window slices rows, so
        # for MTM (0.2, 0.2) a 10 x 1 column of 0..9 would read 19.42 and a
        # 2 x 5 array 0.0, where the sample's moment is 4.5.
        data = np.arange(float(max(1, math.prod(shape)))).reshape(shape)
        with pytest.raises(DomainError, match=rf"^sample must be one-dimensional, got shape {re.escape(str(shape))}$"):
            sample_moment(data, MomentSpec(IDENT, 0.2, 0.2, mode))


class TestNonFiniteMoments:
    """A transform that is infinite on the retained window, as log on a zero
    claim, refuses the moment; it used to come back as -inf."""

    CLAIMS = [0.0, 0.5, 1.2, 2.0, 3.1, 4.7, 6.0, 8.2, 9.9, 12.5]

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_a_zero_claim_under_log_is_refused(self, mode):
        with pytest.raises(
            DomainError,
            match=r"^moment over order statistics 1 \.\. 9 of n=10 is not finite: "
            "the transform is infinite or too large there$",
        ):
            sample_moment(self.CLAIMS, MomentSpec(Log(), 0.0, 0.1, mode))

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_a_sum_that_overflows_is_refused_without_a_warning(self, mode):
        # Each value is finite and their sum is not.  Under the suite's
        # error::RuntimeWarning filter, numpy's "overflow encountered in
        # reduce" used to come out in place of the refusal.
        with pytest.raises(
            DomainError, match=r"^moment over order statistics 1 \.\. 2 of n=2 is not finite"
        ):
            sample_moment([1e308, 1e308], MomentSpec(IDENT, mode=mode))


class TestSpecValidation:
    def test_negative_proportion(self):
        with pytest.raises(Exception):
            MomentSpec(IDENT, -0.1, 0.0)

    def test_mass_exhausted(self):
        with pytest.raises(Exception):
            MomentSpec(IDENT, 0.6, 0.5)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.1), (0.1, math.nan)])
    def test_nan_proportion(self, a, b):
        # Both range checks are False for NaN; before this refusal the spec
        # was built, sample_moment raised a bare ValueError on it and
        # population_moment returned nan.
        with pytest.raises(DomainError, match="^proportions must be numbers"):
            MomentSpec(IDENT, a, b)
        with pytest.raises(DomainError, match="^proportions must be numbers"):
            replace(MomentSpec(IDENT, 0.1, 0.1), a=a, b=b)

    def test_a_mode_given_by_name_is_that_mode(self):
        # A mode left as a string compares unequal to Mode.MTM, so "mtm"
        # read as winsorizing (0.8231 for 0.7610) and "mwm" found no
        # covariance route (a bare StopIteration).
        named = MomentSpec(IDENT, 0.2, 0.2, "mtm")
        assert named.mode is Mode.MTM
        assert population_moment(Exponential(1.0), named) == population_moment(
            Exponential(1.0), MomentSpec(IDENT, 0.2, 0.2, Mode.MTM)
        )
        winsorized = MomentSpec(IDENT, 0.2, 0.2, "mwm")
        assert winsorized.mode is Mode.MWM
        assert cov_matrix([winsorized], Exponential(1.0)).entries.tolist() == cov_matrix(
            [MomentSpec(IDENT, 0.2, 0.2, Mode.MWM)], Exponential(1.0)
        ).entries.tolist()

    def test_an_unknown_mode_is_refused(self):
        with pytest.raises(DomainError, match=r"^mode must be one of \['mtm', 'mwm'\], got 'trim'$"):
            MomentSpec(IDENT, 0.1, 0.1, "trim")

    def test_a_transform_that_is_not_an_htransform_is_refused(self):
        # Accepted, it fails later with an AttributeError.
        with pytest.raises(DomainError, match="^transform must be an HTransform, got 'identity'$"):
            MomentSpec("identity")

    @pytest.mark.parametrize(
        "a, b, shown",
        [("0.1", 0.1, "a='0.1', b=0.1"), (0.1, None, "a=0.1, b=None")],
        ids=["str", "none"],
    )
    def test_a_proportion_that_is_not_a_real_number_is_refused(self, a, b, shown):
        # Before this refusal math.isnan raised a bare TypeError.
        with pytest.raises(
            DomainError, match=rf"^proportions must be numbers, got {re.escape(shown)}$"
        ):
            MomentSpec(IDENT, a, b)

    def test_derived_quantities(self):
        s = MomentSpec(IDENT, 0.1, 0.3)
        assert s.b_bar == pytest.approx(0.7)
        assert s.retained == pytest.approx(0.6)


class TestPopulation:
    def test_exponential_untrimmed_mean(self):
        assert population_moment(Exponential(1.0), MomentSpec(IDENT)) == pytest.approx(
            1.0, rel=1e-9
        )

    def test_uniform_untrimmed_mean(self):
        assert population_moment(Uniform(0, 1), MomentSpec(IDENT)) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_exponential_symmetric_trim(self):
        # integral of -log(1-u) over [1/4, 3/4] has an elementary value
        spec = MomentSpec(IDENT, 0.25, 0.25)
        exact = (-0.25 * math.log(4) + 0.75 * math.log(4.0 / 3.0) + 0.5) / 0.5
        assert population_moment(Exponential(1.0), spec) == pytest.approx(exact, rel=1e-10)

    def test_exponential_winsorized(self):
        spec = MomentSpec(IDENT, 0.25, 0.25, Mode.MWM)
        core = -0.25 * math.log(4) + 0.75 * math.log(4.0 / 3.0) + 0.5
        exact = core + 0.25 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)
        assert population_moment(Exponential(1.0), spec) == pytest.approx(
            exact, rel=1e-10
        )

    def test_winsorized_equals_trimmed_untrimmed(self):
        a = population_moment(Uniform(0, 2), MomentSpec(Power(2.0), mode=Mode.MWM))
        b = population_moment(Uniform(0, 2), MomentSpec(Power(2.0)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_scale_equivariance(self):
        spec = MomentSpec(IDENT, 0.1, 0.2)
        base = population_moment(Exponential(1.0), spec)
        scaled = population_moment(Exponential(3.0), spec)
        assert scaled == pytest.approx(3.0 * base, rel=1e-10)

    def test_the_spec_sets_the_transform_and_the_mode(self):
        # With a composite and a spec, the composite's log transform won:
        # -0.4567 where the identity moment is 0.8307; the removed
        # sample_trimmed_moment read 5.0 for this winsorized spec.
        spec = MomentSpec(IDENT, 0.1, 0.1)
        assert population_moment(Exponential(1.0), spec) == pytest.approx(
            0.8307074434907991, rel=1e-12
        )
        winsorized = MomentSpec(IDENT, 0.25, 0.0, Mode.MWM)
        assert sample_moment([1, 2, 3, 10], winsorized) == 4.25

    @pytest.mark.parametrize(
        "model",
        [CompositeH(Exponential(1.0), Log()), "exponential(1)", None],
        ids=lambda m: type(m).__name__,
    )
    def test_a_model_that_is_not_a_distribution_model_is_refused(self, model):
        # The old call population_moment(ch, spec) took the composite's
        # transform over the spec's; a string failed with AttributeError.
        name = type(model).__name__
        with pytest.raises(
            DomainError, match=rf"^model must be a DistributionModel, got {name}$"
        ):
            population_moment(model, MomentSpec(IDENT, 0.1, 0.1))


@st.composite
def samples_and_props(draw):
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=4,
            max_size=40,
        )
    )
    a = draw(st.sampled_from([0.0, 0.1, 0.25]))
    b = draw(st.sampled_from([0.0, 0.1, 0.25]))
    return values, a, b


class TestSampleProperties:
    @settings(max_examples=60, deadline=None)
    @given(samples_and_props())
    def test_permutation_invariance(self, case):
        values, a, b = case
        spec = MomentSpec(IDENT, a, b)
        rng = np.random.default_rng(0)
        shuffled = list(rng.permutation(values))
        assert sample_moment(values, spec) == sample_moment(
            shuffled, spec
        )

    @settings(max_examples=60, deadline=None)
    @given(samples_and_props(), st.floats(-100, 100, allow_nan=False))
    def test_translation_equivariance(self, case, shift):
        values, a, b = case
        spec = MomentSpec(IDENT, a, b)
        base = sample_moment(values, spec)
        moved = sample_moment([v + shift for v in values], spec)
        assert moved == pytest.approx(base + shift, rel=1e-9, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(samples_and_props())
    def test_winsorized_within_range(self, case):
        values, a, b = case
        spec = MomentSpec(IDENT, a, b, Mode.MWM)
        m = sample_moment(values, spec)
        assert min(values) - 1e-9 <= m <= max(values) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(samples_and_props())
    def test_trimmed_within_window(self, case):
        values, a, b = case
        spec = MomentSpec(IDENT, a, b)
        m = sample_moment(values, spec)
        assert min(values) - 1e-9 <= m <= max(values) + 1e-9


class TestLoadSample:
    def test_reads_comments_and_blanks(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("# header\n1.5\n\n2.5\n# trailing\n3.5\n")
        assert load_sample(p).tolist() == [1.5, 2.5, 3.5]

    def test_reports_bad_line_number(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0\nbogus\n3.0\n")
        with pytest.raises(SampleFormatError, match="2"):
            load_sample(p)

    def test_non_finite_rows_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0\nnan\n3.0\n# note\ninf\n-Infinity\n")
        with pytest.raises(SampleFormatError, match=r"at lines \[2, 5, 6\]"):
            load_sample(p)

    def test_csv_first_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,label\n2.0,other\n")
        assert load_sample(p).tolist() == [1.0, 2.0]


class TestLoaderPaths:
    """A plain file (bare numbers, one per line) is parsed in one numpy
    pass; every other file goes through the line scan."""

    PLAIN_VALUES = [1.5, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                    -1e-300, 0.1, 123456789.0]

    def _scan_forbidden(self, monkeypatch):
        def fail(path, data):
            raise AssertionError("line scan used for a plain file")

        monkeypatch.setattr(moments_module, "_scan_lines", fail)

    @pytest.mark.parametrize("ending", ["\n", ""])
    def test_plain_file_takes_one_pass(self, tmp_path, monkeypatch, ending):
        p = tmp_path / "x.txt"
        p.write_text("\n".join(map(repr, self.PLAIN_VALUES)) + ending)
        self._scan_forbidden(monkeypatch)
        got = load_sample(p)
        assert got.tobytes() == np.array(self.PLAIN_VALUES).tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "1.5\n\n2.5\n",  # blank line
            "# header\n1.5\n",
            "1.5,a\n2.5,b\n",
            "1.5\r\n2.5\r\n",
            "1.5\t7\n",
            " 1.5\n",
        ],
    )
    def test_other_layouts_use_the_line_scan(self, tmp_path, monkeypatch, text):
        p = tmp_path / "x.txt"
        p.write_text(text, newline="")
        calls = []
        scan = moments_module._scan_lines
        monkeypatch.setattr(
            moments_module,
            "_scan_lines",
            lambda path, data: calls.append(path) or scan(path, data),
        )
        assert load_sample(p)[0] == 1.5
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text, values", [("\n", []), ("\n\n\n", []), ("\n1.5\n", [1.5]), ("2\n\n", [2.0])]
    )
    def test_empty_lines_are_skipped(self, tmp_path, text, values):
        # numpy's text parse reads a buffer of only newlines as [-1.0].
        p = tmp_path / "x.txt"
        p.write_text(text)
        assert load_sample(p).tolist() == values

    @pytest.mark.parametrize(
        "text, lines",
        [("1\n1-2\n", [2]), ("1e\n5\n", [1]), ("1.2.3\n", [1]),
         ("1\n1e999\n-1e999\n", [2, 3]), ("+\n.\n", [1, 2])],
    )
    def test_malformed_plain_files_report_the_line_scan_error(self, tmp_path, text, lines):
        p = tmp_path / "x.txt"
        p.write_text(text)
        with pytest.raises(SampleFormatError) as info:
            load_sample(p)
        assert str(info.value) == f"{p}: non-numeric or non-finite rows at lines {lines}"


# Rows whose long-double quotient m / 10**k, in x87 extended precision, lies
# exactly halfway between two doubles, so that rounding it to a double can
# differ from float() (found by search, then frozen).  The first three are
# 17-digit reprs; the last three lie halfway to the next double below a
# power of two, where the gap is half the one above.
_TIE_ROWS = [
    "0.006422192800942706",
    "3781.418327029897",
    "50.98866502127375",
    "0.06249999999999999653",
    "8589934591.999999523",
    "0.00000005960464477539062169",
]


def _taken_path(monkeypatch, path) -> tuple[str, np.ndarray]:
    """Which reader gave ``load_sample(path)``: the decimal path, numpy's
    float parse or the line scan; and the values."""
    taken = []
    decimal, scan = moments_module._parse_decimal, moments_module._scan_lines

    def spy_decimal(data):
        values = decimal(data)
        if values is not None:
            taken.append("decimal")
        return values

    def spy_scan(path, data):
        taken.append("line scan")
        return scan(path, data)

    monkeypatch.setattr(moments_module, "_parse_decimal", spy_decimal)
    monkeypatch.setattr(moments_module, "_scan_lines", spy_scan)
    values = load_sample(path)
    return (taken[0] if taken else "fromstring"), values


class TestDecimalPath:
    """A file of plain decimals is read from integer mantissas, bitwise as
    float() reads each line; every other file falls back as before."""

    @pytest.mark.parametrize(
        "text, path",
        [
            ("1.5\n-2\n+.25\n3.\n", "decimal"),
            ("007\n-0.000\n+0\n-0", "decimal"),
            ("\n".join(_TIE_ROWS) + "\n", "decimal"),
            ("1234567890123456789\n-0.1234567890123456789\n", "decimal"),
            ("00000000000000000000.5\n0.000000000000000000123\n", "decimal"),
            # 10**23 and 10**27 are not doubles, so these take the long double
            ("0.00000000000000000000001\n-.000000000000000000000000059\n", "decimal"),
            ("1e5\n2\n", "fromstring"),
            ("2\n1.5E3\n", "fromstring"),
            ("9223372036854775807\n", "fromstring"),
            ("-9.223372036854775808\n", "fromstring"),
            ("0.12345678901234567890123\n", "fromstring"),
            ("0.0000000000000000000000000001\n", "fromstring"),
            ("1.5\n\n2.5\n", "line scan"),
            ("\n1.5\n", "line scan"),
            ("# c\n1.5\n", "line scan"),
            ("1.5,a\n", "line scan"),
        ],
    )
    @pytest.mark.parametrize("block", [None, 2], ids=["one-block", "many-blocks"])
    def test_each_layout_takes_its_path(self, tmp_path, monkeypatch, text, path, block):
        if block:
            monkeypatch.setattr(moments_module, "_BLOCK", block)
        p = tmp_path / "x.txt"
        p.write_bytes(text.encode())
        taken, values = _taken_path(monkeypatch, p)
        assert taken == path
        expected = moments_module._scan_lines(p, text.encode())
        assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text",
        ["1e5\n", "1.2.3\n", "1-2\n", "+-1\n", "1\n\n2\n", "\n1\n", "+\n", ".\n",
         "-.\n", "5\n.", "5\n..", "1.5\n2.5\n-3\n4-\n", "1.5\n2.5\n3.5\n\n4\n",
         "12345678901234567890\n", "-12345678901234567890\n",
         "1" * 28 + "\n", "." + "0" * 27 + "1\n"],
    )
    @pytest.mark.parametrize("block", [None, 2], ids=["one-block", "many-blocks"])
    def test_other_files_are_declined(self, monkeypatch, text, block):
        if block:
            monkeypatch.setattr(moments_module, "_BLOCK", block)
        assert moments_module._parse_decimal(text.encode()) is None

    def test_halfway_quotients_read_as_float_does(self, tmp_path, monkeypatch):
        if np.finfo(np.longdouble).nmant == 63:
            mantissas = np.array([int(r.replace(".", "")) for r in _TIE_ROWS])
            scales = [len(r) - r.index(".") - 1 for r in _TIE_ROWS]
            quotients = mantissas.astype(np.longdouble) / moments_module._POW10_LONG[scales]
            # rounding the quotient to a double disagrees with float() on each
            assert all(q.astype(float) != float(r) for q, r in zip(quotients, _TIE_ROWS))
        p = tmp_path / "x.txt"
        p.write_text("\n".join(_TIE_ROWS))
        taken, values = _taken_path(monkeypatch, p)
        assert taken == ("decimal" if moments_module._EXTENDED else "fromstring")
        assert values.tobytes() == np.array([float(r) for r in _TIE_ROWS]).tobytes()

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("-0\n-0.000\n-.0\n0.0\n")
        values = load_sample(p)
        assert np.signbit(values).tolist() == [True, True, True, False]

    def test_without_an_extended_long_double_the_same_bytes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(23)
        sample = np.concatenate([rng.lognormal(2.0, 1.0, 500), -rng.exponential(1e-3, 500)])
        text = "\n".join(map(repr, sample.tolist())) + "\n"
        p = tmp_path / "x.txt"
        p.write_text(text)
        extended = _taken_path(monkeypatch, p)
        monkeypatch.setattr(moments_module, "_EXTENDED", False)
        plain = _taken_path(monkeypatch, p)
        assert plain[0] == "fromstring"
        assert extended[1].tobytes() == plain[1].tobytes() == sample.tobytes()
        # rows that need no long double still take the decimal path
        p.write_text("1.5\n-0.25\n12345.678\n")
        assert _taken_path(monkeypatch, p) == ("decimal", pytest.approx([1.5, -0.25, 12345.678]))


# Lines of the parity test: plain numbers, malformed tokens that are still
# made of the plain characters, and every layout the line scan handles.
_PLAIN_LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1e308", "-1e-308", "1.", ".5", "+3", "1E5"]),
    st.sampled_from(["1-2", "1e", "1.2.3", "1e999", "+", ".", "-", "e5", "1e+", "--1"]),
)
_OTHER_LINES = st.one_of(
    st.sampled_from(["", "   ", "\t", "# comment", "#", "1.5 2.5", "3\t4", "7,label",
                     " 8 ,x", "1_0", "\u0661\u0662", "nan", "inf", "-Infinity",
                     "abc", "1,", ",2", "\u00a0"]),
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from([",x", " y", "\t", " ", ","]),
    ).map("".join),
)


@st.composite
def _sample_files(draw):
    if draw(st.booleans()):
        lines = draw(st.lists(_PLAIN_LINES, max_size=12))
        endings = ["\n"] * len(lines)
    else:
        lines = draw(st.lists(st.one_of(_PLAIN_LINES, _OTHER_LINES), max_size=12))
        endings = draw(
            st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                     max_size=len(lines))
        )
    text = "".join(line + end for line, end in zip(lines, endings))
    if text and draw(st.booleans()):
        text = text[: -len(endings[-1])]  # no newline at the end
    return text.encode("utf-8")


def _outcome(read):
    try:
        return "ok", read().tobytes()
    except (SampleFormatError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def parity_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parity") / "sample.txt"


@settings(max_examples=300, deadline=None)
@given(data=_sample_files())
@example(data=b"\n")
@example(data=b"\xef\xbb\xbf1.5\n2.5\n")
def test_load_sample_matches_the_line_scan(parity_path, data):
    parity_path.write_bytes(data)
    assert _outcome(lambda: load_sample(parity_path)) == _outcome(
        lambda: moments_module._scan_lines(parity_path, data)
    )


@st.composite
def _decimal_lines(draw, longest):
    """``[+-]digits[.digits]`` or ``[+-][digits].digits``, leading zeros
    and all, or a float repr without an exponent."""
    if draw(st.booleans()):
        size = draw(st.integers(1, longest))
        digits = draw(st.text("0123456789", min_size=size, max_size=size))
        dot = draw(st.none() | st.integers(0, len(digits)))
        body = digits if dot is None else digits[:dot] + "." + digits[dot:]
    else:
        body = repr(draw(st.floats(min_value=1e-4, max_value=1e15)))
    return draw(st.sampled_from(["", "+", "-"])) + body


@st.composite
def _decimal_files(draw):
    # Most files keep every line within an int64, so that the decimal path
    # reads them; the rest reach 30 digits, past its 27.
    longest = draw(st.sampled_from([18, 18, 30]))
    lines = draw(st.lists(_decimal_lines(longest), min_size=1, max_size=12))
    return ("\n".join(lines) + draw(st.sampled_from(["\n", ""]))).encode()


@settings(max_examples=300, deadline=None)
@given(data=_decimal_files())
@example(data=("\n".join(_TIE_ROWS)).encode())
@example(data=b"-0.000\n+00012.50\n1234567890123456789\n.5\n7.\n")
def test_load_sample_reads_decimal_files_as_the_line_scan(parity_path, data):
    parity_path.write_bytes(data)
    expected = _outcome(lambda: moments_module._scan_lines(parity_path, data))
    assert _outcome(lambda: load_sample(parity_path)) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments_module, "_BLOCK", 8)  # a block every line or two
        assert _outcome(lambda: load_sample(parity_path)) == expected


@pytest.mark.parametrize("text", ["1.5\n2.5\n", "# header\n1.5\n2.5", "1.5,a\r\n2.5,b\r\n"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, text):
    # Spreadsheet exports often start a UTF-8 file with EF BB BF.
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_sample(p).tolist() == [1.5, 2.5]
