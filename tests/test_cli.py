import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

from sylres.cli import (_MAX_POINTS, _MAX_SCHUR_BITS, _MAX_SCHUR_WORK,
                        _MAX_SET_SIZE, _MAX_SIDE, _MAX_SRES_WORK, _MAX_TERMS,
                        _check_schur, _check_sres, build_parser, main)
from sylres.errors import ValidationError
from sylres.io import _MAX_ROOTS, parse_multiset
from sylres.poly import Poly
from sylres.rationals import parse_rational
from sylres.rootsets import RootMultiset
from sylres.schur import SchurSpec
from sylres.sylvester import sylm_term_bound
from sylres.verify import (_SUITES, _SYLM_MAX_DEG, _SYLM_MAX_TERMS,
                           SUITE_NAMES, FuzzConfig, _pool_size,
                           _sample_distinct, _valid_ds, decode_instance,
                           replay)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_subprocess(*argv, timeout=60):
    """The CLI in a subprocess with a timeout, so a call that hangs fails
    the test."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "sylres.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


class TestSres:
    def test_human(self, capsys):
        rc, out, _ = run(capsys, "sres", "-f", "roots:1,2",
                         "-g", "roots:2,3", "-d", "1")
        assert rc == 0
        assert out == "-2*x + 4\n"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "sres", "-f", "2,-3,1",
                         "-g", "roots:2,3", "-d", "1")
        assert rc == 0
        assert json.loads(out) == {"coeffs": ["4", "-2"]}

    def test_coeff_json_input(self, capsys):
        rc, out, _ = run(capsys, "sres",
                         "-f", '{"coeffs": ["2", "-3", "1"]}',
                         "-g", "roots:2,3", "-d", "1")
        assert rc == 0
        assert out == "-2*x + 4\n"

    def test_degree_window_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "sres", "-f", "roots:1,2",
                         "-g", "roots:3,4", "-d", "2")
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("root", ["1e1000000", "1e-4300", "9" * 4301])
    def test_literal_past_digit_limit(self, capsys, root):
        # refused from its text, before a number of that size is built
        rc, out, err = run(capsys, "sres", "-f", f"roots:{root}",
                           "-g", "roots:2", "-d", "0")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("root", ["1e" + "9" * 5000, "1/" + "0" * 4000])
    def test_long_bad_literal_gives_short_message(self, capsys, root):
        with pytest.raises(ValidationError) as info:
            parse_rational(root)
        assert len(str(info.value)) < 100
        rc, out, err = run(capsys, "sres", "-f", f"roots:{root}",
                           "-g", "roots:2", "-d", "0")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and len(err) < 200

    def test_result_past_digit_limit(self, capsys):
        # (2 - x)^2 of a 3000-digit root has 6000 digits, past the
        # interpreter's int-to-str limit, and still prints exactly
        root = "7" * 3000
        limit = sys.get_int_max_str_digits()
        rc, out, _ = run(capsys, "sres", "-f", f"roots:{root},{root}",
                         "-g", "roots:2", "-d", "0")
        assert rc == 0
        assert sys.get_int_max_str_digits() == limit
        assert len(out) == 6001 and out.endswith("\n")
        assert int(out[-31:]) == (int(root) - 2) ** 2 % 10 ** 30
        # the largest exponent within the limit is accepted
        rc, out, _ = run(capsys, "sres", "-f", "roots:1e4299",
                         "-g", "roots:2", "-d", "0")
        assert rc == 0
        assert out == "9" * 4298 + "8\n"


class TestSums:
    def test_syl_single(self, capsys):
        rc, out, _ = run(capsys, "syl-single", "-a", "1,2",
                         "-b", "2,3", "-d", "1")
        assert rc == 0
        assert out == "2*x - 4\n"

    def test_syl_double(self, capsys):
        rc, out, _ = run(capsys, "syl-double", "-a", "1,2",
                         "-b", "2,3", "-p", "1", "-q", "0")
        assert rc == 0
        assert out == "2*x - 4\n"

    def test_sylm(self, capsys):
        rc, out, _ = run(capsys, "sylm", "-a", "0:1,1:2",
                         "-b", "2:2", "-d", "2")
        assert rc == 0
        assert out == "x^2 - 4*x + 4\n"

    def test_sylm_trace(self, capsys):
        rc, out, _ = run(capsys, "sylm", "-a", "0:1,1:2",
                         "-b", "2:2", "-d", "2", "--trace")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "total: x^2 - 4*x + 4"
        assert all(line.startswith("R=(") for line in lines[:-1])

    def test_sylm_trace_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "sylm", "-a", "0:1,1:2",
                         "-b", "2:3", "-d", "2", "--trace")
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"] == {"coeffs": ["-8", "11", "-4"]}
        assert any(any(doc_t["partition"][i] for i in range(3))
                   for doc_t in doc["terms"])

    def test_sylm_has_no_forced_regime(self, capsys):
        # sylm's regime follows from d alone, so no flag can force one
        with pytest.raises(SystemExit) as exc:
            main(["sylm", "-a", "0:1,1:2", "-b", "2:3", "-d", "2",
                  "--force-bigd"])
        assert exc.value.code == 2
        assert "--force-bigd" in capsys.readouterr().err

    def test_multiset_a_rejected(self, capsys):
        rc, _, err = run(capsys, "syl-single", "-a", "1:2",
                         "-b", "3", "-d", "1")
        assert rc == 2
        assert "error:" in err


class TestSchur:
    def test_value(self, capsys):
        rc, out, _ = run(capsys, "schur", "-k", "3", "-R", "2",
                         "--points", "2,5")
        assert rc == 0
        assert out == "7\n"

    def test_value_json(self, capsys):
        rc, out, _ = run(capsys, "--json", "schur", "-k", "3", "-R", "2",
                         "--points", "2,5")
        assert rc == 0
        assert json.loads(out) == {"value": "7"}

    def test_with_x(self, capsys):
        rc, out, _ = run(capsys, "schur", "-k", "4", "-R", "2",
                         "--points", "1,2", "--with-x")
        assert rc == 0
        assert out == "x + 3\n"

    def test_bad_removal_count(self, capsys):
        rc, _, err = run(capsys, "schur", "-k", "3", "-R", "1,2",
                         "--points", "2,5")
        assert rc == 2
        assert "error:" in err


class TestParseErrors:
    def test_zero_multiplicity(self, capsys):
        rc, _, err = run(capsys, "sylm", "-a", "1:0", "-b", "2", "-d", "0")
        assert rc == 2
        assert "error:" in err

    def test_zero_denominator(self, capsys):
        rc, _, _ = run(capsys, "sylm", "-a", "1/0", "-b", "2", "-d", "0")
        assert rc == 2

    def test_garbage(self, capsys):
        rc, _, _ = run(capsys, "sres", "-f", "not a poly",
                       "-g", "1,1", "-d", "0")
        assert rc == 2

    @pytest.mark.parametrize("points", [
        '{"roots": 5}',
        '{"roots": [{"value": "2", "mult": "x"}, {"value": "5"}]}',
    ])
    def test_bad_multiset_json(self, capsys, points):
        rc, _, err = run(capsys, "schur", "-k", "3", "-R", "2",
                         "--points", points)
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("coeffs", ['5', 'null', '"12"'])
    def test_coeffs_not_a_list(self, capsys, coeffs):
        # a number or null used to raise TypeError (exit 1), and a string
        # was read digit by digit as coefficients
        rc, out, err = run(capsys, "sres", "-f", f'{{"coeffs": {coeffs}}}',
                           "-g", "1,1", "-d", "0")
        assert rc == 2
        assert out == ""
        assert err == 'error: polynomial JSON must be {"coeffs": [...]}\n'

    @pytest.mark.parametrize("argv", [
        ["sylm", "-a", '{"roots": [{"value": true}]}', "-b", "3", "-d", "0"],
        ["sylm", "-a", '{"roots": [{"value": false, "mult": 2}]}',
         "-b", "3", "-d", "0"],
        ["sres", "-f", '{"coeffs": [true, 1]}', "-g", "1,1", "-d", "0"],
        ["sres", "-f", '{"coeffs": [1, false]}', "-g", "1,1", "-d", "0"],
    ])
    def test_json_boolean_refused(self, capsys, argv):
        # JSON true and false are not read as the rationals 1 and 0
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "not boolean" in err

    def test_json_integers_and_strings_accepted(self, capsys):
        rc, out, _ = run(capsys, "sylm", "-a",
                         '{"roots": [{"value": 1}, {"value": "-1/2"}]}',
                         "-b", "3", "-d", "0")
        assert (rc, out) == (0, "7\n")
        rc, out, _ = run(capsys, "sres", "-f", '{"coeffs": [-2, "1"]}',
                         "-g", "roots:1,3", "-d", "0")
        assert (rc, out) == (0, "-1\n")

    def test_repeated_value_merges(self, capsys):
        # 2:1,2:1 is the same multiset as 2:2
        rc, out, _ = run(capsys, "sylm", "-a", "0:1,1:2",
                         "-b", "2:1,2:1", "-d", "2")
        assert rc == 0
        assert out == "x^2 - 4*x + 4\n"


def _pattern(size, distinct):
    """A multiset of the given size with that many distinct values."""
    return RootMultiset([(F(i), 1) for i in range(distinct - 1)]
                        + [(F(distinct - 1), size - distinct + 1)])


def _ints(lo, hi):
    """The integers lo..hi-1 as multiset shorthand."""
    return ",".join(map(str, range(lo, hi)))


class TestVerify:
    def test_single_suite(self, capsys):
        rc, out, _ = run(capsys, "verify", "examples", "--count", "1")
        assert rc == 0
        assert "[PASS] suite examples" in out

    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "--json", "verify", "thm14",
                         "--count", "2", "--seed", "5")
        assert rc == 0
        (report,) = json.loads(out)
        assert report["suite"] == "thm14"
        assert report["instances"] == 2
        assert report["failures"] == []

    def test_replay_pass(self, capsys, tmp_path):
        record = {"suite": "thm14",
                  "instance": {"a": "0:1,1:2", "b": "2:2"}}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(record))
        rc, out, _ = run(capsys, "verify", "thm14", "--replay", str(path))
        assert rc == 0
        assert out.startswith("replay thm14: PASS")

    @pytest.mark.parametrize("content", [
        '{"suite": "thm14"}',
        '[{"a": "0:1,1:2", "b": "2:2"}]',
        '{"suite": "thm14", "instance":',
        '{"suite": "thm14", "instance": {"a": "1"}}',
        '{"suite": "lemma24", "instance": {"a": "1:1", "b": "2:1", "d": "1",'
        ' "nx": 1, "part": 1}}',
        # a negative degree or variable count would make an empty grid
        '{"suite": "lemma24", "instance": {"a": "1,2", "b": "3,4", "d": -1,'
        ' "nx": 1, "part": 1}}',
        '{"suite": "prop21", "instance": {"a": "1,2", "b": "3,4",'
        ' "e": "5,6,7,8,9", "d": -1, "nx": 1}}',
        '{"suite": "lemma24", "instance": {"a": "1,2", "b": "3,4", "d": 1,'
        ' "nx": -1, "part": 1}}',
        # lemma24 has parts 1 and 2 only
        '{"suite": "lemma24", "instance": {"a": "1,2", "b": "3,4", "d": 1,'
        ' "nx": 1, "part": 7}}',
        # d below m'+n' = 2 is outside thm12's collapsed regime
        '{"suite": "thm12", "instance": {"a": "1:2", "b": "2:2", "d": 0}}',
        # lemma24 holds for nx <= m+n-2d only, part 2 for |B| < d <= |A|
        '{"suite": "lemma24", "instance": {"part": 1, "a": "1,2", "b": "3,4",'
        ' "d": 1, "nx": 3}}',
        '{"suite": "lemma24", "instance": {"part": 1, "a": "1,2", "b": "3,4",'
        ' "d": 2, "nx": 1}}',
        '{"suite": "lemma24", "instance": {"part": 2, "a": "1,2,3", "b": "4",'
        ' "d": 2, "nx": 1}}',
        '{"suite": "lemma24", "instance": {"part": 2, "a": "1,2", "b": "3,4",'
        ' "d": 1, "nx": 0}}',
        # the worked examples need three distinct values; with beta1 equal
        # to alpha2 the forced value of the negative case is correct
        '{"suite": "examples", "instance": {"alpha1": "1", "alpha2": "2",'
        ' "beta1": "2"}}',
        '{"suite": "examples", "instance": {"alpha1": "1", "alpha2": "1",'
        ' "beta1": "2"}}',
        '{"suite": "examples", "instance": {"alpha1": "1", "alpha2": "2",'
        ' "beta1": "1"}}',
    ])
    def test_replay_bad_record(self, capsys, tmp_path, content):
        path = tmp_path / "inst.json"
        path.write_text(content)
        rc, out, err = run(capsys, "verify", "thm14", "--replay", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_generated_instances_have_declared_fields(self, name):
        def encode(value):
            if isinstance(value, list):
                return [encode(v) for v in value]
            if isinstance(value, RootMultiset):
                return value.to_shorthand()
            return str(value) if isinstance(value, F) else value

        gen = _SUITES[name][0]
        for inst in gen(FuzzConfig(seed=3, count=4)):
            decoded = decode_instance(name, inst)
            assert {k: encode(v) for k, v in decoded.items()} == inst

    @pytest.mark.parametrize("r", [16, 7, 0])
    def test_replay_lemma34_past_cap(self, tmp_path, r):
        # r = 16 would enumerate 3^16 partitions; it is refused up front
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"suite": "lemma34",
                                    "instance": {"r": r}}))
        out = run_subprocess("verify", "lemma34", "--replay", str(path))
        assert out.returncode == 2, out
        assert out.stdout == ""
        assert out.stderr.startswith("error:")

    @pytest.mark.parametrize("suite, inst", [
        # a grid of 2^30 points
        ("prop21", {"a": "1,2", "b": "3,4", "e": _ints(5, 36), "d": 1,
                    "nx": 30}),
        # a split sum over |E| = 60, 54 past its minimum
        ("prop21", {"a": "1,2,3,4", "b": "5,6,7,8", "e": _ints(10, 70),
                    "d": 2, "nx": 2}),
        # |A| + |B| = 24, whose minimal E has 18 values
        ("prop21", {"a": _ints(1, 13), "b": _ints(13, 25),
                    "e": _ints(30, 50), "d": 6, "nx": 1}),
        # 10^7 grid values, built before any other check
        ("prop21", {"a": "1,2", "b": "3,4", "e": "5", "d": 10 ** 7,
                    "nx": 0}),
        # sums over the C(40, 20) and C(40, 5) subsets of E
        ("prop23", {"e": _ints(1, 41), "d": 20,
                    "xs": _ints(100, 120).split(",")}),
        ("prop23", {"e": _ints(1, 41), "d": 5,
                    "xs": _ints(100, 135).split(",")}),
        # a single sum over the C(30, 15) subsets of A
        ("lemma24", {"part": 1, "a": _ints(1, 31), "b": _ints(31, 61),
                     "d": 15, "nx": 0}),
        # double sums of two 14-root sets at every (d, p)
        ("eq1", {"a": _ints(1, 15), "b": _ints(21, 35)}),
        # sylm's 992,698 terms over every d, of which d = 0 alone took
        # over a minute
        ("thm14", {"a": "0:6,1:6", "b": "2:6,3:6"}),
        # the C(16, 8) = 12,870 collapsed terms of two 16-root sets
        ("thm12", {"a": _ints(1, 17), "b": _ints(21, 37), "d": 8}),
        # a Schur value of 400 rows, 395 of them removed: 90 s uncapped
        ("schur-consistency", {"k": 400, "removed": list(range(6, 401)),
                               "points": "1/2,2/3,3/5,5/7,7/11"}),
    ])
    def test_replay_past_cost_cap(self, tmp_path, suite, inst):
        # each is refused up front, well inside the timeout, instead of
        # running for a minute or more
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"suite": suite, "instance": inst}))
        out = run_subprocess("verify", suite, "--replay", str(path),
                             timeout=10)
        assert out.returncode == 2, out
        assert out.stdout == ""
        assert out.stderr.startswith("error:")

    def test_sylm_cap_admits_degrees_up_to_8(self):
        # the bound depends on the degrees and distinct counts alone; over
        # degrees up to 6, the default --max-deg, and up to 8, the most the
        # thm14 and thm12 generators admit, it peaks at one root of full
        # multiplicity on each side
        def worst(top):
            return max(
                sum(sylm_term_bound(a, b, d) for d in _valid_ds(m, n))
                for m in range(1, top + 1) for n in range(1, top + 1)
                for a in map(_pattern, [m] * m, range(1, m + 1))
                for b in map(_pattern, [n] * n, range(1, n + 1)))
        assert worst(6) == 738
        assert worst(_SYLM_MAX_DEG) == 9898 <= _SYLM_MAX_TERMS

    def test_examples_lets_other_errors_through(self, monkeypatch):
        # only NotDivisible reads as "not divisible"; a fault in exact_div
        # itself propagates
        def broken(self, divisor):
            raise ZeroDivisionError("fault inside exact_div")
        monkeypatch.setattr(Poly, "exact_div", broken)
        with pytest.raises(ZeroDivisionError):
            replay("examples", {"alpha1": "0", "alpha2": "1", "beta1": "2"})

    def test_replay_fills_optional_field(self):
        # schur-consistency records may omit with_x, which defaults to False
        assert replay("schur-consistency",
                      {"k": 3, "removed": [2], "points": "2,5"})["ok"]

    def test_no_suite_and_fuzz_run_all(self, capsys):
        # fuzz names verify, whose suite defaults to all
        outputs = []
        for argv in (["verify", "all"], ["verify"], ["fuzz"]):
            rc, out, err = run(capsys, "--json", *argv, "--count", "2",
                               "--seed", "5")
            reports = json.loads(out)
            for report in reports:
                report.pop("wall_time")
            outputs.append((rc, reports, err))
        assert [r["suite"] for r in outputs[0][1]] == sorted(SUITE_NAMES)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("name", ["thm14", "thm12"])
    def test_no_shared_roots(self, name):
        def shared(cfg):
            pairs = (decode_instance(name, inst)
                     for inst in _SUITES[name][0](cfg))
            return [p for p in pairs
                    if set(p["a"].distinct_values())
                    & set(p["b"].distinct_values())]

        # the default draws shared roots, --no-shared-roots none
        assert shared(FuzzConfig(seed=1, count=100))
        for seed in range(5):
            assert shared(FuzzConfig(seed=seed, count=100,
                                     allow_shared_roots=False)) == []

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "nope"])

    def test_prop21_large_max_deg(self):
        # prop21 caps |A| + |B| at 8; drawing each degree from 1..max-deg
        # and rejecting the pairs over the cap ran for minutes at 100,000
        out = run_subprocess("verify", "prop21", "--max-deg", "100000",
                             "--count", "20", timeout=20)
        assert out.returncode == 0, out


class TestNegativeValues:
    """A value that starts with '-' and then a digit or '.' is read as the
    value of the option before it, as in its `=` form."""

    @pytest.mark.parametrize("command, option, value, rest", [
        ("sylm", "-a", "-1:1,0:1,3:1", ["-b", "2", "-d", "0"]),
        ("sylm", "-b", "-3:2,1", ["-a", "0:2,5", "-d", "1"]),
        ("sres", "-f", "-2,1", ["-g", "3,1", "-d", "0"]),
        ("sres", "-g", "-.5,0,1", ["-f", "roots:1,2", "-d", "1"]),
        ("syl-single", "-a", "-1/2,2", ["-b", "-3", "-d", "1"]),
        ("syl-double", "-a", "-1,2", ["-b", "3", "-p", "1", "-q", "0"]),
        ("schur", "--points", "-2,5", ["-k", "3", "-R", "2"]),
    ])
    def test_same_as_equals_form(self, capsys, command, option, value, rest):
        split = run(capsys, command, option, value, *rest)
        joined = run(capsys, command, f"{option}={value}", *rest)
        assert split == joined
        assert split[0] == 0 and split[2] == ""

    def test_negative_d_still_refused(self, capsys):
        rc, out, err = run(capsys, "sylm", "-a", "-1:1,0:1", "-b", "2",
                           "-d", "-1")
        assert (rc, out) == (2, "")
        assert "d=-1 is negative" in err


SET24 = ",".join(str(v) for v in range(24))
OTHER24 = ",".join(str(v) for v in range(100, 124))


def _expanded(roots) -> str:
    """The ascending coefficient list of the monic polynomial with these
    roots."""
    return ",".join(map(str, Poly.from_roots(roots).coeffs))


def _rows(*start_stop) -> str:
    return ",".join(map(str, range(*start_stop)))


class TestTermCaps:
    """A sum of more than _MAX_TERMS terms is refused before any work, in a
    subprocess with a timeout, so that a call that starts the sum fails."""

    @pytest.mark.parametrize("argv, terms", [
        (["syl-double", "-a", SET24, "-b", OTHER24, "-p", "6", "-q", "6"],
         comb(24, 6) ** 2),
        (["syl-single", "-a", SET24, "-b", OTHER24, "-d", "12"],
         comb(24, 12)),
        (["sylm", "-a", "0:6,1:6", "-b", "2:6,3:6", "-d", "0"], 184_756),
        (["sylm", "-a", "0:6,1:6", "-b", "2:6,3:6", "-d", "0", "--trace"],
         184_756),
    ])
    def test_refused(self, argv, terms):
        out = run_subprocess(*argv, timeout=20)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (f"error: {argv[0]} would sum {terms} terms, "
                              f"above the cap of {_MAX_TERMS}\n")

    @pytest.mark.parametrize("argv, message", [
        # 19,900 splits, but each divides a product of 19,900 differences
        (["syl-single", "-a", ",".join(map(str, range(200))), "-b", "-1",
          "-d", "2"], f"syl-single needs |A| <= {_MAX_SET_SIZE}; got |A|=200"),
        (["syl-double", "-a", ",".join(map(str, range(80))),
          "-b", ",".join(map(str, range(100, 180))), "-p", "1", "-q", "1"],
         f"syl-double needs |A|, |B| <= {_MAX_SET_SIZE}; "
         f"got |A|=80, |B|=80"),
        # refused before the product of 100,000 roots is formed
        (["sres", "-f", "1,2", "-g", "roots:1:99999,-1", "-d", "3"],
         f"roots: takes at most {_MAX_ROOTS} roots with multiplicity, "
         f"got 100000"),
        (["sres", "-f", ",".join(["1"] * 51), "-g", ",".join(["2"] * 51),
          "-d", "0"],
         f"sres would eliminate a matrix of side 100, above the cap of "
         f"{_MAX_SIDE}"),
        # side 80, as the roots: form at its cap allows, but 61 coefficients
        # of about 270 bits: 19-23 s before the cap
        (["sres", "-f", _expanded([F(i, 7) for i in range(1, 61)]),
          "-g", _expanded([F(-i, 5) for i in range(1, 61)]), "-d", "20"],
         f"sres would eliminate a matrix of side 80 and width 100 on "
         f"integers of up to 21680 bits; its work 302094336000000 is above "
         f"the cap of {_MAX_SRES_WORK}"),
        # lambda = (80^80) and (100^100): 9 s and 41 s before the cap
        (["schur", "-k", "160", "-R", _rows(81, 161),
          "--points", "1/3:40,2/7:40"],
         f"schur would compute integers of up to 64000 bits, above the cap "
         f"of {_MAX_SCHUR_BITS}"),
        (["schur", "-k", "200", "-R", _rows(101, 201),
          "--points", "1/3:50,2/7:50"],
         f"schur would compute integers of up to 100000 bits, above the cap "
         f"of {_MAX_SCHUR_BITS}"),
        # lambda is empty, but the e_j of 99,999 points ran past 100 s
        (["schur", "-k", "100000", "-R", "1", "--points", "1:99999"],
         f"schur takes at most {_MAX_POINTS} points with multiplicity, "
         f"got 99999"),
        # the 2^14 horizontal strips of (14, 13, ..., 1): 7 s before the cap
        (["schur", "-k", "29", "-R", _rows(2, 29, 2),
          "--points", _rows(1, 15), "--with-x"],
         f"schur would evaluate 16384 Jacobi-Trudi determinants of side 14 "
         f"on 735-bit integers; their work 33043906560 is above the cap of "
         f"{_MAX_SCHUR_WORK}"),
    ])
    def test_refused_by_size(self, argv, message):
        out = run_subprocess(*argv, timeout=20)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: {message}\n"

    def test_at_the_size_caps(self, capsys):
        top = ",".join(map(str, range(_MAX_SET_SIZE)))
        other = ",".join(map(str, range(100, 100 + _MAX_SET_SIZE)))
        assert run(capsys, "syl-double", "-a", top, "-b", other,
                   "-p", "1", "-q", "1")[0] == 0
        roots = ",".join(f"{i}/7" for i in range(_MAX_ROOTS))
        assert run(capsys, "sres", "-f", f"roots:{roots}", "-g", "roots:1,2",
                   "-d", "1")[0] == 0
        side = ",".join(["1"] * (_MAX_SIDE // 2 + 1))
        assert run(capsys, "sres", "-f", side, "-g", side, "-d", "0")[0] == 0
        assert run(capsys, "schur", "-k", str(_MAX_POINTS),
                   "--points", f"1:{_MAX_POINTS}") == (0, "1\n", "")

    def test_slow_calls_under_the_work_caps(self):
        # measured at 6 s and 10 s on 2 vCPUs; checked, not run
        roots = [F(i, 7) for i in range(1, _MAX_ROOTS + 1)]
        f = Poly.from_roots(roots)
        g = Poly.from_roots([-r * F(7, 5) for r in roots])
        _check_sres(f, g, 0)
        n = 2 ** 33 // 30
        points = RootMultiset([(n - 5, 15), (n - 4, 15)])
        # lambda = (50^30): rows 31..80 of V_80 removed
        _check_schur(SchurSpec(80, range(31, 81), points))

    def test_below_the_cap(self):
        # 12,870 terms, which sylm sums in about 2 s; and verify's largest
        # double sum, C(10, 5)^2 split pairs at |A| = |B| = 10
        a, b = parse_multiset("0:5,1:5"), parse_multiset("2:5,3:5")
        assert sylm_term_bound(a, b, 0) == 12_870 <= _MAX_TERMS
        assert comb(10, 5) ** 2 <= _MAX_TERMS

    @pytest.mark.parametrize("argv, message", [
        (["syl-double", "-a", SET24, "-b", "3", "-p", "-1", "-q", "0"],
         "(p,q)=(-1,0) outside (24,1)"),
        (["syl-double", "-a", SET24, "-b", OTHER24, "-p", "-1", "-q", "6"],
         "(p,q)=(-1,6) outside (24,24)"),
        (["syl-double", "-a", "1,2", "-b", "3", "-p", "3", "-q", "0"],
         "(p,q)=(3,0) outside (2,1)"),
        (["syl-single", "-a", SET24, "-b", "3", "-d", "-1"],
         "d=-1 outside 0..24"),
        (["syl-single", "-a", "1,2", "-b", "3", "-d", "3"],
         "d=3 outside 0..2"),
        (["sylm", "-a", "0:6,1:6", "-b", "2:6,3:6", "-d", "-1"],
         "d=-1 is negative"),
        (["sylm", "-a", "0:6,1:6", "-b", "2:6,3:6", "-d", "12"],
         "d=12 not below m=n=12"),
    ])
    def test_window_keeps_its_message(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestUnmeetableFuzzConfig:
    """Configs no generator can meet exit 2, in a subprocess with a
    timeout, so that a generator that loops again fails the test."""

    @pytest.mark.parametrize("argv", [
        # part 2 of lemma24 needs m + n - 2d >= 0 with n < d <= m
        ["verify", "lemma24", "--max-deg", "2", "--count", "3"],
        ["verify", "lemma24", "--max-deg", "1"],
        # only -1, 0 and 1 have numerator and denominator bound 1
        ["verify", "eq1", "--coeff-bound", "1", "--count", "3"],
        ["verify", "schur-consistency", "--coeff-bound", "1"],
        ["verify", "eq1", "--max-deg", "0"],
        ["verify", "eq1", "--coeff-bound", "0"],
        ["verify", "eq1", "--count", "-1"],
        ["fuzz", "--count", "1", "--max-deg", "1"],
        # 8 or more thm14 instances must reach a repeated root
        ["verify", "thm14", "--max-deg", "1", "--count", "8"],
        # past the size caps of lemma24's single sums and eq1's double sums
        ["verify", "lemma24", "--max-deg", "13"],
        ["verify", "eq1", "--max-deg", "11"],
        # past the degrees whose sylm term counts stay under the cap
        ["verify", "thm14", "--max-deg", "9"],
        ["verify", "thm12", "--max-deg", "9"],
    ])
    def test_exits_2(self, argv):
        out = run_subprocess(*argv)
        assert out.returncode == 2, out
        assert out.stdout == ""
        assert out.stderr.startswith("error:")

    @pytest.mark.parametrize("bound", range(1, 13))
    def test_pool_size(self, bound):
        values = {F(p, q) for p in range(-bound, bound + 1)
                  for q in range(1, bound + 1)}
        assert _pool_size(bound) == len(values)

    def test_sample_whole_pool(self):
        rng = random.Random(0)
        got = _sample_distinct(rng, 2, 1, avoid=[F(0), F(5)])
        assert sorted(got) == [-1, 1]
        with pytest.raises(ValidationError):
            _sample_distinct(rng, 3, 1, avoid=[F(0)])

    def test_meetable_edge(self, capsys):
        # max degree 1 leaves only m = n = 1, whose two roots the pool
        # of three values can always supply
        rc, out, _ = run(capsys, "verify", "eq1", "--coeff-bound", "1",
                         "--max-deg", "1", "--count", "5")
        assert rc == 0
        assert "[PASS] suite eq1: 5 instances" in out


class TestDeterminism:
    def test_verify_output_is_reproducible(self, capsys):
        argv = ["verify", "eq3", "--count", "5", "--seed", "7", "--json"]
        _, first, _ = run(capsys, "--json", *argv[:-1])
        _, second, _ = run(capsys, "--json", *argv[:-1])
        a, b = json.loads(first), json.loads(second)
        a[0].pop("wall_time")
        b[0].pop("wall_time")
        assert a == b

    def test_sylm_trace_is_reproducible(self, capsys):
        argv = ["sylm", "-a", "0:1,1:2,5:1", "-b", "2:3", "-d", "2",
                "--trace"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
