import argparse
import json

import pytest

import arrtwist
from arrtwist import arrangement, tower
from arrtwist.cli import build_parser, main
from arrtwist.koszul import Disagreement
from arrtwist.tower import TowerSpec, check_tower


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(p)


GENERIC5 = {
    "r": 3,
    "forms": [[1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 9], [1, 4, 16]],
}

DIAG2 = {"ring": "Z", "ranks": [1, 1], "boundaries": [["2"]]}
DIAG4 = {"ring": "Z", "ranks": [1, 1], "boundaries": [["4"]]}


class TestMilnorCommands:
    def test_obstruct_quoted_fixture(self, capsys):
        code, out = run(
            capsys, "milnor", "obstruct", "--spectrum", "5,0,1,0,1,0"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["divides"] is False
        assert rep["verdict"] == "obstructed"
        assert rep["b1_total"] == 7

    def test_spectrum_from_presentation(self, capsys, tmp_path):
        pres = write(
            tmp_path, "pencil.json", {"generators": 2, "relators": [], "meridians": True}
        )
        code, out = run(capsys, "milnor", "spectrum", "--presentation", pres)
        assert code == 0
        rep = json.loads(out)
        assert rep["spectrum"] == [2, 1, 1]
        assert rep["verdict"] == "not_obstructed"

    def test_bad_spectrum_is_input_error(self, capsys):
        code, out = run(
            capsys, "milnor", "obstruct", "--spectrum", "4,0,1,0,1,0"
        )
        assert code == 1

    def test_negative_generator_count_is_input_error(self, capsys, tmp_path):
        pres = write(
            tmp_path, "neg.json", {"generators": -1, "relators": [], "meridians": True}
        )
        code, out = run(capsys, "milnor", "spectrum", "--presentation", pres)
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "generator count must be nonnegative" in rep["reason"]

    def test_fractional_generator_count_is_input_error(self, capsys, tmp_path):
        # int() would read 2.7 as 2 and report the spectrum of 2 generators
        pres = write(
            tmp_path, "frac.json", {"generators": 2.7, "relators": [], "meridians": True}
        )
        code, out = run(capsys, "milnor", "spectrum", "--presentation", pres)
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "must be an integer" in rep["reason"] and "2.7" in rep["reason"]

    def test_obstruct_without_input_is_input_error(self, capsys):
        code, out = run(capsys, "milnor", "obstruct")
        assert code == 1
        rep = json.loads(out)
        assert rep == {"error": "ValueError", "reason": "milnor obstruct needs --spectrum"}

    def test_empty_spectrum_is_input_error(self, capsys):
        # no values means n = -1, which used to pass the length check
        for argv in (["--spectrum", ","], ["--spectrum", " "]):
            code, out = run(capsys, "milnor", "obstruct", *argv)
            assert code == 1
            rep = json.loads(out)
            assert rep["error"] == "ValueError"
            assert "n must be nonnegative" in rep["reason"]

    def test_non_string_relator_is_input_error(self, capsys, tmp_path):
        # a string of relators used to be read letter by letter
        for relators, reason in (([5], "a word must be a string, got 5"),
                                 ("ab", "relators must be a list of words, got 'ab'")):
            pres = write(tmp_path, "p.json", {"generators": 2, "relators": relators})
            code, out = run(capsys, "milnor", "spectrum", "--presentation", pres)
            assert code == 1
            assert json.loads(out) == {"error": "ValueError", "reason": reason}


class TestArrCommands:
    def test_betti(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        code, out = run(capsys, "arr", "betti", "--arrangement", arr)
        assert code == 0
        rep = json.loads(out)
        assert rep["betti"] == [1, 4, 6] and rep["euler"] == 3

    def test_girth_and_dense(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        code, out = run(capsys, "arr", "girth", "--arrangement", arr)
        assert code == 0 and json.loads(out)["girth"] == 4
        code, out = run(capsys, "arr", "dense", "--arrangement", arr)
        assert code == 0

    def test_nonres(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        code, out = run(
            capsys, "arr", "nonres", "--arrangement", arr, "--weights=-4,1,1,1,1"
        )
        assert code == 0 and json.loads(out)["nonresonant"] is True
        code, out = run(
            capsys, "arr", "nonres", "--arrangement", arr, "--weights", "0,0,0,0,0"
        )
        assert code == 0 and json.loads(out)["nonresonant"] is False

    def test_lattice_deterministic(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        _, out1 = run(capsys, "arr", "lattice", "--arrangement", arr)
        _, out2 = run(capsys, "arr", "lattice", "--arrangement", arr)
        assert out1 == out2

    def test_forms_not_a_list_is_input_error(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", {"r": 2, "forms": 5})
        code, out = run(capsys, "arr", "girth", "--arrangement", arr)
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "forms must be a list of coefficient lists" in rep["reason"]

    def test_non_numeric_counts_are_input_errors(self, capsys, tmp_path):
        # int() raised TypeError on None and on lists
        cases = [
            (("arr", "girth", "--arrangement"), {"r": None, "forms": [[1, 0], [0, 1]]},
             "r must be an integer, got None"),
            (("milnor", "spectrum", "--presentation"), {"generators": [2], "relators": []},
             "the generator count must be an integer, got [2]"),
            (("homology", "tower", "--tower"), {"exponents": [[1]]},
             "an exponent must be an integer, got [1]"),
        ]
        for argv, payload, reason in cases:
            code, out = run(capsys, *argv, write(tmp_path, "in.json", payload))
            assert code == 1
            assert json.loads(out) == {"error": "ValueError", "reason": reason}


class TestParser:
    def test_two_calls_share_one_parser(self, capsys, tmp_path, monkeypatch):
        assert build_parser() is build_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        arr = write(tmp_path, "a.json", GENERIC5)
        koszul = ["homology", "koszul", "--arrangement", arr, "--weights=-4,1,1,1,1"]
        outs = [run(capsys, *argv) for argv in (koszul, koszul + ["--full"], koszul)]
        assert built == []
        # each call parses into a fresh namespace: --full does not stick
        assert outs[0] == outs[2] != outs[1]
        assert all(code == 0 for code, _ in outs)

    @pytest.mark.parametrize(
        "argv",
        [
            ["homology", "tower", "--tower", "t.json", "--max-q", "0"],
            ["milnor", "obstruct", "--n", "5", "--spectrum", "5,0,1,0,1,0"],
            ["milnor", "obstruct", "--presentation", "p.json"],
        ],
        ids=["tower-max-q", "obstruct-n", "obstruct-presentation"],
    )
    def test_removed_options_are_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestHomologyCommands:
    def test_koszul_full_nonresonant(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        code, out = run(
            capsys,
            "homology",
            "koszul",
            "--arrangement",
            arr,
            "--weights=-4,1,1,1,1",
            "--full",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["homology"]["2"]["free_rank"] == 3
        assert rep["homology"]["0"]["torsion"] == ["-1 + t"]
        assert rep["top_rank_formula"] == rep["top_rank_direct"] == 3

    def test_unknown_ring_is_refusal(self, capsys, tmp_path):
        # UnsupportedRing is a ValueError too: the refusal exit code wins
        arr = write(tmp_path, "a.json", GENERIC5)
        code, out = run(
            capsys, "homology", "koszul", "--arrangement", arr,
            "--weights=-4,1,1,1,1", "--ring", "bogus",
        )
        assert code == 2
        assert json.loads(out)["error"] == "UnsupportedRing"

    def test_koszul_range_refusal_girth3(self, capsys, tmp_path):
        arr = write(
            tmp_path,
            "np.json",
            {"r": 3, "forms": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]},
        )
        code, out = run(
            capsys, "homology", "koszul", "--arrangement", arr, "--weights", "1,1,-1"
        )
        assert code == 2
        assert json.loads(out)["error"] == "GirthTooSmall"

    def test_wrong_weight_count_is_input_error(self, capsys, tmp_path):
        # 4 forms take 3 or 4 weights.  homology koszul used to crash with an
        # IndexError on 2 and run on the first 4 of 6; the other commands
        # each refused with their own message.
        arr = write(tmp_path, "a4.json", {"r": 3, "forms": [[1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 9]]})
        koszul = ("homology", "koszul")
        for cmd, weights in (
            (koszul, "1,-1"),
            (koszul + ("--full",), "1,-1"),
            (koszul, "1,-1,0,0,0,0"),
            (("arr", "nonres"), "1,-1"),
            (("pi", "rank"), "1,-1"),
            (("crosscheck",), "1,-1"),
        ):
            code, out = run(capsys, *cmd, "--arrangement", arr, f"--weights={weights}")
            assert code == 1, cmd
            got = len(weights.split(","))
            assert json.loads(out) == {
                "error": "InvalidCharacter", "reason": f"need 3 or 4 weights, got {got}"}

    def test_non_integral_inputs_are_input_errors(self, capsys, tmp_path):
        # int() used to truncate each of these and the command exited 0
        exps = write(tmp_path, "e.json", {"exponents": [2.9, 1.5]})
        wts = write(tmp_path, "w.json", {
            "exponents": [1, 1, 1, 1],
            "weights": {"g2_1": 1.5, "g3_1": 1, "g4_1": 1, "g5_1": 1},
        })
        arr = write(tmp_path, "r.json", dict(GENERIC5, r=3.7))
        for argv, value in (
            (("homology", "tower", "--tower", exps), "1.5"),
            (("homology", "tower", "--tower", wts), "1.5"),
            (("pi", "rank", "--tower", wts, "--p", "2"), "1.5"),
            (("arr", "girth", "--arrangement", arr), "3.7"),
        ):
            code, out = run(capsys, *argv)
            assert code == 1, argv
            rep = json.loads(out)
            assert rep["error"] == "ValueError"
            assert "must be an integer" in rep["reason"] and value in rep["reason"]

    def test_fox(self, capsys, tmp_path):
        pres = write(
            tmp_path,
            "p.json",
            {"generators": 2, "relators": ["aba-1b-1"], "meridians": True},
        )
        code, out = run(
            capsys, "homology", "fox", "--presentation", pres, "--weights", "1,1"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["homology"]["1"]["torsion"] == ["-1 + t"]

    def test_tower(self, capsys, tmp_path):
        tw = write(
            tmp_path,
            "t.json",
            {
                "exponents": [2, 1],
                "generators": {"level_2": ["y1"], "level_3": ["x1", "x2"]},
                "monodromy": {"level_3": {"y1": ["x1", "x1 x2 x1-1"]}},
                "weights": {"y1": 1, "x1": 1, "x2": 1},
            },
        )
        code, out = run(capsys, "homology", "tower", "--tower", tw)
        assert code == 0
        rep = json.loads(out)
        assert rep["ranks"] == [1, 3, 2]
        assert rep["tor"]["0"]["torsion"] == ["-1 + t"]

    def test_invalid_tower_same_report_from_both_commands(self, capsys, tmp_path):
        bad = {
            "exponents": [2, 1],
            "generators": {"level_2": ["y1"], "level_3": ["x1", "x2"]},
            "monodromy": {"level_3": {"y1": ["x2", "x1"]}},
        }
        tw = write(tmp_path, "bad.json", bad)
        reason = json.dumps(check_tower(TowerSpec.from_json(bad)))
        for argv in (
            ("homology", "tower", "--tower", tw),
            ("pi", "rank", "--tower", tw, "--p", "0"),
        ):
            code, out = run(capsys, *argv)
            assert code == 1
            assert json.loads(out) == {"error": "TowerInvalid", "reason": reason}

    @pytest.mark.parametrize("key", ["levelx", "foo_3", "level_2_3"])
    def test_bad_monodromy_key_names_the_key(self, capsys, tmp_path, key):
        bad = {
            "exponents": [2, 1],
            "generators": {"level_2": ["y1"], "level_3": ["x1", "x2"]},
            "monodromy": {key: {"y1": ["x1", "x1 x2 x1-1"]}},
        }
        code, out = run(capsys, "homology", "tower", "--tower", write(tmp_path, "t.json", bad))
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "TowerInvalid"
        assert rep["reason"].startswith(f"bad monodromy key {key!r}"), rep


class TestWeightsToUnits:
    """Weights become units by one rule: t^w over K[t,t^-1], zeta^w over
    Q(zeta_d), 1 over any other field (zero weights only), and no units at
    all over a ring that is not a field."""

    PRES = {"generators": 2, "relators": ["aba-1b-1"], "meridians": True}

    def _commands(self, tmp_path, weights):
        arr = write(tmp_path, "a.json", GENERIC5)
        pres = write(tmp_path, "p.json", self.PRES)
        koszul = ("homology", "koszul", "--arrangement", arr, f"--weights={weights}")
        fox = ("homology", "fox", "--presentation", pres,
               "--weights=" + ",".join(weights.split(",")[:2]))
        return {"koszul": koszul, "full": koszul + ("--full",), "fox": fox}

    @pytest.mark.parametrize("ring", ["cyclotomic:3", "Q", "F5"])
    def test_zero_weights_over_fields(self, capsys, tmp_path, ring):
        # every unit is 1: the untwisted Betti numbers
        expect = {
            "koszul": {"0": 1, "1": 4},
            "full": {"0": 1, "1": 4, "2": 6},
            "fox": {"0": 1, "1": 2},
        }
        for name, argv in self._commands(tmp_path, "0,0,0,0,0").items():
            code, out = run(capsys, *argv, "--ring", ring)
            assert code == 0, (name, out)
            rep = json.loads(out)
            assert rep["ring"] == ring
            assert {q: h["free_rank"] for q, h in rep["homology"].items()} == expect[name]
            assert all(h["torsion"] == [] for h in rep["homology"].values())

    def test_cyclotomic_weights_are_powers_of_zeta(self, capsys, tmp_path):
        # zeta_3 acting on a meridian kills H_0 and, for Z^2, H_1 as well
        code, out = run(capsys, *self._commands(tmp_path, "1,1")["fox"],
                        "--ring", "cyclotomic:3")
        assert code == 0
        assert {q: h["free_rank"] for q, h in json.loads(out)["homology"].items()} == {
            "0": 0, "1": 0}

    @pytest.mark.parametrize("ring", ["Q", "F5"])
    def test_nonzero_weight_over_plain_field_is_refused(self, capsys, tmp_path, ring):
        for name, argv in self._commands(tmp_path, "-1,1,0,0,0").items():
            code, out = run(capsys, *argv, "--ring", ring)
            assert code == 2, name
            assert json.loads(out) == {
                "error": "UnsupportedRing",
                "reason": f"{ring} has no distinguished unit: only zero weights make sense",
            }

    def test_integers_are_refused(self, capsys, tmp_path):
        for name, argv in self._commands(tmp_path, "0,0,0,0,0").items():
            code, out = run(capsys, *argv, "--ring", "Z")
            assert code == 2, name
            assert json.loads(out) == {
                "error": "UnsupportedRing", "reason": "cannot interpret weights in Z"}

    def test_tower_weights_flag_wins_over_file(self, capsys, tmp_path):
        def tower(name, g2):  # H_0 is K[t,t^-1] / (t^g2 - 1)
            return write(tmp_path, name, {
                "exponents": [1, 1], "weights": {"g2_1": g2, "g3_1": 0}})

        _, one = run(capsys, "homology", "tower", "--tower", tower("t1.json", 1))
        _, two = run(capsys, "homology", "tower", "--tower", tower("t2.json", 2))
        code, out = run(capsys, "homology", "tower", "--tower", tower("t3.json", 1),
                        "--weights", "g2_1=2")
        assert code == 0
        assert out == two != one


class TestPiAndChain:
    def test_pi_rank_boolean_path(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        code, out = run(
            capsys, "pi", "rank", "--arrangement", arr, "--weights=-4,1,1,1,1"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["rank"] == 3 and rep["rank_formula"] == 3
        assert rep["nonresonant"] is True and rep["nonresonant_formula"] == 3

    def test_pi_rank_fibertype_path(self, capsys, tmp_path):
        tw = write(
            tmp_path,
            "t.json",
            {
                "exponents": [1, 1, 1, 1],
                "weights": {"g2_1": 1, "g3_1": 1, "g4_1": 1, "g5_1": 1},
            },
        )
        code, out = run(capsys, "pi", "rank", "--tower", tw, "--p", "2")
        assert code == 0
        assert json.loads(out)["rank"] == 3

    def test_pi_rank_without_input_is_input_error(self, capsys):
        code, out = run(capsys, "pi", "rank", "--weights=-4,1,1,1,1")
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "--arrangement" in rep["reason"] and "--tower" in rep["reason"]

    def test_pi_rank_negative_p_refused(self, capsys, tmp_path):
        tw = write(tmp_path, "t.json", {"exponents": [2, 1]})
        for p in ("-1", "-2"):
            code, out = run(capsys, "pi", "rank", "--tower", tw, "--p", p)
            assert code == 2
            assert json.loads(out)["error"] == "DegreeUnavailable"
        code, out = run(capsys, "pi", "rank", "--tower", tw, "--p", "0")
        assert code == 0 and json.loads(out)["matrix_shape"] == [3, 2]

    def test_pi_rank_both_sources_is_input_error(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        tw = write(tmp_path, "t.json", {"exponents": [1, 1, 1, 1]})
        code, out = run(
            capsys, "pi", "rank", "--arrangement", arr, "--tower", tw,
            "--weights=-4,1,1,1,1", "--p", "2",
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "--arrangement" in rep["reason"] and "--tower" in rep["reason"]

    def test_pi_rank_arrangement_refuses_p(self, capsys, tmp_path):
        # p = r - 1 is derived from the arrangement; --p 7 used to be ignored
        arr = write(tmp_path, "a.json", GENERIC5)
        code, out = run(
            capsys, "pi", "rank", "--arrangement", arr, "--weights=-4,1,1,1,1", "--p", "7"
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "--p" in rep["reason"] and "--tower" in rep["reason"]

    def test_route_mismatch_is_a_disagreement(self, capsys, tmp_path, monkeypatch):
        real = tower.rank_formula_general
        monkeypatch.setattr(
            tower, "rank_formula_general", lambda *args: real(*args) + 1)
        arr = write(tmp_path, "a.json", GENERIC5)
        for cmd in (("pi", "rank"), ("crosscheck",)):
            with pytest.raises(Disagreement, match="Euler-characteristic formula"):
                main([*cmd, "--arrangement", arr, "--weights=-4,1,1,1,1"])
        assert capsys.readouterr().out == ""

    def test_chain_iso_distinguishes(self, capsys, tmp_path):
        a = write(tmp_path, "c2.json", DIAG2)
        b = write(tmp_path, "c4.json", DIAG4)
        code, out = run(capsys, "chain", "iso", "--a", a, "--b", b)
        assert code == 0
        assert json.loads(out)["isomorphic"] is False
        code, out = run(capsys, "chain", "iso", "--a", a, "--b", a)
        assert json.loads(out)["isomorphic"] is True

    def test_chain_boundary_count_is_input_error(self, capsys, tmp_path):
        # one rank but one boundary: refused before any rank is indexed
        bad = write(tmp_path, "c.json", {"ring": "Z", "ranks": [1], "boundaries": [[2]]})
        code, out = run(capsys, "chain", "iso", "--a", bad, "--b", bad)
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "one boundary map per degree" in rep["reason"]

    def test_chain_negative_rank_is_input_error(self, capsys, tmp_path):
        bad = write(tmp_path, "c.json", {"ring": "Z", "ranks": [1, -2], "boundaries": [[]]})
        code, out = run(capsys, "chain", "iso", "--a", bad, "--b", bad)
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "nonnegative" in rep["reason"]

    def test_chain_fractional_rank_is_input_error(self, capsys, tmp_path):
        # int() would read 1.9 as 1 and report on a rank-1 complex
        bad = write(tmp_path, "c.json", {"ring": "Z", "ranks": [1.9, 1], "boundaries": [["2"]]})
        code, out = run(capsys, "chain", "iso", "--a", bad, "--b", bad)
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError"
        assert "must be an integer" in rep["reason"] and "1.9" in rep["reason"]

    def test_refusal_exit_code(self, capsys, tmp_path):
        arr = write(
            tmp_path, "b.json", {"r": 4, "forms": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        )
        code, out = run(
            capsys, "pi", "rank", "--arrangement", arr, "--weights=-3,1,1,1"
        )
        assert code == 2
        assert json.loads(out)["error"] == "NotGenericPosition"

    def test_missing_file_is_input_error(self, capsys):
        code, out = run(
            capsys, "arr", "betti", "--arrangement", "/nonexistent/path.json"
        )
        assert code == 1


class TestRefusals:
    def test_every_refusal_exits_2(self, capsys, tmp_path, monkeypatch):
        """The exit code comes from the exception type: every refusal class
        the package exports is a Refusal, and each one exits with code 2."""
        non_essential = write(tmp_path, "ne.json", {"r": 3, "forms": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]})
        girth3 = write(tmp_path, "g3.json", {"r": 3, "forms": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]})
        boolean = write(tmp_path, "b.json", {"r": 3, "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        generic = write(tmp_path, "a.json", GENERIC5)
        tw = write(tmp_path, "t.json", {"exponents": [2, 1]})
        six = write(tmp_path, "six.json", {"r": 3, "forms": [[1, i, i * i] for i in range(6)]})
        huge = write(tmp_path, "huge.json",
                     {"ring": "laurent", "ranks": [1, 1], "boundaries": [["-1 + t^1000000000"]]})
        tower = write(tmp_path, "tower.json", {
            "exponents": [2, 1],
            "generators": {"level_2": ["y1"], "level_3": ["x1", "x2"]},
            "monodromy": {"level_3": {"y1": ["x1", "x1 x2 x1-1"]}}})
        cases = [
            (arrtwist.NotEssential, ("arr", "betti", "--arrangement", non_essential)),
            (arrtwist.GirthTooSmall,
             ("homology", "koszul", "--arrangement", girth3, "--weights", "1,1,-1")),
            (arrtwist.NotGenericPosition,
             ("pi", "rank", "--arrangement", boolean, "--weights=-2,1,1")),
            (arrtwist.DegreeUnavailable, ("pi", "rank", "--tower", tw, "--p", "-1")),
            (arrtwist.UnsupportedRing,
             ("homology", "koszul", "--arrangement", generic, "--weights=-4,1,1,1,1",
              "--ring", "bogus")),
            (arrtwist.RingTooLarge,
             ("homology", "koszul", "--arrangement", generic, "--weights=-4,1,1,1,1",
              "--ring", f"F{2**61 - 1}")),
            (arrtwist.SpanTooLarge, ("chain", "iso", "--a", huge, "--b", huge)),
            (arrtwist.SpanTooLarge,
             ("homology", "koszul", "--arrangement", six, "--weights=1000000000,1,1,1,1")),
            (arrtwist.SpanTooLarge,
             ("homology", "tower", "--tower", tower, "--weights=y1=1000000000,x1=1,x2=1")),
        ]
        exported = {
            c for c in vars(arrtwist).values()
            if isinstance(c, type) and issubclass(c, arrtwist.Refusal) and c is not arrtwist.Refusal
        }
        assert exported == {cls for cls, _ in cases} | {arrtwist.LatticeTooLarge}
        for cls, argv in cases:
            assert issubclass(cls, ValueError)
            code, out = run(capsys, *argv)
            assert (code, json.loads(out)["error"]) == (2, cls.__name__), argv
        # the lattice budget, lowered below the boolean arrangement's 8 flats
        monkeypatch.setattr(arrangement, "MAX_FLATS", 5)
        code, out = run(capsys, "arr", "lattice", "--arrangement", boolean)
        assert (code, json.loads(out)["error"]) == (2, "LatticeTooLarge")


TOP_LEVEL_LIST = "[1, 2]"


class TestMalformedFiles:
    """Well-formed JSON of the wrong shape is an input error (exit 1, a JSON
    error on stdout), not a traceback."""

    @pytest.mark.parametrize(
        "argv, payload, reason",
        [
            (("arr", "lattice", "--arrangement", "@"), TOP_LEVEL_LIST,
             "an arrangement must be a JSON object"),
            (("homology", "fox", "--presentation", "@", "--weights", "1"), TOP_LEVEL_LIST,
             "a presentation must be a JSON object"),
            (("milnor", "spectrum", "--presentation", "@"), TOP_LEVEL_LIST,
             "a presentation must be a JSON object"),
            (("homology", "tower", "--tower", "@"), TOP_LEVEL_LIST, "a tower must be a JSON object"),
            (("chain", "iso", "--a", "@", "--b", "@"), TOP_LEVEL_LIST,
             "a complex must be a JSON object"),
            (("homology", "tower", "--tower", "@"), {"exponents": [2, 1], "monodromy": [1]},
             "monodromy must be a JSON object"),
            (("homology", "tower", "--tower", "@"),
             {"exponents": [2, 1], "monodromy": {"level_3": [1]}},
             "monodromy level_3 must be a JSON object"),
            (("homology", "tower", "--tower", "@"), {"exponents": [2, 1], "generators": [1]},
             "generators must be a JSON object"),
            (("homology", "tower", "--tower", "@"), {"exponents": [2, 1], "weights": [1, 2]},
             "weights must be a JSON object"),
            (("chain", "iso", "--a", "@", "--b", "@"),
             {"ring": "Z", "ranks": [1, 1], "boundaries": [5]},
             "boundaries must be a list of entry lists"),
            (("homology", "tower", "--tower", "@"), {"exponents": 5},
             "exponents must be a JSON list"),
            (("homology", "tower", "--tower", "@"),
             {"exponents": [2, 1], "generators": {"level_2": 5}},
             "generators level_2 must be a JSON list"),
            (("chain", "iso", "--a", "@", "--b", "@"), {"ring": "Z", "ranks": 5, "boundaries": []},
             "ranks must be a JSON list"),
            (("chain", "iso", "--a", "@", "--b", "@"), {"ring": 5, "ranks": [1], "boundaries": []},
             "ring must be a JSON string"),
            (("milnor", "spectrum", "--presentation", "@"),
             {"generators": 2, "relators": [], "names": 5, "meridians": True},
             "names must be a JSON list"),
            (("milnor", "spectrum", "--presentation", "@"),
             {"generators": 2, "relators": [], "meridians": "no"},
             "meridians must be a JSON boolean"),
            (("milnor", "spectrum", "--presentation", "@"),
             {"generators": True, "relators": [], "meridians": True},
             "the generator count must be an integer, got True"),
            (("chain", "iso", "--a", "@", "--b", "@"),
             {"ring": "Z", "ranks": [1, 1], "boundaries": [[True]]},
             "boundary 1: a JSON boolean is not a scalar"),
            (("arr", "betti", "--arrangement", "@"),
             {"r": 3, "forms": [[1, 0, 0], [True, 1, 1], [1, 2, 4], [1, 3, 9]]},
             "forms must be a list of coefficient lists"),
            (("milnor", "spectrum", "--presentation", "@"),
             {"generators": 2, "relators": ["x1 x2"]}, "bad word syntax at '1x2'"),
            (("milnor", "spectrum", "--presentation", "@"),
             {"generators": 2, "relators": ["AbA-1B-1"], "meridians": True},
             "bad word syntax at 'AbA-1B-1'"),
            (("milnor", "spectrum", "--presentation", "@"),
             {"generators": 2, "relators": ["éb"], "meridians": True},
             "bad word syntax at 'éb'"),
        ],
        ids=["arrangement-list", "fox-list", "milnor-list", "tower-list", "complex-list",
             "monodromy", "monodromy-level", "tower-generators", "tower-weights",
             "boundary-entry", "tower-exponents", "tower-level-names", "complex-ranks",
             "complex-ring", "presentation-names",
             "presentation-meridians", "presentation-boolean-count", "complex-boolean-entry",
             "arrangement-boolean-entry", "named-word-without-names", "upper-case-letter",
             "non-ascii-letter"],
    )
    def test_input_error_not_traceback(self, capsys, tmp_path, argv, payload, reason):
        path = write(tmp_path, "bad.json", payload)
        code, out = run(capsys, *(path if a == "@" else a for a in argv))
        assert code == 1
        rep = json.loads(out)
        assert rep["error"] == "ValueError" and rep["reason"].startswith(reason), rep


class TestCrosscheck:
    def test_nonresonant_five_lines(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        code, out = run(
            capsys, "crosscheck", "--arrangement", arr, "--weights=-4,1,1,1,1"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["all_agree"] is True
        names = [c["name"] for c in rep["checks"]]
        assert any("kappa" in n for n in names)
        assert any("nonresonant" in n for n in names)

    def test_with_presentation(self, capsys, tmp_path):
        arr = write(
            tmp_path,
            "a4.json",
            {"r": 3, "forms": [[1, 0, 0], [1, 1, 1], [1, 2, 4], [1, 3, 9]]},
        )
        pres = write(
            tmp_path,
            "z3.json",
            {
                "generators": 3,
                "relators": ["aba-1b-1", "aca-1c-1", "bcb-1c-1"],
                "meridians": True,
            },
        )
        code, out = run(
            capsys,
            "crosscheck",
            "--arrangement",
            arr,
            "--weights=-3,1,1,1",
            "--presentation",
            pres,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["all_agree"] is True
        assert any("presentation" in c["name"] for c in rep["checks"])

    def test_reports_are_deterministic(self, capsys, tmp_path):
        arr = write(tmp_path, "a.json", GENERIC5)
        _, out1 = run(capsys, "crosscheck", "--arrangement", arr, "--weights=-4,1,1,1,1")
        _, out2 = run(capsys, "crosscheck", "--arrangement", arr, "--weights=-4,1,1,1,1")
        assert out1 == out2
