import dataclasses
import json

import pytest
from click.testing import CliRunner

from invpoly import (
    HSequence,
    PairSet,
    QPoly,
    b_expansion,
    enumeration,
    enumerate_admissible,
    errors,
    expansions,
    fiber_expansion,
    graded,
    model,
    posets,
)
from invpoly.polynomials import BinomialPoly, CoeffSeq
from invpoly.cli import main, run_invariant_suite

H2 = '{"prefix":[],"tail_offset":2}'
H3 = '{"prefix":[],"tail_offset":3}'
S_QUAD = "[[1,3],[2,3],[2,4]]"
S_FIVE = "[[3,4],[3,5],[3,6],[4,6],[5,6]]"


@pytest.fixture
def runner():
    return CliRunner()


class TestEval:
    def test_all_methods_agree(self, runner):
        res = runner.invoke(main, ["eval", "--h", H3, "--s", S_FIVE, "--n", "7"])
        assert res.exit_code == 0
        assert res.output.count(": 6") == 4

    def test_json_output(self, runner):
        res = runner.invoke(
            main, ["eval", "--h", H2, "--s", S_QUAD, "--n", "5", "--json-out"]
        )
        data = json.loads(res.output)
        assert data["methods"]["brute_force"] == 5
        assert data["methods"]["fiber"]["value"] == 5

    def test_perms_schema(self, runner):
        res = runner.invoke(
            main,
            ["eval", "--h", H2, "--s", S_QUAD, "--n", "4", "--perms", "--json-out"],
        )
        data = json.loads(res.output)
        assert data == {
            "S": [[1, 3], [2, 3], [2, 4]],
            "n": 4,
            "perms": [[2, 4, 1, 3], [3, 4, 1, 2]],
        }

    def test_perms_human_output(self, runner):
        # one line per permutation, then the count; nothing before it
        args = ["eval", "--h", H2, "--s", S_QUAD, "--n", "4", "--perms"]
        assert runner.invoke(main, args).output == "2413\n3412\ncount: 2\n"
        args = ["eval", "--h", H2, "--s", "[[1,2]]", "--n", "1", "--perms"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.output == "count: 0\n"

    def test_problem_file(self, runner, tmp_path):
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps({
            "h": {"prefix": [], "tail_offset": 2},
            "S": [[1, 3], [2, 3], [2, 4]],
            "n": 4,
        }))
        res = runner.invoke(main, ["eval", "--json", str(spec)])
        assert res.exit_code == 0
        assert "brute force: 2" in res.output

    def test_fiber_route_above_the_brute_force_cap(self, runner, monkeypatch):
        # j(S) = 12 is above the default cap of 10
        monkeypatch.delenv("INVPOLY_MAX_N", raising=False)
        h, S = HSequence((), 2), PairSet([(10, 11), (10, 12)])
        assert (
            fiber_expansion(h, S).poly.to_monomial()
            == b_expansion(h, S).poly.to_monomial()
        )
        s = "[[10,11],[10,12]]"
        res = runner.invoke(
            main, ["eval", "--h", H2, "--s", s, "--n", "12", "--json-out"]
        )
        assert res.exit_code == 0, res.output
        methods = json.loads(res.output)["methods"]
        assert "brute_force" not in methods
        assert {methods[b]["value"] for b in ("fiber", "b", "a")} == {1}
        res = runner.invoke(
            main, ["expand", "--h", H2, "--s", s, "--basis", "fiber", "--json-out"]
        )
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["monomial"] == {
            "num": [-11, 1], "den": [1, 1]
        }


class TestExitCodes:
    def test_inadmissible_is_2(self, runner):
        res = runner.invoke(main, ["eval", "--h", H2, "--s", "[[1,4]]", "--n", "5"])
        assert res.exit_code == 2

    def test_parse_error_is_3(self, runner):
        res = runner.invoke(main, ["eval", "--h", "nope", "--s", S_QUAD, "--n", "4"])
        assert res.exit_code == 3
        res = runner.invoke(main, ["eval", "--h", H2])
        assert res.exit_code == 3

    def test_bound_exceeded_is_4(self, runner):
        res = runner.invoke(
            main, ["eval", "--h", H2, "--s", S_QUAD, "--n", "12", "--perms"]
        )
        assert res.exit_code == 4

    def test_below_validity_floor_is_3(self, runner):
        res = runner.invoke(
            main, ["graded", "--h", H2, "--s", "[[1,3],[2,3],[2,4],[3,4]]", "--n", "1"]
        )
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)

    def test_bad_tail_offset_is_3(self, runner):
        res = runner.invoke(
            main, ["eval", "--h", '{"prefix":[],"tail_offset":"x"}',
                   "--s", S_QUAD, "--n", "4"]
        )
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("h", [
        '{"prefix":[3.0],"tail_offset":1}',
        '{"prefix":[],"tail_offset":1.5}',
        '{"prefix":[],"tail_offset":true}',
    ])
    def test_non_integer_h_value_is_3(self, runner, h):
        res = runner.invoke(main, ["eval", "--h", h, "--s", "[[1,2]]", "--n", "3"])
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)

    def test_missing_problem_file_is_3(self, runner, tmp_path):
        res = runner.invoke(main, ["eval", "--json", str(tmp_path / "absent.json")])
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)

    def test_non_integer_max_n_is_3(self, runner):
        res = runner.invoke(
            main, ["admissible", "--h", H2, "--n", "4"],
            env={"INVPOLY_MAX_N": "abc"},
        )
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("max_n, code", [("abc", 3), ("3", 4)])
    def test_golden_replay_env_errors(self, runner, max_n, code):
        res = runner.invoke(
            main, ["verify", "--golden"], env={"INVPOLY_MAX_N": max_n}
        )
        assert res.exit_code == code
        assert res.output.startswith("error: ")
        assert res.output.count("\n") == 1
        assert "GOLDEN FAIL" not in res.output

    @pytest.mark.parametrize("s", [
        "[[1.5,3],[2,3],[2,4]]",
        "[[true,3],[2,3],[2,4]]",
        '[["1",3],[2,3],[2,4]]',
    ])
    def test_non_integer_pair_index_is_3(self, runner, s):
        res = runner.invoke(main, ["eval", "--h", H2, "--s", s, "--n", "4"])
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("command", ["eval", "graded"])
    @pytest.mark.parametrize("n", ["4", 4.5, [4], True])
    def test_non_integer_n_in_problem_file_is_3(self, runner, tmp_path, command, n):
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps({
            "h": {"prefix": [], "tail_offset": 2},
            "S": [[1, 3], [2, 3], [2, 4]],
            "n": n,
        }))
        res = runner.invoke(main, [command, "--json", str(spec)])
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_3(self, runner, jobs):
        res = runner.invoke(
            main, ["verify-conjecture", "--h", H2, "--cap", "4", "--jobs", jobs]
        )
        assert res.exit_code == 3
        assert res.output.startswith("error: ")

    def test_route_disagreement_is_5(self, runner, monkeypatch):
        # an order with no relations: the poset route to d_S then disagrees
        # with the chain route
        monkeypatch.setattr(posets, "position_order", lambda h, S, n: (0,) * n)
        res = runner.invoke(main, ["verify", "--h", H2, "--cap", "4"])
        assert res.exit_code == 5
        assert res.output.startswith("error: d_S routes disagree")
        assert res.output.count("\n") == 1

    def test_other_exceptions_stay_tracebacks(self, runner, monkeypatch):
        def broken(h, S):
            raise RuntimeError("a bug")

        monkeypatch.setattr(posets, "build_poset", broken)
        res = runner.invoke(main, ["poset", "--h", H2, "--s", S_QUAD])
        assert isinstance(res.exception, RuntimeError)
        assert "error:" not in res.output

    def test_every_error_declares_its_code(self):
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.InvpolyError)]
        assert {c.__name__ for c in classes} == {
            "InvpolyError", "InputError", "InadmissibleSetError",
            "BoundExceededError", "BelowValidityFloorError",
            "RouteDisagreementError",
        }
        for cls in classes:
            assert "exit_code" in vars(cls), cls.__name__


class TestExpand:
    def test_schema_and_round_trip(self, runner):
        res = runner.invoke(
            main,
            ["expand", "--h", H3, "--s", S_FIVE, "--basis", "b", "--json-out"],
        )
        data = json.loads(res.output)
        assert data["basis"] == "b"
        assert data["coeffs"] == {"3": 0, "4": 0, "5": 0, "6": 0, "7": 3, "8": 6}
        assert data["monomial"] == {"num": [-15, 3], "den": [1, 1]}
        assert data["validity_floor"] == 8
        # byte-identical re-emit
        assert json.dumps(data, sort_keys=True) == json.dumps(
            json.loads(json.dumps(data, sort_keys=True)), sort_keys=True
        )

    def test_a_basis(self, runner):
        res = runner.invoke(
            main, ["expand", "--h", H2, "--s", S_QUAD, "--basis", "a", "--json-out"]
        )
        assert json.loads(res.output)["coeffs"] == {"0": 0, "1": 2, "2": 1}


class TestOtherCommands:
    def test_graded(self, runner):
        res = runner.invoke(
            main,
            ["graded", "--h", H3, "--s", S_FIVE, "--n", "8", "--json-out"],
        )
        data = json.loads(res.output)
        assert data["b_q"]["7"] == {"coeffs": [0, 0, 0, 0, 0, 0, 0, 1, 1, 1]}
        assert data["value_at_n"]["poly"] == {
            "coeffs": [0, 0, 0, 0, 0, 1, 2, 3, 2, 1]
        }

    def test_poset(self, runner):
        res = runner.invoke(
            main,
            ["poset", "--h", H2, "--s", "[[1,3],[2,3],[2,4],[3,4]]", "--json-out"],
        )
        data = json.loads(res.output)
        assert data["n"] == 5
        assert len(data["extensions"]) == 3
        assert data["heights"]["heights"] == [0, 0, 1, 1, 1]

    def test_admissible(self, runner):
        res = runner.invoke(
            main,
            ["admissible", "--h", '{"prefix":[],"tail_offset":1}', "--n", "3",
             "--json-out"],
        )
        data = json.loads(res.output)
        assert sum(c["count"] for c in data["classes"]) == 6
        assert len(data["classes"]) == 4

    def test_admissible_lists_classes_in_pair_order(self, runner):
        res = runner.invoke(main, ["admissible", "--h", H3, "--n", "6", "--json-out"])
        assert res.exit_code == 0
        classes = enumerate_admissible(HSequence((), 3), 6)
        want = sorted(classes.items(), key=lambda kv: kv[0].pairs)
        assert json.loads(res.output)["classes"] == [
            {"S": S.to_json(), "count": c} for S, c in want
        ]

    def test_poincare(self, runner):
        res = runner.invoke(
            main,
            ["poincare", "--h", '{"prefix":[],"tail_offset":1}', "--n", "3",
             "--json-out"],
        )
        assert json.loads(res.output) == {"coeffs": [1, 0, 4, 0, 1]}

    def test_verify_golden(self, runner):
        res = runner.invoke(main, ["verify", "--golden"])
        assert res.exit_code == 0
        assert "all examples reproduced" in res.output

    def test_verify_sweep(self, runner):
        res = runner.invoke(main, ["verify", "--h", H2, "--cap", "5"])
        assert res.exit_code == 0

    def test_verify_does_not_rerun_the_conjecture_sweep(self, runner, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify ran verify_conjecture")

        monkeypatch.setattr(graded, "verify_conjecture", refuse)
        res = runner.invoke(main, ["verify", "--h", H2, "--cap", "5"])
        assert res.exit_code == 0

    def test_verify_checks_strong_q_log_concavity(self, runner, monkeypatch):
        # a verdict of False with no offending pair is a route disagreement
        monkeypatch.setattr(graded, "q_seq_strongly_log_concave", lambda seq: False)
        res = runner.invoke(main, ["verify", "--h", H2, "--cap", "5"])
        assert res.exit_code == 5
        assert res.output.startswith("error: ")

    def test_violation_report_end_to_end(self, runner, monkeypatch):
        # forge (1+q, 1, 1+q), which is not strongly q-log-concave, as the
        # graded coefficients of the m = 2 sets, in both routes that give
        # them (verify-conjecture lists, verify counts by DP); the others
        # stay real
        h = HSequence((), 2)
        forged_seq = (QPoly((1, 1)), QPoly.one(), QPoly((1, 1)))

        def forge(real):
            def forged(h, S):
                if S.m() == 2:
                    return graded.GradedExpansion(h.h(2), 2, forged_seq)
                return real(h, S)
            return forged

        for route in ("b_q_coefficients", "b_q_dp"):
            monkeypatch.setattr(graded, route, forge(getattr(graded, route)))
        # the first failing pair of the plain formula b_i b_j - b_(i-1) b_(j+1)
        at = lambda p: forged_seq[p] if 0 <= p < 3 else QPoly.zero()
        first = None
        for i in range(3):
            for j in range(i, 3):
                diff = at(i) * at(j) - at(i - 1) * at(j + 1)
                if first is None and not diff.is_nonnegative():
                    first = (i, j, diff)
        i, j, diff = first
        start = h.h(2) - 2  # the index of b_q[0]
        forged_sets = sorted(
            S for S in enumerate_admissible(h, 5) if S and S.m() == 2
        )
        want = [
            {"S": S.to_json(), "i": i + start, "j": j + start,
             "difference": diff.to_json()}
            for S in forged_sets
        ]
        assert want

        res = runner.invoke(
            main, ["verify-conjecture", "--h", H2, "--cap", "5", "--json-out"]
        )
        assert res.exit_code == 1, res.output
        assert json.loads(res.output)["violations"] == want

        res = runner.invoke(main, ["verify", "--h", H2, "--cap", "5"])
        assert res.exit_code == 1, res.output
        assert f"strong q-log-concavity violations: {want}" in res.output

    def test_verify_checks_each_set_once(self, monkeypatch):
        h = HSequence((), 2)
        sets = {S for S in enumerate_admissible(h, 6) if S}
        checked = []
        check = model.is_admissible

        def counted(h, S):
            checked.append(S)
            return check(h, S)

        model.require_admissible.cache_clear()
        monkeypatch.setattr(model, "is_admissible", counted)
        assert run_invariant_suite(h, 6) == []
        assert len(checked) == len(sets) and set(checked) == sets

    def test_verify_conjecture(self, runner):
        res = runner.invoke(
            main,
            ["verify-conjecture", "--h", H2, "--cap", "5", "--json-out"],
        )
        data = json.loads(res.output)
        assert res.exit_code == 0
        assert data["violations"] == []
        assert data["checked"] > 0


class TestInvariantSuiteChecks:
    """Each failure branch of the invariant suite fires on a forged input
    and fails verify with its own line."""

    S = PairSet([(1, 3), (2, 3), (2, 4)])  # quadratic in n, j = h(m) = 4

    def _forge_on_S(self, monkeypatch, module, name, forge):
        """Replace module.name so that its result on self.S is forged."""
        real = getattr(module, name)

        def forged(h, S):
            res = real(h, S)
            return forge(res) if S == self.S else res

        monkeypatch.setattr(module, name, forged)

    def _verify_fails_with(self, runner, line):
        res = runner.invoke(main, ["verify", "--h", H2, "--cap", "5"])
        assert res.exit_code == 1, res.output
        assert line in res.output.splitlines(), res.output
        return res

    def test_expansions_disagree(self, runner, monkeypatch):
        self._forge_on_S(monkeypatch, expansions, "a_expansion",
                         lambda res: dataclasses.replace(res, poly=BinomialPoly.constant(1)))
        self._verify_fails_with(runner, f"{self.S}: expansions disagree as polynomials")

    def test_expansions_disagree_where_the_oracle_cannot_see(self, runner, monkeypatch):
        # C(n - j, cap - j + 1) vanishes at every oracle point n = j .. cap
        j, cap = self.S.j(), 5  # cap as in _verify_fails_with
        extra = BinomialPoly(((1, j, cap - j + 1),))
        assert [extra(n) for n in range(j, cap + 1)] == [0] * (cap - j + 1)
        assert extra != BinomialPoly(())
        self._forge_on_S(monkeypatch, expansions, "fiber_expansion",
                         lambda res: dataclasses.replace(res, poly=res.poly + extra))
        res = self._verify_fails_with(
            runner, f"{self.S}: expansions disagree as polynomials")
        assert "oracle mismatch" not in res.output, res.output

    def test_oracle_mismatch(self, runner, monkeypatch):
        real = enumeration.graded_admissible

        def forged(h, n):
            classes = real(h, n)
            if n == 5:
                classes[self.S] = classes[self.S] + QPoly.one()
            return classes

        monkeypatch.setattr(enumeration, "graded_admissible", forged)
        self._verify_fails_with(runner, f"{self.S}: oracle mismatch at n=5")

    def test_a_dropped_class_breaks_the_orientation_theorems(self, runner, monkeypatch):
        real = enumeration.graded_admissible

        def dropped(h, n):
            classes = real(h, n)
            if n == 4:
                del classes[self.S]
            return classes

        monkeypatch.setattr(enumeration, "graded_admissible", dropped)
        # tail-2 at n = 4: 3 * 3 * 2 * 1 = 18 sets, rank polynomial
        # [3]_t^2 [2]_t, from which S (three pairs) drops one t^3
        res = self._verify_fails_with(runner, "n=4: 17 admissible sets, expected 18")
        lines = res.output.splitlines()
        assert ("n=4: rank generating function 1 + 3*q + 5*q^2 + 4*q^3 + 3*q^4 + q^5, "
                "expected 1 + 3*q + 5*q^2 + 5*q^3 + 3*q^4 + q^5") in lines, res.output
        assert not any(line.startswith(("n=3:", "n=5:")) for line in lines)

    def test_coefficient_conversion_mismatch(self, runner, monkeypatch):
        real = expansions.a_from_b

        def forged(b, m, hm):
            a = real(b, m, hm)
            return CoeffSeq((a.values[0] + 1,) + a.values[1:], a.start)

        monkeypatch.setattr(expansions, "a_from_b", forged)
        self._verify_fails_with(runner, f"{self.S}: coefficient conversion mismatch")

    def test_not_pf2(self, runner, monkeypatch):
        # the same polynomial, with b-coefficients that have an internal zero
        self._forge_on_S(monkeypatch, expansions, "b_expansion",
                         lambda res: dataclasses.replace(
                             res, coeffs=CoeffSeq((1, 0, 1), res.coeffs.start)))
        self._verify_fails_with(runner, f"{self.S}: coefficient sequence (1, 0, 1) not PF2")

    def test_constancy_degree_mismatch(self, runner, monkeypatch):
        self._forge_on_S(monkeypatch, expansions, "degree_of", lambda degree: 0)
        self._verify_fails_with(runner, f"{self.S}: constancy/degree mismatch")
