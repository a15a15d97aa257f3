"""Command-line front end.

Inputs arrive as --h/--s/--n flags (JSON fragments) or a single --json
file; output is human-readable by default, machine JSON with --json-out.

verify runs the invariant suite: one graded grouping sweep of S_n per
n <= cap serves as the oracle for every set, for the counts and the
graded expansion alike, and strong q-log-concavity is checked on the
graded coefficients the suite has already counted (graded.b_q_dp), for
every set with h(m) <= cap.  Each sweep's classes are also checked
against the count and rank generating function of the acyclic
orientations of the window graph (_orientation_checks).

Exit codes: 0 ok, 1 verification failure, 2 inadmissible set (a
nonempty set with no descent pair too), 3 bad input (unparsable,
malformed, a non-integer h-sequence value, pair index or n, a --json
file that cannot be read, a non-integer INVPOLY_MAX_N, --jobs below 1,
below the validity floor, or order relations with a cycle), 4
brute-force bound exceeded, 5 two routes that must agree disagree.
Each library error carries its code (invpoly.errors); click's own usage
errors, such as a bad flag value or an unknown command, also exit 2.
"""

from __future__ import annotations

import json
import math
import sys

import click

from invpoly import (
    config,
    enumeration,
    expansions,
    graded as graded_mod,
    model,
    polynomials,
    posets,
)
from invpoly.errors import InputError, InvpolyError

EXIT_VERIFY_FAILED = 1


def _load_problem(h, s, n, json_file):
    try:
        data = {}
        if json_file:
            with open(json_file) as fh:
                data = json.load(fh)
        if h is not None:
            data["h"] = json.loads(h)
        if s is not None:
            data["S"] = json.loads(s)
        if n is not None:
            data["n"] = n
        hseq = model.HSequence.from_json(data["h"])
        S = model.PairSet.from_json(data["S"]) if "S" in data else None
        n = data.get("n")
    # ValueError also covers json.JSONDecodeError and InputError; OSError
    # covers a --json file that is missing or unreadable
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise InputError(f"bad input: {exc}") from exc
    if n is not None:
        model.require_int(n, "n")
    return hseq, S, n


def _emit(payload: dict, human: str, json_out: bool):
    if json_out:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(human)


class _Main(click.Group):
    """Runs a command; a library error ends it with one line and its code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InvpolyError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)


h_opt = click.option("--h", "h", default=None, help='h-sequence JSON, e.g. \'{"prefix":[],"tail_offset":2}\'')
s_opt = click.option("--s", "s", default=None, help="pair-set JSON, e.g. '[[1,3],[2,3]]'")
n_opt = click.option("--n", "n", type=int, default=None)
json_opt = click.option("--json", "json_file", default=None, help="problem spec file")
out_opt = click.option("--json-out", is_flag=True, help="emit machine-readable JSON")


@click.group(cls=_Main)
def main():
    """Restricted inversion polynomials: exact counts, expansions, q-analogues."""


@main.command("eval")
@h_opt
@s_opt
@n_opt
@json_opt
@click.option("--perms", "want_perms", is_flag=True,
              help="list the matching permutations (forces brute force)")
@out_opt
def cmd_eval(h, s, n, json_file, want_perms, json_out):
    """Count permutations with the given restricted inversion set at n."""
    hseq, S, n = _load_problem(h, s, n, json_file)
    if S is None or n is None:
        raise InputError("eval needs both S and n")
    if S:  # the empty set is admissible, but require_admissible refuses it
        model.require_admissible(hseq, S)
    if want_perms:
        perms = enumeration.enumerate_Ih(hseq, S, n)
        payload = {"S": S.to_json(), "n": n,
                   "perms": [p.to_json() for p in perms]}
        human = "".join(f"{p}\n" for p in perms) + f"count: {len(perms)}"
        _emit(payload, human, json_out)
        return
    payload = {"S": S.to_json(), "n": n, "methods": {}}
    lines = []
    if n <= config.max_n():
        count = len(enumeration.enumerate_Ih(hseq, S, n))
        payload["methods"]["brute_force"] = count
        lines.append(f"brute force: {count}")
    for make in expansions.ROUTES.values():
        res = make(hseq, S)
        value = res.poly(n)
        below = n < res.validity_floor
        payload["methods"][res.basis] = {
            "value": value,
            "below_validity_floor": below,
        }
        note = "  (below validity floor: polynomial value, not a count)" if below else ""
        lines.append(f"{res.basis}-expansion: {value}{note}")
    _emit(payload, "\n".join(lines), json_out)


@main.command("expand")
@h_opt
@s_opt
@json_opt
@click.option("--basis", type=click.Choice(list(expansions.ROUTES)), default="b")
@out_opt
def cmd_expand(h, s, json_file, basis, json_out):
    """Closed-form expansion in the chosen binomial basis."""
    hseq, S, _ = _load_problem(h, s, None, json_file)
    if S is None:
        raise InputError("expand needs S")
    res = expansions.ROUTES[basis](hseq, S)
    human = (
        f"{basis}-expansion: {res.poly}\n"
        f"coefficients: {res.coeffs.to_json()}\n"
        f"monomial: {res.poly.to_monomial()}\n"
        f"valid as a count for n >= {res.validity_floor}"
    )
    _emit(res.to_json(), human, json_out)


@main.command("graded")
@h_opt
@s_opt
@n_opt
@json_opt
@out_opt
def cmd_graded(h, s, n, json_file, json_out):
    """Graded b-coefficients, plus the q-polynomial at n if given."""
    hseq, S, n = _load_problem(h, s, n, json_file)
    if S is None:
        raise InputError("graded needs S")
    ge = graded_mod.b_q_coefficients(hseq, S)
    payload = ge.to_json()
    lines = [f"b_{k}(q) = {ge.coeff(k)}" for k in ge.indices()]
    if n is not None:
        value = graded_mod.graded_expansion_eval(ge, n)
        payload["value_at_n"] = {"n": n, "poly": value.to_json()}
        lines.append(f"graded polynomial at n={n}: {value}")
    _emit(payload, "\n".join(lines), json_out)


@main.command("poset")
@h_opt
@s_opt
@json_opt
@out_opt
def cmd_poset(h, s, json_file, json_out):
    """The order on [h(m)] attached to S, its extensions and heights."""
    hseq, S, _ = _load_problem(h, s, None, json_file)
    if S is None:
        raise InputError("poset needs S")
    P = posets.build_poset(hseq, S)
    hm = hseq.h(S.m())
    exts = posets.linear_extensions(P)
    heights = posets.height_sequence(P, hm)
    payload = P.to_json()
    payload["extensions"] = [e.to_json() for e in exts]
    payload["heights"] = {"v": hm, "heights": heights}
    human = (
        f"poset on [{P.ground}], covers {P.cover_relations()}\n"
        f"{len(exts)} linear extensions\n"
        f"height sequence of {hm}: {heights}"
    )
    _emit(payload, human, json_out)


@main.command("admissible")
@h_opt
@n_opt
@json_opt
@out_opt
def cmd_admissible(h, n, json_file, json_out):
    """Group S_n by restricted inversion set."""
    hseq, _, n = _load_problem(h, None, n, json_file)
    if n is None:
        raise InputError("admissible needs n")
    classes = enumeration.enumerate_admissible(hseq, n)
    ordered = sorted(classes.items())
    payload = {
        "classes": [{"S": S.to_json(), "count": c} for S, c in ordered]
    }
    lines = [f"{S}: {c}" for S, c in ordered]
    lines.append(f"total classes: {len(ordered)}")
    _emit(payload, "\n".join(lines), json_out)


@main.command("poincare")
@h_opt
@n_opt
@json_opt
@out_opt
def cmd_poincare(h, n, json_file, json_out):
    """Betti generating function of the associated Hessenberg variety."""
    hseq, _, n = _load_problem(h, None, n, json_file)
    if n is None:
        raise InputError("poincare needs n")
    poly = enumeration.poincare(hseq, n)
    _emit(poly.to_json(), f"{str(poly).replace('q', 't')}", json_out)


@main.command("verify-conjecture")
@h_opt
@json_opt
@click.option("--cap", type=int, default=7, help="largest h(m(S)) to sweep")
@click.option("--jobs", type=int, default=1,
              help="worker processes, at most the CPU count")
@out_opt
def cmd_verify_conjecture(h, json_file, cap, jobs, json_out):
    """Strong q-log-concavity sweep over all admissible sets up to the cap."""
    hseq, _, _ = _load_problem(h, None, None, json_file)
    report = graded_mod.verify_conjecture(hseq, cap, jobs=jobs)
    human = (
        f"checked {report.checked} admissible sets (h(m) <= {cap}) "
        f"in {report.elapsed_ms:.0f} ms: "
        + ("all strongly q-log-concave" if report.ok
           else f"{len(report.violations)} VIOLATIONS")
    )
    _emit(report.to_json(), human, json_out)
    if not report.ok:
        sys.exit(EXIT_VERIFY_FAILED)


@main.command("verify")
@h_opt
@json_opt
@click.option("--cap", type=int, default=6, help="sweep size for the invariant suite")
@click.option("--golden", is_flag=True, help="replay the bundled worked examples")
@out_opt
def cmd_verify(h, json_file, cap, golden, json_out):
    """Run the cross-checking invariant suite (or the golden replay)."""
    if golden:
        from invpoly import golden as golden_mod

        failures = [note for fx in golden_mod.load_all().values()
                    for note in golden_mod.replay(fx)]
        if failures:
            for f in failures:
                click.echo(f"GOLDEN FAIL: {f}")
            sys.exit(EXIT_VERIFY_FAILED)
        click.echo("golden replay: all examples reproduced")
        return
    hseq, _, _ = _load_problem(h, None, None, json_file)
    failures = run_invariant_suite(hseq, cap)
    payload = {"cap": cap, "failures": failures}
    human = (
        f"invariant suite at cap {cap}: "
        + ("all checks passed" if not failures else "FAILURES:\n" + "\n".join(failures))
    )
    _emit(payload, human, json_out)
    if failures:
        sys.exit(EXIT_VERIFY_FAILED)


def run_invariant_suite(hseq: model.HSequence, cap: int) -> list[str]:
    """Cross-checks over every nonempty admissible set with j(S) <= cap.

    Each S_n, n <= cap, is swept once, grading every class by length
    (enumeration.graded_admissible); every route is an ideal pass, and
    nothing is listed.  When h(m) <= cap, graded.b_q_dp's coefficients are
    checked against those classes for n = h(m) .. cap, for strong
    q-log-concavity, and at q = 1 against the b route.  Always: triple
    expansion agreement against the class counts for n = j(S) .. cap,
    coefficient conversion, log-concavity, and degree against constancy.
    Each sweep's classes are also held to the two theorems of
    _orientation_checks.
    """
    failures, violations = [], []
    graded = {cap: enumeration.graded_admissible(hseq, cap)}  # the bound first
    graded.update((n, enumeration.graded_admissible(hseq, n)) for n in range(1, cap))
    for n in range(1, cap + 1):
        failures.extend(_orientation_checks(hseq, n, graded[n]))
    zero = polynomials.QPoly.zero()
    for S in sorted(S for S in graded[cap] if S):
        hm = hseq.h(S.m())
        ge = graded_mod.b_q_dp(hseq, S) if hm <= cap else None
        if ge is not None:
            for n in range(hm, cap + 1):
                if graded_mod.graded_expansion_eval(ge, n) != graded[n].get(S, zero):
                    failures.append(f"{S}: graded expansion mismatch at n={n}")
            violation = graded_mod.q_log_concavity_violation(S, ge)
            if violation is not None:
                violations.append(violation)
        fib = expansions.fiber_expansion(hseq, S)
        b = expansions.b_expansion(hseq, S)
        a = expansions.a_expansion(hseq, S)
        # polynomials of degree <= top agree exactly at top + 1 integers
        top = max((d for r in (fib, b, a) for _, _, d in r.poly.terms), default=0)
        if any(not fib.poly(n) == b.poly(n) == a.poly(n) for n in range(top + 1)):
            failures.append(f"{S}: expansions disagree as polynomials")
            continue
        for n in range(S.j(), cap + 1):
            if fib.poly(n) != graded[n].get(S, zero).at_one():
                failures.append(f"{S}: oracle mismatch at n={n}")
        conv = expansions.a_from_b(b.coeffs, S.m(), hm)
        if conv != a.coeffs:
            failures.append(f"{S}: coefficient conversion mismatch")
        if ge is not None and tuple(c.at_one() for c in ge.b_q) != b.coeffs.values:
            failures.append(f"{S}: b_q_dp at q = 1 disagrees with b")
        for seq in (b.coeffs.values, a.coeffs.values):
            if not (polynomials.is_log_concave(seq)
                    and polynomials.has_no_internal_zeros(seq)):
                failures.append(f"{S}: coefficient sequence {seq} not PF2")
        if expansions.is_constant(hseq, S) != (expansions.degree_of(hseq, S) == 0):
            failures.append(f"{S}: constancy/degree mismatch")
    if violations:
        failures.append(f"strong q-log-concavity violations: {violations}")
    return failures


def _orientation_checks(hseq: model.HSequence, n: int, classes) -> list[str]:
    """The classes of S_n, the empty set included, are the admissible
    sets: the acyclic orientations of the graph on [n] whose edges are
    the window pairs (a pair of S points down, any other up).  The
    graph is a unit-interval graph, and inserting i into the order of
    its later neighbours gives c_i + 1 choices, c_i = min(h(i), n) - i.
    So there are prod (c_i + 1) classes (Stanley 1973), and their rank
    generating function sum t^|S| is prod [c_i + 1]_t (Bjorner, Edelman
    & Ziegler 1990).  A failure line for each theorem that fails."""
    sizes = [min(hseq.h(i), n) - i + 1 for i in range(1, n + 1)]
    rank = polynomials.QPoly.one()
    for size in sizes:
        rank = rank * polynomials.QPoly((1,) * size)
    failures = []
    if len(classes) != math.prod(sizes):
        failures.append(
            f"n={n}: {len(classes)} admissible sets, expected {math.prod(sizes)}")
    got = polynomials.QPoly.from_exponents(len(S) for S in classes)
    if got != rank:
        failures.append(
            f"n={n}: rank generating function {got}, expected {rank}")
    return failures


if __name__ == "__main__":
    main()
