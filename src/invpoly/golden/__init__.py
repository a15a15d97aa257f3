"""Bundled worked-example fixtures and their replay engine.

Each fixture file is a JSON document with a name and a list of typed
checks; replay() runs every check and returns human-readable mismatch
notes (empty list = fixture fully reproduced).
"""

from __future__ import annotations

import json
from importlib import resources

from invpoly import enumeration, expansions, graded, model, posets
from invpoly.errors import BoundExceededError, InputError
from invpoly.polynomials import q_binom


def _h(data) -> model.HSequence:
    return model.HSequence.from_json(data)


def _S(data) -> model.PairSet:
    return model.PairSet.from_json(data)


def _perm_strs(perms) -> set[str]:
    return {str(p) for p in perms}


def _check_inv_h(c):
    pi = model.Permutation.from_json(c["perm"])
    if "expected_inversions" in c:
        got = pi.inversions()
        if got != _S(c["expected_inversions"]):
            yield f"inversions of {pi}: got {got}"
    got = model.inv_h(_h(c["h"]), pi)
    if got != _S(c["expected_S"]):
        yield f"inv_h of {pi}: got {got}"


def _check_counts(c):
    h, S = _h(c["h"]), _S(c["S"])
    for n_str, want in c["expected"].items():
        got = len(enumeration.enumerate_Ih(h, S, int(n_str)))
        if got != want:
            yield f"count at n={n_str}: got {got}, want {want}"


def _check_enumerate(c):
    h, S = _h(c["h"]), _S(c["S"])
    got = _perm_strs(enumeration.enumerate_Ih(h, S, c["n"]))
    if got != set(c["expected_perms"]):
        yield f"I_h(S,{c['n']}): got {sorted(got)}"


def _check_expansion(c):
    h, S = _h(c["h"]), _S(c["S"])
    res = expansions.ROUTES[c["basis"]](h, S)
    if "expected_coeffs" in c:
        got = res.coeffs.to_json()
        if got != c["expected_coeffs"]:
            yield f"{c['basis']}-coeffs: got {got}, want {c['expected_coeffs']}"
    if "expected_monomial" in c:
        got = res.poly.to_monomial().to_json()
        if got != c["expected_monomial"]:
            yield f"{c['basis']}-monomial: got {got}"
    for n_str, want in c.get("expected_values", {}).items():
        got = res.poly(int(n_str))
        if got != want:
            yield f"{c['basis']}-value at n={n_str}: got {got}, want {want}"


def _check_constant(c):
    h, S = _h(c["h"]), _S(c["S"])
    got = expansions.is_constant(h, S)
    if got != c["expected"]:
        yield f"is_constant: got {got}, want {c['expected']}"


def _check_poset_heights(c):
    P = posets.Poset.from_json(c["poset"])
    if "expected_extensions" in c:
        got = _perm_strs(posets.linear_extensions(P))
        if got != set(c["expected_extensions"]):
            yield f"extensions: got {sorted(got)}"
    for v_str, want in c.get("expected_heights", {}).items():
        got = posets.height_sequence(P, int(v_str))
        if got != want:
            yield f"heights of {v_str}: got {got}, want {want}"
    for v_str, want in c.get("expected_support_bounds", {}).items():
        got = list(posets.height_support_bounds(P, int(v_str)))
        if got != want:
            yield f"support bounds of {v_str}: got {got}, want {want}"


def _check_induced_poset(c):
    h, S = _h(c["h"]), _S(c["S"])
    P = posets.build_poset(h, S)
    exts = posets.linear_extensions(P)
    if "expected_extensions" in c:
        got = _perm_strs(exts)
        if got != set(c["expected_extensions"]):
            yield f"extensions: got {sorted(got)}"
    if c.get("check_inverse_bijection"):
        hm = h.h(S.m())
        members = enumeration.enumerate_Ih(h, S, hm)
        if {p.inverse() for p in members} != set(exts):
            yield "inverse-permutation / linear-extension bijection failed"
    if "expected_d_S" in c:
        got = posets.d_S_of(h, S)
        if got != c["expected_d_S"]:
            yield f"d_S: got {got}, want {c['expected_d_S']}"
    if "expected_degree" in c:
        got = expansions.degree_of(h, S)
        if got != c["expected_degree"]:
            yield f"degree: got {got}, want {c['expected_degree']}"
    if "expected_b" in c:
        got = posets.b_from_heights(h, S).to_json()
        if got != c["expected_b"]:
            yield f"b via heights: got {got}, want {c['expected_b']}"


def _check_qbinom(c):
    got = q_binom(c["n"], c["k"]).to_json()["coeffs"]
    if got != c["expected_coeffs"]:
        yield f"qbinom({c['n']},{c['k']}): got {got}"


def _check_graded_value(c):
    h, S = _h(c["h"]), _S(c["S"])
    got = enumeration.graded_Ih_oracle(h, S, c["n"]).to_json()["coeffs"]
    if got != c["expected_coeffs"]:
        yield f"graded value at n={c['n']}: got {got}"
    hm = h.h(S.m())
    if c["n"] >= hm:
        ge = graded.b_q_coefficients(h, S)
        via = graded.graded_expansion_eval(ge, c["n"]).to_json()["coeffs"]
        if via != c["expected_coeffs"]:
            yield f"graded expansion at n={c['n']}: got {via}"


def _check_graded_b(c):
    h, S = _h(c["h"]), _S(c["S"])
    ge = graded.b_q_coefficients(h, S)
    for k_str, want in c["expected_b_q"].items():
        got = ge.coeff(int(k_str)).to_json()["coeffs"]
        if got != want:
            yield f"b_{k_str}(q): got {got}, want {want}"


_CHECKS = {
    "inv_h": _check_inv_h,
    "counts": _check_counts,
    "enumerate": _check_enumerate,
    "expansion": _check_expansion,
    "constant": _check_constant,
    "poset_heights": _check_poset_heights,
    "induced_poset": _check_induced_poset,
    "qbinom": _check_qbinom,
    "graded_value": _check_graded_value,
    "graded_b": _check_graded_b,
}


def replay(fixture: dict) -> list[str]:
    """Run every check in a fixture document; return mismatch notes.

    InputError and BoundExceededError are raised, not noted: they mean the
    checks cannot run as asked (a bad or too low INVPOLY_MAX_N), not that
    the fixture disagrees.
    """
    name = fixture.get("name", "<unnamed>")
    failures = []
    for c in fixture["checks"]:
        try:
            failures.extend(f"{name}: {msg}" for msg in _CHECKS[c["check"]](c))
        except (InputError, BoundExceededError):
            raise
        except Exception as exc:  # a crash is a failure, not a pass
            failures.append(f"{name}: {c['check']} raised {exc!r}")
    return failures


def load_all() -> dict[str, dict]:
    """All bundled fixtures, keyed by file stem."""
    out = {}
    root = resources.files("invpoly") / "golden"
    for entry in sorted(root.iterdir()):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = json.loads(entry.read_text())
    return out
