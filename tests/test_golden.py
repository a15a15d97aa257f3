"""Golden replay notices a wrong expected value, for every check kind and
every expected field that the bundled fixtures hold.

Each test tampers one expected value in a copy of a bundled fixture, so
the code under test stays correct and only the fixture disagrees.
"""

import pytest
from click.testing import CliRunner

from invpoly import golden
from invpoly.cli import main

KINDS = ["inv_h", "counts", "enumerate", "expansion", "constant",
         "poset_heights", "induced_poset", "qbinom", "graded_value", "graded_b"]


def _tampered(value):
    """value with one entry changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _tampered(value[key])}
    return value[:-1] if value else [1]  # a list: drop its last entry


def _tampered_fixtures() -> dict[tuple[str, str], dict]:
    """(check kind, expected field) -> a one-check fixture: the first
    bundled check of that kind with that field, the field tampered."""
    out = {}
    for name, fx in golden.load_all().items():
        for c in fx["checks"]:
            for key in c:
                if key.startswith("expected") and (c["check"], key) not in out:
                    out[c["check"], key] = {
                        "name": f"{name}-{key}",
                        "checks": [{**c, key: _tampered(c[key])}],
                    }
    return out


TAMPERED = _tampered_fixtures()


def test_every_check_kind_is_bundled():
    assert sorted({kind for kind, _ in TAMPERED}) == sorted(KINDS)


@pytest.mark.parametrize("kind, key", sorted(TAMPERED), ids="-".join)
def test_replay_notes_a_tampered_value(kind, key):
    fx = TAMPERED[kind, key]
    notes = golden.replay(fx)
    assert notes
    assert all(note.startswith(f"{fx['name']}: ") for note in notes)
    assert not any(" raised " in note for note in notes)


def test_replay_notes_a_check_that_raises():
    # an inadmissible set is neither bad input nor over the bound: the
    # check cannot pass, so its error is a note, not an exception
    fx = {"name": "inadmissible", "checks": [{
        "check": "constant", "h": {"prefix": [], "tail_offset": 2},
        "S": [[1, 2], [2, 3]], "expected": True,
    }]}
    [note] = golden.replay(fx)
    assert note.startswith("inadmissible: constant raised InadmissibleSetError(")


def test_verify_golden_fails_on_tampered_fixtures(monkeypatch):
    fixtures = {fx["name"]: fx for fx in TAMPERED.values()}
    monkeypatch.setattr(golden, "load_all", lambda: fixtures)
    res = CliRunner().invoke(main, ["verify", "--golden"])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert all(line.startswith("GOLDEN FAIL: ") for line in lines)
    for name in fixtures:
        assert any(line.startswith(f"GOLDEN FAIL: {name}: ") for line in lines)
