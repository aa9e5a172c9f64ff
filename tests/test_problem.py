import json
from pathlib import Path

import numpy as np
import pytest

from presic_lab import UsageError, problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
BOX = {"lo": [0.0], "hi": [2.0]}


def _text(**blocks):
    cfg = {"space": {"kind": "euclidean", "box": BOX}, "operator": {"kind": "averaging"}}
    cfg.update(blocks)
    return json.dumps(cfg)


@pytest.mark.parametrize("text, message", [
    (_text(space={"kind": "chebyshev", "box": BOX}), "unknown space kind 'chebyshev'"),
    (_text(operator={"kind": "rotation"}), "unknown operator kind 'rotation'"),
    (_text(space={"kind": "euclidean", "dim": 2, "box": BOX}),
     "space dim does not match box dimension"),
    (json.dumps({"space": {"kind": "euclidean", "box": BOX}}),
     "problem file needs 'space' and 'operator' blocks"),
    (json.dumps({"operator": {"kind": "averaging"}}),
     "problem file needs 'space' and 'operator' blocks"),
], ids=["unknown-space-kind", "unknown-operator-kind", "dim-not-the-box", "no-operator",
        "no-space"])
def test_input_checks(text, message):
    with pytest.raises(UsageError) as info:
        problem.loads(text)
    assert str(info.value) == message


def test_space_block_b_overrides_the_declared_constant():
    prob = problem.loads(_text(space={"kind": "power", "p": 3, "box": BOX, "b": 5.0}))
    assert (prob.space.kind, prob.space.p, prob.space.b) == ("power", 3.0, 5.0)


def test_loads_a_custom_dsl_problem_file(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(_text(space={"kind": "custom_dsl", "expr": "abs(u1 - v1)", "b": 1.5,
                                 "box": BOX}))
    prob = problem.load(path)
    assert (prob.space.kind, prob.space.b, prob.space.expr.source) == (
        "custom_dsl", 1.5, "abs(u1 - v1)")
    assert prob.space.distance([0.5], [2.0]) == 1.5


def test_problems_compare_as_a_bool():
    cfg = json.loads((PROBLEMS / "averaging_k3.json").read_text())
    cfg["solve"]["start"] = [[1.0], [0.5], [0.25]]
    first, second = problem.loads(json.dumps(cfg)), problem.loads(json.dumps(cfg))
    assert np.array_equal(first.solve["start"], second.solve["start"])
    assert (first == second) is False
    assert (first == first) is True
