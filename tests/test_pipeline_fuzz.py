"""Property test: a pipeline file with at least one structural defect is
refused with exit 2 and a message naming the pipeline or the step, before
any of its steps runs."""

import copy
import json
import re
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from alssnn.cli import main  # noqa: E402

SCALAR = st.one_of(st.none(), st.booleans(), st.integers(),
                   st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=5))
NOT_AN_OBJECT = st.one_of(SCALAR, st.lists(st.text(max_size=3), max_size=2))
NOT_A_LIST = st.one_of(SCALAR, st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NOT_A_STRING = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.lists(st.text(max_size=3), max_size=2))


def steps_of(obj):
    """The step list of obj, when obj is an object holding a non-empty one."""
    steps = obj.get("steps") if isinstance(obj, dict) else None
    return steps if isinstance(steps, list) and steps else None


# Each defect takes hypothesis's draw and a pipeline object, and returns the
# object with that defect, or unchanged where the defect no longer applies.

def top_level_not_an_object(draw, obj):
    return draw(NOT_AN_OBJECT)


def steps_missing(draw, obj):
    return {k: v for k, v in obj.items() if k != "steps"} if isinstance(obj, dict) else obj


def steps_not_a_list(draw, obj):
    return {**obj, "steps": draw(NOT_A_LIST)} if isinstance(obj, dict) else obj


def steps_empty(draw, obj):
    return {**obj, "steps": []} if isinstance(obj, dict) else obj


def unknown_key(draw, obj):
    if not isinstance(obj, dict):
        return obj
    return {**obj, draw(st.text(max_size=6).filter(lambda k: k != "steps")): draw(SCALAR)}


def step_defect(replace):
    """A defect that replaces one drawn step by replace(draw, step)."""
    def defect(draw, obj):
        steps = steps_of(obj)
        if steps is not None:
            i = draw(st.integers(0, len(steps) - 1))
            steps[i] = replace(draw, steps[i])
        return obj
    defect.__name__ = replace.__name__
    return defect


@step_defect
def step_not_a_list(draw, step):
    return draw(NOT_A_LIST)


@step_defect
def step_empty(draw, step):
    return []


@step_defect
def argument_not_a_string(draw, step):
    if not isinstance(step, list) or not step:
        return step
    step[draw(st.integers(0, len(step) - 1))] = draw(NOT_A_STRING)
    return step


@step_defect
def run_step(draw, step):
    return ["run", draw(st.text(max_size=8))]


DEFECTS = [top_level_not_an_object, steps_missing, steps_not_a_list, steps_empty,
           unknown_key, step_not_a_list, step_empty, argument_not_a_string, run_step]


@st.composite
def defective_pipelines(draw):
    """One to three valid steps, each writing a file under the placeholder
    directory OUT, with one to three defects applied in turn (the first
    always applies)."""
    obj = {"steps": [["gen-data", "wh-synthetic", "--n", "50", "-o", f"OUT/d{j}.csv"]
                     for j in range(draw(st.integers(1, 3)))]}
    for defect in draw(st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=3)):
        obj = defect(draw, copy.deepcopy(obj))
    return obj


def first_bad_step(steps):
    """Index, from 1, of the first step that is not a non-empty list of
    strings or that is a `run` step."""
    return next(i for i, step in enumerate(steps, start=1)
                if not isinstance(step, list) or not step
                or not all(isinstance(a, str) for a in step) or step[0] == "run")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(defective_pipelines())
def test_defective_pipeline_exit_2_before_any_step(capsys, obj):
    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(obj).replace("OUT/", json.dumps(tmp + "/")[1:-1])
        pipeline = Path(tmp) / "p.json"
        pipeline.write_text(text)
        capsys.readouterr()
        assert main(["run", str(pipeline)]) == 2
        out, err = capsys.readouterr()
        assert [p.name for p in Path(tmp).iterdir()] == ["p.json"]   # no step ran
    assert out == ""
    steps = steps_of(obj)
    if steps is None:
        assert err.startswith('error: pipeline must be {"steps": ')
    elif set(obj) != {"steps"}:
        assert err.startswith("error: pipeline: unknown field ")
    else:
        assert re.match(rf"error: pipeline step {first_bad_step(steps)}[: ]", err)
