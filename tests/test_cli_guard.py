"""The CLI guard: every subcommand, run in-process on small arguments with
one or two options set to an extreme value, and sometimes on a drawn model,
exits with a documented code, and a failure ends stderr with the JSON error
line rather than a traceback."""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifrag import cli, errors

EXTREMES = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "",
            str(2 ** 64)]

# each subcommand's options, with a small value or None (left out unless an
# example sets it)
SEEDED = {"--seed": "1", "--replicas": "2", "--initial-type": "1"}
SNAPSHOTS = {"--t": "1", "--times": None, "--mass-floor": "1e-2",
             "--max-fragments": "100000"}
THETAS = {"--theta": None, "--theta-grid": None}
OPTIONS = {
    "validate": {},
    "simulate": {**SEEDED, **SNAPSHOTS},
    "partition": {**SEEDED, "--n": "8", "--t": "1", "--times": None},
    "tagged": {**SEEDED, "--t": "1"},
    "spectral": THETAS,
    "martingale": {**SEEDED, **THETAS, **SNAPSHOTS},
    "limits": {**SEEDED, "--t": "1", "--f-center": None, "--f-width": None},
    "ldcount": {**SEEDED, "--t-grid": "4", "--max-fragments": "100000",
                "--theta-frac": None, "--a": None, "--b": None,
                "--replica-chunk": None},
    "report": {**SEEDED, "--t": "1"},
}

SPEC_C = {"types": 2, "dislocation": {
    "1": [{"rate": 1.0, "fragments": [[0.6, 1], [0.4, 2]]}],
    "2": [{"rate": 1.0, "fragments": [[0.5, 2], [0.3, 1], [0.2, 1]]}]}}


@st.composite
def spec_documents(draw):
    """Models of up to 50 types: fraction-string masses, rates up to near
    the float maximum, atoms with dust or no fragments at all, and types
    that never split, so the rate graph is often reducible."""
    k = draw(st.integers(1, 50))

    def atom():
        weights = draw(st.lists(st.integers(1, 9), max_size=4))
        total = sum(weights) + draw(st.sampled_from([0, 0, 1]))
        return {"rate": draw(st.sampled_from([1, 0.5, "3/2", 1e308, 1.7e308])),
                "fragments": [[f"{w}/{total}", draw(st.integers(1, k))]
                              for w in weights]}

    split = draw(st.lists(st.integers(1, k), min_size=1, max_size=6,
                          unique=True))
    return {"types": k, "dislocation": {
        str(i): [atom() for _ in range(draw(st.integers(1, 2)))]
        for i in split}}


@settings(max_examples=300, derandomize=True,
          deadline=timedelta(seconds=5))
@given(data=st.data())
def test_every_command_fails_cleanly_on_extreme_arguments(data,
                                                          tmp_path_factory):
    command = data.draw(st.sampled_from(sorted(OPTIONS)), label="command")
    values = dict(OPTIONS[command])
    if values:
        for option in data.draw(st.lists(st.sampled_from(sorted(values)),
                                         min_size=1, max_size=2, unique=True),
                                label="options"):
            values[option] = data.draw(st.sampled_from(EXTREMES),
                                       label=option)
    doc = data.draw(st.just(SPEC_C) | spec_documents(), label="spec")
    path = tmp_path_factory.getbasetemp() / "guard_spec.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--spec", str(path)] + [
        f"{option}={value}" for option, value in values.items()
        if value is not None]
    out, err = io.StringIO(), io.StringIO()
    # a refusal at the full budget could allocate 1 GiB; a small one keeps
    # every example small
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(errors, "MAX_RUN_BYTES", 2 ** 24)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in {0, 2, 3, 4, 5}, (argv, err.getvalue())
    if code:
        line = json.loads(err.getvalue().splitlines()[-1])
        assert set(line) >= {"error", "message"}
