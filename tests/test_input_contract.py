"""The input contract as a property: whatever document or INVOLQ_ORDER_CAP
value ``involq verify``, ``recover`` or ``census`` is given, it exits 0, 1
or 2, exit 2 prints ``input error:``, and no exception escapes ``cli.main``
(on the command line that would be a traceback). Small documents of large
groups keep it too, in a subprocess under a memory limit.

Runs in-process with stdout and stderr captured, over random bytes, JSON
values of the wrong shape, mutated valid documents (the relabelled catalog
groups of ``tests/test_relabelling.py``) and values of INVOLQ_ORDER_CAP.
Needs hypothesis (CI installs it); the module skips without it. Examples
are derandomized, so every run draws the same inputs.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from involq.catalog import build_entry, run_catalog
from involq.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

from test_relabelling import relabelled_doc  # noqa: E402  (after the skip)

EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SMALL = [build_entry(e) for e in run_catalog(7)]
COMMANDS = st.sampled_from([["verify", "--quiet"], ["recover"], ["census"]])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def run_cli(argv, env=None) -> tuple[int, str]:
    """main(argv) with INVOLQ_ORDER_CAP set to ``env`` (unset for None), and
    the output captured; (exit code, stderr)."""
    err = io.StringIO()
    saved = {} if env is None else {"INVOLQ_ORDER_CAP": env}
    with mock.patch.dict(os.environ, saved), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        if env is None:
            os.environ.pop("INVOLQ_ORDER_CAP", None)
        code = main(argv)
    return code, err.getvalue()


def assert_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.startswith("input error:"), err
    assert "Traceback" not in err, err


def run_on_file(command, content: bytes, env=None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(content)
        assert_contract(*run_cli([command[0], path, *command[1:]], env))


@st.composite
def mutated_docs(draw):
    """A relabelled catalog group of degree <= 7 with one part replaced by a
    JSON value or deleted: the degree, the generator list, one generator or
    one image."""
    G = draw(st.sampled_from(SMALL))
    doc = relabelled_doc(G, draw(st.permutations(range(G.degree))))
    gens = doc["generators"]
    g = draw(st.integers(0, len(gens) - 1))
    where = draw(st.sampled_from(["degree", "generators", "generator", "image"]))
    value = draw(JSON | st.integers(-2, G.degree + 2))
    if draw(st.booleans()):  # delete the part
        if where in ("degree", "generators"):
            del doc[where]
        elif where == "generator":
            del gens[g]
        else:
            del gens[g][draw(st.integers(0, G.degree - 1))]
    elif where in ("degree", "generators"):
        doc[where] = value
    elif where == "generator":
        gens[g] = value
    else:
        gens[g][draw(st.integers(0, G.degree - 1))] = value
    return doc


@EXAMPLES
@given(command=COMMANDS, content=st.binary(max_size=40))
def test_random_bytes_keep_the_contract(command, content):
    run_on_file(command, content)


@EXAMPLES
@given(command=COMMANDS, value=JSON | st.fixed_dictionaries({"degree": JSON, "generators": JSON}))
def test_json_of_the_wrong_shape_keeps_the_contract(command, value):
    run_on_file(command, json.dumps(value).encode())


@EXAMPLES
@given(command=COMMANDS, doc=mutated_docs())
def test_mutated_documents_keep_the_contract(command, doc):
    run_on_file(command, json.dumps(doc).encode())


@settings(EXAMPLES, max_examples=15)
@hypothesis.example(command=["verify", "--quiet"], cap="4")  # below the field's order: exit 1
@hypothesis.example(command=["census"], cap="0")
@hypothesis.example(command=["recover"], cap=" 12 ")
@given(command=COMMANDS,
       cap=st.integers(-3, 10**7).map(str)
       | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                 max_size=6))
def test_order_cap_values_keep_the_contract(command, cap):
    assert_contract(*run_cli([command[0], "agl-field-5", *command[1:]], cap))


def symmetric_doc(degree: int) -> dict:
    """S_degree by a degree-cycle and a transposition."""
    return {"degree": degree, "generators": [[*range(1, degree), 0], [1, 0, *range(2, degree)]]}


MEMORY_LIMIT = 512 * 2**20  # address space of the subprocess, in bytes


@pytest.mark.parametrize("doc, message", [
    (symmetric_doc(100), "verification failure: group order exceeds cap 1000000"),
    (symmetric_doc(300), "verification failure: group order exceeds cap 1000000"),
    (symmetric_doc(1000), "verification failure: group order exceeds cap 1000000"),
    ({"degree": 1000, "generators": [[*range(1, 1000), 0]]},
     "verification failure: certificate failed: {'check': 'order'"),
], ids=["sym-100", "sym-300", "sym-1000", "cyclic-1000"])
def test_small_documents_of_large_degree_end_in_a_message(doc, message, tmp_path):
    """``involq recover`` on a document of a few KB, in a subprocess whose
    address space this test limits to 512 MiB, exits 1 with a message and
    no traceback. S_100, S_300 and S_1000 are refused by their order before
    any element row is built; the 1,000-cycle is enumerated (order 1,000)
    and fails the certificate. Enumerating S_1000's 999,000 rows of a
    2-point prefix took 3.5 GB and ended in a numpy MemoryError traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "INVOLQ_ORDER_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "from involq.cli import entrypoint; entrypoint()"]
    proc = subprocess.run(
        [*command, "recover", str(path)], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT)))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(message), proc.stderr
    assert "Traceback" not in proc.stderr
