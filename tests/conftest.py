import json
from pathlib import Path

import pytest

from involq import affine_group, make_dickson, make_field, parse_group_doc
from involq.catalog import SYM4_DOC


@pytest.fixture(scope="session")
def f3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def f7():
    return make_field(7, 1)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def d9():
    return make_dickson(3, 2)


@pytest.fixture(scope="session")
def d25():
    return make_dickson(5, 2)


@pytest.fixture(scope="session")
def agl_f3(f3):
    return affine_group(f3)


@pytest.fixture(scope="session")
def agl_f4(f4):
    return affine_group(f4)


@pytest.fixture(scope="session")
def agl_f5(f5):
    return affine_group(f5)


@pytest.fixture(scope="session")
def agl_f7(f7):
    return affine_group(f7)


@pytest.fixture(scope="session")
def agl_f9(f9):
    return affine_group(f9)


@pytest.fixture(scope="session")
def agl_d9(d9):
    return affine_group(d9)


@pytest.fixture(scope="session")
def agl_d25(d25):
    return affine_group(d25)


@pytest.fixture(scope="session")
def sym4():
    return parse_group_doc(SYM4_DOC)


@pytest.fixture(scope="session")
def d9_relabelled_doc():
    """The degree-9 Dickson group under a point relabelling, given by two
    generators (order 72)."""
    return json.loads((Path(__file__).parent / "data" / "dickson-9-relabelled.json").read_text())


@pytest.fixture(scope="session")
def d9_relabelled(d9_relabelled_doc):
    return parse_group_doc(d9_relabelled_doc)
