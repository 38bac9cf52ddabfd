import pytest

from pgcodes.expcode import CodeSpec
from pgcodes.galois import GF
from pgcodes.projgeom import ProjectiveSpace
from pgcodes.tanner import TannerGraph


@pytest.fixture(scope="session")
def field8():
    return GF(8)


@pytest.fixture(scope="session")
def space5():
    return ProjectiveSpace(5)


@pytest.fixture(scope="session")
def graph5(space5):
    return TannerGraph(space5)


@pytest.fixture(scope="session")
def spec5():
    return CodeSpec(5)


@pytest.fixture(scope="session")
def spec7():
    return CodeSpec(7)


@pytest.fixture(scope="session")
def specs(spec5, spec7):
    """One CodeSpec per odd epsilon from 3 to 15, keyed by epsilon."""
    out = {5: spec5, 7: spec7}
    for eps in (3, 9, 11, 13, 15):
        out[eps] = CodeSpec(eps)
    return out
