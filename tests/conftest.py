import pytest

import golden
from onepoint import Connectifiable, check_connectifiable
from onepoint.sampling import corpus


@pytest.fixture(scope="session")
def corpus200():
    return corpus(200)


@pytest.fixture(scope="session")
def extensions(corpus200):
    out = []
    for space in corpus200:
        verdict = check_connectifiable(space)
        if isinstance(verdict, Connectifiable):
            out.append(verdict.extension)
    return out


@pytest.fixture(scope="session")
def perfbench_rounds():
    """The seed-7 round of each benchmark workload, run once: per workload,
    (op, exit code, stdout lines, stderr, exception) for every op."""
    return golden.perfbench_rounds(golden.modules())
