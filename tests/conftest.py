import numpy as np
import pytest

from fewstep.schedules import EdmSchedule, VeSchedule, VpLinearSchedule
from fewstep.scores import GaussianMixtureScore, default_mixture


@pytest.fixture
def vp():
    return VpLinearSchedule()


@pytest.fixture
def ve():
    return VeSchedule()


@pytest.fixture
def edm():
    return EdmSchedule()


@pytest.fixture
def mixture():
    return default_mixture(2)


@pytest.fixture
def gauss():
    return GaussianMixtureScore.isotropic(2, scale=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class ZeroModel:
    """eps == 0 everywhere; useful for degenerate-reduction checks."""

    dim = 2
    n_components = 0

    def epsilon(self, at, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def evaluate(self, at, x, prediction="noise"):
        x = np.asarray(x, dtype=float)
        return (np.zeros_like(x) if prediction == "noise" else x / at[0]), None

    def pullback(self, at, x, terms, cot):
        return np.zeros_like(np.asarray(x, dtype=float)), 0.0


@pytest.fixture
def zero_model():
    return ZeroModel()
