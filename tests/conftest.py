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

    def epsilon(self, schedule, x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    def epsilon_vjp(self, schedule, x, t, cot):
        return np.zeros_like(np.asarray(x, dtype=float))

    def epsilon_time_partial(self, schedule, x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    def pullback(self, schedule, x, t, terms, cot):
        return np.zeros_like(np.asarray(x, dtype=float)), 0.0

    def data_prediction(self, schedule, x, t):
        return np.asarray(x, dtype=float) / float(schedule.alpha(t))


@pytest.fixture
def zero_model():
    return ZeroModel()
