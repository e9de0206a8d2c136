import collections

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


def _inline_epsilon(model, at, x2):
    """eps as the kernel computes it, with every constant formed from (alpha, sigma)
    inside the call, op for op."""
    alpha, sigma, d = at[0], at[1], model.dim
    ones = np.ones((model.n_components, 1))
    mean_sq = np.einsum("jd,jd->j", model.means, model.means)[:, None]
    basis = np.concatenate([ones, mean_sq, model.means, ones, model.means], axis=1)
    with np.errstate(divide="ignore"):
        log_norm = np.log(model.weights)[:, None] - 0.5 * d * np.log(2.0 * np.pi)
    v = (alpha * alpha) * (model.scales * model.scales)[:, None]
    v += sigma * sigma
    kernel = basis * np.array([-0.5, -0.5 * (alpha * alpha), *(alpha,) * d, sigma,
                               *(sigma * alpha,) * d])
    kernel /= v
    lognorm = np.log(v)
    lognorm *= -0.5 * d
    lognorm += log_norm
    kernel[:, 1:2] += lognorm
    nhiv, c, win, wout = kernel[:, :1], kernel[:, 1:2], kernel[:, 2:2 + d], kernel[:, 2 + d:]
    ell = win @ x2.T
    ell += nhiv * np.einsum("bd,bd->b", x2, x2)
    ell += c
    ell -= ell.max(axis=0)
    gamma = np.exp(ell, out=ell)
    gamma /= gamma.sum(axis=0)
    o = gamma.T @ wout
    return o[:, :1] * x2 - o[:, 1:]


@pytest.fixture
def inline_epsilon():
    return _inline_epsilon


@pytest.fixture
def counting(monkeypatch):
    """A Counter of the rows every :class:`GaussianMixtureScore` prepares (times),
    evaluates and pulls back (points), and of its ``time_derivatives`` calls, keyed
    by method name; ``epsilon`` goes through ``evaluate``, so it counts once."""
    counts = collections.Counter()

    def counted(name):
        original = getattr(GaussianMixtureScore, name)

        def method(self, *args):
            if name == "prepare":
                counts[name] += np.size(args[0][0])
            elif name == "time_derivatives":
                counts[name] += 1
            else:
                counts[name] += len(np.atleast_2d(args[1]))
            return original(self, *args)
        return method

    for name in ("prepare", "evaluate", "pullback", "time_derivatives"):
        monkeypatch.setattr(GaussianMixtureScore, name, counted(name))
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class ZeroModel:
    """eps == 0 everywhere; useful for degenerate-reduction checks."""

    dim = 2
    n_components = 0

    def prepare(self, at):
        # a record is the lookup itself: the model protocol leads a record with it
        return tuple(at) if np.ndim(at[0]) == 0 else list(zip(*at))

    def epsilon(self, p, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def evaluate(self, p, x, prediction="noise"):
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():     # the model protocol: reject a non-finite point
            raise FloatingPointError("non-finite state passed to score model")
        return (np.zeros_like(x) if prediction == "noise" else x / p[0]), None

    def pullback(self, p, x, terms, cot):
        return np.zeros_like(np.asarray(x, dtype=float)), None

    def time_derivatives(self, preps, points, terms, products):
        return np.zeros(len(preps))


@pytest.fixture
def zero_model():
    return ZeroModel()
