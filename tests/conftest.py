import mpmath as mp
import pytest
from hypothesis import settings

from forkcast.model import BlockCounts
from forkcast.synthetic import REFERENCE_COUNTS, REFERENCE_LAMBDA, write_dataset

# one seed pins every stochastic check in the suite; outcomes are
# deterministic, so a grid that passes once passes forever
SUITE_SEED = 20240214

# hypothesis draws the same examples on every run and keeps no database of
# past failures, so its properties are as deterministic as the seeded checks
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def gamma_form_reference(family, n, d0):
    """30-digit i.i.d. fork rate of a Gamma-form family (shape k, rate b).

    With y = b / (b + x) the reduced integral is
    ``1 - n k int_0^1 y^(nk-1) (1 + y d0/b)^(-(n-1)k) dy``, a Gauss
    hypergeometric function.
    """
    with mp.workdps(30):
        k, nk = mp.mpf(family.shape), n * mp.mpf(family.shape)
        return 1 - mp.hyp2f1(nk - k, nk, nk + 1, -mp.mpf(d0) / mp.mpf(family.beta))


@pytest.fixture(scope="session")
def reference_counts() -> BlockCounts:
    return BlockCounts(REFERENCE_COUNTS)


@pytest.fixture(scope="session")
def reference_lambda() -> float:
    return REFERENCE_LAMBDA


@pytest.fixture(scope="session")
def reference_gamma(reference_counts, reference_lambda) -> float:
    return reference_counts.total / reference_lambda


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    write_dataset(out, periods=3)
    return out


@pytest.fixture
def integrand_calls(monkeypatch):
    """Counts the integrals, integrand calls and integrand points of fork-rate quadrature.

    Wraps ``forkrate._integrate_semi_infinite``, through which every
    quadrature fork rate is integrated, and the integrand it is handed.
    """
    from forkcast import forkrate

    real = forkrate._integrate_semi_infinite
    counts = {"integrals": 0, "calls": 0, "points": 0}

    def integrate(f, **kwargs):
        counts["integrals"] += 1

        def counted(x):
            counts["calls"] += 1
            counts["points"] += x.size
            return f(x)

        return real(counted, **kwargs)

    monkeypatch.setattr(forkrate, "_integrate_semi_infinite", integrate)
    return counts
