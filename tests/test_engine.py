"""The engine that the closed forms and the lattices share: its ln Gamma."""
import numpy as np
from scipy.special import gammaln

from dicebayes.engine import _GAMMA_BLOCK, _log_gamma


class TestLogGamma:
    def test_agrees_with_scipy_gammaln(self):
        # from 1 to 1e300, closely around 1 and 2 (where ln Gamma is 0) and around
        # 8, where the shift by eight factors gives way to Stirling's series alone
        tiny = np.logspace(-16, -1, 600)
        x = np.concatenate([np.linspace(1.0, 3.0, 20001), 1.0 + tiny, 2.0 + tiny, 2.0 - tiny,
                            8.0 + tiny, 8.0 - tiny, np.linspace(3.0, 60.0, 20001),
                            np.logspace(0, 300, 20001), [1.0, 2.0, 8.0, 1e300]])
        want = gammaln(x)
        got = _log_gamma(x)
        assert np.all(np.abs(got - want) <= 2e-14 + 4 * np.spacing(np.abs(want)))

    def test_keeps_the_shape_across_blocks(self):
        x = 1.0 + np.random.default_rng(3).uniform(0.0, 50.0, (_GAMMA_BLOCK + 5, 6))
        got = _log_gamma(x)
        assert got.shape == x.shape
        assert np.array_equal(got[-1], _log_gamma(x[-1]))
        assert _log_gamma(5.0).shape == () and _log_gamma(np.array([])).shape == (0,)
