"""The README's library tour runs as written and shows what its comments say."""

import re
from pathlib import Path

import numpy as np

from sheaf_sysid import harmonic_basis

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert harmonic_basis(namespace["op"]).shape[1] == 2
    assert np.array_equal(namespace["data"].residuals, -namespace["traj"].derivs)
    fit = namespace["fit"]
    assert fit.report.identifiable
    assert np.allclose(fit.theta_hat, [1.0, 0.25, 0.03], rtol=1e-8, atol=0.0)
