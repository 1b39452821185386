import pytest

from curvrec import fixtures
import oracles


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("count", [1, 1000, 1001])
@pytest.mark.parametrize("gap,noise", [(0.045, 0.0), (0.045, 0.002), (0.0, 0.0), (0.0, 0.002)])
def test_sheets_cloud_draws_the_direct_formulas_bits(seed, count, gap, noise):
    # sheets_cloud writes into its outputs; it draws the same stream in the
    # same order as building each sheet whole, so every bit (-0.0 too) agrees
    cloud = fixtures.sheets_cloud(count=count, gap=gap, noise=noise, seed=seed)
    points, normals = oracles.sheets_cloud(count, gap=gap, noise=noise, seed=seed)
    assert cloud.points.tobytes() == points.tobytes()
    assert cloud.normals.tobytes() == normals.tobytes()
