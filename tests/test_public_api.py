import laserhydrogen

ORACLES = {
    "overlap",
    "radial_wavefunction",
    "coulomb_radial",
    "kummer_1f1",
    "KummerParams",
    "laplace_1f1_product",
    "gamma_fn",
}


def test_every_exported_name_resolves():
    for name in laserhydrogen.__all__:
        assert hasattr(laserhydrogen, name), name


def test_test_oracles_are_not_exported():
    assert ORACLES.isdisjoint(laserhydrogen.__all__)
    # laplace_1f1_product stays reachable for the benchmark's span tracer
    reachable = {name for name in ORACLES if hasattr(laserhydrogen, name)}
    assert reachable == {"laplace_1f1_product"}
