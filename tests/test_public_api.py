import ast
import inspect
import pathlib
from dataclasses import fields
from functools import partial

import laserhydrogen
from laserhydrogen.ionization import IonizationScanPoint
from laserhydrogen.transitions import PointFailure, ScanPoint, scan

ORACLES = {
    "overlap",
    "radial_wavefunction",
    "coulomb_radial",
    "kummer_1f1",
    "KummerParams",
    "laplace_1f1_product",
    "appell_f2",
    "AppellF2Params",
    "gamma_fn",
    "averaged_probability",
    "px_matrix_element",
    "x_matrix_element",
}


def test_every_exported_name_resolves():
    for name in laserhydrogen.__all__:
        assert hasattr(laserhydrogen, name), name


def test_test_oracles_are_not_exported():
    assert ORACLES.isdisjoint(laserhydrogen.__all__)
    # laplace_1f1_product and appell_f2 stay reachable for the benchmark's
    # span tracer
    reachable = {name for name in ORACLES if hasattr(laserhydrogen, name)}
    assert reachable == {"laplace_1f1_product", "appell_f2"}


def test_sums_over_the_records_are_not_api():
    # the total rate and sigma are sums over ionization_records, and a
    # TransitionTable is read through probability(final)
    for name in ("ionization_rate", "cross_section"):
        assert name not in laserhydrogen.__all__
        assert not hasattr(laserhydrogen, name)
        assert not hasattr(laserhydrogen.ionization, name)
    assert not hasattr(laserhydrogen.transitions, "averaged_probability")
    assert not hasattr(laserhydrogen.TransitionTable, "as_dict")


def test_objects_keep_no_copy_of_their_inputs():
    # a scan returns its records as a list; a table, matrix or decomposition
    # holds what it computed, and its caller the field and initial state
    assert not hasattr(laserhydrogen, "ScanResult")
    assert not hasattr(laserhydrogen.transitions, "ScanResult")
    names = {
        cls: [f.name for f in fields(cls)]
        for cls in (laserhydrogen.TransitionTable,
                    laserhydrogen.PseudoHamiltonianMatrix,
                    laserhydrogen.EigenDecomposition)
    }
    assert names == {
        laserhydrogen.TransitionTable: ["basis", "probabilities"],
        laserhydrogen.PseudoHamiltonianMatrix: ["entries", "basis", "parity"],
        laserhydrogen.EigenDecomposition: [
            "energies", "coefficients", "basis", "parity"
        ],
    }
    assert not hasattr(laserhydrogen.EigenDecomposition, "level_gaps")


def test_value_objects_store_only_what_cannot_be_derived():
    # the states of a basis follow from n0; a point's W error and leakage
    # from its table; a record's E_f0 and eta from E_i, the branch and omega
    names = {
        cls: [f.name for f in fields(cls)]
        for cls in (laserhydrogen.BasisSet, ScanPoint, laserhydrogen.IonizationRecord)
    }
    assert names == {
        laserhydrogen.BasisSet: ["n0"],
        ScanPoint: ["axis_value", "table", "min_eigen_gap"],
        laserhydrogen.IonizationRecord: ["E_i", "mu_branch", "omega", "sigma"],
    }
    for cls, derived in ((ScanPoint, ("normalization_error", "outer_shell_leakage")),
                         (laserhydrogen.IonizationRecord, ("E_f0", "eta"))):
        assert all(isinstance(getattr(cls, name), property) for name in derived)


def test_scan_takes_fields_and_one_observe_function():
    # the basis, the initial state and the A^2/2 option are bound into observe
    # by its caller, and only the ionization point takes the option
    assert list(inspect.signature(scan).parameters) == [
        "axis_values", "lasers", "observe"
    ]
    assert "include_a2" not in inspect.signature(ScanPoint.observe).parameters
    option = inspect.signature(IonizationScanPoint.observe).parameters["include_a2"]
    assert option.kind is inspect.Parameter.KEYWORD_ONLY
    # a failed point of either kind is one record type, with no placeholders
    basis = laserhydrogen.enumerate_basis(1)
    outside = laserhydrogen.QuantumNumbers(2, 0, 0)
    laser = laserhydrogen.LaserField(0.01, 0.1)
    for point in (ScanPoint, IonizationScanPoint):
        assert not hasattr(point, "from_failure")
        (record,) = scan([0.1], [laser], partial(point.observe, basis, outside))
        assert type(record) is PointFailure and record.failed
        assert not hasattr(record, "table") and not hasattr(record, "records")
    assert [f.name for f in fields(PointFailure)] == [
        "axis_value", "error", "type", "where"
    ]


def test_dressed_state_readers_take_only_what_sets_their_result():
    # P(t) is the same in both frames, so it reads no omega; the records
    # read the photon energy and nothing else of the field
    signatures = {
        function: list(inspect.signature(function).parameters)
        for function in (laserhydrogen.time_resolved_probability,
                         laserhydrogen.ionization_records)
    }
    assert signatures == {
        laserhydrogen.time_resolved_probability: [
            "decomp", "from_state", "to_state", "t"
        ],
        laserhydrogen.ionization_records: ["decomp", "index", "omega"],
    }
    source = pathlib.Path(laserhydrogen.ionization.__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or "", *(a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not any(name.split(".")[-1] == "hamiltonian" for name in imported)


def _settable_values(source):
    """Defaulted parameters plus annotated dataclass fields in `source`."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def test_settable_values_do_not_grow():
    # The size of the public surface as the ROADMAP counts it.  Each value a
    # caller can set is one more path to test; the count only goes down.
    package = pathlib.Path(laserhydrogen.__file__).parent
    total = sum(_settable_values(p.read_text()) for p in package.glob("*.py"))
    assert total <= 59


def test_no_function_in_the_package_calls_mpmath():
    # mpmath is an oracle of the tests, not a dependency: the package may
    # bind the name (the benchmark's span tracer resolves mpmath.hyp2f1
    # through it) but imports nothing from it and reads none of its names.
    package = pathlib.Path(laserhydrogen.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert node.value.id != "mpmath", where
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "mpmath" for a in node.names), where
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "mpmath", where
