"""The nine ``REPRO_*`` settings: one parser, one failure mode."""

import subprocess
import sys

import pytest

from repro import config

NAMES = ["REPRO_EAGER_LIMIT", "REPRO_FAULT", "REPRO_HEARTBEAT_MS",
         "REPRO_HEARTBEAT_MISS", "REPRO_SANITIZE", "REPRO_SANITIZE_PROBE_MS",
         "REPRO_SANITIZE_STRICT", "REPRO_SHM", "REPRO_TRACE"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in NAMES:
        monkeypatch.delenv(name, raising=False)


def test_defaults():
    assert config.effective() == {
        "REPRO_EAGER_LIMIT": 1024 * 1024, "REPRO_FAULT": None,
        "REPRO_HEARTBEAT_MS": 100.0, "REPRO_HEARTBEAT_MISS": 20,
        "REPRO_SANITIZE": False, "REPRO_SANITIZE_PROBE_MS": 40,
        "REPRO_SANITIZE_STRICT": False, "REPRO_SHM": True,
        "REPRO_TRACE": None}
    assert list(config.effective()) == NAMES


def test_values_parse(monkeypatch):
    for name, raw in [("REPRO_EAGER_LIMIT", "512"), ("REPRO_SHM", "0"),
                      ("REPRO_HEARTBEAT_MS", "50"), ("REPRO_SANITIZE", "1"),
                      ("REPRO_HEARTBEAT_MISS", "4"),
                      ("REPRO_SANITIZE_PROBE_MS", "1"),
                      ("REPRO_FAULT", "")]:
        monkeypatch.setenv(name, raw)
    assert (config.eager_limit(), config.shm(), config.sanitize(),
            config.heartbeat_interval(), config.heartbeat_miss(),
            config.sanitize_probe_interval(), config.fault()) == \
        (512, False, True, 0.05, 4, 0.005, None)


@pytest.mark.parametrize("name,raw,read", [
    # the three failure modes there used to be: silent default, a bare
    # ValueError from Universe(), a ValueError at import of the transport
    ("REPRO_HEARTBEAT_MS", "abc", config.heartbeat_interval),
    ("REPRO_SANITIZE_PROBE_MS", "abc", config.sanitize_probe_interval),
    ("REPRO_EAGER_LIMIT", "abc", config.eager_limit),
    ("REPRO_EAGER_LIMIT", "-1", config.eager_limit),
    ("REPRO_HEARTBEAT_MS", "nan", config.heartbeat_interval),
    ("REPRO_HEARTBEAT_MISS", "1", config.heartbeat_miss),
    ("REPRO_SANITIZE", "yes", config.sanitize),
    ("REPRO_SANITIZE_STRICT", "true", config.sanitize_strict),
    ("REPRO_SHM", "off", config.shm),
])
def test_a_bad_value_names_the_variable_and_the_form(monkeypatch, name, raw,
                                                     read):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError, match=f"{name}='{raw}': expected "):
        read()
    with pytest.raises(ValueError, match=name):
        config.effective()


def test_module_entrypoint_prints_the_effective_settings(monkeypatch):
    monkeypatch.setenv("REPRO_EAGER_LIMIT", "4096")
    out = subprocess.run([sys.executable, "-m", "repro.config"],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert [line.split("=")[0] for line in lines] == NAMES
    assert "REPRO_EAGER_LIMIT=4096" in lines


def test_module_entrypoint_is_not_imported_by_its_own_package():
    """``repro/__init__`` resolves its launcher exports on first use:
    importing them eagerly pulled ``repro.config`` (and numpy, and the
    whole runtime) in before runpy could execute it, which runpy
    reports as a RuntimeWarning."""
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                    "-m", "repro.config"], capture_output=True, check=True)
    light = subprocess.run(
        [sys.executable, "-c", "import sys, repro.config\n"
         "print(sorted(m for m in sys.modules if m == 'numpy'\n"
         "             or m.startswith('repro.executor')))"],
        capture_output=True, text=True, check=True).stdout
    assert light.strip() == "[]"


def test_package_level_launchers_still_import():
    import repro
    from repro import MPIExecutor, ProcExecutor, mpirun, procrun
    from repro.executor import procrunner, runner
    assert (mpirun, MPIExecutor) == (runner.mpirun, runner.MPIExecutor)
    assert (procrun, ProcExecutor) \
        == (procrunner.procrun, procrunner.ProcExecutor)
    assert set(repro.__all__) <= set(dir(repro)) | set(repro._LAUNCHERS)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


@pytest.mark.parametrize("first", ["repro.transport", "repro.runtime",
                                   "repro.transport.shm"])
def test_either_end_of_the_old_import_cycle_imports_first(first):
    """``repro.transport`` needs ``runtime.envelope`` and the engine
    needs ``make_transport``: it worked only in the order the eager
    package ``__init__`` happened to import them."""
    subprocess.run([sys.executable, "-c", f"import {first}"],
                   capture_output=True, check=True)
