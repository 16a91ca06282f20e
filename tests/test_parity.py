"""The bits of every subcommand's outputs, pinned: ``scripts/parity.py``
run on this tree must reproduce ``tests/golden/parity-manifest.txt``.

The golden file's first line records the environment it was generated in
(``environment()``), down to the OpenBLAS kernel that ran; the rest is the
script's ``manifest.txt``. A change that moves an output's bits on purpose
regenerates the file, as the README describes, and declares the paths that
changed.
"""

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parity-manifest.txt"


def openblas_core() -> str | None:
    """The core whose kernels OpenBLAS picked at run time, as the
    scipy-openblas library that numpy bundles reports it (the CPU's, unless
    ``OPENBLAS_CORETYPE`` names another); None without that library."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return None
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (OSError, AttributeError):  # not loadable, or an OpenBLAS without the call
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def environment() -> str:
    """Python, numpy, the BLAS numpy was built with and its build
    configuration, whose core name is the build's target, not the kernel
    that runs; then the OpenBLAS core that runs, when it can be read."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(blas.get("openblas configuration", "").split())
    core = openblas_core()
    return (
        f"python {sys.version.split()[0]}, numpy {np.__version__}, {blas['name']} {blas['version']}, {config}"
        + (f", OpenBLAS core {core}" if core else "")
    )


def _entries(text: str) -> dict[str, str]:
    """path -> sha256 of a manifest."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines())}


def test_parity_outputs_match_the_golden_manifest(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parity.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, golden = GOLDEN.read_text(encoding="utf-8").split("\n", 1)
    produced = (tmp_path / "manifest.txt").read_text(encoding="utf-8")
    if produced != golden:
        want, got = _entries(golden), _entries(produced)
        changed = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
        raise AssertionError(
            f"{len(changed)} output(s) differ from the golden manifest: {', '.join(changed)}\n"
            f"golden {header}\nhere   # environment: {environment()}"
        )


def test_environment_names_the_openblas_core_that_runs():
    core = openblas_core()
    if core is None:
        assert "OpenBLAS core" not in environment()
        return
    assert environment().endswith(f", OpenBLAS core {core}")
    if platform.machine() == "x86_64":
        # OPENBLAS_CORETYPE picks the kernels of the one process it is set for
        proc = subprocess.run(
            [sys.executable, __file__], env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(", OpenBLAS core Haswell\n")

if __name__ == "__main__":
    # the golden file's first line, for regenerating it
    print(f"# environment: {environment()}")
