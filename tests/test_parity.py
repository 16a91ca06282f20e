"""The bits of every subcommand's outputs, pinned: ``scripts/parity.py``
run on this tree must reproduce ``tests/golden/parity-manifest.txt``.

The golden file's first line records the environment it was generated in
(``environment()``); the rest is the script's ``manifest.txt``. A change
that moves an output's bits on purpose regenerates the file, as the README
describes, and declares the paths that changed.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "parity-manifest.txt"


def environment() -> str:
    """Python, numpy, and the BLAS numpy was built with; OpenBLAS's
    configuration string names the core type its kernels target."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(blas.get("openblas configuration", "").split())
    return f"python {sys.version.split()[0]}, numpy {np.__version__}, {blas['name']} {blas['version']}, {config}"


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


if __name__ == "__main__":
    # the golden file's first line, for regenerating it
    print(f"# environment: {environment()}")
