"""Golden outputs: the CLI's default files and reports, pinned by sha256.

Every output is regenerated through entmean.cli.main in a temporary
directory and its hash compared with tests/golden/manifest.json.  The
sweeps run with relative paths from inside that directory, so the gnuplot
script, which names its CSV, hashes the same anywhere.

The qudit state files in tests/golden/ are Haar draws, complex standard
normal vectors from numpy.random.default_rng(seed) with seeds 1, 2 and 3,
renormalized by make_custom.  After a deliberate change of output,
regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py

which prints every entry whose hash changed, and name each of them, and
why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from entmean.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
STATE_FILES = ("qudit_232.json", "qudit_3322.json", "qudit_22322.json")


def _runs():
    """Yield (argv, {entry: file the run writes, or None for its stdout})."""
    for family in "abc":
        csv, gp = f"sweep_{family}.csv", f"sweep_{family}.gp"
        yield ["sweep", "--family", family, "--out", csv, "--plot", gp], {csv: csv, gp: gp}
    yield ["closed-form", "--n-max", "64", "--out", "closed_form.csv"], {
        "closed_form.csv": "closed_form.csv"
    }
    yield [
        "ordering", "--family-x", "a", "--family-y", "b", "--x", "fill", "--y", "gbc",
        "--match-tol", "2e-3", "--sep-min", "2e-2", "--steps", "201",
        "--out", "ordering_ab.json",
    ], {"ordering_ab.json": "ordering_ab.json"}
    sources = [[f"--{kind}", str(n)] for kind in ("ghz", "w") for n in range(2, 11)]
    sources += [["--state-file", name] for name in STATE_FILES]
    for source in sources:
        for fmt in ([], ["--json"]):
            argv = ["measure", *source, *fmt]
            yield argv, {" ".join(argv): None}


def _generate(workdir: Path) -> dict[str, str]:
    """Run every covered command in workdir; sha256 of each output."""
    for name in STATE_FILES:
        shutil.copy(GOLDEN / name, workdir / name)
    hashes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for argv, outputs in _runs():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited with {code}")
            for entry, path in outputs.items():
                data = stdout.getvalue().encode() if path is None else Path(path).read_bytes()
                hashes[entry] = hashlib.sha256(data).hexdigest()
    return hashes


ENTRIES = [entry for _, outputs in _runs() for entry in outputs]


def _platform() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def _load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="ascii"))


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return _generate(tmp_path_factory.mktemp("golden"))


def test_manifest_covers_every_output():
    assert sorted(_load_manifest()["sha256"]) == sorted(ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES)
def test_output_matches_golden_hash(entry, generated):
    manifest = _load_manifest()
    here = _platform()
    assert generated[entry] == manifest["sha256"].get(entry), (
        f"{entry!r} differs from its golden hash; the manifest was made with "
        f"numpy {manifest['numpy']} and BLAS {manifest['blas']}, this run uses "
        f"numpy {here['numpy']} and BLAS {here['blas']}"
    )


if __name__ == "__main__":
    old = _load_manifest()["sha256"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**_platform(), "sha256": _generate(Path(tmp))}
    changed = [entry for entry, digest in doc["sha256"].items() if old.get(entry) != digest]
    for entry in changed:
        print(f"changed: {entry}")
    MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(doc['sha256'])} hashes to {MANIFEST}; {len(changed)} changed")
