"""Start-up cost: `import spinhalg` loads no family module, its public names
are imported on first use, and each CLI subcommand loads only the family it
runs (plus `cli`), and neither `dataclasses` nor `inspect`, nor `json` for
text output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinhalg

# runs a body that may set the exit code, then prints the loaded spinhalg
# modules to stderr
SCRIPT = """import json, sys
code = 0
{body}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("spinhalg"))), file=sys.stderr)
sys.exit(code)
"""


def loaded_modules(body, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(spinhalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(body=body), *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr
    return proc, json.loads(proc.stderr.splitlines()[-1])


def test_import_loads_no_submodule():
    _, loaded = loaded_modules("import spinhalg")
    assert loaded == ["spinhalg"]


def test_import_loads_no_fractions():
    # the exact-scalar reader gets Fraction from the family that uses it
    proc, _ = loaded_modules("before = 'fractions' in sys.modules\nimport spinhalg\n"
                             "print(before or 'fractions' not in sys.modules)")
    assert proc.stdout == "True\n"


def test_first_use_loads_only_its_family():
    _, loaded = loaded_modules("import spinhalg\nspinhalg.sq")
    assert loaded == ["spinhalg", "spinhalg.steenrod"]
    _, loaded = loaded_modules("from spinhalg import genus_4manifold")
    assert loaded == ["spinhalg", "spinhalg.series"]
    _, loaded = loaded_modules("import spinhalg\nspinhalg.ktheory.zk_index")
    assert loaded == ["spinhalg", "spinhalg.ktheory", "spinhalg.modules"]


FAMILIES = ["clifford", "modules", "series", "steenrod", "ktheory"]


def test_every_public_name_is_its_submodule_attribute():
    assert len(set(spinhalg.__all__)) == len(spinhalg.__all__) == 51
    assert spinhalg.__all__[:5] == FAMILIES
    for family in FAMILIES:
        assert getattr(spinhalg, family) is sys.modules[f"spinhalg.{family}"]
    for name in spinhalg.__all__[5:]:
        value = getattr(spinhalg, name)
        assert value.__module__.startswith("spinhalg.")
        assert getattr(sys.modules[value.__module__], name) is value
    namespace = {}
    exec("from spinhalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(spinhalg.__all__)


def test_dir_lists_the_public_names_before_first_use():
    proc, loaded = loaded_modules("import spinhalg\nprint(dir(spinhalg))")
    assert loaded == ["spinhalg"]
    public = [name for name in eval(proc.stdout) if not name.startswith("_")]
    assert public == sorted(spinhalg.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        spinhalg.no_such_name
    with pytest.raises(ImportError):
        exec("from spinhalg import no_such_name", {})


CLI = "from spinhalg.cli import main\ncode = main(sys.argv[1:])"


# one run of each subcommand: its argv, the families it loads, its exit code
SUBCOMMANDS = [
    (["classify", "--n", "6"], ["clifford"], 0),
    # module dimensions are read off clifford's classification
    (["dims", "--n", "3", "--field", "H"], ["clifford", "modules"], 0),
    (["ngroup", "--n", "3", "--field", "R"], ["modules"], 0),
    (["genus", "--sig", "1", "--euler", "3", "--orientation", "+"], ["series"], 0),
    # the parity failure raises ktheory's IntegralityError
    (["genus", "--sig", "1", "--euler", "2", "--orientation", "+"],
     ["ktheory", "modules", "series"], 1),
    (["hp-table", "--max-i", "3", "--max-j", "3"], ["series"], 0),
    (["steenrod", "sq", "--k", "1", "--poly", "w2*w3"], ["steenrod"], 0),
    (["steenrod", "wu", "--max-degree", "4"], ["steenrod"], 0),
    (["steenrod", "verify-bspinh", "--max-degree", "4"], ["steenrod"], 0),
    (["ktable", "--theory", "KO", "--range", "0..3"], ["ktheory", "modules"], 0),
    (["zk-index", "--n", "8", "--k", "3", "--integral", "6"], ["ktheory", "modules"], 0),
    (["dual", "--torsion", "6"], ["ktheory", "modules"], 0),
]


@pytest.mark.parametrize("argv, family, code", SUBCOMMANDS)
def test_subcommand_loads_only_its_family(argv, family, code):
    proc, loaded = loaded_modules(CLI, *argv)
    assert (proc.returncode, bool(proc.stdout)) == (code, code == 0)
    expected = {"spinhalg", "spinhalg.cli"}
    assert loaded == sorted(expected | {f"spinhalg.{m}" for m in family})


# Modules a subcommand does without: `dataclasses` imports `inspect` (and
# with it ast, dis, tokenize and linecache), and a `--format text` run
# needs no `json`.
UNNEEDED = ("dataclasses", "inspect", "json")


def unneeded_loaded(body, *argv):
    """Which of UNNEEDED a fresh interpreter has loaded after the body."""
    script = f"import sys\n{body}\nprint(*sorted(set({UNNEEDED}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(spinhalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def preloaded():
    """What the bare interpreter loads under the same flags and
    environment, say through a site hook; a subcommand is not charged
    for it."""
    return unneeded_loaded("pass")


@pytest.mark.parametrize("argv", [argv for argv, _, _ in SUBCOMMANDS])
def test_subcommand_loads_no_dataclasses_inspect_or_json(argv, preloaded):
    assert "--format" not in argv
    assert unneeded_loaded(CLI, *argv) <= preloaded


def test_json_output_loads_json():
    assert "json" in unneeded_loaded(CLI, "dual", "--torsion", "6", "--format", "json")


def test_package_holds_only_the_cli_and_the_families():
    src = Path(spinhalg.__file__).parent
    assert sorted(p.stem for p in src.rglob("*.py")) == sorted(["__init__", "cli", *FAMILIES])


def test_no_source_file_mentions_dataclasses():
    src = Path(spinhalg.__file__).parent
    assert [p.name for p in src.rglob("*.py") if "dataclasses" in p.read_text()] == []
