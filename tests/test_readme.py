"""Every ```python block of README.md runs as written, and its "CSV
schemas" table gives the schema line and header row of every artifact.
Its `plasmalink ...` shell lines parse, its key table lists every config
key, and every package name it cites exists."""

import csv
import dataclasses
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import plasmalink
from plasmalink import cli
from plasmalink.bench import (
    ExperimentConfig,
    run_fading_estimation,
    run_learning_snapshots,
    run_ser_sweep,
)

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _section(pos):
    """The slug of the nearest "## " heading above position pos."""
    heading = re.findall(r"^## (.+)$", TEXT[:pos], re.M)[-1]
    return re.sub(r"[^a-z0-9]+", "-", heading.lower()).strip("-")


# (section, line of the opening fence, code) of every python block
BLOCKS = [(_section(m.start()), TEXT.count("\n", 0, m.start()) + 1,
           m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.S | re.M)]
# a block's id is its section, numbered only where a section holds several
SECTIONS = [section for section, _, _ in BLOCKS]
IDS = [section if SECTIONS.count(section) == 1
       else f"{section}-{SECTIONS[:i].count(section) + 1}"
       for i, section in enumerate(SECTIONS)]
# (file, schema, columns) of every row of the CSV schemas table
SCHEMAS = re.findall(r"^\| `(\w+\.csv)` \| `([^`]+)` \| (.+) \|$", TEXT,
                     re.M)
# every `plasmalink ...` line of the ```sh blocks, continuations joined
COMMANDS = [shlex.split(line, comments=True)
            for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.S | re.M)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("plasmalink ")]
# the backticked keys of the first column of the config key table
KEY_ROWS = re.search(r"^\| key \| default \|.*\n\|[- |]+\n((?:\|.*\n)+)",
                     TEXT, re.M).group(1).splitlines()
TABLE_KEYS = [key for row in KEY_ROWS
              for key in re.findall(r"`(\w+)`", row.split("|")[1])]
# (module, name) of every backticked `module.name` or
# `plasmalink.module.name` whose module is one of the package's
MODULES = {info.name for info in pkgutil.iter_modules(plasmalink.__path__)}
CITED = sorted({pair for pair in re.findall(
    r"`(?:plasmalink\.)?(\w+)\.(\w+)`", TEXT) if pair[0] in MODULES})


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code",
                         [(line, code) for _, line, code in BLOCKS], ids=IDS)
def test_python_block_runs(line, code):
    # compiled under the README's name, offset so a traceback names the
    # README line
    exec(compile("\n" * line + code, str(README), "exec"), {})


@pytest.fixture(scope="module")
def studies(tmp_path_factory):
    """Every study run once on a short 8-PSK config into one directory."""
    config = ExperimentConfig(
        bits_per_symbol=3, frame_length=256, pilot_intervals=(16,),
        snr_db=(14.0,), pretrain_steps=20, em_iterations=1, mstep_steps=5,
        trials=1, receivers=("genie_ml",), snr_reference="received",
        standard_drude_loss=True,
        out_dir=str(tmp_path_factory.mktemp("studies")))
    for run in (run_ser_sweep, run_learning_snapshots, run_fading_estimation):
        run(config)
    return config


def test_schema_table_lists_every_artifact(studies):
    written = sorted(p.name for p in Path(studies.out_dir).glob("*.csv"))
    assert sorted(name for name, _, _ in SCHEMAS) == written


@pytest.mark.parametrize("name, schema, columns", SCHEMAS,
                         ids=[name for name, _, _ in SCHEMAS])
def test_csv_matches_schema_table(studies, name, schema, columns):
    weights = ", ".join(f"w{j}" for j in range(2 ** studies.bits_per_symbol))
    header = columns.replace("w0..w{K-1}", weights).split(", ")
    with (Path(studies.out_dir) / name).open(newline="") as fh:
        assert fh.readline() == f"# schema: {schema}\n"
        assert next(csv.reader(fh)) == header


def test_readme_has_shell_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[" ".join(argv[1:]) for argv in COMMANDS])
def test_shell_command_parses(argv):
    args = cli.build_parser().parse_args(argv[1:])
    # a run subcommand without --config builds its config from its flags;
    # building it runs no study and makes no directory
    if getattr(args, "config", "") is None:
        cli._resolve_config(args)


def test_key_table_lists_every_config_key():
    assert sorted(TABLE_KEYS) == sorted(
        field.name for field in dataclasses.fields(ExperimentConfig))


def test_readme_cites_package_names():
    assert CITED


@pytest.mark.parametrize("module, name", CITED,
                         ids=[f"{module}.{name}" for module, name in CITED])
def test_cited_package_name_exists(module, name):
    assert hasattr(importlib.import_module(f"plasmalink.{module}"), name)
