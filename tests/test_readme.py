"""The README's lists of config keys, ids and CSV columns match the code."""

import os
import re

from gpei import harness
from gpei.config import ExperimentConfig, load_config, parse_config_file

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def ticked(text):
    """The backticked names in ``text``, in order, each split at commas."""
    return [name.strip() for span in re.findall(r"`([^`]*)`", text) for name in span.split(",")]


def section(text, start, end):
    """The text between the first ``start`` and the next ``end`` after it."""
    head = text.index(start) + len(start)
    return text[head : text.index(end, head)]


def config_block(tmp_path):
    """The README's "Keys and defaults" block, saved as a config file."""
    path = tmp_path / "readme.cfg"
    path.write_text(section(readme_text(), "Keys and defaults:\n\n```\n", "```"), encoding="utf-8")
    return path


def test_config_block_lists_every_key_with_its_default(tmp_path):
    assert list(parse_config_file(config_block(tmp_path)).items()) == list(ExperimentConfig().to_flat().items())


def test_config_block_loads_as_the_defaults(tmp_path):
    assert load_config(config_block(tmp_path)) == ExperimentConfig()


def test_lemma_and_figure_ids_in_order():
    text = readme_text()
    assert ticked(section(text, "Lemma ids:", "Figure ids:")) == list(harness.LEMMA_IDS)
    assert ticked(section(text, "Figure ids:", "`all` runs")) == list(harness.FIGURE_IDS)


def test_csv_columns_match_the_written_headers(tmp_path):
    text = readme_text()
    harness.run_experiment(ExperimentConfig(trials=1, T=25), str(tmp_path))
    with open(tmp_path / "traces.csv", encoding="utf-8") as fh:
        trace_header = fh.read().splitlines()[1].split(",")
    with open(tmp_path / "coverage.csv", encoding="utf-8") as fh:
        coverage_header = fh.read().splitlines()[1].split(",")
    trace_doc = ticked(section(text, "in trial order (columns:", ";"))
    assert [name.replace("x_next_*", "x_next_0") for name in trace_doc] == trace_header
    assert ticked(section(text, "one row per checked t, with columns", ".  `gpei verify`")) == coverage_header
