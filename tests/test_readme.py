"""The README's examples run against the library as it is."""

import contextlib
import io
import json
import re
from pathlib import Path

from hdexplain import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.S | re.M)


def test_python_blocks_run_in_order():
    code = blocks("python")
    assert len(code) >= 3
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for i, block in enumerate(code):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert out.getvalue().strip()


def test_config_block_is_the_defaults():
    (doc,) = blocks("json")
    assert cli._build(cli.RunConfig, json.loads(doc), "config") == cli.RunConfig()
