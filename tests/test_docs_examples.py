"""Keep the documentation honest: README/docstring snippets must run."""

import re
import pathlib
import subprocess
import sys

import pytest

import repro

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestReadmeQuickstart:
    def test_readme_quickstart_snippet_runs(self):
        """Execute the first python code block of README.md verbatim."""
        readme = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README lost its quickstart code block"
        namespace = {}
        exec(blocks[0], namespace)  # noqa: S102 - docs must execute

    def test_package_docstring_example_runs(self):
        """The repro.__doc__ quickstart is the same program; run it."""
        doc = repro.__doc__
        lines = [
            line[4:]
            for line in doc.splitlines()
            if line.startswith("    ") and "EXPERIMENTS" not in line
        ]
        code = "\n".join(lines)
        assert "malloc_managed" in code
        namespace = {}
        exec(code, namespace)  # noqa: S102


class TestExamplesDocumented:
    def test_every_example_has_docstring_and_main(self):
        for path in sorted((REPO / "examples").glob("*.py")):
            source = path.read_text()
            assert source.startswith("#!"), path.name
            assert '"""' in source, path.name
            assert "def main()" in source, path.name
            assert '__name__ == "__main__"' in source, path.name

    def test_examples_listed_in_readme(self):
        readme = (REPO / "README.md").read_text()
        for path in sorted((REPO / "examples").glob("*.py")):
            if path.name == "quickstart.py":
                continue  # referenced via the quickstart section itself
            assert path.name.replace(".py", "") in readme or path.name in readme, (
                f"README does not mention examples/{path.name}"
            )


class TestPublicApiDocumented:
    def test_all_exports_resolve_and_have_docs(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            doc = getattr(obj, "__doc__", None)
            assert doc and doc.strip(), f"repro.{name} lacks a docstring"

    def test_version_is_semver(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


#: Text each example prints only once it ran to the end.
EXAMPLE_ENDINGS = {
    "quickstart.py": "verified",
    "gpu_database.py": "approach the paper's ~4x speedup",
    "deep_learning.py": "No-UVM dies at the capacity crossover",
}


@pytest.mark.parametrize("example", list(EXAMPLE_ENDINGS))
def test_quickstart_example_runs_as_script(example):
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / example)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    assert EXAMPLE_ENDINGS[example] in result.stdout
