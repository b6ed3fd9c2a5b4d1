"""Documentation/code consistency checks.

DESIGN.md's experiment index, the README's example list,
EXPERIMENTS.md's benchmark references, every backticked ``repro.…``
name in the prose docs and every ``repro`` import in the examples and
benchmarks those docs list must all point at files, modules or
attributes that exist — these tests fail the suite when docs and code
drift apart.
"""

import ast
import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]

#: the prose docs whose backticked ``repro.…`` names must resolve
NAMED_API_DOCS = ["README.md", "DESIGN.md"] + sorted(
    str(p.relative_to(REPO)) for p in (REPO / "docs").glob("*.md")
)

#: a backticked dotted name, with any call signature or glob after it
_DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)[^`]*`")


def _read(name: str) -> str:
    return (REPO / name).read_text()


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an importable module or an attribute
    reached from the longest importable module prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        module_name = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is None or not module_name.startswith(exc.name):
                raise  # a real import failure inside an existing module
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestDesignDoc:
    def test_every_bench_target_exists(self):
        """Each `benchmarks/test_*.py` mentioned in DESIGN.md exists."""
        design = _read("DESIGN.md")
        targets = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
        assert targets, "DESIGN.md names no benchmark targets?"
        for target in targets:
            assert (REPO / "benchmarks" / target).exists(), target

    def test_every_bench_file_is_indexed(self):
        """Each benchmark module appears in DESIGN.md's experiment index."""
        design = _read("DESIGN.md")
        for path in (REPO / "benchmarks").glob("test_*.py"):
            assert path.name in design, f"{path.name} missing from DESIGN.md"

    def test_named_modules_exist(self):
        """Module paths quoted in the inventory tables resolve."""
        design = _read("DESIGN.md")
        for match in re.findall(r"`((?:src/)?repro/[\w/]+\.py)`", design):
            rel = match if match.startswith("src/") else f"src/{match}"
            assert (REPO / rel).exists(), match


class TestReadme:
    def test_example_commands_exist(self):
        readme = _read("README.md")
        for script in re.findall(r"python (examples/\w+\.py)", readme):
            assert (REPO / script).exists(), script

    def test_all_examples_are_listed(self):
        readme = _read("README.md")
        for path in (REPO / "examples").glob("*.py"):
            assert path.name in readme, f"{path.name} not mentioned in README"

    def test_doc_links_resolve(self):
        readme = _read("README.md")
        for target in re.findall(r"\[[^\]]+\]\((\w+\.md)\)", readme):
            assert (REPO / target).exists(), target


class TestExperimentsDoc:
    def test_referenced_benches_exist(self):
        experiments = _read("EXPERIMENTS.md")
        for target in set(re.findall(r"benchmarks/(test_\w+\.py)", experiments)):
            assert (REPO / "benchmarks" / target).exists(), target

    def test_referenced_result_files_are_produced(self):
        """Every `results/<id>.txt` EXPERIMENTS.md quotes is written by
        some benchmark (save_result call)."""
        experiments = _read("EXPERIMENTS.md")
        produced = set()
        for path in (REPO / "benchmarks").glob("test_*.py"):
            produced.update(
                re.findall(r'save_result\(\s*"(\w+)"', path.read_text())
            )
        for ref in set(re.findall(r"results/(\w+)\.txt", experiments)):
            assert ref in produced, f"results/{ref}.txt has no producer"


class TestDocsDirectory:
    @pytest.mark.parametrize(
        "name", ["algorithms.md", "hardware_model.md", "api.md", "tuning.md", "faq.md"]
    )
    def test_docs_present_and_substantial(self, name):
        path = REPO / "docs" / name
        assert path.exists()
        assert len(path.read_text()) > 1000

    def test_api_doc_mentions_every_subpackage(self):
        api = _read("docs/api.md")
        for sub in ("core", "encoding", "ops", "baselines", "datasets",
                    "hardware", "noise", "evaluation", "runtime"):
            assert f"repro.{sub}" in api, sub


@pytest.mark.parametrize("doc", NAMED_API_DOCS)
def test_backticked_repro_names_resolve(doc):
    """Every `repro.x.y` a doc quotes is a module or attribute today, so
    a deleted or renamed name cannot linger in the prose."""
    stale = sorted(
        {name for name in _DOTTED_NAME.findall(_read(doc)) if not _resolves(name)}
    )
    assert not stale, f"{doc} names what does not exist: {stale}"


def _repro_imports(path):
    """``(lineno, dotted name)`` for every ``repro`` import in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "repro"
        ):
            found += [
                (node.lineno, node.module if alias.name == "*"
                 else f"{node.module}.{alias.name}")
                for alias in node.names
            ]
    return found


@pytest.mark.parametrize(
    "script",
    [
        str(p.relative_to(REPO))
        for d in ("examples", "benchmarks")
        for p in sorted((REPO / d).glob("*.py"))
    ],
)
def test_script_repro_imports_resolve(script):
    """Examples and benchmarks are parsed, never run, and each ``repro``
    import they make must resolve: deleting a module that only a script
    imports fails the tier-1 suite instead of the next manual run."""
    broken = [
        f"{script}:{lineno}: {name}"
        for lineno, name in _repro_imports(REPO / script)
        if not _resolves(name)
    ]
    assert not broken, "\n".join(broken)
