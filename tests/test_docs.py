"""Anti-rot checks for the documentation layer (README + docs/).

Documentation that references files, environment variables, or
diagrams by value decays silently as the code moves; these checks turn
that decay into test failures:

* every relative markdown link in README/docs points at a real file;
* every path-looking backtick reference resolves in the tree;
* every ``REPRO_*`` variable mentioned in the docs exists in the
  source, and every one used by the source is documented in
  ``docs/tuning.md`` (the "every env var" contract of that page);
* the architecture diagram in ``docs/architecture.md`` is byte-equal
  to the one in ``ROADMAP.md`` (single source of truth, two copies);
* every ``*.md`` file named in the code under ``src/`` and
  ``benchmarks/`` exists;
* every example script is linked from the README and carries a module
  docstring with run instructions and an expected-output note.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

LINK_RE = re.compile(r"\[[^\]]+\]\(([^)]+)\)")
ENV_RE = re.compile(r"REPRO_[A-Z0-9_]+")
PATH_RE = re.compile(
    r"`((?:src|docs|tests|benchmarks|examples)/[A-Za-z0-9_./-]+)`"
)
MD_NAME_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")


def test_doc_files_exist():
    assert (ROOT / "README.md").is_file()
    for name in (
        "architecture.md",
        "tuning.md",
        "benchmarks.md",
        "kernels.md",
        "serving.md",
        "incremental.md",
        "scenarios.md",
        "weighted.md",
    ):
        assert (ROOT / "docs" / name).is_file(), name


def test_markdown_links_resolve():
    broken = []
    for doc in DOC_FILES:
        base = doc.parent
        for target in LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            path = (base / target.split("#", 1)[0]).resolve()
            if not path.exists():
                broken.append(f"{doc.relative_to(ROOT)} -> {target}")
    assert not broken, f"broken doc links: {broken}"


def test_backtick_path_references_resolve():
    broken = []
    for doc in DOC_FILES:
        for ref in PATH_RE.findall(doc.read_text()):
            if not (ROOT / ref).exists():
                broken.append(f"{doc.relative_to(ROOT)} -> {ref}")
    assert not broken, f"stale path references: {broken}"


def test_markdown_names_in_code_exist():
    """Docstrings and comments name docs by path; bare names (no
    directory) resolve from the repo root."""
    missing = []
    for base in ("src", "benchmarks"):
        for path in sorted((ROOT / base).rglob("*.py")):
            for name in MD_NAME_RE.findall(path.read_text()):
                if not (ROOT / name).is_file():
                    missing.append(f"{path.relative_to(ROOT)} -> {name}")
    assert not missing, f"code names missing markdown files: {missing}"


def _source_env_vars():
    out = set()
    for base in ("src", "benchmarks"):
        for path in (ROOT / base).rglob("*.py"):
            out |= set(ENV_RE.findall(path.read_text()))
    return out


def test_documented_env_vars_exist_in_source():
    known = _source_env_vars()
    stale = set()
    for doc in DOC_FILES:
        stale |= set(ENV_RE.findall(doc.read_text())) - known
    assert not stale, f"docs mention unknown env vars: {sorted(stale)}"


def test_every_source_env_var_is_in_tuning_doc():
    documented = set(ENV_RE.findall((ROOT / "docs" / "tuning.md").read_text()))
    missing = _source_env_vars() - documented
    assert not missing, (
        f"env vars missing from docs/tuning.md: {sorted(missing)}"
    )


def _diagram(text):
    m = re.search(r"```\n(.*?)```", text, re.S)
    assert m, "no fenced diagram found"
    return m.group(1)


def test_architecture_diagram_matches_roadmap():
    roadmap = _diagram((ROOT / "ROADMAP.md").read_text())
    docs = _diagram((ROOT / "docs" / "architecture.md").read_text())
    assert docs == roadmap, (
        "docs/architecture.md diagram has drifted from ROADMAP.md — "
        "update both copies together"
    )


def test_examples_are_linked_and_documented():
    readme = (ROOT / "README.md").read_text()
    scripts = sorted((ROOT / "examples").glob("*.py"))
    assert scripts, "examples/ is empty?"
    for script in scripts:
        assert f"examples/{script.name}" in readme, (
            f"{script.name} not linked from README"
        )
        text = script.read_text()
        m = re.search(r'"""(.*?)"""', text, re.S)
        assert m, f"{script.name} has no module docstring"
        doc = m.group(1)
        assert "Run:" in doc, f"{script.name} docstring lacks run line"
        assert "Expected output" in doc, (
            f"{script.name} docstring lacks an expected-output note"
        )
