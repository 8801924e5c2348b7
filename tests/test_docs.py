"""Documentation integrity checks (run in CI alongside the tier-1 suite).

Four invariants keep the docs from drifting:

* every relative link in ``README.md`` and ``docs/*.md`` resolves to a
  file or directory in the repository;
* the README's documentation index links every page under ``docs/``;
* every ``:func:``/``:class:``/``:data:``/``:mod:`` reference in a module
  docstring under ``src/repro`` names a symbol that actually resolves —
  either a dotted ``repro...`` path importable from the package root, or
  a bare name present in the referencing module's namespace;
* every ``python -m repro...`` invocation quoted in a shell code block
  parses against the real argparse tree of the module it names, so a
  renamed or removed flag cannot leave stale commands in the docs;
* every complete JSON object quoted in a ``json`` code block actually
  parses, and any ``"op"`` it names is an op the wire protocol defines —
  so the protocol examples in ``docs/service.md`` / ``docs/incremental.md``
  cannot drift from the server.  Objects (or lines) containing
  placeholder tokens (``…``, ``...``, ``→``) are illustrative and skipped;
* the capability table in ``docs/backends.md`` has one row per registered
  backend and matches each backend's ``Capabilities`` record.
"""

from __future__ import annotations

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_REF_RE = re.compile(r":(func|class|data|mod|attr|meth):`~?([^`]+)`")

DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

MODULE_FILES = sorted(
    p
    for p in (SRC_ROOT / "repro").rglob("*.py")
    if "__pycache__" not in p.parts
    # __main__ modules run the CLI at import time by design
    and p.name != "__main__.py"
)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    broken = []
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (doc.parent / path).exists():
            broken.append(target)
    assert not broken, f"{doc.relative_to(REPO_ROOT)}: broken links {broken}"


def test_readme_indexes_every_docs_page():
    """The README's documentation index must link every docs/*.md page."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    linked = {match.group(1).split("#", 1)[0] for match in _LINK_RE.finditer(readme)}
    pages = sorted(p.name for p in (REPO_ROOT / "docs").glob("*.md"))
    assert pages, "docs/ has no pages — the glob is broken"
    missing = [page for page in pages if f"docs/{page}" not in linked]
    assert not missing, f"README.md does not link docs pages: {missing}"


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC_ROOT).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolves(ref: str, module) -> bool:
    ref = ref.strip().rstrip("()")
    if ref.startswith("repro"):
        # dotted path: peel module prefix, then getattr the rest
        parts = ref.split(".")
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            try:
                for attr in parts[split:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                return False
            return True
        return False
    # bare (possibly dotted) name: walk it from the module's namespace,
    # e.g. ``Machine.parallel_for`` -> getattr(getattr(mod, "Machine"), ...)
    obj = module
    for attr in ref.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


_SHELL_FENCE_RE = re.compile(
    r"^```(?:bash|sh|shell|console)\s*$(.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)

#: Tokens marking a command as illustrative, not literally runnable.
_PLACEHOLDER_TOKENS = ("...", "…", "[", "<")


def _shell_invocations(text: str) -> list[str]:
    """Every ``python -m repro...`` command quoted in a shell code block.

    Continuation lines (trailing ``\\``) are folded into one command;
    commands containing placeholder tokens are skipped.
    """
    commands = []
    for fence in _SHELL_FENCE_RE.finditer(text):
        lines = fence.group(1).splitlines()
        i = 0
        while i < len(lines):
            line = lines[i].strip()
            while line.endswith("\\") and i + 1 < len(lines):
                i += 1
                line = line[:-1].rstrip() + " " + lines[i].strip()
            i += 1
            if not line.startswith("python -m repro"):
                continue
            if any(tok in line for tok in _PLACEHOLDER_TOKENS):
                continue
            commands.append(line)
    return commands


def _parser_for(module: str, rest: list[str]):
    """The ``(build_parser(), argv)`` pair a quoted command parses with."""
    if module == "repro":
        from repro.cli import build_parser

        return build_parser(), rest
    if module == "repro.serve":
        from repro.serve import build_parser

        return build_parser(), rest
    if module == "repro.bench":
        if rest and rest[0] == "regress":
            from repro.bench.regress.cli import build_parser

            return build_parser(), rest[1:]
        from repro.bench.__main__ import build_parser

        return build_parser(), rest
    return None, rest


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_quoted_cli_invocations_parse(doc):
    """Shell-block ``python -m repro...`` commands must parse today."""
    bad = []
    for command in _shell_invocations(doc.read_text(encoding="utf-8")):
        argv = shlex.split(command, comments=True)
        module = argv[2]  # ["python", "-m", "<module>", ...]
        parser, rest = _parser_for(module, argv[3:])
        if parser is None:
            bad.append(f"{command!r}: unknown module {module!r}")
            continue
        try:
            parser.parse_args(rest)
        except SystemExit:
            bad.append(f"{command!r}: does not parse")
    assert not bad, f"{doc.relative_to(REPO_ROOT)}: stale CLI commands: {bad}"


_JSON_FENCE_RE = re.compile(
    r"^```json\s*$(.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)

#: Tokens marking a JSON example (or one line of it) as illustrative.
_JSON_PLACEHOLDERS = ("…", "...", "→")


def _json_documents(text: str) -> list[str]:
    """Every complete JSON object quoted in a ``json`` code block.

    A fence whose whole body is one object (and placeholder-free) yields
    that body; otherwise each placeholder-free *line* that looks like a
    complete object (``{…}``) yields individually — this covers fences
    that stack several one-line request/response examples.
    """
    documents = []
    for fence in _JSON_FENCE_RE.finditer(text):
        body = fence.group(1).strip()
        if not body:
            continue
        if (
            body.startswith("{")
            and body.endswith("}")
            and not any(tok in body for tok in _JSON_PLACEHOLDERS)
        ):
            documents.append(body)
            continue
        for line in body.splitlines():
            line = line.strip()
            if (
                line.startswith("{")
                and line.endswith("}")
                and not any(tok in line for tok in _JSON_PLACEHOLDERS)
            ):
                documents.append(line)
    return documents


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_quoted_json_examples_parse(doc):
    """``json``-block wire examples must parse and name only real ops."""
    import json

    from repro.service.protocol import OPS

    bad = []
    for document in _json_documents(doc.read_text(encoding="utf-8")):
        try:
            obj = json.loads(document)
        except ValueError as exc:
            bad.append(f"{document[:60]!r}: invalid JSON ({exc})")
            continue
        if isinstance(obj, dict) and "op" in obj and obj["op"] not in OPS:
            bad.append(f"{document[:60]!r}: unknown op {obj['op']!r}")
    assert not bad, f"{doc.relative_to(REPO_ROOT)}: bad JSON examples: {bad}"


def test_cli_scan_finds_the_sharding_docs():
    """The scanner must see sharding.md's commands, and they must exercise
    the sharded flags — so a renamed ``--shards``/``--partitioner`` cannot
    leave the page stale (guards both the regex and the page)."""
    text = (REPO_ROOT / "docs" / "sharding.md").read_text(encoding="utf-8")
    commands = _shell_invocations(text)
    assert any(
        "--backend sharded" in cmd and "--shards" in cmd
        and "--partitioner" in cmd
        for cmd in commands
    ), f"docs/sharding.md quotes no runnable sharded CLI command: {commands}"
    assert any(
        cmd.startswith("python -m repro.bench shards") for cmd in commands
    ), "docs/sharding.md quotes no shards bench command"


def test_cli_scan_finds_the_adaptive_docs():
    """docs/adaptive.md must quote runnable ``--schedule adaptive``
    commands (parsed for real by test_quoted_cli_invocations_parse), so a
    renamed flag or controller name cannot leave the page stale."""
    text = (REPO_ROOT / "docs" / "adaptive.md").read_text(encoding="utf-8")
    commands = _shell_invocations(text)
    assert any(
        "--schedule adaptive" in cmd for cmd in commands
    ), f"docs/adaptive.md quotes no runnable adaptive CLI command: {commands}"
    assert any(
        "--schedule adaptive:" in cmd for cmd in commands
    ), "docs/adaptive.md quotes no thresholded adaptive command"


def test_json_example_scan_finds_the_wire_docs():
    """The scanner must see the protocol pages' examples (guards the regex)."""
    service = (REPO_ROOT / "docs" / "service.md").read_text(encoding="utf-8")
    incremental = (
        REPO_ROOT / "docs" / "incremental.md"
    ).read_text(encoding="utf-8")
    assert len(_json_documents(service)) >= 3
    assert len(_json_documents(incremental)) >= 2


@pytest.mark.parametrize("path", MODULE_FILES, ids=_module_name)
def test_docstring_references_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstring = ast.get_docstring(tree)
    if not docstring:
        return
    refs = _REF_RE.findall(docstring)
    if not refs:
        return
    module = importlib.import_module(_module_name(path))
    bad = [ref for _, ref in refs if not _resolves(ref, module)]
    assert not bad, f"{path.relative_to(REPO_ROOT)}: unresolved references {bad}"


def test_backend_capability_table_matches_records():
    import dataclasses

    from repro.core.backends import Capabilities, backend_names, get_backend

    text = (REPO_ROOT / "docs" / "backends.md").read_text(encoding="utf-8")
    section = text.split("## Capabilities", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    header, rows = rows[0], rows[2:]
    names = [field.name for field in dataclasses.fields(Capabilities)]
    assert header == ["backend", *names]
    table = {row[0].strip("`"): [cell == "yes" for cell in row[1:]] for row in rows}
    assert sorted(table) == sorted(backend_names())
    for name, flags in table.items():
        record = dataclasses.astuple(get_backend(name).capabilities)
        assert tuple(flags) == record, name
