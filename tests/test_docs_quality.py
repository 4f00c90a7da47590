"""Documentation quality gates: every module and public API item is
documented, and every code pointer in the top-level docs resolves
(deliverable-level hygiene, enforced mechanically)."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.split(".")[-1].startswith("_")
]


def test_every_module_has_a_docstring():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            missing.append(name)
    assert missing == []


def test_every_package_init_has_a_docstring():
    packages = {name.rsplit(".", 1)[0] for name in MODULES if "." in name}
    for package in sorted(packages):
        module = importlib.import_module(package)
        assert (module.__doc__ or "").strip(), package


@pytest.mark.parametrize("name", sorted(MODULES))
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for attr_name, obj in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # re-export; documented at its home
        if not (inspect.getdoc(obj) or "").strip():
            undocumented.append(attr_name)
    assert undocumented == [], f"{name}: {undocumented}"


def test_public_methods_of_key_classes_documented():
    from repro.kernel.api import KernelClient, PhoenixKernel
    from repro.sim.core import Simulator

    for cls in (Simulator, PhoenixKernel, KernelClient):
        for attr_name, obj in vars(cls).items():
            if attr_name.startswith("_") or not callable(obj):
                continue
            assert (inspect.getdoc(obj) or "").strip(), f"{cls.__name__}.{attr_name}"


def _resolves(dotted: str) -> bool:
    """``dotted`` names an importable module, or an attribute chain of one."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for attr in parts[i:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", ["DESIGN.md", "README.md"])
def test_every_code_pointer_resolves(doc):
    """Every backticked module — ``repro.kernel.group`` or its short form
    ``kernel.group`` — and every ``src/``, ``tests/`` or ``benchmarks/``
    ``.py`` path in the document exists."""
    packages = {n for _, n, _ in pkgutil.iter_modules(repro.__path__) if not n.startswith("_")}
    dead = []
    for token in sorted(set(re.findall(r"`([^`\s]+)`", (ROOT / doc).read_text()))):
        if re.fullmatch(r"(src|tests|benchmarks)/[\w/.-]+\.py", token):
            if not (ROOT / token).is_file():
                dead.append(token)
        elif re.fullmatch(r"\w+(\.\w+)+", token) and token.split(".")[0] in packages | {"repro"}:
            if not _resolves(token if token.startswith("repro.") else f"repro.{token}"):
                dead.append(token)
    assert dead == []


def _message_type_rows() -> list[str]:
    """docs/PROTOCOLS.md's message-type table, rendered from the declarations
    (``repro.kernel.ports.CONTRACTS``, user environments included)."""
    from repro.kernel import ports
    from repro.kernel.events.types import DB_DELTA
    from repro.userenv.business import runtime  # noqa: F401 - declares bizrt.*
    from repro.userenv.pbs import server  # noqa: F401 - declares pbs.*
    from repro.userenv.pws import server as _pws  # noqa: F401 - declares pws.*

    rows = []
    for mtype, contract in sorted(ports.CONTRACTS.items()):
        served = (", ".join(f"`{port}`" for port in contract.ports)
                  or ("`es.event` data" if mtype == DB_DELTA else "any consumer port"))
        fields = [f"`{key}`{'' if kind.required else '?'}: {kind.name}"
                  for key, kind in contract.fields.items()]
        if contract.rule is not None:
            fields.append(f"and {contract.rule.name}")
        if contract.empty is not None:
            fields.append("refused with " + ", ".join(f"`{key}: []`" for key in contract.empty))
        rows.append(f"| `{mtype}` | {served} | {'; '.join(fields) or '—'} |")
    return rows


def test_the_message_type_table_matches_the_declarations():
    """Regenerate with ``print("\\n".join(_message_type_rows()))``."""
    text = (ROOT / "docs" / "PROTOCOLS.md").read_text(encoding="utf-8")
    section = text.split("## 7. Message types", 1)[1].split("\n## ", 1)[0]
    documented = [line for line in section.splitlines() if line.startswith("| `")]
    assert documented == _message_type_rows()
