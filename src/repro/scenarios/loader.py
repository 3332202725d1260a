"""Load the declarative scenario pack from ``scenarios/*.yaml``.

File format
-----------

A scenario file is a YAML mapping::

    _base: _base.yaml          # optional: deep-merge onto another file
    description: one line shown by `repro scenarios`
    attacks:                   # list of attack instances
      - kind: captcha-farm     # name in repro.workload.attacks.ATTACK_KINDS
        company_id: c01
        start_day: 1
        duration_days: 5
        messages_per_day: 120
        solve_prob: 0.65       # any extra key -> the attack's constructor
    faults: stormy             # optional fault preset
    crashes: flaky             # optional crash preset
    chain: hybrid              # optional FilterChainSpec: preset name,
                               # comma list, or mapping of spec fields
    verdicts:                  # machine-checked pass/fail assertions
      - name: challenges-reflected
        metric: attack_challenges
        campaign: attack-captcha-farm
        op: ">="
        value: 100
      - name: ledger-balances
        metric: ledger.accepted    # dotted: a run counter
        op: "=="
        value: ledger.terminal_total   # a string names another one

``_base`` chains resolve relative to the referencing file and deep-merge
mapping values (lists and scalars in the child replace the base's); the
scenario's registry name is its file stem, and files starting with an
underscore are layering bases, hidden from the registry. The check files
of ``repro check`` (``checks/*.yaml``) are scenario files with a few
more keys, read through :func:`load_file`.

Parsing prefers PyYAML when importable; CI images without it fall back
to a built-in parser for exactly the restricted subset above (nested
mappings, lists of flat mappings, scalars, ``#`` comment lines). A test
pins that both parsers read every pack file identically.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.scenarios.spec import (
    AttackSpec,
    ScenarioError,
    ScenarioSpec,
    VerdictCheck,
)

#: Environment override for the pack directory (tests point this at
#: temporary packs).
SCENARIO_DIR_ENV = "REPRO_SCENARIO_DIR"

_CORE_ATTACK_FIELDS = (
    "kind", "company_id", "start_day", "duration_days", "messages_per_day",
)
_SCENARIO_KEYS = (
    "_base", "description", "attacks", "faults", "crashes", "chain",
    "verdicts",
)
_VERDICT_KEYS = ("name", "metric", "op", "value", "campaign", "company_id")


def scenario_dir() -> Path:
    """The pack directory: ``$REPRO_SCENARIO_DIR`` or ``<repo>/scenarios``."""
    override = os.environ.get(SCENARIO_DIR_ENV)
    if override:
        return Path(override)
    # src/repro/scenarios/loader.py -> repo root / scenarios
    return Path(__file__).resolve().parents[3] / "scenarios"


def scenario_names(directory: Union[str, Path, None] = None) -> list:
    """Registry listing: every pack file's stem, underscore bases hidden."""
    root = Path(directory) if directory is not None else scenario_dir()
    if not root.is_dir():
        return []
    return sorted(
        path.stem
        for path in root.glob("*.yaml")
        if not path.name.startswith("_")
    )


def load_scenario(
    name: str, directory: Union[str, Path, None] = None
) -> ScenarioSpec:
    """Load one scenario by registry name (or explicit ``.yaml`` path)."""
    if name.endswith(".yaml"):
        path = Path(name)
    else:
        root = Path(directory) if directory is not None else scenario_dir()
        path = root / f"{name}.yaml"
    if not path.is_file():
        known = ", ".join(scenario_names(directory)) or "(none found)"
        raise ScenarioError(
            f"no scenario {name!r}; known scenarios: {known}",
            str(path),
        )
    return load_file(path)[0]


def load_file(path: Path, extra_keys: tuple = ()) -> tuple:
    """``(spec, extras)`` for the file at *path*: its scenario keys as a
    :class:`ScenarioSpec` named by the file stem, and whichever of
    *extra_keys* it sets (a check file's ``run:``, ...), taken out before
    the scenario keys are validated."""
    data = _load_layered(path, seen=())
    extras = {key: data.pop(key) for key in extra_keys if key in data}
    return _spec_from_dict(path.stem, data, str(path)), extras


def resolve_scenario(
    value: Union[str, ScenarioSpec, None],
    directory: Union[str, Path, None] = None,
) -> Optional[ScenarioSpec]:
    """Name -> spec; specs pass through; ``None`` stays ``None``."""
    if value is None or isinstance(value, ScenarioSpec):
        return value
    if isinstance(value, str):
        return load_scenario(value, directory)
    raise TypeError(
        f"scenario must be a name, a ScenarioSpec, or None; "
        f"got {type(value).__name__}"
    )


# -- layering ----------------------------------------------------------------


def _load_layered(path: Path, seen: tuple) -> dict:
    resolved = str(path.resolve())
    if resolved in seen:
        chain = " -> ".join(seen + (resolved,))
        raise ScenarioError(f"_base cycle: {chain}", str(path))
    data = _parse_file(path)
    if not isinstance(data, dict):
        raise ScenarioError(
            f"scenario file must be a mapping, got {type(data).__name__}",
            str(path),
        )
    base_name = data.pop("_base", None)
    if base_name is None:
        return data
    base_path = path.parent / str(base_name)
    if not base_path.suffix:
        base_path = base_path.with_suffix(".yaml")
    if not base_path.is_file():
        raise ScenarioError(
            f"_base {base_name!r} not found (looked at {base_path})",
            str(path),
        )
    base = _load_layered(base_path, seen + (resolved,))
    return _deep_merge(base, data)


def _deep_merge(base: dict, override: dict) -> dict:
    """Child mappings merge into the base's; lists and scalars replace."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


# -- dict -> spec ------------------------------------------------------------


def _spec_from_dict(name: str, data: dict, path: str) -> ScenarioSpec:
    if "filters" in data:
        raise ScenarioError(
            f"the filters: key ({data['filters']!r}) is no longer "
            f"supported; compose the filter chain with chain: instead",
            path,
        )
    unknown = sorted(set(data) - set(_SCENARIO_KEYS))
    if unknown:
        raise ScenarioError(
            f"unknown scenario key(s) {', '.join(unknown)}; "
            f"valid keys: {', '.join(k for k in _SCENARIO_KEYS if k != '_base')}",
            path,
        )
    attacks = []
    for entry in data.get("attacks") or ():
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ScenarioError(
                f"each attacks entry must be a mapping with a 'kind'; "
                f"got {entry!r}",
                path,
            )
        if "company_id" not in entry:
            raise ScenarioError(
                f"attack {entry['kind']!r} is missing company_id", path
            )
        params = tuple(
            sorted(
                (key, value)
                for key, value in entry.items()
                if key not in _CORE_ATTACK_FIELDS
            )
        )
        attacks.append(
            AttackSpec(
                kind=str(entry["kind"]),
                company_id=str(entry["company_id"]),
                start_day=int(entry.get("start_day", 1)),
                duration_days=int(entry.get("duration_days", 7)),
                messages_per_day=float(entry.get("messages_per_day", 50.0)),
                params=params,
            )
        )
    verdicts = []
    for entry in data.get("verdicts") or ():
        if not isinstance(entry, dict):
            raise ScenarioError(
                f"each verdicts entry must be a mapping; got {entry!r}", path
            )
        missing = [key for key in ("name", "metric", "value") if key not in entry]
        if missing:
            raise ScenarioError(
                f"verdict entry is missing {', '.join(missing)}: {entry!r}",
                path,
            )
        bad = sorted(set(entry) - set(_VERDICT_KEYS))
        if bad:
            raise ScenarioError(
                f"unknown verdict key(s) {', '.join(bad)} in "
                f"{entry.get('name')!r}",
                path,
            )
        verdicts.append(
            VerdictCheck(
                name=str(entry["name"]),
                metric=str(entry["metric"]),
                op=str(entry.get("op", ">=")),
                value=(
                    entry["value"]
                    if isinstance(entry["value"], str)
                    else float(entry["value"])
                ),
                campaign=entry.get("campaign"),
                company_id=entry.get("company_id"),
            )
        )
    spec = ScenarioSpec(
        name=name,
        description=str(data.get("description", "")).strip(),
        attacks=tuple(attacks),
        faults=data.get("faults"),
        crashes=data.get("crashes"),
        chain=_chain_pairs(data.get("chain"), path),
        verdicts=tuple(verdicts),
    )
    _validate(spec, path)
    return spec


def _chain_pairs(chain, path: str) -> tuple:
    """Canonicalise the optional ``chain:`` key into sorted field pairs.

    Accepts a preset/comma string (``chain: hybrid``) or a mapping of
    :class:`~repro.core.config.FilterChainSpec` fields whose ``members``
    is a list or comma string. Pairs, not a spec object, keep
    :class:`ScenarioSpec` reprs stable and scalar-only.
    """
    if chain is None:
        return ()
    if isinstance(chain, str):
        from repro.core.config import FilterChainSpec

        try:
            parsed = FilterChainSpec.parse(chain)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(str(exc), path)
        return (("members", parsed.members),)
    if isinstance(chain, dict):
        entries = dict(chain)
        members = entries.get("members")
        if isinstance(members, str):
            entries["members"] = tuple(
                m.strip() for m in members.split(",") if m.strip()
            )
        elif isinstance(members, list):
            entries["members"] = tuple(str(m) for m in members)
        return tuple(sorted(entries.items()))
    raise ScenarioError(
        f"chain must be a preset/comma string or a mapping of "
        f"FilterChainSpec fields; got {chain!r}",
        path,
    )


def _validate(spec: ScenarioSpec, path: str) -> None:
    """Fail at load time, not install time, for referential mistakes."""
    from repro.analysis.verdicts import METRIC_GROUPS, METRICS
    from repro.workload.attacks import ATTACK_KINDS

    for attack in spec.attacks:
        if attack.kind not in ATTACK_KINDS:
            raise ScenarioError(
                f"unknown attack kind {attack.kind!r}; "
                f"known: {', '.join(sorted(ATTACK_KINDS))}",
                path,
            )
    # Build the chain spec once here so unknown fields/members fail at
    # load time with the file path attached, not mid-run.
    try:
        spec.chain_spec()
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid chain: {exc}", path)
    for check in spec.verdicts:
        named = [check.value] if isinstance(check.value, str) else []
        for name in [check.metric, *named]:
            group, dotted, _ = name.partition(".")
            if not (group in METRIC_GROUPS if dotted else name in METRICS):
                raise ScenarioError(
                    f"verdict {check.name!r} uses unknown metric {name!r}; "
                    f"known: {', '.join(sorted(METRICS))}, or a dotted "
                    f"name in group {', '.join(sorted(METRIC_GROUPS))}",
                    path,
                )
        if check.op not in ("<", "<=", ">", ">=", "==", "!="):
            raise ScenarioError(
                f"verdict {check.name!r} uses unknown op {check.op!r}",
                path,
            )


# -- parsing -----------------------------------------------------------------


def _parse_file(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    try:
        import yaml
    except ImportError:
        return _mini_parse(text, str(path))
    return yaml.safe_load(text)


def _mini_parse(text: str, path: str = "") -> dict:
    """Fallback parser for the restricted YAML subset of the pack and
    the check files.

    Supports: a top-level mapping; nested flat mappings; lists whose
    items are scalars or flat mappings (``- key: value`` with
    continuation keys two spaces deeper); flow-style scalar lists
    (``[a, b]``) and flat mappings (``{a: 1, b: x}``);
    int/float/bool/null/quoted scalars; full-line ``#`` comments. That
    is the whole grammar those files use — anything else should be
    authored with PyYAML available so the equivalence test can vouch
    for it.
    """
    lines = []
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        lines.append((indent, raw.strip()))
    if not lines:
        return {}
    value, next_index = _parse_block(lines, 0, lines[0][0], path)
    if next_index != len(lines):
        raise ScenarioError(
            f"unparsed trailing content at line {next_index + 1} "
            f"(inconsistent indentation?)",
            path,
        )
    if not isinstance(value, dict):
        raise ScenarioError("top level must be a mapping", path)
    return value


def _parse_block(lines: list, index: int, indent: int, path: str):
    if lines[index][1].startswith("- "):
        return _parse_list(lines, index, indent, path)
    return _parse_map(lines, index, indent, path)


def _parse_map(lines: list, index: int, indent: int, path: str):
    result: dict = {}
    while index < len(lines) and lines[index][0] == indent:
        content = lines[index][1]
        if content.startswith("- "):
            break
        key, sep, rest = content.partition(":")
        if not sep:
            raise ScenarioError(f"expected 'key: value', got {content!r}", path)
        key = key.strip()
        rest = rest.strip()
        index += 1
        if rest:
            result[key] = _scalar(rest)
        elif index < len(lines) and lines[index][0] > indent:
            value, index = _parse_block(
                lines, index, lines[index][0], path
            )
            result[key] = value
        else:
            result[key] = None
    return result, index


def _parse_list(lines: list, index: int, indent: int, path: str):
    items = []
    while (
        index < len(lines)
        and lines[index][0] == indent
        and lines[index][1].startswith("- ")
    ):
        head = lines[index][1][2:].strip()
        index += 1
        if ":" not in head or head.startswith("{"):
            items.append(_scalar(head))
            continue
        # A mapping item: the head line plus any continuation keys at a
        # deeper indent form one flat map.
        block = [(indent + 2, head)]
        while index < len(lines) and lines[index][0] > indent:
            block.append((indent + 2, lines[index][1]))
            index += 1
        value, consumed = _parse_map(block, 0, indent + 2, path)
        if consumed != len(block):
            raise ScenarioError(
                f"nested structures inside list items are not supported "
                f"by the fallback parser (near {head!r})",
                path,
            )
        items.append(value)
    return items, index


def _scalar(token: str):
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    if token.startswith("[") and token.endswith("]"):
        # Flow-style list of scalars: [a, b, c]. No nesting.
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_scalar(item.strip()) for item in inner.split(",")]
    if token.startswith("{") and token.endswith("}"):
        # Flow-style flat mapping: {a: 1, b: x}. No nesting.
        pairs = [item.partition(":") for item in token[1:-1].split(",")]
        return {
            key.strip(): _scalar(value.strip())
            for key, _, value in pairs
            if key.strip()
        }
    lowered = token.lower()
    if lowered in ("null", "~"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token
