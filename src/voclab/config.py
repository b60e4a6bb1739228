"""Run configuration files: flat INI-style key = value text.

The keys, their sections, docs and types come from the fields of
TrainConfig, OptimizerConfig and PrlsConfig that carry `setting` metadata;
the optimizer keys take a `g_`/`d_` prefix (`g_optimizer`, `d_lr`, ...).
`[data] corpus_dir` is the one key that is not a TrainConfig field.
Unknown sections or keys are hard errors so typos never pass silently.
An empty value keeps the vocoder's default (`init-config` writes them all);
`none` turns gradient clipping off.
"""

from __future__ import annotations

import configparser
from dataclasses import fields, replace
from functools import reduce
from pathlib import Path
from typing import get_type_hints

from .trainer import TrainConfig, desk_config


class ConfigError(ValueError):
    """Raised with every validation problem collected, one per line."""


def _settings(cls, prefix="", path=()):
    """(section, key, field path, type, doc) of each INI field of cls, nested ones too."""
    types = get_type_hints(cls)
    for f in fields(cls):
        if "prefix" in f.metadata:
            yield from _settings(types[f.name], prefix + f.metadata["prefix"], path + (f.name,))
        elif "section" in f.metadata:
            key = prefix + (f.metadata["key"] or f.name)
            yield f.metadata["section"], key, path + (f.name,), types[f.name], f.metadata["doc"]


def schema():
    """section -> key -> (field path, type, doc), in field order."""
    corpus_dir = (("corpus_dir",), str, "directory of training WAVs (from make-data)")
    table = {"data": {"corpus_dir": corpus_dir}}
    for section, key, path, typ, doc in _settings(TrainConfig):
        table.setdefault(section, {})[key] = (path, typ, doc)
    return table


def _parse(typ, raw):
    if typ is tuple:
        return tuple(int(v) for v in raw.split(","))
    if typ == float | None:
        return None if raw.lower() == "none" else float(raw)
    return typ(raw)


def _format(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


def _replace(obj, changes):
    """obj with changes applied; nested configs are built first, so each
    config's checks see only its final values."""
    return replace(obj, **{
        name: _replace(getattr(obj, name), v) if isinstance(v, dict) else v
        for name, v in changes.items()
    })


def default_config_text(vocoder="melgan"):
    """A fully commented config holding every value of desk_config(vocoder)."""
    cfg = desk_config(vocoder)
    lines = [f"# voclab run configuration (defaults for vocoder = {vocoder})"]
    for section, keys in schema().items():
        lines.append(f"\n[{section}]")
        for key, (path, _, doc) in keys.items():
            value = "" if key == "corpus_dir" else _format(reduce(getattr, path, cfg))
            lines += [f"# {doc}", f"{key} = {value}"]
    return "\n".join(lines) + "\n"


def parse_config(path):
    """Parse and validate a config file into a TrainConfig (+ corpus dir)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    table = schema()
    problems = []
    changes = {}
    for section in parser.sections():
        if section not in table:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in table[section]:
                problems.append(f"unknown key {key!r} in section [{section}]")
                continue
            path, typ, _ = table[section][key]
            if not raw:
                continue
            try:
                value = _parse(typ, raw)
            except ValueError:
                problems.append(f"[{section}] {key}: cannot parse {raw!r}")
                continue
            node = changes
            for name in path[:-1]:
                node = node.setdefault(name, {})
            node[path[-1]] = value
    if problems:
        raise ConfigError("\n".join(problems))

    corpus_dir = changes.pop("corpus_dir", None)
    try:
        cfg = _replace(desk_config(changes.pop("vocoder", TrainConfig.vocoder)), changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, Path(corpus_dir) if corpus_dir else None
