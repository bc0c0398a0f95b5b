"""Report containers for the verification sweeps, plus JSON/CSV output."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, asdict

import numpy as np

__all__ = ["RatioReport", "NormReport", "save_json", "save_csv"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


@dataclass
class RatioReport:
    """Measured LHS/RHS ratios of one inequality over a family of inputs."""

    check_id: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    draws: int = 0
    skipped: int = 0
    items: dict = field(default_factory=dict)  # name -> {min, max, cstar}
    cstar: float = float("nan")
    stable: bool | None = None
    passed: bool | None = None
    notes: list = field(default_factory=list)

    def record_item(self, name: str, ratios) -> None:
        ratios = np.asarray([r for r in np.atleast_1d(ratios) if np.isfinite(r)])
        if ratios.size == 0:
            self.items[name] = {"min": float("nan"), "max": float("nan"), "cstar": float("inf")}
            return
        lo, hi = float(ratios.min()), float(ratios.max())
        cstar = max(hi, 1.0 / lo) if lo > 0 else float("inf")
        self.items[name] = {"min": lo, "max": hi, "cstar": cstar}

    def finalize_cstar(self) -> float:
        vals = [it["cstar"] for it in self.items.values()]
        self.cstar = max(vals) if vals else float("nan")
        return self.cstar

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass
class NormReport:
    """One evaluated norm with its decomposition metadata."""

    kind: str
    params: dict = field(default_factory=dict)
    value: float = 0.0
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_json(path, payload) -> None:
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    _atomic_write_text(path, json.dumps(_jsonable(payload), indent=2) + "\n")


def save_csv(path, rows, header=None) -> None:
    lines = []
    if header:
        lines.append(",".join(str(h) for h in header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")

