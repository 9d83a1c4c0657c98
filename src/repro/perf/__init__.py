"""Record comparison: diff two JSON-like values, host times stripped.

Campaign, scheduler and benchmark checks compare simulated records for
exact equality.  :func:`strip_volatile` drops the fields that differ
run to run by construction (host wall-clock), and :func:`diff_values`
lists the paths at which two records still differ.
"""

from __future__ import annotations

from typing import Any, List, Tuple

__all__ = ["VOLATILE_KEYS", "diff_values", "strip_volatile"]

#: record keys that legitimately differ between runs (host wall-clock);
#: :func:`strip_volatile` removes them at any nesting depth before a diff
VOLATILE_KEYS = ("host_seconds",)


def _values_equal(a: Any, b: Any) -> bool:
    try:
        eq = a == b
    except Exception:
        return repr(a) == repr(b)
    if eq is True or eq is False:
        return eq
    # array-likes return elementwise results; collapse via all()
    try:
        return bool(getattr(eq, "all")())
    except Exception:
        return repr(a) == repr(b)


def strip_volatile(value: Any, keys: Tuple[str, ...] = VOLATILE_KEYS) -> Any:
    """A copy of a JSON-like structure with volatile keys removed at any
    depth (host wall-clock times differ run to run by construction)."""
    if isinstance(value, dict):
        return {
            k: strip_volatile(v, keys) for k, v in value.items() if k not in keys
        }
    if isinstance(value, (list, tuple)):
        return [strip_volatile(v, keys) for v in value]
    return value


def diff_values(a: Any, b: Any, path: str = "$") -> List[str]:
    """Paths at which two JSON-like values differ (empty when equal)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[str] = []
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{path}.{k}: only in second")
            elif k not in b:
                out.append(f"{path}.{k}: only in first")
            else:
                out.extend(diff_values(a[k], b[k], f"{path}.{k}"))
        return out
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} vs {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_values(x, y, f"{path}[{i}]"))
        return out
    if not _values_equal(a, b):
        return [f"{path}: {a!r} vs {b!r}"]
    return []
