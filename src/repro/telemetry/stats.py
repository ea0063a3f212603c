"""The statistic tree: named, mergeable, serialisable counters.

Every simulation builds one :class:`StatGroup` root; components
register child groups and leaf statistics under stable dotted names
(``frontend.mispredicts``, ``pipeline.stalls.vp-flush``, ...).  The
tree replaces the ad-hoc per-component stat dicts: one shape for
reporting, one serializer for the campaign cache, and one ``merge``
for aggregating runs.

Design rules
------------
* Leaf values are plain numbers — a :class:`Counter` holds one number,
  a :class:`Histogram` holds integer bucket counts keyed by
  power-of-two lower bounds.
* Names are stable identifiers (``[a-z0-9_.-]``); the dot is reserved
  as the path separator in :meth:`StatGroup.flat`.
* Everything round-trips through :meth:`to_dict` / :meth:`from_dict`
  (pure JSON types), and two trees compare equal iff they have the
  same shape and values — the property the campaign cache's
  hit-equals-rerun guarantee rests on.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

Number = Union[int, float]

_SEPARATOR = "."


def _check_name(name: str) -> str:
    if not name or _SEPARATOR in name:
        raise ValueError(f"bad stat name {name!r} "
                         f"(must be non-empty, no {_SEPARATOR!r})")
    return name


class Counter:
    """A single named number (int or float)."""

    __slots__ = ("name", "desc", "value")

    def __init__(self, name: str, desc: str = "",
                 value: Number = 0) -> None:
        self.name = _check_name(name)
        self.desc = desc
        self.value = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    def set(self, value: Number) -> None:
        self.value = value

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": "counter", "desc": self.desc, "value": self.value}

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "Counter":
        return cls(name, payload.get("desc", ""), payload["value"])

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counter):
            return NotImplemented
        return self.name == other.name and self.value == other.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Power-of-two histogram: sample *v* lands in bucket
    ``1 << v.bit_length() - 1`` (0 gets its own bucket), so tails stay
    compact no matter how long a stall runs."""

    __slots__ = ("name", "desc", "buckets", "count", "total")

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = _check_name(name)
        self.desc = desc
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    @staticmethod
    def bucket_of(value: int) -> int:
        if value <= 0:
            return 0
        return 1 << (int(value).bit_length() - 1)

    def observe(self, value: int, weight: int = 1) -> None:
        bucket = self.bucket_of(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + weight
        self.count += weight
        self.total += value * weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": "histogram", "desc": self.desc,
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())},
                "count": self.count, "total": self.total}

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "Histogram":
        hist = cls(name, payload.get("desc", ""))
        hist.buckets = {int(k): v for k, v in payload["buckets"].items()}
        hist.count = payload["count"]
        hist.total = payload["total"]
        return hist

    def merge(self, other: "Histogram") -> None:
        for bucket, weight in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + weight
        self.count += other.count
        self.total += other.total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.name == other.name and self.buckets == other.buckets
                and self.count == other.count and self.total == other.total)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.2f}>"


Stat = Union[Counter, Histogram, "StatGroup"]


class StatGroup:
    """An ordered, named tree node holding counters, histograms, and
    child groups."""

    __slots__ = ("name", "desc", "children")

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = _check_name(name)
        self.desc = desc
        self.children: Dict[str, Stat] = {}

    # -- registration --------------------------------------------------
    def _register(self, stat: Stat) -> Stat:
        if stat.name in self.children:
            raise ValueError(
                f"duplicate stat {stat.name!r} in group {self.name!r}")
        self.children[stat.name] = stat
        return stat

    def counter(self, name: str, desc: str = "",
                value: Number = 0) -> Counter:
        return self._register(Counter(name, desc, value))

    def histogram(self, name: str, desc: str = "") -> Histogram:
        return self._register(Histogram(name, desc))

    def group(self, name: str, desc: str = "") -> "StatGroup":
        """Child group, created on first use."""
        existing = self.children.get(name)
        if existing is not None:
            if not isinstance(existing, StatGroup):
                raise ValueError(f"{name!r} is a leaf, not a group")
            return existing
        child = StatGroup(name, desc)
        self.children[name] = child
        return child

    def counters_from(self, mapping: Dict[str, Number]) -> None:
        """Bulk-register one counter per mapping entry (snapshot
        publication for components that keep plain attributes hot)."""
        for name, value in mapping.items():
            self.counter(name, value=value)

    # -- access --------------------------------------------------------
    def __getitem__(self, path: str) -> Stat:
        """Child by name or dotted path (``"stalls.vp-flush"``)."""
        node: Stat = self
        for part in path.split(_SEPARATOR):
            if not isinstance(node, StatGroup):
                raise KeyError(path)
            node = node.children[part]
        return node

    def get(self, path: str, default=None):
        try:
            return self[path]
        except KeyError:
            return default

    def value(self, path: str) -> Number:
        """Counter value by dotted path."""
        stat = self[path]
        if not isinstance(stat, Counter):
            raise KeyError(f"{path} is not a counter")
        return stat.value

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, Stat]]:
        """Depth-first (dotted-path, leaf) pairs."""
        for name, child in self.children.items():
            path = f"{prefix}{name}"
            if isinstance(child, StatGroup):
                yield from child.walk(path + _SEPARATOR)
            else:
                yield path, child

    def flat(self) -> Dict[str, Number]:
        """Dotted-path → value for every counter leaf (histograms
        contribute their mean under ``<path>:mean``)."""
        out: Dict[str, Number] = {}
        for path, leaf in self.walk():
            if isinstance(leaf, Counter):
                out[path] = leaf.value
            else:
                out[path + ":mean"] = leaf.mean
        return out

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": "group", "desc": self.desc,
                "children": {name: child.to_dict()
                             for name, child in self.children.items()}}

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "StatGroup":
        group = cls(name, payload.get("desc", ""))
        for child_name, child in payload["children"].items():
            kind = child["kind"]
            if kind == "group":
                group.children[child_name] = StatGroup.from_dict(
                    child_name, child)
            elif kind == "counter":
                group.children[child_name] = Counter.from_dict(
                    child_name, child)
            elif kind == "histogram":
                group.children[child_name] = Histogram.from_dict(
                    child_name, child)
            else:
                raise ValueError(f"unknown stat kind {kind!r}")
        return group

    def merge(self, other: "StatGroup") -> None:
        """Accumulate ``other`` into this tree.  Leaves add; groups
        recurse; children unique to ``other`` are deep-copied in."""
        for name, child in other.children.items():
            mine = self.children.get(name)
            if mine is None:
                self.children[name] = _copy(child)
            elif type(mine) is not type(child):
                raise ValueError(
                    f"merge shape mismatch at {name!r}: "
                    f"{type(mine).__name__} vs {type(child).__name__}")
            else:
                mine.merge(child)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatGroup):
            return NotImplemented
        return self.name == other.name and self.children == other.children

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StatGroup {self.name} ({len(self.children)} children)>"


def _copy(stat: Stat) -> Stat:
    if isinstance(stat, StatGroup):
        return StatGroup.from_dict(stat.name, stat.to_dict())
    if isinstance(stat, Counter):
        return Counter.from_dict(stat.name, stat.to_dict())
    return Histogram.from_dict(stat.name, stat.to_dict())


__all__ = ["Counter", "Histogram", "StatGroup"]
