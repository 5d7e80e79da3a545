"""Hierarchy serialization: a JSON schema for round-tripping structure,
scores and leaf membership, and a Graphviz dot rendering.

Keys are emitted in sorted order and floats via repr, so two identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Hierarchy
from .errors import ValidationError

SCHEMA_NAME = "margintree-hierarchy"
SCHEMA_VERSION = 1


def hierarchy_to_dict(hierarchy: Hierarchy, top_features: int = 3) -> dict:
    """JSON-ready representation: per node id, parent, depth, member count,
    children, split score, the top-m features of split nodes ranked by the
    column norm of the models, and leaf member ids."""
    if top_features < 0:
        raise ValidationError(f"top_features must be >= 0, got {top_features}")
    nodes = []
    for node_id in sorted(hierarchy.nodes):
        node = hierarchy.nodes[node_id]
        record = {
            "id": node.id,
            "parent": node.parent_id,
            "depth": node.depth,
            "size": node.data.size,
            "children": list(node.child_ids),
            "split_score": None if node.split_score is None else float(node.split_score),
        }
        if node.child_ids and node.models is not None:
            norms = np.linalg.norm(node.models.weights, axis=0)
            order = np.argsort(-norms, kind="stable")
            record["top_features"] = [int(i) for i in order[:top_features]]
        if node.is_leaf:
            record["members"] = node.data.ids.tolist()
        nodes.append(record)
    return {
        "format": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "root": hierarchy.root_id,
        "incomplete": hierarchy.incomplete,
        "nodes": nodes,
    }


def _dict_to_dot(payload: dict) -> str:
    lines = ["digraph hierarchy {", "  node [shape=box];"]
    for record in payload["nodes"]:
        score = record.get("split_score")
        label = f"#{record['id']}\\nn={record['size']}"
        if score is not None and np.isfinite(score):
            label += f"\\nS={score:.6g}"
        lines.append(f'  n{record["id"]} [label="{label}"];')
    for record in payload["nodes"]:
        for child in record["children"]:
            lines.append(f"  n{record['id']} -> n{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def export_hierarchy(hierarchy: Hierarchy, path: str, format: str = "json", top_features: int = 3) -> None:
    """Write the hierarchy to path as json or Graphviz dot."""
    payload = hierarchy_to_dict(hierarchy, top_features=top_features)
    if format == "json":
        text = render_json(payload)
    elif format == "dot":
        text = _dict_to_dot(payload)
    else:
        raise ValidationError(f"unknown export format {format!r}; expected json or dot")
    with open(path, "w") as fh:
        fh.write(text)


@dataclass(frozen=True)
class HierarchySummary:
    """Structure-only view reloaded from an exported JSON file."""

    root: int
    incomplete: bool
    nodes: tuple[dict, ...]

    def leaf_of(self, n: int) -> np.ndarray:
        """The leaf holding each of the instances 0..n-1 (the loaders' ids):
        the leaves must list each of them once and no other id."""
        members, leaves = [], []
        for record in self.nodes:
            if not record["children"]:
                members += record.get("members", [])
                leaves += [record["id"]] * (len(members) - len(leaves))
        members = np.asarray(members)
        if members.size and members.dtype.kind not in "iu":
            raise ValidationError("the hierarchy's leaf members must be integer instance ids")
        outside = (members < 0) | (members >= n)
        if outside.any():
            raise ValidationError(f"instance {members[outside.argmax()]} of the hierarchy's leaves is not in the input")
        counts = np.bincount(members.astype(np.int64), minlength=n)
        if counts.max(initial=0) > 1:
            raise ValidationError(f"instance {members[(counts[members] > 1).argmax()]} is in more than one leaf")
        if counts.min(initial=1) == 0:
            raise ValidationError(f"instance {counts.argmin()} missing from the hierarchy's leaves")
        leaf_of = np.empty(n, dtype=np.int64)
        leaf_of[members] = leaves
        return leaf_of

    def children_map(self) -> dict:
        return {r["id"]: list(r["children"]) for r in self.nodes if r["children"]}


def load_hierarchy_json(path: str) -> HierarchySummary:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as err:  # malformed json or undecodable bytes
            raise ValidationError(f"{path}: not a json file ({err})") from None
    if not isinstance(payload, dict) or payload.get("format") != SCHEMA_NAME:
        raise ValidationError(f"{path}: not a {SCHEMA_NAME} file")
    if "root" not in payload or "nodes" not in payload:
        raise ValidationError(f"{path}: a {SCHEMA_NAME} file needs a root and its nodes")
    return HierarchySummary(
        root=payload["root"],
        incomplete=payload.get("incomplete", False),
        nodes=tuple(payload["nodes"]),
    )


def summary_to_dot(summary: HierarchySummary) -> str:
    payload = {
        "nodes": sorted(
            (dict(r) for r in summary.nodes),
            key=lambda r: r["id"],
        )
    }
    return _dict_to_dot(payload)
