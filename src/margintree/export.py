"""Hierarchy serialization. The payload of `hierarchy_to_dict` (structure,
scores and leaf membership) is the one view of a tree that scoring and
export read: a built tree becomes it once, an exported json file loads
back into it (`load_hierarchy_json`), and `render` writes it as json or
Graphviz dot.

Keys are emitted in sorted order and floats via repr, so two identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .core import Hierarchy
from .errors import ValidationError
from .objective import column_norms

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
            "split_score": None if node.split is None or node.split.score is None else float(node.split.score),
        }
        if node.child_ids and node.split is not None:
            order = np.argsort(-column_norms(node.split.weights), kind="stable")
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
    nodes = sorted(payload["nodes"], key=lambda r: r["id"])
    lines = ["digraph hierarchy {", "  node [shape=box];"]
    for record in nodes:
        score = record.get("split_score")
        label = f"#{record['id']}\\nn={record['size']}"
        if score is not None and np.isfinite(score):
            label += f"\\nS={score:.6g}"
        lines.append(f'  n{record["id"]} [label="{label}"];')
    for record in nodes:
        for child in record["children"]:
            lines.append(f"  n{record['id']} -> n{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render(payload: dict, format: str) -> str:
    """A hierarchy payload as json or Graphviz dot text."""
    if format == "json":
        return render_json(payload)
    if format == "dot":
        return _dict_to_dot(payload)
    raise ValidationError(f"unknown export format {format!r}; expected json or dot")


def export_hierarchy(hierarchy: Hierarchy, path: str, format: str = "json", top_features: int = 3) -> None:
    """Write the hierarchy to path as json or Graphviz dot."""
    text = render(hierarchy_to_dict(hierarchy, top_features=top_features), format)
    with open(path, "w") as fh:
        fh.write(text)


def read_json(path: str):
    """The json value in the file at path; a malformed file is a ValidationError."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # malformed json or undecodable bytes
            raise ValidationError(f"{path}: not a json file ({err})") from None


def _is_int(value) -> bool:
    """A json integer; json true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_hierarchy_json(path: str) -> dict:
    """The payload hierarchy_to_dict wrote to an exported json file. Its
    nodes must be objects with a distinct integer id, a children list and a
    size, a non-negative integer; a split_score, when given, a number or
    null, and a leaf's members a list of instance ids as long as its size.
    json true and false are neither integers nor numbers. The root and the
    children lists must form one tree over all the nodes: each node but the
    root a child of exactly one node, and reached from the root; a split
    node's size is the sum of its children's."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != SCHEMA_NAME:
        raise ValidationError(f"{path}: not a {SCHEMA_NAME} file")
    if "root" not in payload or "nodes" not in payload:
        raise ValidationError(f"{path}: a {SCHEMA_NAME} file needs a root and its nodes")
    nodes = payload["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(record, dict) for record in nodes):
        raise ValidationError(f"{path}: nodes must be a list of objects")
    ids: set[int] = set()
    for pos, record in enumerate(nodes):
        if not _is_int(record.get("id")) or not isinstance(record.get("children"), list) or "size" not in record:
            raise ValidationError(f"{path}: nodes[{pos}] needs an integer id, a children list and a size")
        if record["id"] in ids:
            raise ValidationError(f"{path}: node id {record['id']} appears more than once")
        ids.add(record["id"])
        if not _is_int(record["size"]) or record["size"] < 0:
            raise ValidationError(f"{path}: the size of node {record['id']} must be a non-negative integer")
        score = record.get("split_score")
        if score is not None and (isinstance(score, bool) or not isinstance(score, (int, float))):
            raise ValidationError(f"{path}: the split_score of node {record['id']} must be a number or null")
        if record["children"]:
            continue
        members = record.get("members", [])  # integer ids from the loaders; a library Dataset's may be text
        if not (isinstance(members, list) and set(map(type, members)) <= {int, float, str}):
            raise ValidationError(f"{path}: the members of leaf {record['id']} must be a list of instance ids")
        if len(members) != record["size"]:
            raise ValidationError(f"{path}: leaf {record['id']} has size {record['size']} but {len(members)} members")
    def is_node(node_id):
        return _is_int(node_id) and node_id in ids
    root = payload["root"]
    if not is_node(root):
        raise ValidationError(f"{path}: root {root!r} is not a node id")
    parent: dict[int, int] = {}
    for record in nodes:
        for kid in record["children"]:
            if not is_node(kid):
                raise ValidationError(f"{path}: child {kid!r} of node {record['id']} is not a node id")
            if kid in parent:
                raise ValidationError(f"{path}: node {kid} is a child of node {parent[kid]} and of node {record['id']}")
            parent[kid] = record["id"]
    if root in parent:
        raise ValidationError(f"{path}: root {root} is a child of node {parent[root]}, a cycle")
    children = {record["id"]: record["children"] for record in nodes}
    reached, stack = {root}, [root]
    while stack:
        for kid in children[stack.pop()]:
            reached.add(kid)
            stack.append(kid)
    if reached != ids:
        raise ValidationError(f"{path}: node {min(ids - reached)} is not reached from root {root}")
    sizes = {record["id"]: record["size"] for record in nodes}
    for record in nodes:
        held = sum(sizes[kid] for kid in record["children"])
        if record["children"] and held != record["size"]:
            raise ValidationError(f"{path}: node {record['id']} has size {record['size']} but its children hold {held}")
    return payload
