"""Dataset registry.

``load_dataset(name)`` is the single entry point used by examples, the
evaluation harness and the benchmarks.  Two families are available:

* ``"facebook"`` / ``"lastfm"`` — if the real raw files (SNAP "musae"
  Facebook Page-Page / LastFM Asia CSV dumps) are present under
  ``data/<name>/`` they are loaded; otherwise the synthetic stand-ins from
  :mod:`repro.graph.generators` are generated (its module docstring says
  which properties of the real graphs they preserve).
* ``"small-world"`` / ``"star"`` — tiny deterministic graphs for tests.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Callable, Dict, Optional

import numpy as np

from . import generators
from .graph import Graph

DATA_ROOT_ENV = "REPRO_DATA_ROOT"
_DEFAULT_DATA_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", "data")


def data_root() -> str:
    """Return the directory searched for real raw dataset files."""
    return os.environ.get(DATA_ROOT_ENV, os.path.normpath(_DEFAULT_DATA_ROOT))


def _real_dataset_dir(name: str) -> Optional[str]:
    candidate = os.path.join(data_root(), name)
    return candidate if os.path.isdir(candidate) else None


def load_musae_style(directory: str, name: str) -> Graph:
    """Load a SNAP "musae"-style dataset directory.

    Expected files (as distributed for Facebook Page-Page / LastFM Asia):

    * ``edges.csv`` — two columns ``id_1,id_2`` (header optional);
    * ``features.json`` — ``{"<node id>": [active feature indices]}``;
    * ``target.csv`` — columns including the node id and an integer label.
    """
    edges_path = os.path.join(directory, "edges.csv")
    features_path = os.path.join(directory, "features.json")
    target_path = os.path.join(directory, "target.csv")
    for path in (edges_path, features_path, target_path):
        if not os.path.isfile(path):
            raise FileNotFoundError(f"missing dataset file: {path}")

    with open(features_path) as handle:
        raw_features: Dict[str, list] = json.load(handle)
    num_nodes = max(int(key) for key in raw_features) + 1
    num_features = 1 + max(
        (max(indices) for indices in raw_features.values() if indices), default=0
    )
    features = np.zeros((num_nodes, num_features), dtype=np.float64)
    for key, indices in raw_features.items():
        features[int(key), indices] = 1.0

    edges = []
    with open(edges_path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or not row[0].strip().isdigit():
                continue
            edges.append((int(row[0]), int(row[1])))

    labels = np.zeros(num_nodes, dtype=np.int64)
    label_names: Dict[str, int] = {}
    with open(target_path, newline="") as handle:
        reader = csv.DictReader(handle)
        id_column = "id" if "id" in (reader.fieldnames or []) else (reader.fieldnames or ["id"])[0]
        label_column = None
        for candidate in ("page_type", "target", "label"):
            if candidate in (reader.fieldnames or []):
                label_column = candidate
                break
        if label_column is None:
            label_column = (reader.fieldnames or ["target"])[-1]
        for row in reader:
            raw_label = row[label_column]
            if raw_label not in label_names and not raw_label.isdigit():
                label_names[raw_label] = len(label_names)
            value = int(raw_label) if raw_label.isdigit() else label_names[raw_label]
            labels[int(row[id_column])] = value

    return Graph(
        num_nodes=num_nodes,
        edges=np.asarray(edges, dtype=np.int64),
        features=features,
        labels=labels,
        name=name,
    )


def load_dataset(name: str, seed: int = 0, num_nodes: Optional[int] = None) -> Graph:
    """Load a dataset by name.

    Parameters
    ----------
    name:
        One of ``facebook``, ``lastfm``, ``small-world``, ``star`` (synonyms
        ``synthetic-facebook`` / ``synthetic-lastfm`` accepted).
    seed:
        Random seed for the synthetic generators.
    num_nodes:
        Optional override of the synthetic graph size.
    """
    key = name.lower().replace("_", "-")
    if key in ("facebook", "synthetic-facebook", "facebook-page-page"):
        real_dir = _real_dataset_dir("facebook")
        if real_dir is not None and num_nodes is None:
            return load_musae_style(real_dir, "facebook")
        return generators.generate_facebook_like(seed=seed, num_nodes=num_nodes)
    if key in ("lastfm", "synthetic-lastfm", "lastfm-asia"):
        real_dir = _real_dataset_dir("lastfm")
        if real_dir is not None and num_nodes is None:
            return load_musae_style(real_dir, "lastfm")
        return generators.generate_lastfm_like(seed=seed, num_nodes=num_nodes)
    if key == "small-world":
        return generators.generate_small_world(num_nodes=num_nodes or 100, seed=seed)
    if key == "star":
        return generators.generate_star(num_leaves=(num_nodes - 1) if num_nodes else 5, seed=seed)
    raise KeyError(f"unknown dataset '{name}'; available: facebook, lastfm, small-world, star")


def available_datasets() -> Dict[str, str]:
    """Return dataset names and a one-line description each."""
    return {
        "facebook": "Facebook Page-Page (synthetic stand-in unless raw files are present)",
        "lastfm": "LastFM Asia (synthetic stand-in unless raw files are present)",
        "small-world": "small Watts-Strogatz-style test graph",
        "star": "star graph, maximal degree heterogeneity toy case",
    }
