"""Graph substrate: data structures, node-level partition, the synthetic
stand-ins for the paper's two datasets, and splits."""

from .datasets import load_dataset
from .generators import (
    FACEBOOK_SPEC,
    LASTFM_SPEC,
    SocialGraphSpec,
    generate_facebook_like,
    generate_lastfm_like,
    generate_social_graph,
)
from .graph import Graph, partition_node_level
from .splits import EdgeSplit, NodeSplit, sample_negative_edges, split_edges, split_nodes
from . import sparse

__all__ = [
    "Graph",
    "partition_node_level",
    "SocialGraphSpec",
    "FACEBOOK_SPEC",
    "LASTFM_SPEC",
    "generate_social_graph",
    "generate_facebook_like",
    "generate_lastfm_like",
    "load_dataset",
    "NodeSplit",
    "EdgeSplit",
    "split_nodes",
    "split_edges",
    "sample_negative_edges",
    "sparse",
]
