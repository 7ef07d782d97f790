"""Graph substrate: data structures, node-level partition, generators and splits."""

from .datasets import available_datasets, load_dataset
from .generators import (
    FACEBOOK_SPEC,
    LASTFM_SPEC,
    SocialGraphSpec,
    generate_facebook_like,
    generate_lastfm_like,
    generate_small_world,
    generate_star,
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
    "generate_small_world",
    "generate_star",
    "load_dataset",
    "available_datasets",
    "NodeSplit",
    "EdgeSplit",
    "split_nodes",
    "split_edges",
    "sample_negative_edges",
    "sparse",
]
