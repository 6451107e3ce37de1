//! # vada-fusion
//!
//! Duplicate detection and data fusion (paper §2: "a data fusion
//! transducer may start to evaluate when duplicates have been detected").
//!
//! The result of executing a mapping is a union over overlapping sources,
//! so the same real-world property typically appears several times with
//! slightly different values. The pipeline here is the classic one:
//!
//! 1. [`blocking`] — group rows by a cheap key (the scenario blocks on
//!    `postcode`) so similarity is only computed within blocks;
//! 2. [`similarity`] — weighted record similarity over typed fields;
//! 3. [`cluster`] — union-find clustering of above-threshold pairs;
//! 4. [`fuse`] — survivorship: collapse each cluster to one tuple
//!    (most-complete / majority / trust-weighted).

pub mod blocking;
pub mod cluster;
pub mod fuse;
pub mod similarity;

pub use blocking::{block_by_keys, blocking_stats, BlockingStats};
pub use cluster::{
    cluster_relation, cluster_relation_scored, BlockClusters, ClusterConfig, Refreshed, UnionFind,
};
pub use fuse::{fuse_clusters, FusionReport, Survivorship};
pub use similarity::{record_similarity, FieldKind, FieldSpec};
