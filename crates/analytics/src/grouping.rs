//! Vertex grouping strategies for grouped provenance tracking (Section 5.2).
//!
//! The paper suggests grouping vertices by application attributes (gender,
//! country), by geography, or with a graph-clustering algorithm such as
//! METIS. Since runtime and memory of grouped tracking depend only on the
//! *number* of groups (Section 7.3), this module offers simple, deterministic
//! strategies: round-robin, hashed, explicit attributes, and a degree-based
//! clustering that serves as the METIS stand-in (see DESIGN.md).

use serde::{Deserialize, Serialize};

use tin_core::error::{Result, TinError};
use tin_core::graph::Tin;
use tin_core::ids::VertexId;

/// A vertex-to-group assignment usable by
/// [`tin_core::tracker::proportional_dense::ProportionalDenseTracker::grouped`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grouping {
    /// Number of groups m.
    pub num_groups: usize,
    /// `group_of[v]` = group index of vertex v.
    pub group_of: Vec<u32>,
}

impl Grouping {
    /// Group of a vertex.
    pub fn group_of(&self, v: VertexId) -> u32 {
        self.group_of[v.index()]
    }

    /// Sizes of each group.
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_groups];
        for &g in &self.group_of {
            sizes[g as usize] += 1;
        }
        sizes
    }

    /// Validate the assignment (every group index within range).
    pub fn validate(&self) -> Result<()> {
        if self.num_groups == 0 {
            return Err(TinError::InvalidConfig("need at least one group".into()));
        }
        if self.group_of.iter().any(|&g| g as usize >= self.num_groups) {
            return Err(TinError::InvalidConfig("group index out of range".into()));
        }
        Ok(())
    }

    /// Convert into the `PolicyConfig::Grouped` form used by the tracker
    /// factory.
    pub fn to_policy(&self) -> tin_core::policy::PolicyConfig {
        tin_core::policy::PolicyConfig::Grouped {
            num_groups: self.num_groups,
            group_of: self.group_of.clone(),
        }
    }
}

/// Round-robin assignment: vertex `v` goes to group `v mod m` (what the
/// paper's experiments use; cost is independent of the allocation).
pub fn round_robin(num_vertices: usize, num_groups: usize) -> Result<Grouping> {
    if num_groups == 0 {
        return Err(TinError::InvalidConfig("need at least one group".into()));
    }
    Ok(Grouping {
        num_groups,
        group_of: (0..num_vertices).map(|v| (v % num_groups) as u32).collect(),
    })
}

/// Hash-based assignment: deterministic pseudo-random spreading of vertices
/// over groups (useful when vertex ids are not uniformly distributed).
pub fn hashed(num_vertices: usize, num_groups: usize) -> Result<Grouping> {
    if num_groups == 0 {
        return Err(TinError::InvalidConfig("need at least one group".into()));
    }
    let group_of = (0..num_vertices as u64)
        .map(|v| {
            // SplitMix64 finaliser: cheap, well-mixed, dependency-free.
            let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z % num_groups as u64) as u32
        })
        .collect();
    Ok(Grouping {
        num_groups,
        group_of,
    })
}

/// Attribute-based assignment: the caller supplies one attribute value per
/// vertex (e.g. country code, account category) and every distinct value
/// becomes a group.
pub fn by_attribute<A: Eq + std::hash::Hash + Clone>(attributes: &[A]) -> Grouping {
    let mut value_to_group: std::collections::HashMap<A, u32> = std::collections::HashMap::new();
    let mut group_of = Vec::with_capacity(attributes.len());
    for a in attributes {
        let next = value_to_group.len() as u32;
        let g = *value_to_group.entry(a.clone()).or_insert(next);
        group_of.push(g);
    }
    Grouping {
        num_groups: value_to_group.len().max(1),
        group_of,
    }
}

/// Degree-based clustering: vertices are ordered by total interaction volume
/// (sent + received quantity) and split into `num_groups` contiguous buckets
/// of equal population. High-volume "hub" vertices end up together, which
/// mimics the effect of topology-aware clustering (our METIS stand-in) while
/// remaining deterministic and dependency-free.
pub fn by_degree(tin: &Tin, num_groups: usize) -> Result<Grouping> {
    if num_groups == 0 {
        return Err(TinError::InvalidConfig("need at least one group".into()));
    }
    let n = tin.num_vertices();
    let sent = tin.total_sent_per_vertex();
    let received = tin.total_received_per_vertex();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (sent[b] + received[b])
            .total_cmp(&(sent[a] + received[a]))
            .then(a.cmp(&b))
    });
    let mut group_of = vec![0u32; n];
    let bucket = n.div_ceil(num_groups).max(1);
    for (rank, &v) in order.iter().enumerate() {
        group_of[v] = ((rank / bucket) as u32).min(num_groups as u32 - 1);
    }
    Ok(Grouping {
        num_groups,
        group_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_core::interaction::paper_running_example;
    use tin_core::prelude::*;

    #[test]
    fn round_robin_balances_groups() {
        let g = round_robin(10, 3).unwrap();
        assert_eq!(g.num_groups, 3);
        assert!(g.validate().is_ok());
        let sizes = g.group_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
        assert!(round_robin(10, 0).is_err());
    }

    #[test]
    fn hashed_covers_all_groups() {
        let g = hashed(1000, 7).unwrap();
        assert!(g.validate().is_ok());
        let sizes = g.group_sizes();
        assert!(sizes.iter().all(|&s| s > 50), "sizes too skewed: {sizes:?}");
        assert!(hashed(10, 0).is_err());
        // Deterministic.
        assert_eq!(g, hashed(1000, 7).unwrap());
    }

    #[test]
    fn attribute_grouping_maps_distinct_values() {
        let attrs = vec!["US", "GR", "US", "DE", "GR"];
        let g = by_attribute(&attrs);
        assert_eq!(g.num_groups, 3);
        assert_eq!(g.group_of(VertexId::new(0)), g.group_of(VertexId::new(2)));
        assert_ne!(g.group_of(VertexId::new(0)), g.group_of(VertexId::new(3)));
        // Empty attribute list still yields a valid (single-group) grouping.
        let empty: Vec<&str> = vec![];
        assert_eq!(by_attribute(&empty).num_groups, 1);
    }

    #[test]
    fn degree_clustering_puts_hubs_together() {
        let tin = Tin::from_interactions(3, paper_running_example()).unwrap();
        let g = by_degree(&tin, 2).unwrap();
        assert!(g.validate().is_ok());
        // v1 and v2 move the most quantity in the running example; v0 the
        // least, so v0 must be alone in the low-volume bucket... with 3
        // vertices and 2 groups the first bucket holds 2 vertices.
        assert_eq!(g.group_of(VertexId::new(0)), 1);
        assert_eq!(g.group_sizes(), vec![2, 1]);
        assert!(by_degree(&tin, 0).is_err());
    }

    #[test]
    fn grouping_feeds_the_grouped_tracker() {
        let tin = Tin::from_interactions(3, paper_running_example()).unwrap();
        let grouping = by_degree(&tin, 2).unwrap();
        let mut tracker = build_tracker(&grouping.to_policy(), 3).unwrap();
        tracker.process_all(tin.interactions());
        assert!(tracker.check_all_invariants());
        assert!(tracker.total_buffered() > 0.0);
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let g = Grouping {
            num_groups: 2,
            group_of: vec![0, 5],
        };
        assert!(g.validate().is_err());
        let g = Grouping {
            num_groups: 0,
            group_of: vec![],
        };
        assert!(g.validate().is_err());
    }
}
