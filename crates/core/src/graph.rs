//! The temporal interaction network `G(V, E, R)` of Definition 1.
//!
//! A [`Tin`] owns the time-ordered interaction sequence `R` and indexes it by
//! edge `(v, u)` so that the per-edge interaction histories of Figure 3 and
//! the adjacency queries needed by the analytics layer (e.g. the direct
//! neighbours used by the Section 7.6 alerting use case) are cheap.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{Result, TinError};
use crate::ids::VertexId;
use crate::interaction::{sort_by_time, validate_stream, Interaction};
use crate::quantity::{qty_sum, Quantity};

/// Summary statistics of a TIN, mirroring Table 6 of the paper
/// (#nodes, #interactions, average quantity).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TinStats {
    /// Number of vertices |V|.
    pub num_vertices: usize,
    /// Number of directed edges |E| with at least one interaction.
    pub num_edges: usize,
    /// Number of interactions |R|.
    pub num_interactions: usize,
    /// Average transferred quantity over all interactions.
    pub avg_quantity: Quantity,
    /// Total transferred quantity over all interactions.
    pub total_quantity: Quantity,
    /// Time of the first interaction (0 if the TIN is empty).
    pub min_time: f64,
    /// Time of the last interaction (0 if the TIN is empty).
    pub max_time: f64,
}

/// A temporal interaction network: a vertex set `0..num_vertices`, the edge
/// set derived from the interactions, and the time-ordered interaction list.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Tin {
    num_vertices: usize,
    /// Interactions sorted by non-decreasing time.
    interactions: Vec<Interaction>,
    /// For each edge (src, dst): indices into `interactions`, in time order.
    edges: BTreeMap<(VertexId, VertexId), Vec<usize>>,
    /// Out-neighbours per vertex (deduplicated, sorted).
    out_neighbors: Vec<Vec<VertexId>>,
    /// In-neighbours per vertex (deduplicated, sorted).
    in_neighbors: Vec<Vec<VertexId>>,
}

impl Tin {
    /// Build a TIN from a set of interactions.
    ///
    /// * `num_vertices` — size of the vertex set V; every interaction endpoint
    ///   must be a valid index into `0..num_vertices`.
    /// * Interactions are validated and sorted by time (stable sort).
    pub fn from_interactions(
        num_vertices: usize,
        mut interactions: Vec<Interaction>,
    ) -> Result<Self> {
        validate_stream(&interactions, num_vertices)?;
        sort_by_time(&mut interactions);
        let mut edges: BTreeMap<(VertexId, VertexId), Vec<usize>> = BTreeMap::new();
        let mut out_neighbors = vec![Vec::new(); num_vertices];
        let mut in_neighbors = vec![Vec::new(); num_vertices];
        for (i, r) in interactions.iter().enumerate() {
            edges.entry((r.src, r.dst)).or_default().push(i);
            out_neighbors[r.src.index()].push(r.dst);
            in_neighbors[r.dst.index()].push(r.src);
        }
        for list in out_neighbors.iter_mut().chain(in_neighbors.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        Ok(Tin {
            num_vertices,
            interactions,
            edges,
            out_neighbors,
            in_neighbors,
        })
    }

    /// Build a TIN inferring the vertex-set size as `max vertex id + 1`.
    pub fn from_interactions_auto(interactions: Vec<Interaction>) -> Result<Self> {
        let num_vertices = interactions
            .iter()
            .map(|r| r.src.index().max(r.dst.index()) + 1)
            .max()
            .unwrap_or(0);
        Self::from_interactions(num_vertices, interactions)
    }

    /// Number of vertices |V|.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges with at least one interaction.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of interactions |R|.
    #[inline]
    pub fn num_interactions(&self) -> usize {
        self.interactions.len()
    }

    /// The time-ordered interactions.
    #[inline]
    pub fn interactions(&self) -> &[Interaction] {
        &self.interactions
    }

    /// Iterate over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices as u32).map(VertexId::new)
    }

    /// The interaction history on edge `(src, dst)`, in time order
    /// (the `(t, q)` sequences drawn on the edges of Figure 3).
    pub fn edge_history(&self, src: VertexId, dst: VertexId) -> Vec<&Interaction> {
        self.edges
            .get(&(src, dst))
            .map(|idx| idx.iter().map(|&i| &self.interactions[i]).collect())
            .unwrap_or_default()
    }

    /// Out-neighbours of `v` (vertices `u` such that `v` transferred to `u`
    /// at least once).
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out_neighbors
            .get(v.index())
            .map(|x| x.as_slice())
            .unwrap_or(&[])
    }

    /// In-neighbours of `v` (vertices `u` such that `u` transferred to `v`
    /// at least once). These are the "direct neighbours" of the Section 7.6
    /// alerting use case.
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_neighbors
            .get(v.index())
            .map(|x| x.as_slice())
            .unwrap_or(&[])
    }

    /// Out-degree of `v` in the static graph induced by the interactions.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v` in the static graph induced by the interactions.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Total quantity generated... more precisely: total quantity *sent* by
    /// each vertex across all its outgoing interactions. Used e.g. to pick the
    /// top-k contributing vertices for selective provenance (Section 7.3).
    pub fn total_sent_per_vertex(&self) -> Vec<Quantity> {
        let mut sent = vec![0.0; self.num_vertices];
        for r in &self.interactions {
            sent[r.src.index()] += r.qty;
        }
        sent
    }

    /// Total quantity received by each vertex across all incoming interactions.
    pub fn total_received_per_vertex(&self) -> Vec<Quantity> {
        let mut recv = vec![0.0; self.num_vertices];
        for r in &self.interactions {
            recv[r.dst.index()] += r.qty;
        }
        recv
    }

    /// Summary statistics (Table 6 style).
    pub fn stats(&self) -> TinStats {
        let total_quantity = qty_sum(self.interactions.iter().map(|r| r.qty));
        let n = self.interactions.len();
        TinStats {
            num_vertices: self.num_vertices,
            num_edges: self.edges.len(),
            num_interactions: n,
            avg_quantity: if n == 0 {
                0.0
            } else {
                total_quantity / n as f64
            },
            total_quantity,
            min_time: self.interactions.first().map(|r| r.time.0).unwrap_or(0.0),
            max_time: self.interactions.last().map(|r| r.time.0).unwrap_or(0.0),
        }
    }

    /// Returns the `k` vertices that send the largest total quantity, in
    /// descending order of sent quantity (ties broken by vertex id). This is
    /// how the paper selects the tracked set for selective provenance
    /// (Section 7.3: "we select the top-k contributing vertices").
    pub fn top_k_senders(&self, k: usize) -> Vec<VertexId> {
        let sent = self.total_sent_per_vertex();
        let mut order: Vec<VertexId> = self.vertices().collect();
        order.sort_by(|a, b| {
            sent[b.index()]
                .total_cmp(&sent[a.index()])
                .then_with(|| a.cmp(b))
        });
        order.truncate(k);
        order
    }

    /// Take a prefix of the first `n` interactions as a new TIN over the same
    /// vertex set (used by the cumulative-cost experiment, Figure 6).
    pub fn prefix(&self, n: usize) -> Tin {
        let interactions = self.interactions[..n.min(self.interactions.len())].to_vec();
        Tin::from_interactions(self.num_vertices, interactions)
            .expect("prefix of a valid TIN is valid")
    }
}

impl TryFrom<Vec<Interaction>> for Tin {
    type Error = TinError;

    fn try_from(interactions: Vec<Interaction>) -> Result<Self> {
        Tin::from_interactions_auto(interactions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::{is_sorted_by_time, paper_running_example};

    fn example_tin() -> Tin {
        Tin::from_interactions(3, paper_running_example()).unwrap()
    }

    #[test]
    fn builds_from_running_example() {
        let tin = example_tin();
        assert_eq!(tin.num_vertices(), 3);
        assert_eq!(tin.num_interactions(), 6);
        // Figure 3(b): edges v1->v2, v2->v0, v0->v1, v2->v1.
        assert_eq!(tin.num_edges(), 4);
    }

    #[test]
    fn edge_history_matches_figure3() {
        let tin = example_tin();
        let h = tin.edge_history(VertexId::new(1), VertexId::new(2));
        assert_eq!(h.len(), 2);
        assert_eq!((h[0].time.value(), h[0].qty), (1.0, 3.0));
        assert_eq!((h[1].time.value(), h[1].qty), (5.0, 7.0));
        let h = tin.edge_history(VertexId::new(2), VertexId::new(0));
        assert_eq!(h.len(), 2);
        assert_eq!((h[0].time.value(), h[0].qty), (3.0, 5.0));
        assert_eq!((h[1].time.value(), h[1].qty), (8.0, 1.0));
        // Non-existent edge.
        assert!(tin
            .edge_history(VertexId::new(0), VertexId::new(2))
            .is_empty());
    }

    #[test]
    fn neighbors_and_degrees() {
        let tin = example_tin();
        assert_eq!(
            tin.out_neighbors(VertexId::new(2)),
            &[VertexId::new(0), VertexId::new(1)]
        );
        assert_eq!(tin.in_neighbors(VertexId::new(0)), &[VertexId::new(2)]);
        assert_eq!(tin.out_degree(VertexId::new(2)), 2);
        assert_eq!(tin.in_degree(VertexId::new(2)), 1);
        assert_eq!(tin.in_neighbors(VertexId::new(99)), &[] as &[VertexId]);
    }

    #[test]
    fn stats_match_running_example() {
        let tin = example_tin();
        let s = tin.stats();
        assert_eq!(s.num_vertices, 3);
        assert_eq!(s.num_interactions, 6);
        assert_eq!(s.total_quantity, 3.0 + 5.0 + 3.0 + 7.0 + 2.0 + 1.0);
        assert!((s.avg_quantity - s.total_quantity / 6.0).abs() < 1e-12);
        assert_eq!(s.min_time, 1.0);
        assert_eq!(s.max_time, 8.0);
    }

    #[test]
    fn stats_of_empty_tin() {
        let tin = Tin::from_interactions(5, vec![]).unwrap();
        let s = tin.stats();
        assert_eq!(s.num_interactions, 0);
        assert_eq!(s.avg_quantity, 0.0);
        assert_eq!(s.num_edges, 0);
    }

    #[test]
    fn unsorted_input_gets_sorted() {
        let mut rs = paper_running_example();
        rs.reverse();
        let tin = Tin::from_interactions(3, rs).unwrap();
        assert!(is_sorted_by_time(tin.interactions()));
        assert_eq!(tin.interactions()[0].time.value(), 1.0);
    }

    #[test]
    fn auto_vertex_count() {
        let tin = Tin::from_interactions_auto(paper_running_example()).unwrap();
        assert_eq!(tin.num_vertices(), 3);
        let tin = Tin::try_from(paper_running_example()).unwrap();
        assert_eq!(tin.num_vertices(), 3);
    }

    #[test]
    fn rejects_unknown_vertex() {
        let rs = paper_running_example();
        let err = Tin::from_interactions(2, rs).unwrap_err();
        assert!(matches!(err, TinError::UnknownVertex { .. }));
    }

    #[test]
    fn sent_and_received_totals() {
        let tin = example_tin();
        let sent = tin.total_sent_per_vertex();
        // v0 sends 3; v1 sends 3 + 7 = 10; v2 sends 5 + 2 + 1 = 8.
        assert_eq!(sent, vec![3.0, 10.0, 8.0]);
        let recv = tin.total_received_per_vertex();
        // v0 receives 5 + 1 = 6; v1 receives 3 + 2 = 5; v2 receives 3 + 7 = 10.
        assert_eq!(recv, vec![6.0, 5.0, 10.0]);
    }

    #[test]
    fn top_k_senders_ordering() {
        let tin = example_tin();
        assert_eq!(
            tin.top_k_senders(2),
            vec![VertexId::new(1), VertexId::new(2)]
        );
        assert_eq!(tin.top_k_senders(0), vec![]);
        assert_eq!(tin.top_k_senders(10).len(), 3);
    }

    #[test]
    fn prefix_takes_first_interactions() {
        let tin = example_tin();
        let p = tin.prefix(2);
        assert_eq!(p.num_interactions(), 2);
        assert_eq!(p.num_vertices(), 3);
        assert_eq!(p.interactions()[1].time.value(), 3.0);
        // Prefix longer than the stream returns the whole stream.
        assert_eq!(tin.prefix(100).num_interactions(), 6);
    }

    #[test]
    fn vertices_iterator() {
        let tin = example_tin();
        let vs: Vec<VertexId> = tin.vertices().collect();
        assert_eq!(
            vs,
            vec![VertexId::new(0), VertexId::new(1), VertexId::new(2)]
        );
    }
}
