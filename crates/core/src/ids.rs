//! Identifier newtypes used throughout the TIN provenance library.
//!
//! The paper (Table 1) indexes vertices, groups of vertices and time moments.
//! We keep these as thin newtypes so that indices cannot be accidentally mixed
//! (e.g. a group id used where a vertex id is expected), while remaining
//! `Copy` and as cheap as the underlying integer / float.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a vertex `v ∈ V` of the temporal interaction network.
///
/// Vertex ids are dense indices in `0..|V|`, which lets trackers use them
/// directly as positions into dense provenance vectors `p_v` (Section 4.3 of
/// the paper).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Create a vertex id from a raw dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        VertexId(raw)
    }

    /// The raw dense index of this vertex.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(raw: u32) -> Self {
        VertexId(raw)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(v: VertexId) -> Self {
        v.0
    }
}

impl From<usize> for VertexId {
    /// Convert a dense index into a vertex id.
    ///
    /// # Panics
    /// Panics if `raw` does not fit in `u32`; TINs with more than 4.29 billion
    /// vertices are out of scope (the largest dataset in the paper has 12M).
    #[inline]
    fn from(raw: usize) -> Self {
        VertexId(u32::try_from(raw).expect("vertex index exceeds u32::MAX"))
    }
}

/// Identifier of a *group* of vertices, used by grouped provenance tracking
/// (Section 5.2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Create a group id from a raw dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        GroupId(raw)
    }

    /// The raw dense index of this group.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for GroupId {
    #[inline]
    fn from(raw: u32) -> Self {
        GroupId(raw)
    }
}

/// Origin of a quantity, as reported by provenance queries.
///
/// Most of the time an origin is a concrete [`VertexId`] (the vertex that
/// generated the quantity), but the scope-limiting techniques of Section 5.3
/// introduce the *artificial vertex α* representing "some vertex, no longer
/// tracked", and the selective/grouped techniques of Sections 5.1–5.2 report
/// aggregated origins ("any non-tracked vertex", "group g").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Origin {
    /// A concrete origin vertex.
    Vertex(VertexId),
    /// A group of vertices (grouped provenance tracking, Section 5.2).
    Group(GroupId),
    /// Any vertex outside the tracked set (selective tracking, Section 5.1).
    Untracked,
    /// The artificial vertex α: provenance that was discarded by windowing or
    /// budget shrinking (Section 5.3).
    Unknown,
}

impl Origin {
    /// Returns the concrete vertex if this origin is a single vertex.
    #[inline]
    pub fn as_vertex(self) -> Option<VertexId> {
        match self {
            Origin::Vertex(v) => Some(v),
            _ => None,
        }
    }

    /// True if this origin is the artificial vertex α or the aggregated
    /// "untracked" bucket, i.e. it does not identify a concrete source.
    #[inline]
    pub fn is_aggregate(self) -> bool {
        !matches!(self, Origin::Vertex(_))
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Vertex(v) => write!(f, "{v}"),
            Origin::Group(g) => write!(f, "{g}"),
            Origin::Untracked => write!(f, "other"),
            Origin::Unknown => write!(f, "α"),
        }
    }
}

impl From<VertexId> for Origin {
    #[inline]
    fn from(v: VertexId) -> Self {
        Origin::Vertex(v)
    }
}

/// A point in time. Interaction timestamps `r.t ∈ ℝ⁺` (Definition 1).
///
/// Stored as `f64` seconds (or any consistent unit); only the ordering matters
/// to the algorithms.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Timestamp(pub f64);

impl Timestamp {
    /// Construct a timestamp from a raw value.
    #[inline]
    pub const fn new(t: f64) -> Self {
        Timestamp(t)
    }

    /// The zero timestamp.
    pub const ZERO: Timestamp = Timestamp(0.0);

    /// Raw value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl From<f64> for Timestamp {
    #[inline]
    fn from(t: f64) -> Self {
        Timestamp(t)
    }
}

impl Eq for Timestamp {}

impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timestamp {
    /// Total order over timestamps.
    ///
    /// Interaction timestamps are finite non-negative reals (Definition 1).
    /// On every value but NaN this is `f64`'s own order, so `cmp`, `<` and
    /// `==` agree on every timestamp [`crate::interaction::Interaction::validate`]
    /// accepts, `-0.0 == 0.0` included. NaN, which validation refuses,
    /// falls back to `total_cmp` so that the order stays total: NaN sorts
    /// after every real value.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or_else(|| self.0.total_cmp(&other.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(VertexId::from(42u32), v);
        assert_eq!(VertexId::from(42usize), v);
    }

    #[test]
    fn vertex_id_display() {
        assert_eq!(VertexId::new(7).to_string(), "v7");
        assert_eq!(format!("{:?}", VertexId::new(7)), "v7");
    }

    #[test]
    fn group_id_roundtrip() {
        let g = GroupId::new(3);
        assert_eq!(g.index(), 3);
        assert_eq!(g.to_string(), "g3");
        assert_eq!(GroupId::from(3u32), g);
    }

    #[test]
    fn origin_vertex_accessors() {
        let o = Origin::Vertex(VertexId::new(5));
        assert_eq!(o.as_vertex(), Some(VertexId::new(5)));
        assert!(!o.is_aggregate());
    }

    #[test]
    fn origin_aggregate_kinds() {
        assert!(Origin::Unknown.is_aggregate());
        assert!(Origin::Untracked.is_aggregate());
        assert!(Origin::Group(GroupId::new(0)).is_aggregate());
        assert_eq!(Origin::Unknown.as_vertex(), None);
    }

    #[test]
    fn origin_display() {
        assert_eq!(Origin::Vertex(VertexId::new(1)).to_string(), "v1");
        assert_eq!(Origin::Group(GroupId::new(2)).to_string(), "g2");
        assert_eq!(Origin::Untracked.to_string(), "other");
        assert_eq!(Origin::Unknown.to_string(), "α");
    }

    #[test]
    fn origin_ordering_is_stable() {
        let mut origins = vec![
            Origin::Unknown,
            Origin::Vertex(VertexId::new(9)),
            Origin::Vertex(VertexId::new(1)),
            Origin::Untracked,
        ];
        origins.sort();
        assert_eq!(
            origins,
            vec![
                Origin::Vertex(VertexId::new(1)),
                Origin::Vertex(VertexId::new(9)),
                Origin::Untracked,
                Origin::Unknown,
            ]
        );
    }

    #[test]
    fn timestamp_ordering() {
        let a = Timestamp::new(1.0);
        let b = Timestamp::new(2.5);
        assert!(a < b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Less);
        assert_eq!(Timestamp::ZERO.value(), 0.0);
        assert_eq!(Timestamp::from(3.0).value(), 3.0);
    }

    #[test]
    fn timestamp_cmp_agrees_with_lt_and_eq_on_valid_times() {
        let times = [-0.0, 0.0, 1.0, 2.0].map(Timestamp::new);
        for a in times {
            for b in times {
                let ord = a.cmp(&b);
                assert_eq!(a.partial_cmp(&b), Some(ord), "{a} vs {b}");
                assert_eq!(a.0.partial_cmp(&b.0), Some(ord), "{a} vs {b}");
                assert_eq!(a == b, ord.is_eq(), "{a} vs {b}");
                assert_eq!(a < b, ord.is_lt(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn timestamp_total_order_handles_nan() {
        let nan = Timestamp::new(f64::NAN);
        let one = Timestamp::new(1.0);
        // NaN sorts after finite values under total_cmp.
        assert_eq!(one.cmp(&nan), std::cmp::Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "vertex index exceeds u32::MAX")]
    fn vertex_id_from_huge_usize_panics() {
        let _ = VertexId::from(usize::MAX);
    }
}
