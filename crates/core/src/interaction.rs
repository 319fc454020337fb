//! Interactions: the quadruples ⟨r.s, r.d, r.t, r.q⟩ of Definition 1.

use serde::{Deserialize, Serialize};

use crate::error::{Result, TinError};
use crate::ids::{Timestamp, VertexId};
use crate::quantity::{qty_is_valid_transfer, Quantity};

/// A single interaction `r ∈ R`: at time `r.t`, vertex `r.s` transfers
/// quantity `r.q` to vertex `r.d`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Interaction {
    /// Source vertex `r.s`.
    pub src: VertexId,
    /// Destination vertex `r.d`.
    pub dst: VertexId,
    /// Time `r.t` at which the interaction took place.
    pub time: Timestamp,
    /// Quantity `r.q` transferred from `src` to `dst`.
    pub qty: Quantity,
}

impl Interaction {
    /// Construct an interaction without validation.
    #[inline]
    pub fn new(
        src: impl Into<VertexId>,
        dst: impl Into<VertexId>,
        time: impl Into<Timestamp>,
        qty: Quantity,
    ) -> Self {
        Interaction {
            src: src.into(),
            dst: dst.into(),
            time: time.into(),
            qty,
        }
    }

    /// Construct an interaction, validating quantity, timestamp and the
    /// absence of a self-loop.
    pub fn try_new(
        src: impl Into<VertexId>,
        dst: impl Into<VertexId>,
        time: impl Into<Timestamp>,
        qty: Quantity,
    ) -> Result<Self> {
        let r = Self::new(src, dst, time, qty);
        r.validate(None)?;
        Ok(r)
    }

    /// Validate this interaction. `position` is the index in the stream, used
    /// only to produce better error messages.
    pub fn validate(&self, position: Option<usize>) -> Result<()> {
        if !qty_is_valid_transfer(self.qty) {
            return Err(TinError::InvalidQuantity {
                quantity: self.qty,
                position,
            });
        }
        if !self.time.0.is_finite() || self.time.0 < 0.0 {
            return Err(TinError::InvalidTimestamp {
                timestamp: self.time.0,
                position,
            });
        }
        if self.src == self.dst {
            return Err(TinError::SelfLoop {
                vertex: self.src,
                position,
            });
        }
        Ok(())
    }

    /// True when this interaction is well formed (see [`Interaction::validate`]).
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.validate(None).is_ok()
    }
}

/// Sort interactions in place by time (stable, so simultaneous interactions
/// keep their input order, matching the paper's "in order of time" processing).
/// A slice already in order is left as it is, without the sort's scratch
/// buffer.
pub fn sort_by_time(interactions: &mut [Interaction]) {
    if !is_sorted_by_time(interactions) {
        interactions.sort_by_key(|a| a.time);
    }
}

/// Check whether a slice of interactions is sorted by non-decreasing time.
pub fn is_sorted_by_time(interactions: &[Interaction]) -> bool {
    interactions.windows(2).all(|w| w[0].time <= w[1].time)
}

/// Validate a whole slice of interactions against a vertex-set size,
/// returning the first error found.
pub fn validate_stream(interactions: &[Interaction], num_vertices: usize) -> Result<()> {
    for (i, r) in interactions.iter().enumerate() {
        r.validate(Some(i))?;
        for v in [r.src, r.dst] {
            if v.index() >= num_vertices {
                return Err(TinError::UnknownVertex {
                    vertex: v,
                    num_vertices,
                });
            }
        }
    }
    Ok(())
}

/// The six-interaction running example of the paper (Figure 3), used by the
/// unit tests that reproduce Tables 2–5 and handy for doc examples.
///
/// ```
/// use tin_core::interaction::paper_running_example;
/// let r = paper_running_example();
/// assert_eq!(r.len(), 6);
/// assert_eq!(r[0].qty, 3.0);
/// ```
pub fn paper_running_example() -> Vec<Interaction> {
    vec![
        Interaction::new(1u32, 2u32, 1.0, 3.0),
        Interaction::new(2u32, 0u32, 3.0, 5.0),
        Interaction::new(0u32, 1u32, 4.0, 3.0),
        Interaction::new(1u32, 2u32, 5.0, 7.0),
        Interaction::new(2u32, 1u32, 7.0, 2.0),
        Interaction::new(2u32, 0u32, 8.0, 1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let r = Interaction::new(0u32, 1u32, 2.5, 10.0);
        assert_eq!(r.src, VertexId::new(0));
        assert_eq!(r.dst, VertexId::new(1));
        assert_eq!(r.time, Timestamp::new(2.5));
        assert_eq!(r.qty, 10.0);
    }

    #[test]
    fn try_new_accepts_valid() {
        assert!(Interaction::try_new(0u32, 1u32, 0.0, 0.5).is_ok());
    }

    #[test]
    fn try_new_rejects_zero_quantity() {
        let e = Interaction::try_new(0u32, 1u32, 1.0, 0.0).unwrap_err();
        assert!(matches!(e, TinError::InvalidQuantity { .. }));
    }

    #[test]
    fn try_new_rejects_negative_quantity() {
        let e = Interaction::try_new(0u32, 1u32, 1.0, -2.0).unwrap_err();
        assert!(matches!(e, TinError::InvalidQuantity { .. }));
    }

    #[test]
    fn try_new_rejects_nan_time() {
        let e = Interaction::try_new(0u32, 1u32, f64::NAN, 1.0).unwrap_err();
        assert!(matches!(e, TinError::InvalidTimestamp { .. }));
    }

    #[test]
    fn try_new_rejects_negative_time() {
        let e = Interaction::try_new(0u32, 1u32, -1.0, 1.0).unwrap_err();
        assert!(matches!(e, TinError::InvalidTimestamp { .. }));
    }

    #[test]
    fn try_new_rejects_self_loop() {
        let e = Interaction::try_new(3u32, 3u32, 1.0, 1.0).unwrap_err();
        assert!(matches!(e, TinError::SelfLoop { .. }));
    }

    #[test]
    fn sort_is_stable_for_ties() {
        let mut rs = vec![
            Interaction::new(0u32, 1u32, 2.0, 1.0),
            Interaction::new(1u32, 2u32, 1.0, 2.0),
            Interaction::new(2u32, 0u32, 2.0, 3.0),
        ];
        sort_by_time(&mut rs);
        assert!(is_sorted_by_time(&rs));
        // The two time-2.0 interactions keep their relative input order.
        assert_eq!(rs[1].qty, 1.0);
        assert_eq!(rs[2].qty, 3.0);
    }

    #[test]
    fn sorted_detection() {
        let rs = paper_running_example();
        assert!(is_sorted_by_time(&rs));
        let mut rev = rs.clone();
        rev.reverse();
        assert!(!is_sorted_by_time(&rev));
        assert!(is_sorted_by_time(&[]));
        assert!(is_sorted_by_time(&rs[..1]));
    }

    /// Over every sequence of up to six times drawn from {-0.0, 0.0, 1.0,
    /// 2.0}, `is_sorted_by_time` holds exactly when the stable sort would
    /// leave the sequence as it is, so `sort_by_time` may skip it then.
    #[test]
    fn sorted_check_agrees_with_the_sort() {
        const TIMES: [f64; 4] = [-0.0, 0.0, 1.0, 2.0];
        for len in 0..=6u32 {
            for code in 0..TIMES.len().pow(len) {
                // Distinct quantities identify each interaction's position.
                let rs: Vec<Interaction> = (0..len)
                    .map(|i| {
                        let t = TIMES[code / TIMES.len().pow(i) % TIMES.len()];
                        Interaction::new(0u32, 1u32, t, f64::from(i) + 1.0)
                    })
                    .collect();
                let order = |rs: &[Interaction]| rs.iter().map(|r| r.qty).collect::<Vec<_>>();
                let mut sorted = rs.clone();
                sorted.sort_by_key(|a| a.time);
                assert_eq!(
                    is_sorted_by_time(&rs),
                    order(&sorted) == order(&rs),
                    "{rs:?}"
                );
            }
        }
    }

    #[test]
    fn validate_stream_detects_unknown_vertex() {
        let rs = paper_running_example();
        assert!(validate_stream(&rs, 3).is_ok());
        let e = validate_stream(&rs, 2).unwrap_err();
        assert!(matches!(e, TinError::UnknownVertex { .. }));
    }

    #[test]
    fn validate_stream_reports_position() {
        let rs = vec![
            Interaction::new(0u32, 1u32, 1.0, 1.0),
            Interaction::new(0u32, 1u32, 2.0, -5.0),
        ];
        match validate_stream(&rs, 2).unwrap_err() {
            TinError::InvalidQuantity { position, .. } => assert_eq!(position, Some(1)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn running_example_matches_figure3() {
        let rs = paper_running_example();
        assert_eq!(rs.len(), 6);
        // Second interaction: v2 -> v0 at time 3 with quantity 5.
        assert_eq!(rs[1].src, VertexId::new(2));
        assert_eq!(rs[1].dst, VertexId::new(0));
        assert_eq!(rs[1].time.value(), 3.0);
        assert_eq!(rs[1].qty, 5.0);
        assert!(validate_stream(&rs, 3).is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let r = Interaction::new(4u32, 5u32, 9.0, 2.25);
        let json = serde_json_like(&r);
        assert!(json.contains("4") && json.contains("2.25"));
    }

    /// Minimal smoke check that the Serialize impl works without pulling in
    /// serde_json as a dependency: serialize to a debug-ish string via
    /// serde's fmt machinery is not available, so just check Debug here and
    /// that the derive compiles.
    fn serde_json_like(r: &Interaction) -> String {
        format!("{r:?}")
    }
}
