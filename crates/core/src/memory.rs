//! Logical memory accounting.
//!
//! The paper's Tables 8 and 10 and Figures 5–8 report the *memory
//! requirements* of each provenance mechanism. Besides the allocator-level
//! peak tracking provided by the `tin-memstats` crate, every tracker exposes a
//! logical footprint through [`MemoryFootprint`]: the number of bytes needed
//! to store its provenance state (buffers, provenance vectors/lists, paths),
//! independent of allocator overhead. The experiment harness reports both.

/// Types that can report the number of heap bytes their provenance state
/// occupies.
pub trait MemoryFootprint {
    /// Bytes of provenance state currently held (entries, vectors, lists,
    /// paths), excluding the object's own inline size.
    fn footprint_bytes(&self) -> usize;
}

/// Detailed breakdown of a tracker's memory footprint, used by the harness to
/// reproduce Table 10's split between "mem entries" and "mem paths".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FootprintBreakdown {
    /// Bytes used by provenance entries (triples, pairs, vector slots).
    pub entries_bytes: usize,
    /// Bytes used by transfer paths (how-provenance, Section 6).
    pub paths_bytes: usize,
    /// Bytes used by auxiliary indexes (heaps, maps, group tables).
    pub index_bytes: usize,
}

impl FootprintBreakdown {
    /// Total bytes across all components.
    pub fn total(&self) -> usize {
        self.entries_bytes + self.paths_bytes + self.index_bytes
    }
}

/// Summed footprint of a collection of containers: the full recount that
/// trackers check their running byte counters against.
pub(crate) fn total_footprint<'a, T: MemoryFootprint + 'a>(
    items: impl IntoIterator<Item = &'a T>,
) -> usize {
    items
        .into_iter()
        .map(MemoryFootprint::footprint_bytes)
        .sum()
}

/// Buffers that need at most this many slots grow by doubling; longer ones
/// grow by an eighth of their length (see [`grown_capacity`]).
pub(crate) const SMALL_BUFFER: usize = 64;

/// The capacity a buffer of `len` elements in `capacity` slots grows to
/// when it needs room for `extra` more. The sparse provenance lists and the
/// receipt-order queues share this rule, and reserve the result with
/// `reserve_exact`:
///
/// * while the result fits in [`SMALL_BUFFER`] slots, double (from at
///   least 4 slots, as `Vec` does);
/// * beyond that, grow by `max(extra, len/8)`, so a long buffer keeps at
///   most an eighth of its length spare after growing, where doubling
///   would leave up to half.
#[inline]
pub(crate) fn grown_capacity(len: usize, capacity: usize, extra: usize) -> usize {
    let need = len + extra;
    if need > SMALL_BUFFER {
        len + extra.max(len / 8)
    } else {
        need.max(2 * capacity).clamp(4, SMALL_BUFFER)
    }
}

/// Helper: bytes of the spine + elements of a `Vec<T>` (capacity-based, since
/// capacity is what the allocator actually reserved).
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Helper: bytes of a `VecDeque<T>`'s ring buffer.
pub fn deque_bytes<T>(v: &std::collections::VecDeque<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Helper: approximate bytes of a `BinaryHeap<T>`.
pub fn heap_bytes<T>(h: &std::collections::BinaryHeap<T>) -> usize {
    h.capacity() * std::mem::size_of::<T>()
}

/// Relative-drift detector behind the tracker footprint-spike notifications
/// (`ProvenanceTracker::arm_spike_monitor`).
///
/// Monitored trackers keep their entries bytes as an O(1) running counter
/// (the same counter `ProvenanceTracker::footprint` reports). The monitor
/// remembers the counter's value at the last engine sample and raises a
/// spike once the counter drifted from it by more than the armed fraction.
/// The engine then records a footprint sample and re-baselines, so the
/// number of extra samples is logarithmic in the footprint growth rather
/// than linear in the stream.
#[derive(Clone, Copy, Debug)]
pub struct SpikeMonitor {
    /// Relative drift (e.g. 0.25 = 25%) that raises a spike.
    fraction: f64,
    /// Counter value at the last baseline (engine sample).
    baseline: usize,
}

impl SpikeMonitor {
    /// Create a monitor with the given relative threshold, baselined at the
    /// tracker's current byte counter.
    pub fn new(fraction: f64, bytes: usize) -> Self {
        SpikeMonitor {
            fraction: fraction.max(0.0),
            baseline: bytes,
        }
    }

    /// Re-baseline at the current byte counter. The engine calls this (via
    /// `ProvenanceTracker::note_footprint_sampled`) whenever it takes a
    /// footprint sample for any reason, so drift is always measured against
    /// the *last sample* — without it, sub-threshold drift accumulated
    /// before a periodic sample would fire a redundant spike (and a second
    /// sample) moments after.
    #[inline]
    pub fn rebaseline(&mut self, bytes: usize) {
        self.baseline = bytes;
    }

    /// True if the byte counter drifted by more than the armed fraction
    /// since the last baseline; reading a spike re-baselines the monitor
    /// (the caller is expected to take a sample right after).
    #[inline]
    pub fn take_spike(&mut self, bytes: usize) -> bool {
        let drift = bytes.abs_diff(self.baseline);
        // A fixed floor keeps near-empty trackers from spiking on every
        // interaction (any growth is "infinite" relative to an empty state).
        const MIN_DRIFT_BYTES: usize = 4096;
        if drift >= MIN_DRIFT_BYTES && drift as f64 > self.fraction * self.baseline.max(1) as f64 {
            self.baseline = bytes;
            true
        } else {
            false
        }
    }
}

/// Format a byte count the way the paper's tables do (KB / MB / GB).
pub fn format_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2}GB", b / GB)
    } else if b >= MB {
        format!("{:.2}MB", b / MB)
    } else if b >= KB {
        format!("{:.2}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BinaryHeap, VecDeque};

    #[test]
    fn breakdown_total() {
        let b = FootprintBreakdown {
            entries_bytes: 10,
            paths_bytes: 20,
            index_bytes: 5,
        };
        assert_eq!(b.total(), 35);
        assert_eq!(FootprintBreakdown::default().total(), 0);
    }

    #[test]
    fn vec_bytes_uses_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(vec_bytes(&v), 16 * 8);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(vec_bytes(&empty), 0);
    }

    #[test]
    fn deque_and_heap_bytes() {
        let mut d: VecDeque<u32> = VecDeque::with_capacity(8);
        d.push_back(1);
        assert!(deque_bytes(&d) >= 8 * 4);
        let mut h: BinaryHeap<u16> = BinaryHeap::with_capacity(4);
        h.push(3);
        assert!(heap_bytes(&h) >= 4 * 2);
    }

    #[test]
    fn buffers_double_to_64_slots_then_grow_by_an_eighth() {
        assert_eq!(grown_capacity(0, 0, 1), 4);
        assert_eq!(grown_capacity(4, 4, 1), 8);
        assert_eq!(grown_capacity(32, 32, 1), 64);
        assert_eq!(grown_capacity(40, 40, 30), 70);
        assert_eq!(grown_capacity(64, 64, 1), 72);
        assert_eq!(grown_capacity(800, 800, 1), 900);
        assert_eq!(grown_capacity(800, 800, 500), 1300);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(2048), "2.00KB");
        assert_eq!(format_bytes(5 * 1024 * 1024), "5.00MB");
        assert_eq!(format_bytes(3 * 1024 * 1024 * 1024), "3.00GB");
    }
}
