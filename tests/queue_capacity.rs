//! Capacity and exact output of the receipt-order queues.
//!
//! The seeded hub-skewed stream of `tests/list_capacity.rs` grows the hubs'
//! FIFO and LIFO queues far past 64 pairs and drains them again, so the
//! queues grow, split pairs, and empty.
//!
//! * `queues_stay_within_their_capacity_bound` checks the bound the queues
//!   keep: a queue of ℓ pairs holds at most `max(64, 2ℓ)` 12-byte slots, so
//!   all queues together take at most twice their pairs plus 64 slots per
//!   vertex.
//! * `receipt_order_output_matches_recorded_hashes` pins the exact state
//!   (every pair's origin and quantity bit pattern, in receipt order, and
//!   every buffered total), so a change to the queues' storage cannot move
//!   a value unnoticed.

use tin::prelude::*;

const VERTICES: u32 = 1_000;
const INTERACTIONS: u32 = 20_000;
/// Interactions between two checks.
const CHECK_EVERY: usize = 2_000;
/// A queue may keep this many slots whatever its length.
const SMALL_QUEUE: usize = 64;
/// Bytes per queue slot: a 4-byte origin and an 8-byte quantity.
const SLOT_BYTES: usize = 12;

/// A seeded stream whose endpoints are drawn as `⌊n·u³⌋` for uniform `u`,
/// so a few hub vertices take part in most interactions and hold long
/// queues, as on the heavy-tailed benchmark traces.
fn hub_skewed_stream() -> Vec<Interaction> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut pick = || (f64::from(VERTICES) * next().powi(3)) as u32;
    (0..INTERACTIONS)
        .map(|i| {
            let src = pick();
            let mut dst = pick();
            if dst == src {
                dst = (src + 1) % VERTICES;
            }
            Interaction::new(src, dst, f64::from(i), 1.0 + f64::from(i % 7))
        })
        .collect()
}

fn trackers() -> [ReceiptOrderTracker; 2] {
    let n = VERTICES as usize;
    [ReceiptOrderTracker::fifo(n), ReceiptOrderTracker::lifo(n)]
}

#[test]
fn queues_stay_within_their_capacity_bound() {
    let stream = hub_skewed_stream();
    for mut tracker in trackers() {
        let name = tracker.name();
        let mut long_queues = 0usize;
        let mut over = Vec::new();
        for chunk in stream.chunks(CHECK_EVERY) {
            tracker.process_all(chunk);
            let at = tracker.interactions_processed();
            for v in 0..VERTICES {
                let queue = tracker.buffer(VertexId::new(v));
                let (len, bytes) = (queue.len(), queue.footprint_bytes());
                long_queues += usize::from(len > SMALL_QUEUE);
                if bytes > SLOT_BYTES * SMALL_QUEUE.max(2 * len) {
                    over.push(format!("v{v} at {at}: {len} pairs in {bytes} bytes"));
                }
            }
            let pairs = tracker.total_pairs();
            let bytes = tracker.footprint().entries_bytes;
            let bound = 2 * SLOT_BYTES * pairs + SLOT_BYTES * SMALL_QUEUE * VERTICES as usize;
            if bytes > bound {
                over.push(format!("at {at}: {bytes} queue bytes for {pairs} pairs"));
            }
        }
        assert!(
            long_queues > 0,
            "{name}: no queue passed {SMALL_QUEUE} pairs"
        );
        assert!(
            over.is_empty(),
            "{name}: {} samples over the bound, first: {}",
            over.len(),
            over[0]
        );
    }
}

/// FNV-1a over 64-bit words: a stable hash, unlike `DefaultHasher`.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Hash every vertex's checkpoint state (its pairs in receipt order) and
/// buffered total after each `CHECK_EVERY` interactions. Also returns the
/// longest queue seen at a check.
fn state_hash(tracker: &mut ReceiptOrderTracker, stream: &[Interaction]) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut longest = 0;
    let mut state = Vec::new();
    for chunk in stream.chunks(CHECK_EVERY) {
        tracker.process_all(chunk);
        for v in (0..VERTICES).map(VertexId::new) {
            state.clear();
            assert!(tracker.encode_vertex_state(v, &mut state));
            for word in state.chunks(8) {
                let mut bytes = [0u8; 8];
                bytes[..word.len()].copy_from_slice(word);
                fnv(&mut hash, u64::from_le_bytes(bytes));
            }
            fnv(&mut hash, tracker.buffered(v).to_bits());
            longest = longest.max(tracker.buffer(v).len());
        }
    }
    (hash, longest)
}

#[test]
fn receipt_order_output_matches_recorded_hashes() {
    let stream = hub_skewed_stream();
    let mut hashes = Vec::new();
    for mut tracker in trackers() {
        let (hash, longest) = state_hash(&mut tracker, &stream);
        // The hub queues grew past the size below which they double.
        assert!(
            longest > 2 * SMALL_QUEUE,
            "{}: longest {longest}",
            tracker.name()
        );
        hashes.push(hash);
    }
    assert_eq!(
        hashes,
        [0x7605_7555_a88e_64e4, 0x697e_43ae_a083_e58f],
        "{hashes:#018x?}"
    );
}
