//! Capacity and exact output of the sparse provenance lists.
//!
//! A seeded hub-skewed stream grows the hubs' lists far past `SMALL_TAIL`
//! (64) entries, so every relay path of `sparse_vec` runs: the in-place
//! matched prefix, per-entry insertion, the full rebuild of a large
//! remainder, and full relays that empty a hub.
//!
//! * `sparse_lists_stay_within_their_capacity_bound` checks the bound the
//!   kernels keep: a list of 64 entries or more holds at most `len/8` spare
//!   slots, an emptied list keeps at most 64, and so all lists together
//!   take at most 1/8 more than their entries plus 64 slots per vertex.
//! * `relay_output_matches_recorded_hashes` pins the exact state (every
//!   origin's quantity bit pattern and every buffered total) of the three
//!   list-based trackers, so a kernel change that moves capacities cannot
//!   move a value unnoticed.

use tin::prelude::*;

const VERTICES: u32 = 1_000;
const INTERACTIONS: u32 = 20_000;
/// Interactions between two checks.
const CHECK_EVERY: usize = 2_000;
/// Lists at least this long keep at most `len/8` spare slots, and an empty
/// list keeps at most this many (the kernels' `SMALL_TAIL`).
const SMALL_TAIL: usize = 64;
/// Bytes per list slot: a 4-byte packed key and an 8-byte quantity.
const SLOT_BYTES: usize = 12;

/// A seeded stream whose endpoints are drawn as `⌊n·u³⌋` for uniform `u`,
/// so a few hub vertices take part in most interactions and hold long
/// lists, as on the heavy-tailed benchmark traces.
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

#[test]
fn sparse_lists_stay_within_their_capacity_bound() {
    let stream = hub_skewed_stream();
    let mut tracker = ProportionalSparseTracker::new(VERTICES as usize);
    let mut long_lists = 0usize;
    let mut empty_lists = 0usize;
    let mut over = Vec::new();
    for chunk in stream.chunks(CHECK_EVERY) {
        tracker.process_all(chunk);
        let at = tracker.interactions_processed();
        for v in 0..VERTICES {
            let list = tracker.vector(VertexId::new(v));
            let (len, capacity) = (list.len(), list.footprint_bytes() / SLOT_BYTES);
            if len >= SMALL_TAIL {
                long_lists += 1;
                if capacity > len + len / 8 {
                    over.push(format!("v{v} at {at}: {len} entries in {capacity} slots"));
                }
            } else if len == 0 {
                empty_lists += 1;
                if capacity > SMALL_TAIL {
                    over.push(format!("empty v{v} at {at}: {capacity} slots"));
                }
            }
        }
        let entries = tracker.total_entries();
        let bytes = tracker.footprint().entries_bytes;
        let bound = 9 * SLOT_BYTES * entries / 8 + SLOT_BYTES * SMALL_TAIL * VERTICES as usize;
        if bytes > bound {
            over.push(format!("at {at}: {bytes} list bytes for {entries} entries"));
        }
    }
    // Both bounds were exercised.
    assert!(
        long_lists > 0 && empty_lists > 0,
        "{long_lists} long, {empty_lists} empty"
    );
    assert!(
        over.is_empty(),
        "{} samples over the bound ({long_lists} long and {empty_lists} empty lists), first: {}",
        over.len(),
        over[0]
    );
}

/// FNV-1a over 64-bit words: a stable hash, unlike `DefaultHasher`.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Hash every vertex's checkpoint state after each `CHECK_EVERY`
/// interactions: each list's origin keys and quantity bit patterns (both
/// families of a windowed tracker) and the buffered total. Also returns
/// the longest final origin set.
fn state_hash(config: &PolicyConfig, stream: &[Interaction]) -> (u64, usize) {
    let mut tracker = build_tracker(config, VERTICES as usize).unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut state = Vec::new();
    for chunk in stream.chunks(CHECK_EVERY) {
        tracker.process_all(chunk);
        for v in 0..VERTICES {
            state.clear();
            assert!(tracker.encode_vertex_state(VertexId::new(v), &mut state));
            for word in state.chunks(8) {
                let mut bytes = [0u8; 8];
                bytes[..word.len()].copy_from_slice(word);
                fnv(&mut hash, u64::from_le_bytes(bytes));
            }
        }
    }
    let longest = (0..VERTICES)
        .map(|v| tracker.origins(VertexId::new(v)).len())
        .max()
        .unwrap_or(0);
    (hash, longest)
}

#[test]
fn relay_output_matches_recorded_hashes() {
    let stream = hub_skewed_stream();
    let configs = [
        PolicyConfig::Plain(SelectionPolicy::ProportionalSparse),
        PolicyConfig::budget(256),
        PolicyConfig::Windowed { window: 4_096 },
    ];
    let mut hashes = Vec::new();
    for config in &configs {
        let (hash, longest) = state_hash(config, &stream);
        // The lists grew long enough to take the large-remainder merge.
        assert!(
            longest > 2 * SMALL_TAIL,
            "{}: longest {longest}",
            config.key()
        );
        hashes.push(hash);
    }
    assert_eq!(
        hashes,
        [
            0x9ef4_0136_6829_a302,
            0x5f02_e949_f4ec_11d4,
            0x7ce7_d8f1_f3f9_56c5
        ],
        "{hashes:#018x?}"
    );
}
