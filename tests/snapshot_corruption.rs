//! Decoder robustness: arbitrary truncations and single-byte corruptions
//! of valid snapshot documents — v1 to v5, full and delta — must
//! always yield an `Err`, never a panic and never a silently-wrong
//! restore.
//!
//! "Silently wrong" is defined tightly: if a corrupted document *does*
//! restore (possible only when the flipped byte sits in a header field
//! that does not participate in decoding, e.g. the wall-clock stamp),
//! the restored state must re-encode to exactly the bytes the pristine
//! document's state re-encodes to.  Every byte that *does* matter —
//! magic, version, algorithm tag, kind, base checksum, lengths, payload —
//! is covered by an explicit validation (the payload wholesale by the
//! FNV-1a checksum), so a flip there errors out.

use dynscan_core::{restore_any, Clusterer, DynStrClu, GraphUpdate, Params, VertexId};
use dynscan_graph::snapshot::{peek_header, HEADER_LEN_V2};
use proptest::prelude::*;
use std::sync::OnceLock;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// The pristine documents every case corrupts: a v5 (current-format)
/// full snapshot, a v5 delta on top of it, the committed legacy v4, v3,
/// v2 and v1 golden fixtures, the committed v2 delta on top of the v2
/// fixture, and the canonical re-encode of each document's state.
struct Fixture {
    base_v5: Vec<u8>,
    base_v4: Vec<u8>,
    base_v3: Vec<u8>,
    base_v2: Vec<u8>,
    base_v1: Vec<u8>,
    delta: Vec<u8>,
    delta_v2: Vec<u8>,
    /// `checkpoint_bytes` of the base state (deterministic re-encode).
    base_state: Vec<u8>,
    /// `checkpoint_bytes` of the state after the delta.
    delta_state: Vec<u8>,
    /// The state every legacy fixture holds: the v5 golden fixture.
    legacy_state: Vec<u8>,
    /// `checkpoint_bytes` of the v2 base after the v2 delta.
    delta_v2_state: Vec<u8>,
}

fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{} is committed: {e}", path.display()))
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // Sampled mode, with churn, so every section is non-trivial.
        let params = Params::jaccard(0.3, 3).with_rho(0.2).with_seed(0xc0_44u64);
        let mut live = DynStrClu::new(params);
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                if (a + b) % 3 != 0 {
                    live.insert_edge(v(a), v(b)).unwrap();
                }
            }
        }
        live.apply_batch(&[
            GraphUpdate::Delete(v(1), v(2)),
            GraphUpdate::Insert(v(0), v(9)),
        ]);
        let base_v5 = live.capture_checkpoint(false, 0).to_bytes();
        let base_state = live.checkpoint_bytes();
        // A delta with graph churn, label flips and tombstones.
        live.apply_batch(&[
            GraphUpdate::Delete(v(0), v(3)),
            GraphUpdate::Insert(v(1), v(2)),
            GraphUpdate::Insert(v(2), v(9)),
        ]);
        let delta = live.capture_checkpoint(true, 0).to_bytes();
        let delta_state = live.checkpoint_bytes();
        // The legacy documents: no writer produces v1–v4 any more, so the
        // committed fixtures are the pristine inputs.
        let base_v2 = golden("golden_snapshot_v2.bin");
        let delta_v2 = golden("golden_delta_v2.bin");
        let mut replayed = DynStrClu::restore(&base_v2[..]).unwrap();
        replayed.apply_delta_bytes(&delta_v2).unwrap();
        Fixture {
            base_v5,
            base_v4: golden("golden_snapshot_v4.bin"),
            base_v3: golden("golden_snapshot_v3.bin"),
            base_v2,
            base_v1: golden("golden_snapshot_v1.bin"),
            delta,
            delta_v2,
            base_state,
            delta_state,
            legacy_state: golden("golden_snapshot_v5.bin"),
            delta_v2_state: replayed.checkpoint_bytes(),
        }
    })
}

/// Every way this harness consumes a full document must reject (or
/// faithfully restore) the given bytes — and never panic.
fn check_full_document(doc: &[u8], pristine_state: &[u8]) {
    // Typed restore.
    if let Ok(restored) = DynStrClu::restore(doc) {
        assert_eq!(
            restored.checkpoint_bytes(),
            pristine_state,
            "corrupted document restored to different state"
        );
    }
    // Erased restore (registry path; exercises peek_header + dispatch).
    if let Ok(restored) = restore_any(doc) {
        assert_eq!(restored.checkpoint_bytes(), pristine_state);
    }
    // Header peek alone must never panic either (result irrelevant).
    let _ = peek_header(doc);
}

/// A (possibly corrupted) delta applied to a pristine restore of `base`
/// must error or produce exactly the true post-delta state.
fn check_delta_document(delta: &[u8], base: &[u8], post_delta_state: &[u8]) {
    let mut base = DynStrClu::restore(base).expect("pristine base restores");
    if base.apply_delta_bytes(delta).is_ok() {
        assert_eq!(
            base.checkpoint_bytes(),
            post_delta_state,
            "corrupted delta applied to different state"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncation at every possible length: always an error, never a
    /// panic, for every format version and both kinds.
    #[test]
    fn truncations_never_panic_and_never_restore(scale in 0u32..10_000) {
        let fx = fixture();
        for doc in [&fx.base_v5, &fx.base_v4, &fx.base_v3, &fx.base_v2, &fx.base_v1] {
            let cut = doc.len() * scale as usize / 10_000;
            prop_assert!(DynStrClu::restore(&doc[..cut]).is_err());
            prop_assert!(restore_any(&doc[..cut]).is_err());
        }
        let cut = fx.delta.len() * scale as usize / 10_000;
        let mut base = DynStrClu::restore(&fx.base_v5[..]).unwrap();
        prop_assert!(base.apply_delta_bytes(&fx.delta[..cut]).is_err());
        let cut = fx.delta_v2.len() * scale as usize / 10_000;
        let mut base = DynStrClu::restore(&fx.base_v2[..]).unwrap();
        prop_assert!(base.apply_delta_bytes(&fx.delta_v2[..cut]).is_err());
    }

    /// Single-byte corruption at every offset of the v5 full document
    /// — the compact codec's varint/delta/bit-packed decoders must
    /// reject every flip the checksum lets through to them.
    #[test]
    fn v5_full_bit_flips_are_caught(index in 0usize..8192, flip in 1u8..=255) {
        let fx = fixture();
        let mut bad = fx.base_v5.clone();
        let index = index % bad.len();
        bad[index] ^= flip;
        check_full_document(&bad, &fx.base_state);
    }

    /// Single-byte corruption of the legacy v4 document, whose per-edge
    /// invocation counters restore reads past without using.
    #[test]
    fn v4_full_bit_flips_are_caught(index in 0usize..8192, flip in 1u8..=255) {
        let fx = fixture();
        let mut bad = fx.base_v4.clone();
        let index = index % bad.len();
        bad[index] ^= flip;
        check_full_document(&bad, &fx.legacy_state);
    }

    /// Single-byte corruption of the legacy v3 document, whose AUX
    /// section restore reads past without decoding.
    #[test]
    fn v3_full_bit_flips_are_caught(index in 0usize..8192, flip in 1u8..=255) {
        let fx = fixture();
        let mut bad = fx.base_v3.clone();
        let index = index % bad.len();
        bad[index] ^= flip;
        check_full_document(&bad, &fx.legacy_state);
    }

    /// Single-byte corruption at every offset of the v2 full document.
    #[test]
    fn v2_full_bit_flips_are_caught(index in 0usize..8192, flip in 1u8..=255) {
        let fx = fixture();
        let mut bad = fx.base_v2.clone();
        let index = index % bad.len();
        bad[index] ^= flip;
        check_full_document(&bad, &fx.legacy_state);
    }

    /// Single-byte corruption of the legacy v1 document.
    #[test]
    fn v1_full_bit_flips_are_caught(index in 0usize..8192, flip in 1u8..=255) {
        let fx = fixture();
        let mut bad = fx.base_v1.clone();
        let index = index % bad.len();
        bad[index] ^= flip;
        check_full_document(&bad, &fx.legacy_state);
    }

    /// Single-byte corruption of a v5 delta document, applied to a
    /// pristine base: errors (base mismatch, checksum, kind, sequence,
    /// payload validation) or restores faithfully (header stamp bytes
    /// only).
    #[test]
    fn delta_bit_flips_are_caught(index in 0usize..8192, flip in 1u8..=255) {
        let fx = fixture();
        let mut bad = fx.delta.clone();
        let index = index % bad.len();
        bad[index] ^= flip;
        check_delta_document(&bad, &fx.base_v5, &fx.delta_state);
    }

    /// Single-byte corruption of the committed v2 delta document,
    /// applied to a pristine restore of the v2 fixture it chains onto.
    #[test]
    fn v2_delta_bit_flips_are_caught(index in 0usize..8192, flip in 1u8..=255) {
        let fx = fixture();
        let mut bad = fx.delta_v2.clone();
        let index = index % bad.len();
        bad[index] ^= flip;
        check_delta_document(&bad, &fx.base_v2, &fx.delta_v2_state);
    }

    /// Arbitrary garbage prefixed with the real magic must still error
    /// (never panic) through every entry point.
    #[test]
    fn garbage_with_magic_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut doc = b"DSCNSNAP".to_vec();
        doc.extend_from_slice(&bytes);
        prop_assert!(DynStrClu::restore(&doc[..]).is_err());
        prop_assert!(restore_any(&doc).is_err());
        let mut base = DynStrClu::restore(&fixture().base_v5[..]).unwrap();
        prop_assert!(base.apply_delta_bytes(&doc).is_err());
    }
}

/// Deterministic sweep of every header byte of the v5, v4, v3 and v2
/// documents (the proptests above sample; this nails the fixed-size
/// header — the same 60-byte layout in all four versions — completely).
#[test]
fn every_header_byte_flip_is_handled() {
    let fx = fixture();
    for index in 0..HEADER_LEN_V2 {
        for (doc, state) in [
            (&fx.base_v5, &fx.base_state),
            (&fx.base_v4, &fx.legacy_state),
            (&fx.base_v3, &fx.legacy_state),
            (&fx.base_v2, &fx.legacy_state),
        ] {
            let mut bad = doc.clone();
            bad[index] ^= 0xff;
            check_full_document(&bad, state);
        }
        for (delta, base, state) in [
            (&fx.delta, &fx.base_v5, &fx.delta_state),
            (&fx.delta_v2, &fx.base_v2, &fx.delta_v2_state),
        ] {
            let mut bad = delta.clone();
            bad[index] ^= 0xff;
            check_delta_document(&bad, base, state);
        }
    }
}
