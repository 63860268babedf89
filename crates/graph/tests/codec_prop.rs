//! Property tests for the delta wire format: round-trips over arbitrary
//! canonical deltas (hand-rolled seeded generator — no external property
//! testing dependency), and adversarial-input suites proving truncated or
//! bit-flipped records fail with a typed [`CodecError`] instead of
//! panicking or being silently trusted.

use dynnet_graph::codec::{
    decode_delta, encode_delta, fnv1a64, write_log_header, write_record, CodecError,
    DeltaLogReader, DeltaLogWriter,
};
use dynnet_graph::{Edge, Graph, GraphDelta, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

const CASES: usize = 200;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynnet-codec-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// An arbitrary canonical delta over a universe of `n` nodes: random raw
/// change lists canonicalized through [`GraphDelta::from_changes`] (the
/// same normalization every producer in the workspace applies).
fn arbitrary_delta(n: usize, rng: &mut ChaCha8Rng) -> GraphDelta {
    let mut edges = |max: usize| -> Vec<Edge> {
        (0..rng.gen_range(0..max))
            .filter_map(|_| {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                (a != b).then(|| Edge::of(a, b))
            })
            .collect()
    };
    let inserted = edges(3 * n);
    let removed = edges(n);
    let mut nodes = |max: usize| -> Vec<NodeId> {
        (0..rng.gen_range(0..max))
            .map(|_| NodeId::new(rng.gen_range(0..n)))
            .collect()
    };
    let woken = nodes(n);
    let deactivated = nodes(n / 2 + 1);
    GraphDelta::from_changes(inserted, removed, woken, deactivated)
}

#[test]
fn arbitrary_canonical_deltas_roundtrip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e37);
    for case in 0..CASES {
        let n = rng.gen_range(2..40);
        let delta = arbitrary_delta(n, &mut rng);
        let bytes = encode_delta(&delta, n).unwrap_or_else(|e| panic!("case {case}: encode: {e}"));
        let back = decode_delta(&bytes, n).unwrap_or_else(|e| panic!("case {case}: decode: {e}"));
        assert_eq!(back, delta, "case {case}: decoded delta differs");
        // Re-encoding the decoded delta must reproduce the exact bytes:
        // the canonical form has a unique encoding.
        let again = encode_delta(&back, n).unwrap();
        assert_eq!(again, bytes, "case {case}: encoding is not canonical");
    }
}

#[test]
fn every_truncation_fails_with_typed_error() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x517c);
    for case in 0..40 {
        let n = rng.gen_range(4..24);
        let delta = arbitrary_delta(n, &mut rng);
        if delta.is_empty() {
            continue;
        }
        let bytes = encode_delta(&delta, n).unwrap();
        for cut in 0..bytes.len() {
            match decode_delta(&bytes[..cut], n) {
                Err(_) => {}
                Ok(short) => {
                    // A prefix that still parses must not masquerade as the
                    // full record (possible only if a trailing section is
                    // empty — and the empty-delta prefix is shorter).
                    assert_ne!(short, delta, "case {case}: truncation at {cut} undetected");
                }
            }
        }
    }
}

#[test]
fn payload_bit_flips_never_panic_and_stay_canonical() {
    // Without the framing checksum a flipped payload may still decode —
    // but it must decode to a *canonical* delta or fail typed; it must
    // never panic or produce out-of-range ids.
    let mut rng = ChaCha8Rng::seed_from_u64(0xb17f);
    for _ in 0..30 {
        let n = rng.gen_range(4..24);
        let delta = arbitrary_delta(n, &mut rng);
        let bytes = encode_delta(&delta, n).unwrap();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                if let Ok(d) = decode_delta(&corrupt, n) {
                    let mut canon = d.clone();
                    canon.normalize();
                    assert_eq!(d, canon, "decoded delta must be canonical");
                    assert!(d
                        .inserted
                        .iter()
                        .chain(&d.removed)
                        .all(|e| e.u < e.v && e.v.index() < n));
                    assert!(d.woken.iter().chain(&d.deactivated).all(|v| v.index() < n));
                }
            }
        }
    }
}

#[test]
fn record_bit_flips_are_caught_by_the_checksum() {
    // Every single-bit flip anywhere in the log, header included, must be
    // detected: the magic or version is rejected, a header or record
    // checksum mismatches, or, if a length prefix was hit, the file
    // structure breaks. Nothing is silently accepted as the original log.
    let mut rng = ChaCha8Rng::seed_from_u64(0xcafe);
    let n = 16;
    let deltas: Vec<GraphDelta> = (0..3).map(|_| arbitrary_delta(n, &mut rng)).collect();
    let mut file = Vec::new();
    write_log_header(&mut file, n);
    for d in &deltas {
        write_record(&mut file, &encode_delta(d, n).unwrap());
    }
    let path = tmp("flip.dlog");
    for i in 0..file.len() {
        for bit in [0, 3, 5, 7] {
            let mut corrupt = file.clone();
            corrupt[i] ^= 1 << bit;
            std::fs::write(&path, &corrupt).unwrap();
            let read: Result<Vec<GraphDelta>, CodecError> =
                DeltaLogReader::open(&path).and_then(|r| r.collect::<Result<Vec<_>, CodecError>>());
            match read {
                Err(_) => {}
                Ok(back) => assert_ne!(back, deltas, "flip at byte {i} bit {bit} undetected"),
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_log_files_fail_typed() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e57);
    let n = 12;
    let path = tmp("trunc.dlog");
    let mut w = DeltaLogWriter::create(&path, n).unwrap();
    for _ in 0..4 {
        w.append(&arbitrary_delta(n, &mut rng)).unwrap();
    }
    w.finish().unwrap();
    let full = std::fs::read(&path).unwrap();
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let read: Result<Vec<GraphDelta>, CodecError> = match DeltaLogReader::open(&path) {
            Ok(r) => r.collect(),
            Err(e) => Err(e),
        };
        if cut < full.len() {
            // Either an error, or a clean prefix of whole records (cut at
            // a record boundary) — but never a panic, and never all four
            // records.
            if let Ok(records) = read {
                assert!(records.len() < 4, "truncation at {cut} undetected");
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn empty_and_zero_length_edge_cases() {
    // Empty delta round-trips through a log.
    let path = tmp("edge.dlog");
    let mut w = DeltaLogWriter::create(&path, 5).unwrap();
    w.append(&GraphDelta::default()).unwrap();
    let stats = w.finish().unwrap();
    assert_eq!(stats.records, 1);
    let records: Vec<GraphDelta> = DeltaLogReader::open(&path)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(records, vec![GraphDelta::default()]);

    // Header-only log: zero records, replays to the all-asleep graph.
    let w = DeltaLogWriter::create(&path, 5).unwrap();
    w.finish().unwrap();
    assert_eq!(DeltaLogReader::open(&path).unwrap().count(), 0);
    assert_eq!(
        dynnet_graph::codec::replay_log(&path).unwrap(),
        Graph::new_all_asleep(5)
    );

    // Zero-length file: typed BadMagic, not a panic.
    std::fs::write(&path, []).unwrap();
    assert!(matches!(
        DeltaLogReader::open(&path),
        Err(CodecError::BadMagic)
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn fnv_checksum_is_stable() {
    // Pin the checksum constants: a silent change would orphan every
    // existing log file and checkpoint.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}
