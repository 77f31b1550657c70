//! Golden decode digest at paper scale: 16 tags at 25 Msps on the
//! paper's 11-rate plan, four placements.
//!
//! The Quick-scale golden digest (`golden_digest.rs`) runs 8 tags on a
//! 6-rate plan, where the stream search seldom re-enters folding and the
//! slow rates carry few candidates. This one covers the paths a paper-scale
//! 16-tag epoch exercises and the small fixture does not: many slow-rate
//! candidates (1–10 kbps tracks spanning hundreds of edges per slot),
//! lazily validated alias checks, and carve re-entries that recompute
//! only the streams whose inputs changed. It hashes every decoded field
//! and the `Debug` form of each epoch's `DecodeProvenance`, so a change in
//! any accepted track, carve record or admission record moves it too.
//!
//! The four epochs decode in a few seconds unoptimized; CI also runs the
//! test in release (`cargo test --release -p lf-bench --test
//! golden_paper_digest`), where the optimizer's code paths are the ones
//! the benchmark times.

#![allow(clippy::unwrap_used)]

use lf_bench::standard_fixture;
use lf_core::config::DecoderConfig;
use lf_core::pipeline::{Decoder, EpochDecode, StreamKind};
use lf_core::DecodeScratch;
use lf_sim::experiments::Scale;

/// The pinned digest. Recompute only for an *intentional*
/// decode-semantics change (the failure message prints the new value).
const GOLDEN_PAPER: u64 = 0x7f6a_5eb1_c32f_590c;

/// Placements (scenario seeds) decoded, one epoch each.
const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Streams at or below this rate come from the slow end of the plan.
const SLOW_RATE_BPS: f64 = 10_000.0;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds one decode into `h`: every numeric field as its exact bit
/// pattern, then the provenance's `Debug` text.
fn digest_into(h: &mut u64, decode: &EpochDecode) {
    fnv1a(h, &(decode.streams.len() as u64).to_le_bytes());
    fnv1a(h, &(decode.n_edges as u64).to_le_bytes());
    fnv1a(h, &(decode.n_tracked as u64).to_le_bytes());
    for s in &decode.streams {
        fnv1a(h, &u64::from(s.rate.multiple()).to_le_bytes());
        fnv1a(h, &s.rate_bps.to_bits().to_le_bytes());
        fnv1a(h, &s.offset.to_bits().to_le_bytes());
        fnv1a(h, &s.period.to_bits().to_le_bytes());
        fnv1a(h, &s.edge_vector.re.to_bits().to_le_bytes());
        fnv1a(h, &s.edge_vector.im.to_bits().to_le_bytes());
        let kind: u8 = match s.kind {
            StreamKind::Single => 0,
            StreamKind::CollisionMember => 1,
            StreamKind::Unresolved => 2,
        };
        fnv1a(h, &[kind]);
        let bits: Vec<u8> = s.bits.iter().map(u8::from).collect();
        fnv1a(h, &(bits.len() as u64).to_le_bytes());
        fnv1a(h, &bits);
    }
    fnv1a(h, format!("{:?}", decode.provenance).as_bytes());
}

#[test]
fn golden_decode_digest_at_paper_scale() {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut carves = 0usize;
    let mut carves_accepted = 0usize;
    let mut slow_streams = 0usize;
    // One scratch across every epoch, as a reader worker holds it.
    let mut scratch = DecodeScratch::default();
    for seed in SEEDS {
        let fix = standard_fixture(Scale::Paper, 16, seed);
        assert_eq!(fix.scenario.rate_plan.rates().len(), 11);
        let mut cfg = DecoderConfig::at_sample_rate(fix.scenario.sample_rate);
        cfg.rate_plan = fix.scenario.rate_plan.clone();
        let (decode, _) = Decoder::new(cfg).decode_timed_with(&fix.signal, &mut scratch);
        digest_into(&mut h, &decode);
        let provs = &decode.provenance.streams;
        carves += provs.iter().filter(|p| p.carve.is_some()).count();
        carves_accepted += provs
            .iter()
            .filter(|p| p.carve.as_ref().is_some_and(|c| c.accepted))
            .count();
        slow_streams += provs.iter().filter(|p| p.rate_bps <= SLOW_RATE_BPS).count();
    }
    // The fixture must keep exercising the paths it exists for.
    assert!(carves > 0, "no carve attempted: no folding re-entry ran");
    assert!(
        carves_accepted > 0,
        "no carve accepted: no re-entry changed edge ownership"
    );
    assert!(slow_streams > 0, "no slow-rate stream tracked");
    assert_eq!(
        h, GOLDEN_PAPER,
        "paper-scale decode digest moved: got {h:#018x}, pinned {GOLDEN_PAPER:#018x}"
    );
}
