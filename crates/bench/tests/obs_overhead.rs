//! Overhead guard for the observability layer: every instrumentation
//! hook in the pipeline (`span!` scopes, registry counters, provenance
//! assembly) must be a near-free no-op when the [`ObsContext`] is
//! disabled. A [`Decoder::new`] decoder *is* the disabled path — this
//! test pins that it is not measurably slower than the fully
//! instrumented decoder, i.e. the hooks themselves cost nothing and all
//! real cost sits behind the enabled check.
//!
//! Methodology: interleaved paired samples. Each sample times one decode
//! on each path back to back, alternating which path goes first, and the
//! guard reads the median of the per-pair ratios. Load
//! from other processes and CPU frequency changes come in phases that
//! last several samples and shift both halves of a pair alike, so a pair
//! ratio cancels them; a minimum taken over each path separately does
//! not (its two minima can come from different phases, measured to
//! swing the comparison by ±6% on a shared 2-core box). The sample count
//! is fixed: stopping at the first in-bounds median would let noise
//! manufacture a pass. The disabled path genuinely does less work, so a
//! median disabled/enabled ratio above 1.01 means the disabled fast-path
//! check broke.

use lf_bench::standard_fixture;
use lf_core::config::DecoderConfig;
use lf_core::pipeline::Decoder;
use lf_obs::ObsContext;
use lf_sim::experiments::Scale;
use std::time::{Duration, Instant};

/// Interleaved sample pairs (odd, so the median is one pair's ratio).
const SAMPLES: usize = 61;

fn time_decode(decoder: &Decoder, signal: &[lf_types::Complex]) -> Duration {
    let t0 = Instant::now();
    let decode = decoder.decode(signal);
    let elapsed = t0.elapsed();
    assert!(!decode.streams.is_empty(), "fixture must decode");
    elapsed
}

#[test]
fn disabled_obs_is_free() {
    let fix = standard_fixture(Scale::Quick, 4, 1);
    let cfg = || {
        let mut c = DecoderConfig::at_sample_rate(fix.scenario.sample_rate);
        c.rate_plan = fix.scenario.rate_plan.clone();
        c
    };
    let disabled = Decoder::new(cfg());
    let enabled = Decoder::with_obs(cfg(), ObsContext::new());

    // Warm-up: page in both code paths and the allocator.
    time_decode(&disabled, &fix.signal);
    time_decode(&enabled, &fix.signal);

    // Per-pair disabled/enabled cost ratios, alternating which path runs
    // first so neither always inherits the other's cache state.
    let mut ratios: Vec<f64> = (0..SAMPLES)
        .map(|k| {
            let (d, e) = if k % 2 == 0 {
                let d = time_decode(&disabled, &fix.signal);
                (d, time_decode(&enabled, &fix.signal))
            } else {
                let e = time_decode(&enabled, &fix.signal);
                (time_decode(&disabled, &fix.signal), e)
            };
            d.as_secs_f64() / e.as_secs_f64().max(f64::MIN_POSITIVE)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[SAMPLES / 2];
    println!(
        "obs overhead: median disabled/enabled decode-time ratio {ratio:.4} over {SAMPLES} pairs \
         ({:+.2}% instrumented vs disabled; pair ratios {:.3}..{:.3})",
        (1.0 / ratio - 1.0) * 100.0,
        ratios[0],
        ratios[SAMPLES - 1],
    );

    // The guard: the disabled path may cost at most 1% relative to the
    // instrumented one. (It should in fact be the *faster* of the two —
    // this fires when the disabled fast-path check stops short-circuiting
    // and the hooks start doing work unconditionally.)
    assert!(
        ratio <= 1.01,
        "disabled observability path is >1% slower than the instrumented one: \
         median disabled/enabled ratio {ratio:.4}"
    );

    // And the enabled-path budget: with metric handles pre-resolved once
    // per decoder (no registry lookups, no name formatting per epoch),
    // full instrumentation may cost at most 5% over the disabled path.
    // This fires when a per-epoch name lookup sneaks back into the hot
    // path.
    assert!(
        1.0 / ratio <= 1.05,
        "instrumented decode is >5% slower than disabled: \
         median enabled/disabled ratio {:.4}",
        1.0 / ratio
    );
}
