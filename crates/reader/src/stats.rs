//! Live runtime statistics: counters, queue depths, latency percentiles.
//!
//! Counters are [`lf_obs`] registry handles — sharded atomics bumped by
//! the pipeline threads that double as named metrics (`reader.*`) in the
//! runtime's [`lf_obs::ObsContext`]. Decode latencies go into the
//! `reader.stage.<name>.ns` histograms, and [`RuntimeStats::latency`] is
//! read from snapshots of those same histograms: since-start percentiles
//! at the histogram's 12.5 % bucket resolution, with an exact count and
//! maximum. [`RuntimeStats`] is a self-consistent-enough snapshot for a
//! poll loop — the runtime keeps serving while it is taken.
//!
//! The per-stage breakdown is derived from the decode graph itself
//! ([`StageTimings::names`]), so a stage added to `lf_core::graph` shows
//! up here — and in the `reader.stage.<name>.ns` registry metrics —
//! without this file changing.

use lf_core::pipeline::StageTimings;
use lf_core::STAGE_COUNT;
use lf_obs::{Counter, Gauge, Histogram, HistogramSnapshot, ObsContext};
use std::time::Duration;

/// Shared mutable statistics, owned by the runtime behind an `Arc`.
///
/// Every counter and gauge is a registry handle: when the runtime was
/// spawned with an enabled [`ObsContext`] they are readable (and
/// exportable) through that registry under `reader.*` names; with a
/// disabled context the handles are detached but still count and record,
/// so [`RuntimeStats`] works identically either way.
#[derive(Debug)]
pub(crate) struct StatsShared {
    pub chunks_in: Counter,
    pub samples_in: Counter,
    pub epochs_in: Counter,
    pub epochs_out: Counter,
    pub epochs_dropped: Counter,
    pub faults: Counter,
    pub forced_splits: Counter,
    job_queue_depth: Gauge,
    result_queue_depth: Gauge,
    /// One histogram per decode stage, in graph order; registered once at
    /// construction so the per-epoch path never formats a metric name.
    h_stages: [Histogram; STAGE_COUNT],
    h_total: Histogram,
}

impl Default for StatsShared {
    fn default() -> Self {
        StatsShared::new(&ObsContext::disabled())
    }
}

pub(crate) fn nanos_of(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl StatsShared {
    /// Creates the runtime's statistics block, registering every counter,
    /// gauge, and latency histogram in `obs` under `reader.*` names.
    pub fn new(obs: &ObsContext) -> Self {
        let names = StageTimings::names();
        StatsShared {
            chunks_in: obs.counter("reader.chunks_in"),
            samples_in: obs.counter("reader.samples_in"),
            epochs_in: obs.counter("reader.epochs_in"),
            epochs_out: obs.counter("reader.epochs_out"),
            epochs_dropped: obs.counter("reader.epochs_dropped"),
            faults: obs.counter("reader.faults"),
            forced_splits: obs.counter("reader.forced_splits"),
            job_queue_depth: obs.gauge("reader.job_queue_depth"),
            result_queue_depth: obs.gauge("reader.result_queue_depth"),
            h_stages: std::array::from_fn(|i| {
                obs.histogram(&format!("reader.stage.{}.ns", names[i]))
            }),
            h_total: obs.histogram("reader.stage.total.ns"),
        }
    }

    /// Records one epoch's latencies. `exemplar` is `(epoch seq, rate
    /// class key)`: every histogram bucket the timings land in remembers
    /// it, so a p99 outlier in a snapshot links back to the offending
    /// epoch (see `lf_obs::HistogramSnapshot::exemplar_near_quantile`).
    pub fn record_latency(&self, t: &StageTimings, exemplar: (u64, u64)) {
        let (seq, key) = exemplar;
        for (h, d) in self.h_stages.iter().zip(t.per_stage) {
            h.record_with_exemplar(nanos_of(d), seq, key);
        }
        self.h_total
            .record_with_exemplar(nanos_of(t.total), seq, key);
    }

    pub fn snapshot(&self, job_queue_depth: usize, result_queue_depth: usize) -> RuntimeStats {
        // Mirror the instantaneous depths into the gauges so a registry
        // export taken between polls sees them too.
        self.job_queue_depth
            .set(i64::try_from(job_queue_depth).unwrap_or(i64::MAX));
        self.result_queue_depth
            .set(i64::try_from(result_queue_depth).unwrap_or(i64::MAX));
        let latency = StageLatencies {
            per_stage: std::array::from_fn(|i| LatencySummary::of(&self.h_stages[i].snapshot())),
            total: LatencySummary::of(&self.h_total.snapshot()),
        };
        RuntimeStats {
            chunks_in: self.chunks_in.get(),
            samples_in: self.samples_in.get(),
            epochs_in: self.epochs_in.get(),
            epochs_out: self.epochs_out.get(),
            epochs_dropped: self.epochs_dropped.get(),
            faults: self.faults.get(),
            forced_splits: self.forced_splits.get(),
            job_queue_depth,
            result_queue_depth,
            latency,
        }
    }
}

/// Percentiles of one stage's decode latency since the runtime started.
///
/// Read from the stage's `reader.stage.<name>.ns` histogram: `count` and
/// `max` are exact, the percentiles are accurate to the histogram's
/// 12.5 % bucket width (see [`HistogramSnapshot::quantile`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Epochs the summary covers.
    pub count: usize,
    /// Median latency.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst latency.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes a histogram snapshot. Degenerate cases are exact by
    /// construction: an empty histogram is all-zero with `count == 0`
    /// (distinguishable from a real zero-latency sample only by the
    /// count), and a single sample reports that sample at every
    /// percentile and as the max — including a saturated `u64::MAX`
    /// nanosecond reading, which must survive unclipped.
    fn of(h: &HistogramSnapshot) -> Self {
        let at = |q: f64| Duration::from_nanos(h.quantile(q).unwrap_or(0));
        LatencySummary {
            count: usize::try_from(h.count).unwrap_or(usize::MAX),
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: at(1.0),
        }
    }
}

/// Per-stage latency summaries, indexed like `lf_core::StageTimings` —
/// one entry per decode-graph stage, in execution order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatencies {
    /// One summary per decode stage, in graph order.
    pub per_stage: [LatencySummary; STAGE_COUNT],
    /// Whole-epoch decode.
    pub total: LatencySummary,
}

impl StageLatencies {
    /// The stage names, in the same order as [`StageLatencies::per_stage`]
    /// (`"total"` is separate — it is the whole-epoch latency, not a
    /// stage).
    pub fn names() -> [&'static str; STAGE_COUNT] {
        StageTimings::names()
    }

    /// `(stage name, summary)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, LatencySummary)> + '_ {
        Self::names().into_iter().zip(self.per_stage)
    }
}

/// A point-in-time view of the runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Chunks pulled from the source.
    pub chunks_in: u64,
    /// Samples pulled from the source.
    pub samples_in: u64,
    /// Epochs the segmenter emitted into the pipeline.
    pub epochs_in: u64,
    /// Epoch reports delivered to the consumer (decoded, dropped, or
    /// faulted — every segmented epoch is accounted for exactly once).
    pub epochs_out: u64,
    /// Epochs shed by the drop-oldest backpressure policy.
    pub epochs_dropped: u64,
    /// Worker panics contained (the epoch was reported as a fault).
    pub faults: u64,
    /// Epochs closed by the `max_epoch` bound instead of a carrier gap.
    pub forced_splits: u64,
    /// Jobs waiting for a worker right now.
    pub job_queue_depth: usize,
    /// Results waiting for the consumer right now.
    pub result_queue_depth: usize,
    /// Decode latency percentiles since the runtime started.
    pub latency: StageLatencies,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timings block with stage `i` taking `i + 1` µs and the total
    /// their sum — distinct values so index mix-ups show up.
    fn sample_timings() -> StageTimings {
        let per_stage: [Duration; STAGE_COUNT] =
            std::array::from_fn(|i| Duration::from_micros(i as u64 + 1));
        StageTimings {
            per_stage,
            total: per_stage.iter().sum::<Duration>(),
        }
    }

    #[test]
    fn empty_histograms_are_zero() {
        let snap = StatsShared::default().snapshot(0, 0);
        assert_eq!(snap.latency, StageLatencies::default());
    }

    #[test]
    fn single_sample_is_exact_at_every_percentile() {
        let stats = StatsShared::default();
        let t = sample_timings();
        stats.record_latency(&t, (0, 0));
        let s = stats.snapshot(0, 0).latency.total;
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, t.total);
        assert_eq!(s.p90, t.total);
        assert_eq!(s.p99, t.total);
        assert_eq!(s.max, t.total);
    }

    #[test]
    fn saturated_single_sample_survives_unclipped() {
        // A Duration too large for u64 nanoseconds saturates on record;
        // the summary must carry the sentinel through, not mangle it.
        let stats = StatsShared::default();
        let t = StageTimings {
            total: Duration::MAX,
            ..sample_timings()
        };
        stats.record_latency(&t, (0, 0));
        let s = stats.snapshot(0, 0).latency.total;
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, Duration::from_nanos(u64::MAX));
        assert_eq!(s.p99, Duration::from_nanos(u64::MAX));
        assert_eq!(s.max, Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn stage_summaries_follow_graph_order() {
        let stats = StatsShared::default();
        let t = sample_timings();
        stats.record_latency(&t, (0, 0));
        let snap = stats.snapshot(0, 0);
        for (i, (name, summary)) in snap.latency.iter().enumerate() {
            assert_eq!(name, StageLatencies::names()[i]);
            assert_eq!(summary.count, 1, "stage {name}");
            assert_eq!(summary.p50, t.per_stage[i], "stage {name}");
        }
    }

    #[test]
    fn counters_surface_through_the_registry() {
        let obs = ObsContext::new();
        let stats = StatsShared::new(&obs);
        stats.chunks_in.add(3);
        stats.epochs_in.inc();
        stats.record_latency(&sample_timings(), (0, 0));
        let _ = stats.snapshot(2, 1);
        let snap = obs.registry_snapshot();
        assert_eq!(
            snap.get("reader.chunks_in"),
            Some(&lf_obs::MetricValue::Counter(3))
        );
        assert_eq!(
            snap.get("reader.epochs_in"),
            Some(&lf_obs::MetricValue::Counter(1))
        );
        assert_eq!(
            snap.get("reader.job_queue_depth"),
            Some(&lf_obs::MetricValue::Gauge(2))
        );
        // Every stage histogram is registered under its graph name.
        for name in StageLatencies::names() {
            let key = format!("reader.stage.{name}.ns");
            let Some(lf_obs::MetricValue::Histogram(h)) = snap.get(&key) else {
                panic!("missing stage histogram {key}");
            };
            assert_eq!(h.count, 1, "{key}");
        }
        let Some(lf_obs::MetricValue::Histogram(h)) = snap.get("reader.stage.total.ns") else {
            panic!("missing total-latency histogram");
        };
        assert_eq!(h.count, 1);
    }

    #[test]
    fn disabled_context_still_counts() {
        let stats = StatsShared::new(&ObsContext::disabled());
        stats.faults.inc();
        stats.faults.inc();
        assert_eq!(stats.snapshot(0, 0).faults, 2);
    }
}
