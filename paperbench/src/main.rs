//! `paperbench` — the paper-scale benchmark of the decoder, the streaming
//! reader and the fleet. See README.md in this directory for the
//! workloads, the metric definitions and how the numbers hold steady.
//!
//! ```text
//! paperbench --workload decode-16 --seed 1 --seconds 20 --trace 0 [--reduced]
//! ```
//!
//! Prints one JSON line describing the run (seed, cores, SIMD dispatch,
//! output digest, sample counts and bases), then, as the last line, the
//! result object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the run's spans are written under `traces/`.

mod common;
mod workloads;

use common::{
    cpu_steal_ticks, median, rss_now, rss_peak, rss_reset, summarize, Clock, Spans, Summary,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Run, Workload, NAMES};

/// Set-up is measured this many times per run; the median is reported.
const SETUP_REPEATS: usize = 7;

/// Sanity floors on decode quality. A change that falls below them no
/// longer decodes the workload, whatever it does to the timings.
const MIN_STREAM_RECALL: f64 = 0.2;
const MIN_FRAMES_OK_FRAC: f64 = 0.02;

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    reduced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut reduced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                workload = Some(
                    NAMES
                        .iter()
                        .copied()
                        .find(|n| *n == w)
                        .ok_or_else(|| format!("unknown workload {w}; one of {NAMES:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--reduced" => reduced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        reduced,
    })
}

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    /// `"name": value` JSON members of the description line.
    info: Vec<(String, String)>,
}

impl Report {
    fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
        });
    }

    fn info(&mut self, key: &str, json: String) {
        self.info.push((key.to_owned(), json));
    }

    /// A timing's median and tail, with its sample count and the tail's
    /// percentile recorded in the description line.
    fn timing(&mut self, name: &str, s: Summary) {
        self.metric(&format!("{name}_p50"), "ms", s.p50);
        self.metric(&format!("{name}_tail"), "ms", s.tail);
        self.info(
            name,
            format!(
                "{{\"samples\":{},\"tail_percentile\":{:.2}}}",
                s.n, s.tail_pct
            ),
        );
    }

    /// A ratio, with its base recorded in the description line.
    fn ratio(&mut self, name: &str, num: usize, base: usize) {
        let value = if base == 0 {
            f64::NAN
        } else {
            num as f64 / base as f64
        };
        self.metric(name, "ratio", value);
        self.info(name, format!("{{\"count\":{num},\"base\":{base}}}"));
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            eprintln!(
                "usage: paperbench --workload <{}> --seed N --seconds S --trace 0|1 [--reduced]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let clock = Clock(Instant::now());

    let Some(w) = Workload::new(args.workload, args.seed, args.reduced, clock) else {
        eprintln!("paperbench: unknown workload");
        return ExitCode::from(2);
    };
    // Round 0's inputs are synthesized before any clock starts; later
    // rounds synthesize theirs between rounds, with the program idle.
    let first = Arc::new(w.session(0));
    // Memory is measured from the first call into the program until its
    // first result, above what the process holds once inputs are built.
    let rss_reset_ok = rss_reset();
    let rss_base = rss_now();

    let mut setups = vec![w.setup_once(&first, 0)];
    let rss_setup_mb = rss_peak() - rss_base;
    setups.extend((1..SETUP_REPEATS).map(|k| w.setup_once(&first, k)));
    let n = first.epochs_per_loop();

    let mut report = Report::default();
    let steal_before = cpu_steal_ticks();
    let mut run: Run;
    if args.trace {
        // The scored rounds untraced, then again traced; the difference
        // in rate is the tracing overhead.
        let plain = w.timed(&first, None, false);
        run = w.timed(&first, None, true);
        let side = per_layer(&w, &first, &run, &plain, &mut report);
        run.spans.0.extend(side.0);
    } else {
        // The reduced self-test run stops after the scored rounds.
        let seconds = (!args.reduced).then_some(args.seconds);
        run = w.timed(&first, seconds, false);
        end_to_end(&run, &setups, rss_setup_mb, &mut report);
    }

    // Share of CPU time the hypervisor took while the rounds ran: a
    // run with a large share was measured on a contended host.
    let steal_after = cpu_steal_ticks();
    let steal_frac = steal_after.0.saturating_sub(steal_before.0) as f64
        / steal_after.1.saturating_sub(steal_before.1).max(1) as f64;

    let mut problems = run.problems.clone();
    let q = &run.quality;
    let recall = q.truths_matched as f64 / q.truths.max(1) as f64;
    let frames_ok = q.frames_ok as f64 / q.frames_sent.max(1) as f64;
    if recall < MIN_STREAM_RECALL {
        problems.push(format!(
            "stream recall {recall:.3} below the floor {MIN_STREAM_RECALL}"
        ));
    }
    if frames_ok < MIN_FRAMES_OK_FRAC {
        problems.push(format!(
            "frames_ok_frac {frames_ok:.3} below the floor {MIN_FRAMES_OK_FRAC}"
        ));
    }
    if run.epochs_ok == 0 {
        problems.push("no epoch was segmented and decoded".to_owned());
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} has no value", m.name));
        }
    }

    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let avx512 = matches!(
        lf_dsp::simd::active_backend(),
        lf_dsp::simd::Backend::Avx512f
    );
    let mut info = vec![
        ("workload".to_owned(), json_str(w.name)),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), json_num(args.seconds)),
        ("trace".to_owned(), (args.trace as u8).to_string()),
        ("reduced".to_owned(), args.reduced.to_string()),
        ("nproc".to_owned(), cores.to_string()),
        ("avx512".to_owned(), avx512.to_string()),
        (
            "digest".to_owned(),
            json_str(&format!("{:016x}", run.digest())),
        ),
        ("epochs_per_round".to_owned(), n.to_string()),
        ("rounds".to_owned(), run.rounds.to_string()),
        ("timed_rounds".to_owned(), run.timed_rounds.to_string()),
        (
            "scored_rounds".to_owned(),
            w.shape.scored_rounds.to_string(),
        ),
        ("setup_samples".to_owned(), setups.len().to_string()),
        ("rss_reset".to_owned(), rss_reset_ok.to_string()),
        ("steal_frac".to_owned(), json_num(steal_frac)),
        (
            "work".to_owned(),
            format!(
                "{{\"frames_sent\":{},\"frames_ok\":{},\"bits_sent\":{},\"bits_ok\":{},\
                 \"streams\":{},\"streams_true_rate\":{},\"truths\":{},\"truths_matched\":{},\
                 \"frames_delivered\":{},\"frames_genuine\":{}}}",
                q.frames_sent,
                q.frames_ok,
                q.bits_sent,
                q.bits_ok,
                q.streams,
                q.streams_true_rate,
                q.truths,
                q.truths_matched,
                run.frames.delivered.len(),
                run.frames.genuine
            ),
        ),
        (
            "problems".to_owned(),
            format!(
                "[{}]",
                problems
                    .iter()
                    .map(|p| json_str(p))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    info.extend(report.info.iter().cloned());
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.json", w.name, args.seed));
        match run.spans.write(&path) {
            Ok(()) => info.push((
                "trace_file".to_owned(),
                json_str(&path.display().to_string()),
            )),
            Err(e) => problems.push(format!("writing spans: {e}")),
        }
        info.push(("spans".to_owned(), run.spans.0.len().to_string()));
    }
    println!(
        "{{{}}}",
        info.iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",")
    );

    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let attempted = run.epochs_sent;
    let failed = run.epochs_sent.saturating_sub(run.epochs_ok);
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        problems.is_empty()
    );
    ExitCode::SUCCESS
}

fn end_to_end(run: &Run, setups: &[f64], rss_setup_mb: f64, r: &mut Report) {
    r.metric("rtf", "air_s/s", median(&run.timing.rtf));
    r.info("rtf", format!("{{\"rounds\":{}}}", run.timing.rtf.len()));
    r.timing("epoch_ms", summarize(&run.timing.epoch_ms));
    r.timing("frame_ms", summarize(&run.timing.frame_ms));
    // Every chunk handed on request counts as on time (closed loop).
    r.ratio(
        "on_time_frac",
        (run.timing.chunks - run.timing.late_chunks) as usize,
        run.timing.chunks as usize,
    );
    if run.timing.chunks == 0 {
        if let Some(m) = r.metrics.last_mut() {
            m.value = 1.0;
        }
    }
    let late = summarize(&run.timing.lateness_ms);
    r.info(
        "lateness_ms",
        format!(
            "{{\"p50\":{},\"tail\":{},\"samples\":{}}}",
            json_num(late.p50),
            json_num(late.tail),
            late.n
        ),
    );
    let q = &run.quality;
    r.ratio("frames_ok_frac", q.frames_ok, q.frames_sent);
    r.ratio("bits_ok_frac", q.bits_ok, q.bits_sent);
    r.ratio("stream_precision", q.streams_true_rate, q.streams);
    r.ratio("stream_recall", q.truths_matched, q.truths);
    r.ratio(
        "frames_delivered_frac",
        run.frames.delivered.len(),
        run.frames.sent,
    );
    r.ratio(
        "frames_genuine_frac",
        run.frames.genuine,
        run.frames.delivered.len(),
    );
    r.ratio("epochs_ok_frac", run.epochs_ok, run.epochs_sent);
    r.metric("setup_s", "s", median(setups));
    r.metric("rss_peak_mb", "MB", rss_setup_mb);
    r.info("rss_round_peak_mb", json_num(run.rss_growth_mb));
}

/// Per-layer metrics; returns the spans of the side passes.
fn per_layer(
    w: &Workload,
    first: &common::Session,
    run: &Run,
    plain: &Run,
    r: &mut Report,
) -> Spans {
    // core: time per stage, and the work it was spent on.
    let (stages, total_ms) = Workload::stage_means(run);
    r.metric("core.decode_ms_mean", "ms", total_ms);
    for (name, ms) in lf_core::StageTimings::names().iter().zip(stages) {
        r.metric(&format!("core.stage.{name}_ms_mean"), "ms", ms);
    }
    let refs = &run.reference;
    let per = |f: &dyn Fn(&common::DecodeSummary) -> usize| {
        refs.iter().map(|(_, _, _, d)| f(d)).sum::<usize>() as f64 / refs.len().max(1) as f64
    };
    let edges = per(&|d| d.n_edges);
    let emitted = per(&|d| d.streams.len());
    r.metric("core.edges", "count", edges);
    r.metric("core.tracked", "count", per(&|d| d.n_tracked));
    r.metric("core.emitted", "count", emitted);
    r.metric(
        "core.emitted_true_rate",
        "count",
        run.quality.streams_true_rate as f64 / refs.len().max(1) as f64,
    );
    r.metric(
        "core.admission_rejects",
        "count",
        per(&|d| d.admission_rejects),
    );
    r.metric("core.carve_attempts", "count", per(&|d| d.carve_attempts));
    r.metric("core.ns_per_edge", "ns", total_ms * 1e6 / edges.max(1.0));
    r.metric(
        "core.us_per_emitted",
        "us",
        total_ms * 1e3 / emitted.max(1.0),
    );

    // reader: the segmenter on this workload's session, and the waits
    // around the decode.
    let mut side = Spans::default();
    let (ns_per_sample, segmented) = w.segment_pass(first, &mut side);
    r.metric("reader.segment_ns_per_sample", "ns", ns_per_sample);
    r.metric(
        "reader.queue_wait_ms_p50",
        "ms",
        median(&run.timing.queue_wait_ms),
    );
    r.metric(
        "reader.reorder_wait_ms_p50",
        "ms",
        median(&run.timing.reorder_wait_ms),
    );
    r.metric(
        "reader.job_queue_depth_max",
        "count",
        run.queue_depth_max as f64,
    );
    r.metric("reader.epochs_segmented", "count", segmented as f64);

    // fleet: extraction, claims and the bus on this workload's decodes.
    let fp = w.frame_pass(run, &mut side);
    r.metric(
        "fleet.extract_us_per_stream",
        "us",
        fp.extract_s * 1e6 / fp.streams.max(1) as f64,
    );
    r.metric(
        "fleet.frames_per_epoch",
        "count",
        fp.published as f64 / fp.epochs.max(1) as f64,
    );
    r.metric(
        "fleet.streams_no_crc",
        "count",
        fp.streams_no_crc as f64 / fp.decodes.max(1) as f64,
    );
    r.metric(
        "fleet.claim_ns",
        "ns",
        fp.claim_s * 1e9 / fp.claims.max(1) as f64,
    );
    r.metric(
        "fleet.duplicates_frac",
        "ratio",
        fp.duplicates as f64 / fp.claims.max(1) as f64,
    );
    r.metric(
        "fleet.publish_ns",
        "ns",
        fp.publish_s * 1e9 / fp.published.max(1) as f64,
    );
    r.metric(
        "fleet.bus_backlog_max",
        "count",
        run.bus_backlog_max.unwrap_or(fp.backlog_max) as f64,
    );

    // obs: the enabled context's cost on the decoder alone.
    r.metric("obs.overhead_frac", "ratio", w.obs_overhead(first));

    // Tracing overhead: rate of the traced half against the untraced one.
    let (a, b) = (median(&plain.timing.rtf), median(&run.timing.rtf));
    r.metric("trace.rtf_overhead_frac", "ratio", (a - b) / a);
    r.info(
        "trace_halves",
        format!(
            "{{\"rtf_untraced\":{},\"rtf_traced\":{},\"decodes\":{}}}",
            json_num(a),
            json_num(b),
            run.timings.len()
        ),
    );
    side
}
