//! The three workloads.
//!
//! A run is a sequence of rounds. Before each round its inputs are
//! synthesized from the seed and the round number, with no clock running
//! and no program thread alive; the round then runs the program over
//! them from memory. Rounds keep a run's memory small while every run
//! still sees hundreds of distinct epochs, which is what holds the
//! quality ratios and the timings steady from seed to seed.

use crate::common::{
    assign_epochs, cpu_steal_ticks, fold_digest, mix64, par_map, rss_now, rss_peak, rss_reset,
    scenarios, sent_payloads, stream_digest, Clock, DecodeRecord, DecodeSummary, FrameTally,
    ProbeDecoder, Quality, ReplaySource, Session, SourceLog, Spans, CHUNK_SAMPLES, GAP_SAMPLES,
};
use lf_core::{DecodeScratch, Decoder, DecoderConfig, StageTimings, STAGE_COUNT};
use lf_fleet::{
    realized_sources, DedupRegistry, DeliveredFrame, FleetConfig, FleetRuntime, FrameBus,
    FrameExtractor, ReaderId,
};
use lf_obs::ObsContext;
use lf_reader::{
    Backpressure, IqSource, OnlineSegmenter, ReaderRuntime, RuntimeConfig, SegmentedEpoch,
    SegmenterConfig,
};
use lf_sim::simulate::{synthesize_epoch, synthesize_gap};
use lf_sim::synthesize_gap_for;
use lf_types::Complex;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::{Arc, PoisonError};

/// The workloads, by name.
pub const NAMES: [&str; 3] = ["decode-16", "live-4", "fleet-2r"];

/// Offered sample rate of the open-loop `live-4` workload, as a share of
/// the paper's 25 Msps: a quarter of real time, well below the pipeline's
/// capacity on two cores, so the backlog the segmenter's calibration
/// leaves behind drains during warm-up and latency is then measured
/// without one.
const LIVE_OFFERED_SHARE: f64 = 0.25;

/// How far a segmented epoch may start from its true start, in samples.
const BOUNDARY_SLACK: usize = 64;

/// Shape of one workload's rounds.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tags: usize,
    pub readers: usize,
    /// Distinct epochs per round, each from its own tag placement.
    pub epochs: usize,
    /// Runtime workloads hand each round's session over twice: first its
    /// last `warmup` epochs, on which the online segmenter calibrates its
    /// threshold (a window of 8 × `min_gap` = 800 000 samples, about 3.2
    /// epochs with their gaps) and the pipeline works off the burst that
    /// calibration releases, then the whole session, which is measured
    /// and scored. The bare decoder needs no warm-up.
    pub warmup: usize,
    /// Rounds every run completes; quality, work counts and the digest
    /// cover exactly these, so they repeat exactly for a seed.
    pub scored_rounds: usize,
}

impl Shape {
    /// The first epoch of the warm-up handed over in a session of `n`.
    pub fn first_handed(&self, n: usize) -> usize {
        n - self.warmup.min(n)
    }
}

pub fn shape(name: &str, reduced: bool) -> Option<Shape> {
    let (tags, readers, epochs, warmup, scored_rounds) = match name {
        "decode-16" => (16, 1, 16, 0, 20),
        "live-4" => (4, 1, 16, 6, 20),
        "fleet-2r" => (8, 2, 12, 4, 20),
        _ => return None,
    };
    let (epochs, scored_rounds) = if reduced {
        (4, 2)
    } else {
        (epochs, scored_rounds)
    };
    Some(Shape {
        tags,
        readers,
        epochs,
        warmup,
        scored_rounds,
    })
}

/// Everything a run's rounds produced, before reduction to metrics.
#[derive(Debug, Default)]
pub struct Run {
    /// Timings of the rounds the host left alone (see [`STEAL_LIMIT`]).
    pub timing: Timing,
    /// Rounds whose timings were kept, out of `rounds`.
    pub timed_rounds: usize,
    pub quality: Quality,
    pub frames: FrameTally,
    pub epochs_sent: usize,
    pub epochs_ok: usize,
    /// Digest of every scored decode, round by round.
    pub digests: Vec<u64>,
    /// Determinism or delivery-contract violations.
    pub problems: Vec<String>,
    /// Scored decodes: (round, reader, epoch within the loop, decode).
    pub reference: Vec<(usize, usize, usize, DecodeSummary)>,
    /// Every decode's stage timings.
    pub timings: Vec<StageTimings>,
    pub queue_depth_max: usize,
    pub bus_backlog_max: Option<usize>,
    /// Largest peak resident growth of one round above the memory held
    /// once its inputs were built, in MB.
    pub rss_growth_mb: f64,
    pub rounds: usize,
    pub spans: Spans,
}

impl Run {
    pub fn digest(&self) -> u64 {
        fold_digest(self.digests.iter().copied())
    }
}

/// The timed samples of one or more rounds.
#[derive(Debug, Default)]
pub struct Timing {
    /// Air seconds per wall second, one value per round.
    pub rtf: Vec<f64>,
    pub epoch_ms: Vec<f64>,
    pub frame_ms: Vec<f64>,
    pub chunks: u64,
    pub late_chunks: u64,
    pub lateness_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub reorder_wait_ms: Vec<f64>,
}

impl Timing {
    fn extend(&mut self, other: Timing) {
        self.rtf.extend(other.rtf);
        self.epoch_ms.extend(other.epoch_ms);
        self.frame_ms.extend(other.frame_ms);
        self.chunks += other.chunks;
        self.late_chunks += other.late_chunks;
        self.lateness_ms.extend(other.lateness_ms);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.reorder_wait_ms.extend(other.reorder_wait_ms);
    }
}

/// A round during which the hypervisor ran something else for more than
/// this share of the guest's CPU time is timed on a contended host: its
/// timings are set aside, unless that leaves fewer than half the rounds.
/// Work counts, quality and the digest never depend on it.
pub const STEAL_LIMIT: f64 = 0.02;

/// A workload: its shape and the seed its inputs come from.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub seed: u64,
    pub cfg: DecoderConfig,
    pub extractor: FrameExtractor,
    pub clock: Clock,
}

impl Workload {
    pub fn new(name: &'static str, seed: u64, reduced: bool, clock: Clock) -> Option<Self> {
        let shape = shape(name, reduced)?;
        // Every placement shares the paper's decoder configuration and
        // tag population (same rates, same payload length).
        let probe = &scenarios(seed, shape.tags, 1)[0];
        Some(Workload {
            name,
            shape,
            seed,
            cfg: probe.decoder_config(),
            extractor: FrameExtractor::for_scenario(probe),
            clock,
        })
    }

    /// Synthesizes round `round`'s session: one epoch from each of
    /// `shape.epochs` independent tag placements, each followed by a
    /// carrier-off gap, per reader antenna.
    pub fn session(&self, round: usize) -> Session {
        let shape = self.shape;
        let scs = scenarios(mix64(self.seed) ^ round as u64, shape.tags, shape.epochs);
        let pieces = par_map(&scs, |sc| {
            if shape.readers == 1 {
                let (mut signal, truth) = synthesize_epoch(sc, 0);
                signal.extend(synthesize_gap(sc, 0, GAP_SAMPLES));
                (vec![signal], truth)
            } else {
                // A fleet: the same tags heard by several antennas, each
                // with its own channel realization.
                let (sources, mut truths) =
                    realized_sources(sc, shape.readers, 1, GAP_SAMPLES, CHUNK_SAMPLES);
                let signals = sources
                    .into_iter()
                    .zip(sc.reader_realizations(shape.readers))
                    .map(|(mut src, r)| {
                        let mut signal = Vec::new();
                        while let Some(chunk) = src.next_chunk() {
                            signal.extend(chunk);
                        }
                        signal.extend(synthesize_gap_for(sc, &r, 0, GAP_SAMPLES));
                        signal
                    })
                    .collect();
                (signals, truths.swap_remove(0))
            }
        });
        let epoch_len = scs[0].epoch_samples;
        let mut signals: Vec<Vec<Complex>> = vec![Vec::new(); shape.readers];
        let mut spans = Vec::new();
        let mut truths = Vec::new();
        for (sigs, truth) in pieces {
            let base = signals[0].len();
            spans.push(base..base + epoch_len);
            for (acc, s) in signals.iter_mut().zip(sigs) {
                acc.extend(s);
            }
            truths.push(truth);
        }
        Session {
            signals: signals.into_iter().map(Arc::new).collect(),
            spans,
            truths,
        }
    }

    /// Set-up measurement `k` on `session`: from the first call into the
    /// program until its first result, on the session's epoch `k` (so the
    /// median over several set-ups does not hang on one epoch's cost).
    pub fn setup_once(&self, session: &Arc<Session>, k: usize) -> f64 {
        let c = self.clock;
        let k = k % session.epochs_per_loop();
        match self.name {
            "decode-16" => {
                let span = session.spans[k].clone();
                let t0 = c.now();
                let dec = Decoder::new(self.cfg.clone());
                let mut scratch = DecodeScratch::default();
                let out = dec.decode_timed_with(&session.signals[0][span], &mut scratch);
                let t1 = c.now();
                black_box(out);
                t1 - t0
            }
            "live-4" => {
                let src = ReplaySource::new(0, Arc::clone(session), c, None, k..k + 1, false);
                let obs = ObsContext::new();
                let t0 = c.now();
                let dec = Arc::new(Decoder::with_obs(self.cfg.clone(), obs.clone()));
                let mut rt = ReaderRuntime::spawn_with_obs(src, dec, &self.reader_cfg(), obs);
                let first = rt.recv();
                let t1 = c.now();
                black_box(first);
                black_box(rt.join());
                t1 - t0
            }
            _ => {
                let sources: Vec<ReplaySource> = (0..self.shape.readers)
                    .map(|r| ReplaySource::new(r, Arc::clone(session), c, None, k..k + 1, false))
                    .collect();
                let obs = ObsContext::new();
                let t0 = c.now();
                let dec = Arc::new(Decoder::with_obs(self.cfg.clone(), obs.clone()));
                let (fleet, subs) = FleetRuntime::spawn(sources, dec, &self.fleet_cfg(), 1, obs);
                let first = subs[0].recv();
                let t1 = c.now();
                black_box(first);
                while subs[0].recv().is_some() {}
                black_box(fleet.join());
                t1 - t0
            }
        }
    }

    /// One reader, one decode worker, queues of twice the pool depth.
    fn reader_cfg(&self) -> RuntimeConfig {
        let mut rc = RuntimeConfig::for_decoder(&self.cfg);
        rc.workers = 1;
        rc.job_queue = 2;
        rc.result_queue = 2;
        rc.backpressure = Backpressure::Block;
        rc
    }

    fn fleet_cfg(&self) -> FleetConfig {
        let mut fc = FleetConfig::for_decoder(&self.cfg, self.extractor.clone());
        fc.reader.job_queue = 2;
        fc
    }

    /// Runs rounds until `scored_rounds` are done and, if given,
    /// `seconds` have passed. `first` is round 0's session, already built
    /// for the set-up measurement.
    pub fn timed(&self, first: &Arc<Session>, seconds: Option<f64>, trace: bool) -> Run {
        let c = self.clock;
        let deadline = seconds.map(|s| c.now() + s);
        let mut run = Run::default();
        let mut rounds = Vec::new();
        // The bare decoder lives across rounds, like a caller's would.
        let dec = Decoder::new(self.cfg.clone());
        let mut scratch = DecodeScratch::default();
        if self.name == "decode-16" {
            // Untimed warm-up: the scratch buffers grow on first use.
            let span = first.spans[0].clone();
            black_box(dec.decode_timed_with(&first.signals[0][span], &mut scratch));
        }
        for round in 0.. {
            let done = round >= self.shape.scored_rounds && deadline.is_none_or(|d| c.now() >= d);
            if done {
                break;
            }
            let session = if round == 0 {
                Arc::clone(first)
            } else {
                Arc::new(self.session(round))
            };
            rss_reset();
            let rss_base = rss_now();
            let scored = round < self.shape.scored_rounds;
            let steal0 = cpu_steal_ticks();
            match self.name {
                "decode-16" => {
                    self.round_decoder(
                        &session,
                        round,
                        scored,
                        &dec,
                        &mut scratch,
                        trace,
                        &mut run,
                    );
                }
                "live-4" => self.round_reader(&session, round, scored, trace, &mut run),
                _ => self.round_fleet(&session, round, scored, trace, &mut run),
            }
            run.rss_growth_mb = run.rss_growth_mb.max(rss_peak() - rss_base);
            let steal1 = cpu_steal_ticks();
            let steal = steal1.0.saturating_sub(steal0.0) as f64
                / steal1.1.saturating_sub(steal0.1).max(1) as f64;
            rounds.push((steal, std::mem::take(&mut run.timing)));
            run.rounds = round + 1;
        }
        let clean = rounds.iter().filter(|(s, _)| *s <= STEAL_LIMIT).count();
        let keep_all = 2 * clean < rounds.len();
        for (steal, t) in rounds {
            if keep_all || steal <= STEAL_LIMIT {
                run.timing.extend(t);
                run.timed_rounds += 1;
            }
        }
        run
    }

    // -----------------------------------------------------------------
    // decode-16: the bare decoder, closed loop, one thread
    // -----------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn round_decoder(
        &self,
        session: &Session,
        round: usize,
        scored: bool,
        dec: &Decoder,
        scratch: &mut DecodeScratch,
        trace: bool,
        run: &mut Run,
    ) {
        let c = self.clock;
        let signal = &session.signals[0];
        let n = session.epochs_per_loop();
        let mut decodes = Vec::with_capacity(n);
        let start = c.now();
        for (j, span) in session.spans.iter().enumerate() {
            let handed = c.now();
            let call = c.now();
            let (d, timings) = dec.decode_timed_with(&signal[span.clone()], scratch);
            let ret = c.now();
            // The caller holds the decode from here; summarizing it is
            // the benchmark's own work, outside the measured call.
            decodes.push((DecodeSummary::of(&d, timings), ret - handed));
            run.timing.queue_wait_ms.push((call - handed) * 1e3);
            run.timing
                .reorder_wait_ms
                .push((ret - call - timings.total.as_secs_f64()).max(0.0) * 1e3);
            run.timings.push(timings);
            if trace {
                run.spans
                    .push("core.decode", call, ret, None, Some(round * n + j));
            }
            black_box(d);
        }
        let end = c.now();
        run.timing.rtf.push(self.air(session) / (end - start));
        if trace {
            run.spans.push("bench.round", start, end, None, None);
        }
        // Determinism: the round's first epoch decodes identically again.
        let again = dec
            .decode_timed_with(&signal[session.spans[0].clone()], scratch)
            .0;
        if stream_digest(&again.streams) != decodes[0].0.digest() {
            run.problems
                .push(format!("round {round}: a repeated decode differed"));
        }
        run.epochs_sent += n;
        run.epochs_ok += n;
        for (j, (summary, secs)) in decodes.into_iter().enumerate() {
            run.timing.epoch_ms.push(secs * 1e3);
            if self.carries_frame(&summary) {
                run.timing.frame_ms.push(secs * 1e3);
            }
            if scored {
                run.quality
                    .add(&session.truths[j], &summary.as_decode(), 0.0);
                run.digests.push(summary.digest());
                run.reference.push((round, 0, j, summary));
            }
        }
        if scored {
            self.tally_single(session, round, run);
        }
    }

    /// Air seconds the program consumes per loop of a session: the bare
    /// decoder gets epochs only; a reader consumes the gaps too.
    fn air(&self, session: &Session) -> f64 {
        let fs = self.cfg.sample_rate.sps();
        if self.name == "decode-16" {
            session.spans.iter().map(|s| s.len()).sum::<usize>() as f64 / fs
        } else {
            session.loop_len() as f64 / fs
        }
    }

    fn carries_frame(&self, d: &DecodeSummary) -> bool {
        d.streams
            .iter()
            .any(|s| !self.extractor.extract(s).is_empty())
    }

    /// Single-reader workloads have no bus: the unique CRC-verified frames
    /// in the round's scored decodes are what a consumer receives.
    fn tally_single(&self, session: &Session, round: usize, run: &mut Run) {
        let n = session.epochs_per_loop();
        for (_, _, j, summary) in run.reference.iter().filter(|r| r.0 == round) {
            let sent = sent_payloads(&session.truths[*j]);
            run.frames.sent += sent.len();
            for stream in &summary.streams {
                for f in self.extractor.extract(stream) {
                    let id = f.id((round * n + j) as u64);
                    run.frames
                        .deliver(id, f.rate_bps, f.payload.as_slice(), &sent);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // live-4: one ReaderRuntime fed on a fixed schedule (open loop)
    // -----------------------------------------------------------------

    fn round_reader(
        &self,
        session: &Arc<Session>,
        round: usize,
        scored: bool,
        trace: bool,
        run: &mut Run,
    ) {
        let c = self.clock;
        let n = session.epochs_per_loop();
        let epochs = 2 * n;
        let offered = LIVE_OFFERED_SHARE * self.cfg.sample_rate.sps();
        let handed = self.shape.first_handed(n)..epochs;
        let src = ReplaySource::new(0, Arc::clone(session), c, Some(offered), handed, trace);
        let log = Arc::clone(&src.log);
        let obs = ObsContext::new();
        let dec = Decoder::with_obs(self.cfg.clone(), obs.clone());
        let probe = Arc::new(ProbeDecoder::new(dec, c));
        let mut rt =
            ReaderRuntime::spawn_with_obs(src, Arc::clone(&probe) as _, &self.reader_cfg(), obs);
        let mut result_at = vec![None; epochs];
        while let Some(report) = rt.recv() {
            let t = c.now();
            if report.decode().is_none() {
                continue;
            }
            // Report ranges count from the first sample handed over.
            let start = report.range.start + session.epoch_start(self.shape.first_handed(n));
            let g = (0..epochs).find(|&g| session.epoch_start(g).abs_diff(start) <= BOUNDARY_SLACK);
            if let Some(g) = g {
                result_at[g] = Some(t);
            }
        }
        black_box(rt.join());
        let log = log.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let records = probe.take_records();
        let logs = std::slice::from_ref(&log);
        let carried = self.reduce_round(
            session,
            round,
            scored,
            &records,
            logs,
            |_, g| result_at[g],
            trace,
            run,
        );
        // Open loop: latency runs from when the epoch's last sample was
        // due, so a stalled pipeline is charged for the wait it imposes.
        for g in n..epochs {
            if let Some(t) = result_at[g] {
                let ms = (t - log.due[g]) * 1e3;
                run.timing.epoch_ms.push(ms);
                if carried[g % n] {
                    run.timing.frame_ms.push(ms);
                }
            }
        }
        if scored {
            self.tally_single(session, round, run);
        }
    }

    // -----------------------------------------------------------------
    // fleet-2r: two readers, dedup, bus, one subscriber (closed loop)
    // -----------------------------------------------------------------

    fn round_fleet(
        &self,
        session: &Arc<Session>,
        round: usize,
        scored: bool,
        trace: bool,
        run: &mut Run,
    ) {
        let c = self.clock;
        let readers = self.shape.readers;
        let n = session.epochs_per_loop();
        let epochs = 2 * n;
        let handed = self.shape.first_handed(n)..epochs;
        let sources: Vec<ReplaySource> = (0..readers)
            .map(|r| ReplaySource::new(r, Arc::clone(session), c, None, handed.clone(), trace))
            .collect();
        let logs: Vec<_> = sources.iter().map(|s| Arc::clone(&s.log)).collect();
        let obs = ObsContext::new();
        let dec = Decoder::with_obs(self.cfg.clone(), obs.clone());
        let probe = Arc::new(ProbeDecoder::new(dec, c));
        let (fleet, subs) =
            FleetRuntime::spawn(sources, Arc::clone(&probe) as _, &self.fleet_cfg(), 1, obs);
        let mut frames: Vec<(f64, DeliveredFrame)> = Vec::new();
        let mut backlog_max = 0usize;
        while let Some(frame) = subs[0].recv() {
            let t = c.now();
            if trace {
                backlog_max = backlog_max.max(subs[0].backlog());
            }
            frames.push((t, frame));
        }
        let report = fleet.join();
        let logs: Vec<SourceLog> = logs
            .iter()
            .map(|l| l.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        let records = probe.take_records();
        let mut decode_end = vec![vec![None; epochs]; readers];
        for (rec, p) in records.iter().zip(assign_epochs(session, &records)) {
            if let Some(p) = p.filter(|p| p.epoch < epochs) {
                decode_end[p.reader][p.epoch] = Some(rec.end);
            }
        }
        let result_at = |r: usize, g: usize| decode_end[r][g];
        self.reduce_round(
            session, round, scored, &records, &logs, result_at, trace, run,
        );
        // Epoch latency: last sample handed to a reader → that reader's
        // decode done. Frame latency, per epoch: its last sample handed to
        // the winning reader → its last frame out of `Subscription::recv`.
        for (ends, log) in decode_end.iter().zip(&logs) {
            for (g, end) in ends.iter().enumerate().skip(n) {
                if let Some(end) = end {
                    run.timing.epoch_ms.push((end - log.handed[g]) * 1e3);
                }
            }
        }
        let mut seen = BTreeSet::new();
        // Per epoch: until its last frame is out.
        let mut last_frame = vec![f64::NEG_INFINITY; epochs];
        for (t, f) in &frames {
            // Ordinals count carrier gaps from the first epoch handed over.
            let (g, r) = (f.epoch_ordinal as usize + handed.start, f.winner.0);
            if g >= epochs || r >= readers {
                run.problems
                    .push(format!("round {round}: frame from unknown epoch {g}"));
                continue;
            }
            if !seen.insert(f.id) {
                run.problems
                    .push(format!("round {round}: a frame was delivered twice"));
            }
            if g < n {
                continue;
            }
            last_frame[g] = last_frame[g].max((t - logs[r].handed[g]) * 1e3);
            if let Some(end) = decode_end[r][g] {
                run.timing.reorder_wait_ms.push((t - end) * 1e3);
            }
            if scored {
                let sent = sent_payloads(&session.truths[g % n]);
                // Frame identities restart every round; keep them apart.
                let id = lf_fleet::FrameId {
                    epoch_fp: f.id.epoch_fp ^ mix64(round as u64 + 1),
                    ..f.id
                };
                run.frames
                    .deliver(id, f.rate_bps, f.payload.as_slice(), &sent);
            }
        }
        run.timing
            .frame_ms
            .extend(last_frame.into_iter().filter(|ms| ms.is_finite()));
        if scored {
            run.frames.sent += session
                .truths
                .iter()
                .map(|t| sent_payloads(t).len())
                .sum::<usize>();
        }
        if report.stats.frames_delivered != frames.len() as u64 {
            run.problems.push(format!(
                "round {round}: fleet reports {} frames delivered, the subscriber drained {}",
                report.stats.frames_delivered,
                frames.len()
            ));
        }
        if trace {
            run.bus_backlog_max = Some(run.bus_backlog_max.unwrap_or(0).max(backlog_max));
        }
    }

    /// Shared reduction of one runtime round: segmentation outcome,
    /// determinism, scored quality, the measured loop's rate, waits and
    /// spans. `result_at(reader, epoch)` is when an epoch's result reached
    /// the caller. Returns which epochs of the loop carried a frame.
    #[allow(clippy::too_many_arguments)]
    fn reduce_round(
        &self,
        session: &Session,
        round: usize,
        scored: bool,
        records: &[DecodeRecord],
        logs: &[SourceLog],
        result_at: impl Fn(usize, usize) -> Option<f64>,
        trace: bool,
        run: &mut Run,
    ) -> Vec<bool> {
        let n = session.epochs_per_loop();
        let epochs = 2 * n;
        let first = self.shape.first_handed(n);
        let readers = logs.len();
        let id = |g: usize| round * epochs + g;
        run.epochs_sent += (epochs - first) * readers;
        for l in logs {
            run.timing.chunks += l.chunks;
            run.timing.late_chunks += l.late_chunks;
            run.timing
                .lateness_ms
                .extend(l.lateness.iter().map(|s| s * 1e3));
        }
        let placed = assign_epochs(session, records);
        let mut by_epoch: Vec<Vec<Option<usize>>> = vec![vec![None; epochs]; readers];
        for (i, p) in placed.iter().enumerate() {
            if let Some(p) = p.filter(|p| p.epoch < epochs) {
                by_epoch[p.reader][p.epoch] = Some(i);
            }
        }
        let mut carried = vec![false; n];
        let mut digests = Vec::new();
        for (r, slots) in by_epoch.iter().enumerate() {
            for (g, slot) in slots.iter().enumerate() {
                let (Some(i), Some(p)) = (*slot, slot.and_then(|i| placed[i])) else {
                    continue;
                };
                let rec = &records[i];
                let right = p.delta.unsigned_abs() <= BOUNDARY_SLACK
                    && rec.len.abs_diff(session.spans[g % n].len()) <= 2 * BOUNDARY_SLACK;
                if right && result_at(r, g).is_some() {
                    run.epochs_ok += 1;
                }
                if g < n {
                    continue;
                }
                // The measured loop. Warm-up epochs after the first saw
                // the same samples and segmented alike: they must decode
                // identically.
                let digest = rec.summary.digest();
                if let Some(k) = slots[g - n].filter(|_| g - n > first) {
                    if records[k].summary.digest() != digest {
                        run.problems.push(format!(
                            "round {round}: reader {r} decoded epoch {} differently on replay",
                            g % n
                        ));
                    }
                }
                carried[g % n] |= self.carries_frame(&rec.summary);
                if scored {
                    let shift = -(p.delta as f64);
                    run.quality
                        .add(&session.truths[g % n], &rec.summary.as_decode(), shift);
                    digests.push(((g % n, r), digest));
                    run.reference.push((round, r, g % n, rec.summary.clone()));
                }
            }
        }
        digests.sort_by_key(|&(key, _)| key);
        run.digests.extend(digests.into_iter().map(|(_, d)| d));

        // The measured loop's rate: from loop 0's last result to loop 1's.
        let completion = |l: usize| {
            (0..readers)
                .map(|r| result_at(r, l * n + n - 1))
                .try_fold(f64::NEG_INFINITY, |acc, t| t.map(|t| acc.max(t)))
        };
        if let (Some(a), Some(b)) = (completion(0), completion(1)) {
            run.timing.rtf.push(self.air(session) / (b - a));
        } else {
            run.problems
                .push(format!("round {round}: a loop never completed"));
        }

        for (r, (log, slots)) in logs.iter().zip(&by_epoch).enumerate() {
            for (g, slot) in slots.iter().enumerate() {
                let Some(i) = *slot else { continue };
                let rec = &records[i];
                run.timings.push(rec.summary.timings);
                let result = result_at(r, g);
                if g >= n {
                    run.timing
                        .queue_wait_ms
                        .push((rec.start - log.handed[g]) * 1e3);
                    if readers == 1 {
                        if let Some(t) = result {
                            run.timing.reorder_wait_ms.push((t - rec.end) * 1e3);
                        }
                    }
                    // Epochs whose closing gap was handed over in full
                    // (so the segmenter had queued them) before this
                    // epoch's decode started.
                    let depth = (g + 1..epochs)
                        .take_while(|&h| log.closed.get(h).is_some_and(|&t| t <= rec.start))
                        .count();
                    run.queue_depth_max = run.queue_depth_max.max(depth);
                }
                if trace {
                    let end = result.unwrap_or(rec.end).max(rec.end);
                    let e = Some(id(g));
                    let parent = run.spans.push("reader.epoch", log.handed[g], end, None, e);
                    let p = Some(parent);
                    run.spans
                        .push("reader.queue_wait", log.handed[g], rec.start, p, e);
                    run.spans.push("core.decode", rec.start, rec.end, p, e);
                    run.spans.push("reader.deliver", rec.end, end, p, e);
                }
            }
            if trace {
                for &(a, b) in &log.chunk_spans {
                    run.spans.push("source.chunk", a, b, None, None);
                }
            }
        }
        carried
    }

    // -----------------------------------------------------------------
    // Traced run only: each layer's public functions, called and timed
    // by the benchmark on this workload's own data.
    // -----------------------------------------------------------------

    /// Segments one loop of reader 0's session in `CHUNK_SAMPLES` chunks.
    /// Returns (ns per sample, epochs found).
    pub fn segment_pass(&self, session: &Session, spans: &mut Spans) -> (f64, usize) {
        let c = self.clock;
        let signal = &session.signals[0];
        let mut seg = OnlineSegmenter::new(SegmenterConfig::from_decoder(&self.cfg));
        let mut out: Vec<SegmentedEpoch> = Vec::new();
        let mut busy = 0.0;
        let mut found = 0;
        for chunk in signal.chunks(CHUNK_SAMPLES) {
            let t0 = c.now();
            seg.push_chunk(chunk, &mut out);
            let t1 = c.now();
            busy += t1 - t0;
            spans.push("reader.segment", t0, t1, None, None);
            found += out.len();
            out.clear();
        }
        seg.finish(&mut out);
        found += out.len();
        (busy * 1e9 / signal.len() as f64, found)
    }

    /// Runs the scored decodes through `FrameExtractor`, `DedupRegistry`
    /// and a one-subscriber `FrameBus`, epoch by epoch.
    pub fn frame_pass(&self, run: &Run, spans: &mut Spans) -> FramePass {
        let c = self.clock;
        let registry = DedupRegistry::new();
        let bus = FrameBus::new(1 << 16, Backpressure::Block);
        let sub = bus.subscribe();
        let mut fp = FramePass::default();
        let mut tick = 0u64;
        let mut epochs = BTreeSet::new();
        let n = self.shape.epochs;
        for (round, r, j, summary) in &run.reference {
            let ordinal = (round * n + j) as u64;
            let e = Some(ordinal as usize);
            epochs.insert(ordinal);
            fp.decodes += 1;
            for stream in &summary.streams {
                let t0 = c.now();
                let frames = self.extractor.extract(stream);
                let t1 = c.now();
                spans.push("fleet.extract", t0, t1, None, e);
                fp.extract_s += t1 - t0;
                fp.streams += 1;
                if frames.is_empty() {
                    fp.streams_no_crc += 1;
                }
                for f in frames {
                    let id = f.id(ordinal);
                    let t0 = c.now();
                    let claim = registry.claim(id, ReaderId(*r), ordinal, tick);
                    let t1 = c.now();
                    spans.push("fleet.claim", t0, t1, None, e);
                    fp.claim_s += t1 - t0;
                    fp.claims += 1;
                    if let lf_fleet::Claim::Winner = claim {
                        let frame = DeliveredFrame {
                            payload: f.payload,
                            rate_bps: f.rate_bps,
                            kind: f.kind,
                            epoch_ordinal: ordinal,
                            winner: ReaderId(*r),
                            reason: lf_fleet::WinReason::FirstClaim,
                            id,
                        };
                        let t0 = c.now();
                        black_box(bus.publish(&frame));
                        let t1 = c.now();
                        spans.push("fleet.publish", t0, t1, None, e);
                        fp.publish_s += t1 - t0;
                        fp.published += 1;
                        tick += 1;
                    } else {
                        fp.duplicates += 1;
                    }
                }
            }
            fp.backlog_max = fp.backlog_max.max(sub.backlog());
            while sub.try_recv().is_some() {}
        }
        fp.epochs = epochs.len();
        bus.close();
        fp
    }

    /// Decode time with `Decoder::with_obs` over `Decoder::new` on the
    /// same epochs, alternating which goes first: the median per-epoch
    /// ratio, minus one.
    pub fn obs_overhead(&self, session: &Session) -> f64 {
        let plain = Decoder::new(self.cfg.clone());
        let with_obs = Decoder::with_obs(self.cfg.clone(), ObsContext::new());
        let mut s_plain = DecodeScratch::default();
        let mut s_obs = DecodeScratch::default();
        let signal = &session.signals[0];
        let c = self.clock;
        // Warm both scratches first: buffers grow on first use.
        let warm = &signal[session.spans[0].clone()];
        black_box(plain.decode_timed_with(warm, &mut s_plain));
        black_box(with_obs.decode_timed_with(warm, &mut s_obs));
        let mut ratios = Vec::new();
        for (j, span) in session.spans.iter().enumerate() {
            let epoch = &signal[span.clone()];
            let time = |d: &Decoder, s: &mut DecodeScratch| {
                let t0 = c.now();
                black_box(d.decode_timed_with(epoch, s));
                c.now() - t0
            };
            let (a, b) = if j % 2 == 0 {
                let a = time(&plain, &mut s_plain);
                (a, time(&with_obs, &mut s_obs))
            } else {
                let b = time(&with_obs, &mut s_obs);
                (time(&plain, &mut s_plain), b)
            };
            ratios.push(b / a);
        }
        crate::common::median(&ratios) - 1.0
    }

    /// Mean of each stage's time and of the whole decode over every
    /// decode of the run, in ms.
    pub fn stage_means(run: &Run) -> ([f64; STAGE_COUNT], f64) {
        let mut stages = [0.0; STAGE_COUNT];
        let mut total = 0.0;
        for t in &run.timings {
            for (acc, d) in stages.iter_mut().zip(t.per_stage) {
                *acc += d.as_secs_f64() * 1e3;
            }
            total += t.total.as_secs_f64() * 1e3;
        }
        let n = run.timings.len().max(1) as f64;
        for s in &mut stages {
            *s /= n;
        }
        (stages, total / n)
    }
}

/// Totals of [`Workload::frame_pass`].
#[derive(Debug, Default)]
pub struct FramePass {
    pub decodes: usize,
    pub epochs: usize,
    pub streams: usize,
    pub streams_no_crc: usize,
    pub claims: usize,
    pub duplicates: usize,
    pub published: usize,
    pub backlog_max: usize,
    pub extract_s: f64,
    pub claim_s: f64,
    pub publish_s: f64,
}
