//! Pieces shared by the three workloads: input synthesis, the replay
//! source, the decode probe, scoring against synthesis truth, and the
//! statistics every metric is reduced with.

use lf_core::{DecodeProvenance, DecodeScratch, DecodedStream, Decoder, EpochDecode, StageTimings};
use lf_fleet::FrameId;
use lf_reader::{EpochDecoder, IqSource};
use lf_sim::experiments::common::{standard_scenario, ThroughputParams};
use lf_sim::experiments::Scale;
use lf_sim::scenario::Scenario;
use lf_sim::score::{score_epoch, TruthStream};
use lf_types::Complex;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Every tag in every workload transmits at 100 kbps (paper scale).
pub const TAG_RATE_BPS: f64 = 100_000.0;

/// Samples per IQ chunk handed to a reader (≈0.33 ms of air at 25 Msps).
pub const CHUNK_SAMPLES: usize = 8_192;

/// Carrier-off gap between epochs of a session. It must exceed the
/// segmenter's `min_gap` (two bit periods of the slowest plan rate,
/// 100 000 samples at 25 Msps) plus its smoothing window, and stay
/// shorter than an epoch: the online segmenter calibrates its threshold
/// from a window that must be mostly carrier-on (see README.md, known
/// limitation).
pub const GAP_SAMPLES: usize = 104_000;

/// Seconds since a fixed origin; every timestamp of a run shares one.
#[derive(Debug, Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    pub fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `n_scenarios` independent placements of `n_tags` tags, all drawn from
/// `seed`, at paper scale: 25 Msps, the 11-rate plan, 150 000-sample
/// (6 ms) epochs.
pub fn scenarios(seed: u64, n_tags: usize, n_scenarios: usize) -> Vec<Scenario> {
    let p = ThroughputParams::for_scale(Scale::Paper);
    (0..n_scenarios)
        .map(|s| {
            let sub = mix64(seed ^ mix64(s as u64 + 1));
            standard_scenario(&p, n_tags, TAG_RATE_BPS, sub)
        })
        .collect()
}

/// Runs `f` over `items` on two threads, preserving order. Input
/// synthesis only: it finishes before any clock starts.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let half = items.len().div_ceil(2);
    let (a, b) = items.split_at(half);
    std::thread::scope(|s| {
        let hb = s.spawn(|| b.iter().map(&f).collect::<Vec<U>>());
        let mut out: Vec<U> = a.iter().map(&f).collect();
        match hb.join() {
            Ok(rest) => out.extend(rest),
            Err(p) => std::panic::resume_unwind(p),
        }
        out
    })
}

// ---------------------------------------------------------------------
// Sessions and the replay source
// ---------------------------------------------------------------------

/// One loop of a reader's session: epochs each followed by a carrier-off
/// gap, so the loop can be replayed back to back without a seam.
#[derive(Debug)]
pub struct Session {
    /// One loop of IQ samples per reader antenna.
    pub signals: Vec<Arc<Vec<Complex>>>,
    /// Epoch sample ranges within one loop (identical for every reader).
    pub spans: Vec<std::ops::Range<usize>>,
    /// Ground truth per epoch of the loop, offsets relative to the span.
    pub truths: Vec<Vec<TruthStream>>,
}

impl Session {
    pub fn loop_len(&self) -> usize {
        self.signals[0].len()
    }

    pub fn epochs_per_loop(&self) -> usize {
        self.spans.len()
    }

    /// Global start of epoch `g` (loop-major numbering).
    pub fn epoch_start(&self, g: usize) -> usize {
        let n = self.epochs_per_loop();
        (g / n) * self.loop_len() + self.spans[g % n].start
    }

    /// Global index of the last sample of epoch `g`.
    pub fn epoch_last(&self, g: usize) -> usize {
        let n = self.epochs_per_loop();
        (g / n) * self.loop_len() + self.spans[g % n].end - 1
    }
}

/// What one replay source observed while handing out chunks.
#[derive(Debug, Default, Clone)]
pub struct SourceLog {
    /// Per global epoch: when its last sample was handed over.
    pub handed: Vec<f64>,
    /// Per global epoch: when its last sample was due (open loop) or
    /// handed (closed loop).
    pub due: Vec<f64>,
    /// Per global epoch: when the gap that closes it had been handed over
    /// in full (from then on the segmenter can emit the epoch).
    pub closed: Vec<f64>,
    pub chunks: u64,
    pub late_chunks: u64,
    /// How late each chunk was handed over, in seconds (open loop).
    pub lateness: Vec<f64>,
    /// `(start, end)` of every `next_chunk` call, traced runs only.
    pub chunk_spans: Vec<(f64, f64)>,
}

/// An `IqSource` replaying a session loop from memory: the global epochs
/// `epochs`, each with the gap that closes it. Closed
/// loop: a chunk is handed over as soon as it is asked for. Open loop:
/// a chunk is due when its last sample would have arrived at
/// `offered_sps`, and is never handed over before that.
#[derive(Debug)]
pub struct ReplaySource {
    index: usize,
    session: Arc<Session>,
    clock: Clock,
    offered_sps: Option<f64>,
    /// Open-loop schedule origin.
    t0: f64,
    begin: usize,
    end: usize,
    pub log: Arc<Mutex<SourceLog>>,
    trace: bool,
    pos: usize,
}

impl ReplaySource {
    pub fn new(
        index: usize,
        session: Arc<Session>,
        clock: Clock,
        offered_sps: Option<f64>,
        epochs: std::ops::Range<usize>,
        trace: bool,
    ) -> Self {
        let begin = session.epoch_start(epochs.start);
        let end = session.epoch_start(epochs.end);
        // Epochs before the first one handed over have no times.
        let skipped = vec![f64::NAN; epochs.start];
        let log = SourceLog {
            handed: skipped.clone(),
            due: skipped.clone(),
            closed: skipped,
            ..SourceLog::default()
        };
        ReplaySource {
            index,
            session,
            clock,
            offered_sps,
            t0: clock.now(),
            begin,
            end,
            log: Arc::new(Mutex::new(log)),
            trace,
            pos: begin,
        }
    }

    fn due(&self, sample: usize) -> Option<f64> {
        self.offered_sps
            .map(|sps| self.t0 + (sample + 1 - self.begin) as f64 / sps)
    }
}

impl IqSource for ReplaySource {
    fn next_chunk(&mut self) -> Option<Vec<Complex>> {
        if self.pos >= self.end {
            return None;
        }
        let enter = self.clock.now();
        let end = (self.pos + CHUNK_SAMPLES).min(self.end);
        let signal = &self.session.signals[self.index];
        let len = signal.len();
        let chunk: Vec<Complex> = (self.pos..end).map(|i| signal[i % len]).collect();
        let due = self.due(end - 1);
        if let Some(due) = due {
            let wait = due - self.clock.now();
            if wait > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(wait));
            }
        }
        let handed = self.clock.now();
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        // Late: handed over more than one chunk period after it was due.
        // Chunks before the measured loop are warm-up (the segmenter
        // calibrates on them and then catches up) and do not count.
        if self.pos >= self.session.loop_len() {
            log.chunks += 1;
            if let (Some(due), Some(sps)) = (due, self.offered_sps) {
                log.lateness.push(handed - due);
                if handed - due > CHUNK_SAMPLES as f64 / sps {
                    log.late_chunks += 1;
                }
            }
        }
        // Epoch ends and gap ends inside this chunk.
        let mut g = log.handed.len();
        while self.session.epoch_last(g) < end {
            let last = self.session.epoch_last(g);
            log.handed.push(handed);
            log.due.push(self.due(last).unwrap_or(handed));
            g += 1;
        }
        let mut c = log.closed.len();
        while c < g && self.session.epoch_start(c + 1) <= end {
            log.closed.push(handed);
            c += 1;
        }
        if self.trace {
            log.chunk_spans.push((enter, handed));
        }
        drop(log);
        self.pos = end;
        Some(chunk)
    }
}

// ---------------------------------------------------------------------
// The decode probe: the benchmark's own wrapper around the decoder
// ---------------------------------------------------------------------

/// What one decode call produced, as recorded by [`ProbeDecoder`].
#[derive(Debug, Clone)]
pub struct DecodeRecord {
    /// First sample of the epoch (identifies reader and epoch afterwards).
    pub first: (u64, u64),
    pub len: usize,
    pub start: f64,
    pub end: f64,
    pub summary: DecodeSummary,
}

/// The parts of an `EpochDecode` the benchmark scores and counts.
#[derive(Debug, Clone)]
pub struct DecodeSummary {
    pub streams: Vec<DecodedStream>,
    pub n_edges: usize,
    pub n_tracked: usize,
    pub admission_rejects: usize,
    pub carve_attempts: usize,
    pub timings: StageTimings,
}

impl DecodeSummary {
    pub fn of(d: &EpochDecode, timings: StageTimings) -> Self {
        DecodeSummary {
            streams: d.streams.clone(),
            n_edges: d.n_edges,
            n_tracked: d.n_tracked,
            admission_rejects: d.provenance.admission.len(),
            carve_attempts: d
                .provenance
                .streams
                .iter()
                .filter(|s| s.carve.is_some())
                .count(),
            timings,
        }
    }

    /// An `EpochDecode` carrying the recorded streams, for `score_epoch`.
    pub fn as_decode(&self) -> EpochDecode {
        EpochDecode {
            streams: self.streams.clone(),
            n_edges: self.n_edges,
            n_tracked: self.n_tracked,
            provenance: DecodeProvenance::default(),
        }
    }

    pub fn digest(&self) -> u64 {
        stream_digest(&self.streams)
    }
}

/// Wraps the pipeline decoder handed to a runtime, timestamping each
/// decode and keeping what it returned. It adds no tracing inside the
/// program: it only sees the `EpochDecoder` call boundary.
#[derive(Debug)]
pub struct ProbeDecoder {
    pub inner: Decoder,
    pub clock: Clock,
    pub records: Mutex<Vec<DecodeRecord>>,
}

impl ProbeDecoder {
    pub fn new(inner: Decoder, clock: Clock) -> Self {
        ProbeDecoder {
            inner,
            clock,
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn take_records(&self) -> Vec<DecodeRecord> {
        std::mem::take(&mut *self.records.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl EpochDecoder for ProbeDecoder {
    fn decode_epoch(
        &self,
        samples: &[Complex],
        scratch: &mut DecodeScratch,
    ) -> (EpochDecode, StageTimings) {
        let start = self.clock.now();
        let (decode, timings) = self.inner.decode_timed_with(samples, scratch);
        let end = self.clock.now();
        let first = samples
            .first()
            .map_or((0, 0), |c| (c.re.to_bits(), c.im.to_bits()));
        let record = DecodeRecord {
            first,
            len: samples.len(),
            start,
            end,
            summary: DecodeSummary::of(&decode, timings),
        };
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
        (decode, timings)
    }
}

/// Maps the first sample of a segmented epoch back to its reader and
/// its epoch within the loop. Replayed loops repeat the same samples, so
/// the loop number comes from decode order, in [`assign_epochs`].
#[derive(Debug)]
pub struct EpochLocator {
    by_first: std::collections::HashMap<(u64, u64), (usize, usize, isize)>,
}

/// How far a segmented epoch may start from the true epoch start.
const BOUNDARY_SLACK: isize = 64;

impl EpochLocator {
    pub fn new(session: &Session) -> Self {
        let mut by_first = std::collections::HashMap::new();
        for (r, signal) in session.signals.iter().enumerate() {
            let len = signal.len() as isize;
            for (j, span) in session.spans.iter().enumerate() {
                for delta in -BOUNDARY_SLACK..=BOUNDARY_SLACK {
                    let p = (span.start as isize + delta).rem_euclid(len) as usize;
                    let c = signal[p];
                    by_first
                        .entry((c.re.to_bits(), c.im.to_bits()))
                        .or_insert((r, j, delta));
                }
            }
        }
        EpochLocator { by_first }
    }

    /// `(reader, epoch within the loop, start offset from the true start)`.
    pub fn locate(&self, first: (u64, u64)) -> Option<(usize, usize, isize)> {
        self.by_first.get(&first).copied()
    }
}

/// A recorded decode placed in the run: reader, global epoch, and the
/// offset of its first sample from the epoch's true start.
#[derive(Debug, Clone, Copy)]
pub struct Placed {
    pub reader: usize,
    pub epoch: usize,
    pub delta: isize,
}

/// Places every record. Each reader decodes its epochs in order (one
/// worker per reader), so the global epoch is the first one after the
/// reader's previous epoch whose position in the loop matches.
pub fn assign_epochs(session: &Session, records: &[DecodeRecord]) -> Vec<Option<Placed>> {
    let locator = EpochLocator::new(session);
    let n = session.epochs_per_loop();
    let mut next = vec![0usize; session.signals.len()];
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by(|&a, &b| records[a].start.total_cmp(&records[b].start));
    let mut out = vec![None; records.len()];
    for i in order {
        let Some((r, j, delta)) = locator.locate(records[i].first) else {
            continue;
        };
        let mut g = next[r];
        while g % n != j {
            g += 1;
        }
        next[r] = g + 1;
        out[i] = Some(Placed {
            reader: r,
            epoch: g,
            delta,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Digests and scoring
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over every decoded stream: rate, offset, period, kind, bits.
pub fn stream_digest(streams: &[DecodedStream]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in streams {
        h = fnv1a(h, &s.rate_bps.to_bits().to_le_bytes());
        h = fnv1a(h, &s.offset.to_bits().to_le_bytes());
        h = fnv1a(h, &s.period.to_bits().to_le_bytes());
        h = fnv1a(h, &[s.kind as u8]);
        h = fnv1a(h, &(s.bits.len() as u64).to_le_bytes());
        h = fnv1a(h, &s.bits.to_bytes());
    }
    h
}

/// Folds per-epoch digests, in epoch order, into one workload digest.
pub fn fold_digest(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

/// Decode quality against synthesis truth, summed over scored epochs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Quality {
    pub frames_sent: usize,
    pub frames_ok: usize,
    pub bits_sent: usize,
    pub bits_ok: usize,
    pub streams: usize,
    pub streams_true_rate: usize,
    pub truths: usize,
    pub truths_matched: usize,
}

impl Quality {
    /// Scores one decode. `shift` moves truth offsets from the epoch's
    /// own start to the start of the segmented samples.
    pub fn add(&mut self, truths: &[TruthStream], decode: &EpochDecode, shift: f64) {
        let shifted: Vec<TruthStream> = truths
            .iter()
            .map(|t| {
                let mut t = t.clone();
                t.offset += shift;
                t
            })
            .collect();
        for (t, s) in truths.iter().zip(score_epoch(&shifted, decode)) {
            self.frames_sent += s.frames_sent;
            self.frames_ok += s.frames_ok;
            self.bits_sent += s.frames_sent * t.payload_bits;
            self.bits_ok += s.payload_bits_correct;
            self.truths += 1;
            if s.payload_bits_correct > 0 {
                self.truths_matched += 1;
            }
        }
        self.streams += decode.streams.len();
        self.streams_true_rate += decode
            .streams
            .iter()
            .filter(|s| {
                truths
                    .iter()
                    .any(|t| t.rate_bps.to_bits() == s.rate_bps.to_bits())
            })
            .count();
    }
}

/// Payloads synthesis sent in one epoch, keyed by rate.
pub fn sent_payloads(truths: &[TruthStream]) -> Vec<(u64, Vec<bool>)> {
    let mut out = Vec::new();
    for t in truths {
        for f in 0..t.frames_sent() {
            let base = f * t.frame_len + 1;
            let payload = t.bits.as_slice()[base..base + t.payload_bits].to_vec();
            out.push((t.rate_bps.to_bits(), payload));
        }
    }
    out
}

/// Unique CRC-verified frames and how many of them synthesis sent.
#[derive(Debug, Default)]
pub struct FrameTally {
    pub sent: usize,
    pub delivered: BTreeSet<FrameId>,
    pub genuine: usize,
}

impl FrameTally {
    /// Records one delivered frame of an epoch whose truth is `sent`;
    /// a frame already delivered counts once.
    pub fn deliver(
        &mut self,
        id: FrameId,
        rate_bps: f64,
        payload: &[bool],
        sent: &[(u64, Vec<bool>)],
    ) {
        if !self.delivered.insert(id) {
            return;
        }
        if sent
            .iter()
            .any(|(r, p)| *r == rate_bps.to_bits() && p.as_slice() == payload)
        {
            self.genuine += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// A timing reduced to its median and its tail: the highest percentile
/// that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            n,
            p50: f64::NAN,
            tail: f64::NAN,
            tail_pct: f64::NAN,
        };
    }
    let p50 = if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    };
    // With ten samples or fewer no percentile has ten beyond it; the
    // maximum is the honest tail then.
    let k = if n > 10 { n - 11 } else { n - 1 };
    let tail_pct = if n > 1 {
        100.0 * k as f64 / (n - 1) as f64
    } else {
        0.0
    };
    Summary {
        n,
        p50,
        tail: v[k],
        tail_pct,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

// ---------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?;
        rest.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<f64>()
            .ok()
    })
}

/// Resets the peak-RSS mark to the current RSS; false where the kernel
/// does not allow it (the peak then only ever grows).
pub fn rss_reset() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current RSS, in MB.
pub fn rss_now() -> f64 {
    status_kb("VmRSS:").unwrap_or(0.0) / 1024.0
}

/// `(steal, total)` CPU ticks since boot, from `/proc/stat`: time the
/// hypervisor ran something else while this guest wanted to run.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak RSS since the last reset, in MB.
pub fn rss_peak() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One span of the traced run, kept in memory until exit.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub epoch: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        epoch: Option<usize>,
    ) -> usize {
        self.0.push(Span {
            name,
            start,
            end,
            parent,
            epoch,
        });
        self.0.len() - 1
    }

    /// Writes the spans as a Chrome trace-event file (loadable in
    /// Perfetto); `parent` and `epoch` ride in each event's args.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.0.iter().enumerate() {
            let sep = if i + 1 == self.0.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let epoch = s.epoch.map_or("null".to_owned(), |e| e.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"epoch\":{epoch}}}}}{sep}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
