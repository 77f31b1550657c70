//! Stage 2 — separating edges into streams (§3.2).
//!
//! Three mechanisms work together:
//!
//! * **Eye-pattern folding** finds `(rate, offset)` candidates: edge times
//!   are folded at each valid rate's period; a real stream piles its edges
//!   into one phase bin, noise does not ("such an edge would not have a
//!   repeating pattern at one of the valid rates"). Folding runs over a
//!   *drift-safe* prefix window — beyond it a 150 ppm crystal smears its
//!   own phase bin.
//! * **Drift tracking** walks each candidate through the whole epoch:
//!   predict the next slot boundary, match the nearest edge within a
//!   tolerance, refine the period from the global slope (crystal drift is
//!   a constant frequency error, so the slope through all matched
//!   boundaries is the statistically right estimator).
//! * **Arbitration**: every edge belongs to exactly one tag, so candidate
//!   tracks from *all* rate hypotheses compete for edges. Candidates are
//!   ranked by track quality — residual dispersion around the fitted
//!   period line (a genuine stream: ≲1 sample; a track zigzagging between
//!   several tags' edges: several samples), with faster rates winning
//!   ties (a slow hypothesis over a fast stream's edges fits perfectly
//!   but explains only a subset). Accepted tracks claim their edges; a
//!   candidate most of whose edges are already claimed is an alias or
//!   zigzag over better-explained streams and is dropped.
//!
//! Structural alias checks run at arbitration, lazily: only a candidate
//! that reaches its turn with none of its edges claimed pays for them
//! (most candidates lose to a better-ranked overlapping one first):
//!
//! * a majority of matched slots in one residue class mod m means the
//!   true stream is m× slower (down-alias);
//! * inter-slot positions full of same-direction unexplained edges mean
//!   the true stream is m× *faster* (up-alias: a fast stream lands an
//!   edge on every slot of a slower grid and looks healthy there);
//! * interleaved same-rate streams masquerading as one faster stream
//!   betray themselves through collinear per-residue IQ sub-streams
//!   combined with per-residue timing bands or direction diversity.
//!
//! Known limitation: two same-rate tags whose offsets align to half a
//! period within ~2 samples, whose channel vectors are near-parallel
//! (≲15°), *and* whose amplitudes match within ~25 % are physically
//! indistinguishable from one double-rate stream within an epoch — every
//! tell is blind. Such pairs fuse and their frames fail; the per-epoch
//! offset re-randomization (§3.2) separates them on the next epoch, which
//! is how the reliability layer recovers.

use crate::config::DecoderConfig;
use crate::edges::EdgeEvent;
use crate::provenance::{AdmissionGate, AdmissionRecord, FoldProvenance};
use lf_dsp::fold::{FoldSpec, FoldTable, FoldedHistogram};
use lf_types::BitRate;

/// Minimum matched slots a candidate track needs to pass validation (the
/// `too_few` size gate), and therefore the minimum epoch edge count below
/// which the whole stream search is provably fruitless (the
/// [`AdmissionGate::EpochEdgeCount`] admission gate).
const MIN_TRACK_MATCHES: usize = 4;

/// Reusable per-track scratch: an epoch-edge-indexed mask of the edges
/// the current track has taken, the list of indices set in it, and the
/// walk's slot-time/match buffers.
///
/// The tracker used to test membership with `Vec::contains` on a growing
/// index list — O(track length) per probe, quadratic per track, and the
/// dominant cost of the folding stage at ci scale. The mask is O(1) per
/// probe; clearing only the set bits between tracks keeps reset O(taken)
/// instead of O(edges). The slot buffers are pooled because the search
/// walks over ten times more tracks than it accepts: only an accepted
/// track pays for an owned copy.
#[derive(Debug, Default)]
struct TrackScratch {
    taken_mask: Vec<bool>,
    taken: Vec<usize>,
    /// Slot boundary times of the track last walked.
    slot_times: Vec<f64>,
    /// Per-slot matched edge index of the track last walked.
    matched: Vec<Option<usize>>,
}

impl TrackScratch {
    /// Prepares the scratch for a new epoch of `n_edges` edges with an
    /// all-clear mask, whatever state an interrupted walk left it in.
    fn reset_epoch(&mut self, n_edges: usize) {
        self.taken_mask.clear();
        self.taken_mask.resize(n_edges, false);
        self.taken.clear();
    }

    /// Prepares the scratch for a walk. Bits set by the previous walk
    /// have already been cleared by [`track_stream`].
    fn begin_walk(&mut self) {
        self.slot_times.clear();
        self.matched.clear();
    }

    /// The track last walked, as an owned stream.
    fn to_tracked(&self, walk: &Walk, fold: FoldProvenance) -> TrackedStream {
        TrackedStream {
            rate: walk.rate,
            rate_bps: walk.rate_bps,
            nominal_period: walk.nominal_period,
            period_est: walk.period_est,
            offset: walk.offset,
            slot_times: self.slot_times.clone(),
            matched: self.matched.clone(),
            residual_std: walk.residual_std,
            fold,
        }
    }

    /// Marks edge `i` as taken by the current track.
    fn take(&mut self, i: usize) {
        self.taken_mask[i] = true;
        self.taken.push(i);
    }

    /// Clears exactly the bits the current track set.
    fn clear_taken(&mut self) {
        for &i in &self.taken {
            self.taken_mask[i] = false;
        }
        self.taken.clear();
    }
}

/// Bucket width (log2 samples) of [`EdgeTimeIndex`]: 64-sample buckets
/// keep the table small (~1/64 of the epoch) while holding ≈1 edge per
/// bucket at realistic edge densities, so lookups advance at most a step
/// or two past the bucket boundary.
const EDGE_INDEX_SHIFT: usize = 6;

/// O(1) time→edge-index lookup over the epoch's sorted edge-time array.
///
/// `start_of(t)` returns exactly `times.partition_point(|&x| x < t)`
/// — the first edge at or after `t` — but via a bucketed table instead of
/// a binary search. The tracker probes a slot window once per predicted
/// slot of every candidate track (tens of thousands of probes per epoch),
/// and neither a branchy `partition_point` nor a cursor stepped edge by
/// edge keeps up: at the slow rates one bit period spans hundreds of
/// edges. The index works on the SoA `times` array (not the `EdgeEvent`
/// structs): the probe loop walks times and strengths only, and the
/// struct-of-arrays layout keeps those walks on dense cache lines (see
/// DESIGN.md §15).
#[derive(Debug, Default)]
struct EdgeTimeIndex {
    /// `bucket[b]` = index of the first edge with `time >= b << SHIFT`.
    bucket: Vec<u32>,
    n_edges: usize,
}

impl EdgeTimeIndex {
    /// Rebuilds the index over `times` for an `n_samples` capture,
    /// reusing the bucket allocation.
    fn rebuild(&mut self, times: &[f64], n_samples: usize) {
        let nb = (n_samples >> EDGE_INDEX_SHIFT) + 2;
        self.n_edges = times.len();
        self.bucket.clear();
        let mut i = 0usize;
        for b in 0..nb {
            let t = (b << EDGE_INDEX_SHIFT) as f64;
            while i < times.len() && times[i] < t {
                i += 1;
            }
            self.bucket.push(i as u32);
        }
    }

    /// First index whose edge time is `>= t`; identical to
    /// `times.partition_point(|&x| x < t)` for the indexed time array.
    fn start_of(&self, times: &[f64], t: f64) -> usize {
        if t <= 0.0 {
            return 0;
        }
        let b = ((t.floor() as usize) >> EDGE_INDEX_SHIFT).min(self.bucket.len() - 1);
        let mut i = self.bucket[b] as usize;
        while i < self.n_edges && times[i] < t {
            i += 1;
        }
        i
    }
}

/// A stream locked by the folder+tracker.
#[derive(Debug, Clone)]
pub struct TrackedStream {
    /// The stream's rate.
    pub rate: BitRate,
    /// Rate in bits/second.
    pub rate_bps: f64,
    /// Nominal bit period in samples.
    pub nominal_period: f64,
    /// Tracked (drift-corrected) bit period in samples.
    pub period_est: f64,
    /// Time of slot boundary 0 (the stream's first edge — the anchor
    /// rise), in samples.
    pub offset: f64,
    /// Boundary time of every slot, slot 0 first.
    pub slot_times: Vec<f64>,
    /// For each slot, the index (into the epoch's edge list) of the edge
    /// matched there, if any.
    pub matched: Vec<Option<usize>>,
    /// Residual standard deviation around the fitted period line, in
    /// samples (the arbitration quality metric).
    pub residual_std: f64,
    /// What the eye-pattern fold looked like when this stream was seeded:
    /// peak weight, rival peaks, and the single-tag weight ceiling (a
    /// peak above it means two edge trains folded together — the
    /// sub-harmonic fusion signature).
    pub fold: FoldProvenance,
}

impl TrackedStream {
    /// Number of slots tracked.
    pub fn n_slots(&self) -> usize {
        self.slot_times.len()
    }

    /// Number of slots with a matched edge.
    pub fn n_matched(&self) -> usize {
        self.matched.iter().filter(|m| m.is_some()).count()
    }
}

/// What a walk that passed the size gates measured: the stream's rate,
/// its fitted period and anchor, and the two numbers arbitration ranks
/// on. The walk itself is in the [`TrackScratch`] buffers.
#[derive(Debug, Clone, Copy)]
struct Walk {
    rate: BitRate,
    rate_bps: f64,
    nominal_period: f64,
    period_est: f64,
    /// Time of slot 0 — the seed edge.
    offset: f64,
    residual_std: f64,
    n_matched: usize,
}

/// A blind-search candidate: its walk's measurements, its seed and fold
/// record, and its matched edges at `start..end` of the round's flat
/// [`Candidates::edges`] buffer.
#[derive(Debug)]
struct Candidate {
    walk: Walk,
    seed_idx: usize,
    fold: FoldProvenance,
    start: usize,
    end: usize,
}

/// One gather round's candidates. A 16-tag epoch walks about a thousand
/// candidate tracks and accepts about sixty, so a candidate keeps only
/// what the ranking and the overlap test read — its measurements and its
/// matched edge indices, in one flat buffer for the whole round. Its slot
/// grid is not kept: the walk is deterministic, and arbitration re-walks
/// the few candidates that reach their turn unopposed (keeping every
/// candidate's slots held about 1.5 MB per round).
#[derive(Debug, Default)]
struct Candidates {
    meta: Vec<Candidate>,
    edges: Vec<u32>,
}

impl Candidates {
    fn clear(&mut self) {
        self.meta.clear();
        self.edges.clear();
    }

    fn edges_of(&self, c: &Candidate) -> impl Iterator<Item = usize> + '_ {
        self.edges[c.start..c.end].iter().map(|&i| i as usize)
    }
}

/// The stream search's per-epoch working set: SoA views of the edge
/// arena, their time index, the claim mask, and the track and candidate
/// buffers. The blind search builds it once per epoch and leaves it
/// describing the accepted streams, so every carve re-track of the epoch
/// reuses it instead of rebuilding the views, the index and a claim mask
/// per carve (a 16-tag epoch runs about twenty carves). Lives in
/// [`crate::DecodeScratch`]; everything in it is rebuilt per epoch.
#[derive(Debug, Default)]
pub(crate) struct SearchArena {
    /// Edge times, in edge order (sorted).
    times: Vec<f64>,
    /// Edge strengths, in edge order.
    strengths: Vec<f64>,
    index: EdgeTimeIndex,
    /// `claimed[i]`: edge `i` is matched by an accepted stream.
    claimed: Vec<bool>,
    /// The claim mask as the current gather round's walks saw it.
    gathered: Vec<bool>,
    scratch: TrackScratch,
    cands: Candidates,
}

/// Read-only edge data one track walks.
struct EdgeView<'a> {
    edges: &'a [EdgeEvent],
    times: &'a [f64],
    strengths: &'a [f64],
    index: &'a EdgeTimeIndex,
}

impl SearchArena {
    /// Rebuilds the views, the index and an all-clear claim mask for a
    /// new epoch.
    fn rebuild(&mut self, edges: &[EdgeEvent], n_samples: usize) {
        self.times.clear();
        self.times.extend(edges.iter().map(|e| e.time));
        self.strengths.clear();
        self.strengths.extend(edges.iter().map(|e| e.strength));
        self.index.rebuild(&self.times, n_samples);
        self.claimed.clear();
        self.claimed.resize(edges.len(), false);
        self.scratch.reset_epoch(edges.len());
        self.cands.clear();
    }

    /// Re-tracks a carved stream at a harmonic of its fused rate, seeded
    /// from a known-good edge, over the edges no *other* stream owns
    /// (`own` is the carved stream's current match list; matched sets are
    /// disjoint, so releasing its claims leaves exactly the others'). The
    /// structural alias validations do not run — the caller's split test
    /// already established the harmonic structure — but the size gates
    /// (too few matches, sparse density) still apply. The claim mask is
    /// left as it was; [`SearchArena::reclaim`] moves it when the caller
    /// accepts the re-track.
    pub(crate) fn retrack_at_harmonic(
        &mut self,
        edges: &[EdgeEvent],
        own: &[Option<usize>],
        seed_idx: usize,
        rate: BitRate,
        n_samples: usize,
        cfg: &DecoderConfig,
    ) -> Option<TrackedStream> {
        let nominal_period = cfg.period_samples(rate.bps(cfg.rate_plan.base_bps()));
        let SearchArena {
            times,
            strengths,
            index,
            claimed,
            scratch,
            ..
        } = self;
        let view = EdgeView {
            edges,
            times,
            strengths,
            index,
        };
        set_claims(claimed, own, false);
        let tracked = track_stream(
            &view,
            claimed,
            seed_idx,
            rate,
            nominal_period,
            n_samples,
            cfg,
            scratch,
        )
        .map(|walk| scratch.to_tracked(&walk, FoldProvenance::default()));
        set_claims(claimed, own, true);
        tracked
    }

    /// Moves a replaced stream's claims from its old matches to its new.
    pub(crate) fn reclaim(&mut self, old: &[Option<usize>], new: &[Option<usize>]) {
        set_claims(&mut self.claimed, old, false);
        set_claims(&mut self.claimed, new, true);
    }
}

fn set_claims(claimed: &mut [bool], matched: &[Option<usize>], to: bool) {
    for &i in matched.iter().flatten() {
        if let Some(c) = claimed.get_mut(i) {
            *c = to;
        }
    }
}

/// Finds and tracks all streams in an epoch's edge list. `n_samples` is
/// the capture length. Edges must be sorted by time (detect_edges output).
///
/// Runs gather→arbitrate rounds: each round folds and tracks over the
/// edges no accepted stream owns yet, then accepts the best candidates.
/// The re-tracking between rounds matters — a weak stream's round-1
/// candidate is contaminated by a strong neighbour's edges (no claiming
/// protects the gather), but once the neighbour is accepted, round 2
/// re-tracks the weak stream over its own edges cleanly.
pub fn find_streams(
    edges: &[EdgeEvent],
    n_samples: usize,
    cfg: &DecoderConfig,
) -> Vec<TrackedStream> {
    let mut hists = Vec::new();
    let mut admission = Vec::new();
    let mut arena = SearchArena::default();
    find_streams_with(
        edges,
        n_samples,
        cfg,
        &mut hists,
        &mut admission,
        &mut arena,
    )
}

/// As [`find_streams`], but folding into caller-owned scratch histograms
/// (one per candidate rate, reused across gather rounds), searching in a
/// caller-owned [`SearchArena`] (left describing the accepted streams, for
/// the carve re-tracks), and recording admission-cascade rejections into
/// `admission`.
///
/// The admission gates are *exact* short-circuits — each one skips work
/// only when a cheap bound proves the skipped pass could not have
/// produced a candidate, so the returned streams are bit-identical with
/// the gates on or off; the records make the skips attributable instead
/// of silent.
pub(crate) fn find_streams_with(
    edges: &[EdgeEvent],
    n_samples: usize,
    cfg: &DecoderConfig,
    hists: &mut Vec<FoldedHistogram>,
    admission: &mut Vec<AdmissionRecord>,
    arena: &mut SearchArena,
) -> Vec<TrackedStream> {
    // SoA views of the edge arena: the tracker's window probes and the
    // fold table touch only times and strengths, and walking them as
    // dense f64 arrays instead of 40-byte `EdgeEvent` structs keeps the
    // hot loops on contiguous cache lines (DESIGN.md §15). The `diff`
    // field is only read by the alias validations, straight from `edges`.
    arena.rebuild(edges, n_samples);
    // Epoch admission gate: a validating track needs MIN_TRACK_MATCHES
    // matched slots and each slot matches a distinct edge, so an epoch
    // with fewer edges than that cannot yield any stream — every
    // candidate the search could seed would fail the `too_few` size gate.
    if edges.len() < MIN_TRACK_MATCHES {
        admission.push(AdmissionRecord {
            gate: AdmissionGate::EpochEdgeCount,
            round: 0,
            rate_bps: None,
            observed: edges.len() as f64,
            required: MIN_TRACK_MATCHES as f64,
        });
        return Vec::new();
    }
    let SearchArena {
        times,
        strengths,
        index,
        claimed,
        gathered,
        scratch,
        cands,
    } = arena;
    let view = EdgeView {
        edges,
        times,
        strengths,
        index,
    };
    // One resumable fold table over the whole edge arena: each gather
    // round re-folds the still-active events at every candidate period;
    // claiming a stream's edges retires them from every later fold
    // without rebuilding the event arrays.
    let mut table = FoldTable::with_unit_weights(times.clone());
    let mut streams: Vec<TrackedStream> = Vec::new();
    let base = cfg.rate_plan.base_bps();
    let mut rate_folds: Vec<RateFold> = Vec::new();
    let mut specs: Vec<FoldSpec> = Vec::new();
    let mut order: Vec<(f64, usize)> = Vec::new();
    for round in 0..4 {
        rate_folds.clear();
        specs.clear();
        for &rate in cfg.rate_plan.rates() {
            let rate_bps = rate.bps(base);
            let period = cfg.period_samples(rate_bps);
            // Need at least a handful of bit periods in the capture to
            // lock (a rate-plan/epoch-shape property, not a data gate).
            if period * 4.0 > n_samples as f64 {
                continue;
            }
            let bin_width = cfg.edge_width.max(period / 256.0);
            let nbins = ((period / bin_width).round() as usize).clamp(8, 4096);
            let window_bits = (bin_width / (cfg.drift_tolerance * period)).clamp(8.0, 1e9);
            let window_samples = (window_bits * period).min(n_samples as f64);
            let window_bits_actual = window_samples / period;
            let min_weight = (cfg.min_stream_fill * window_bits_actual * 0.5).max(3.0);
            let end = times.partition_point(|&t| t < window_samples);
            let in_window = claimed[..end].iter().filter(|&&c| !c).count();
            // Rate admission gate: with unit weights no fold bin can
            // outweigh the in-window event count, so a count below the
            // peak threshold means the fold could not have produced a
            // single peak — skip folding and tracking for this rate.
            if (in_window as f64) < min_weight {
                admission.push(AdmissionRecord {
                    gate: AdmissionGate::RateWindowCount,
                    round,
                    rate_bps: Some(rate_bps),
                    observed: in_window as f64,
                    required: min_weight,
                });
                continue;
            }
            rate_folds.push(RateFold {
                rate,
                period,
                bin_width,
                window_bits_actual,
                min_weight,
                end,
            });
            specs.push(FoldSpec {
                period,
                nbins,
                t_max: window_samples,
            });
        }
        // Batched multi-period fold: one pass over the still-active
        // events accumulates every admitted rate's histogram.
        table.fold_many_within_to(&specs, hists);
        cands.clear();
        for (rf, hist) in rate_folds.iter().zip(hists.iter()) {
            gather_candidates(&view, claimed, rf, hist, n_samples, cfg, scratch, cands);
        }
        // Rank by explanatory power weighted by track quality: matched
        // edges times a Gaussian penalty on residual dispersion. This puts
        // a clean 200-edge stream above both a pristine 7-edge fragment (a
        // slow hypothesis carving a fast stream) and a 270-edge zigzag
        // with several samples of dispersion. Ties (one stream explained
        // at its true rate vs. a divisor rate, both clean) go to the
        // faster rate — the divisor track explains only a subset. The
        // sort is stable, so equal keys keep gather order.
        order.clear();
        order.extend(cands.meta.iter().enumerate().map(|(ci, c)| {
            let q = (c.walk.residual_std / 3.0).powi(2);
            (c.walk.n_matched as f64 * (-q).exp(), ci)
        }));
        order.sort_by(|a, b| {
            let rate_of = |ci: usize| cands.meta[ci].walk.rate_bps;
            b.0.total_cmp(&a.0)
                .then(rate_of(b.1).total_cmp(&rate_of(a.1)))
        });
        // Re-walks and alias validations see the claim mask the gather's
        // walks saw, not the one this round's acceptances are growing.
        gathered.clone_from(claimed);
        let mut accepted_any = false;
        for &(_, ci) in &order {
            let c = &cands.meta[ci];
            // Within a round, overlapping candidates lose to the better-
            // ranked one; the next round re-tracks whatever is left.
            if cands.edges_of(c).any(|i| claimed[i]) {
                continue;
            }
            // Lazy validation: only a candidate that would otherwise be
            // accepted pays for the alias checks. One that fails them
            // claims nothing, exactly as if the gather had dropped it.
            // Re-walking it (same seed, rate and claim mask, so the same
            // walk) restores the slot grid the checks scan.
            let Some(walk) = track_stream(
                &view,
                gathered,
                c.seed_idx,
                c.walk.rate,
                c.walk.nominal_period,
                n_samples,
                cfg,
                scratch,
            ) else {
                continue;
            };
            if !passes_alias_checks(&view, gathered, &walk, cfg, scratch) {
                continue;
            }
            lf_obs::event!(
                Info,
                "accept rate={} offset={:.1} matched={} std={:.2}",
                walk.rate_bps,
                walk.offset,
                walk.n_matched,
                walk.residual_std
            );
            for i in cands.edges_of(c) {
                claimed[i] = true;
                table.retire(i);
            }
            streams.push(scratch.to_tracked(&walk, c.fold.clone()));
            accepted_any = true;
        }
        if !accepted_any {
            break;
        }
    }
    streams
}

/// Pre-computed fold/track parameters of one admitted rate hypothesis:
/// everything [`find_streams_with`]'s per-round loop derives before the
/// batched fold, carried over to the gather pass that consumes the
/// histogram.
struct RateFold {
    rate: BitRate,
    /// Nominal bit period in samples.
    period: f64,
    /// Fold bin width in samples.
    bin_width: f64,
    /// Window length in bit periods — the single-tag weight ceiling.
    window_bits_actual: f64,
    /// Minimum peak weight for a candidate lock.
    min_weight: f64,
    /// First edge index at or beyond the drift-safe fold window bound.
    end: usize,
}

/// One gather pass over one admitted rate: read the batch-folded
/// histogram's peaks, seed and track each, and append the candidates that
/// pass the size gates.
#[allow(clippy::too_many_arguments)]
fn gather_candidates(
    view: &EdgeView<'_>,
    claimed: &[bool],
    rf: &RateFold,
    hist: &FoldedHistogram,
    n_samples: usize,
    cfg: &DecoderConfig,
    scratch: &mut TrackScratch,
    cands: &mut Candidates,
) {
    let peaks = hist.peaks(rf.min_weight, 2);
    let mean_weight = hist.bins.iter().sum::<f64>() / hist.bins.len() as f64;
    for (pi, &(bin, weight)) in peaks.iter().enumerate() {
        let peak_offset = hist.offset_of_bin(bin);
        // Seed: earliest unclaimed edge in the window whose phase sits
        // within ±1.5 bins of the peak.
        let seed = (0..rf.end).filter(|&i| !claimed[i]).find(|&i| {
            let phase = view.times[i].rem_euclid(rf.period);
            let mut d = (phase - peak_offset).abs();
            d = d.min(rf.period - d);
            d <= 1.5 * rf.bin_width
        });
        let Some(seed_idx) = seed else { continue };
        let Some(walk) = track_stream(
            view, claimed, seed_idx, rf.rate, rf.period, n_samples, cfg, scratch,
        ) else {
            continue;
        };
        // Fold provenance for this lock: how the chosen peak compared to
        // its rivals and to what a single tag could produce.
        let runner_up_weight = peaks
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != pi)
            .map(|(_, &(_, w))| w)
            .fold(0.0f64, f64::max);
        let start = cands.edges.len();
        cands
            .edges
            .extend(scratch.matched.iter().flatten().map(|&i| i as u32));
        cands.meta.push(Candidate {
            walk,
            seed_idx,
            fold: FoldProvenance {
                peak_weight: weight,
                runner_up_weight,
                mean_weight,
                single_tag_ceiling: rf.window_bits_actual,
            },
            start,
            end: cands.edges.len(),
        });
    }
}

/// Slot-matching tolerance after `coast` slots without a match. The slot
/// prediction is good to ~a sample right after a match, but while
/// *coasting* over flat (no-edge) slots the residual period error
/// compounds — c slots of coasting accumulate up to c × (drift-tolerance
/// × period) of drift. The window therefore grows with the coast length
/// and snaps tight again on every match. (A fixed proportional window —
/// the obvious alternative — is either too tight for sparse slow streams
/// or so wide it hoovers up neighbours' edges and turns the track into
/// junk.)
fn match_tolerance(cfg: &DecoderConfig, nominal_period: f64, coast: usize) -> f64 {
    let base = 2.0 * cfg.edge_width;
    let growth = 2.5 * cfg.drift_tolerance * nominal_period * coast as f64;
    let cap = base.max(nominal_period / 64.0);
    (base + growth).min(cap).max(base)
}

/// Tracks one stream from a seed edge, matching only unclaimed edges,
/// into `scratch`'s walk buffers. Returns the walk's measurements when it
/// passes the size gates (enough matches, dense enough) — including the
/// residual fit, one of the two numbers arbitration ranks on. The
/// structural alias checks are *not* run here: [`passes_alias_checks`]
/// runs them at arbitration, for the candidates that get that far.
/// Restores `scratch`'s mask to all-clear on every exit path.
#[allow(clippy::too_many_arguments)]
fn track_stream(
    view: &EdgeView<'_>,
    claimed: &[bool],
    seed_idx: usize,
    rate: BitRate,
    nominal_period: f64,
    n_samples: usize,
    cfg: &DecoderConfig,
    scratch: &mut TrackScratch,
) -> Option<Walk> {
    scratch.begin_walk();
    let result = track_stream_impl(
        view,
        claimed,
        seed_idx,
        rate,
        nominal_period,
        n_samples,
        cfg,
        scratch,
    );
    scratch.clear_taken();
    result
}

/// [`track_stream`]'s body; `scratch` arrives with a clear mask and may
/// return with bits set — the wrapper clears them.
#[allow(clippy::too_many_arguments)]
fn track_stream_impl(
    view: &EdgeView<'_>,
    claimed: &[bool],
    seed_idx: usize,
    rate: BitRate,
    nominal_period: f64,
    n_samples: usize,
    cfg: &DecoderConfig,
    scratch: &mut TrackScratch,
) -> Option<Walk> {
    let times = view.times;
    // The tracked period may deviate from nominal by drift tolerance plus
    // a little measurement slack.
    let max_period_dev = nominal_period * (cfg.drift_tolerance * 2.0) + 0.5;

    let t0 = times[seed_idx];
    let mut period_est = nominal_period;
    let mut t = t0;
    scratch.slot_times.push(t0);
    scratch.matched.push(Some(seed_idx));
    scratch.take(seed_idx);
    let mut k = 0usize;

    let mut coast = 1usize;
    while t + period_est < n_samples as f64 {
        k += 1;
        let pred = t + period_est;
        let tol = match_tolerance(cfg, nominal_period, coast);
        let best = strongest_edge_in(view, claimed, &scratch.taken_mask, pred - tol, pred + tol);
        match best {
            Some(idx) => {
                let et = times[idx];
                // Global-slope period refinement, gated to the physically
                // possible drift range so one mis-association cannot drag
                // the lock away.
                if k >= 4 {
                    let slope = (et - t0) / k as f64;
                    if (slope - nominal_period).abs() <= max_period_dev {
                        period_est = slope;
                    }
                }
                // Advance along the fitted line, nudged only fractionally
                // toward the measured edge: individual edge positions are
                // noisy (the detection differential's peak jitters at low
                // SNR), while crystal drift is a *linear* process the
                // slope absorbs — the line is the better slot-grid
                // estimate, and full snapping lets one bad association
                // zigzag the track.
                t = t0 + k as f64 * period_est + 0.25 * (et - (t0 + k as f64 * period_est));
                scratch.matched.push(Some(idx));
                scratch.take(idx);
                coast = 1;
            }
            None => {
                t = pred;
                scratch.matched.push(None);
                coast += 1;
            }
        }
        scratch.slot_times.push(t);
    }

    // --- Size gates and residual fit ---
    let matched: &[Option<usize>] = &scratch.matched;
    let n_matched = matched.iter().filter(|m| m.is_some()).count();
    if n_matched < MIN_TRACK_MATCHES {
        lf_obs::event!(
            Debug,
            "reject rate={} t0={:.1} n={} reason=too_few",
            rate.bps(cfg.rate_plan.base_bps()),
            t0,
            n_matched
        );
        return None;
    }
    // Matched density within the active span (frames can end before the
    // epoch does; trailing silence is fine, sparse matches inside the
    // active span are not).
    let last_matched_slot = matched.iter().rposition(|m| m.is_some()).unwrap_or(0);
    let density = n_matched as f64 / (last_matched_slot + 1) as f64;
    if density < 0.15 {
        lf_obs::event!(
            Debug,
            "reject rate={} t0={:.1} n={} reason=density",
            rate.bps(cfg.rate_plan.base_bps()),
            t0,
            n_matched
        );
        return None;
    }
    // Residual dispersion around the fitted line — the arbitration
    // quality metric. Iterates the match buffer directly, in slot order.
    let residual_of = |slot: usize, idx: usize| times[idx] - (t0 + slot as f64 * period_est);
    let mut res_sum = 0.0f64;
    for (slot, mm) in matched.iter().enumerate() {
        if let Some(idx) = *mm {
            res_sum += residual_of(slot, idx);
        }
    }
    let mean_res = res_sum / n_matched as f64;
    let mut var_sum = 0.0f64;
    for (slot, mm) in matched.iter().enumerate() {
        if let Some(idx) = *mm {
            let r = residual_of(slot, idx) - mean_res;
            var_sum += r * r;
        }
    }
    let residual_std = (var_sum / n_matched as f64).sqrt();

    Some(Walk {
        rate,
        rate_bps: rate.bps(cfg.rate_plan.base_bps()),
        nominal_period,
        period_est,
        offset: t0,
        residual_std,
        n_matched,
    })
}

/// The structural alias validations of a blind-search candidate whose
/// walk is in `scratch`, run at arbitration against `claimed` — the claim
/// mask its walk saw. Returns `false` when the candidate is an alias of a
/// slower or faster stream, or an interleave of same-rate streams.
fn passes_alias_checks(
    view: &EdgeView<'_>,
    claimed: &[bool],
    walk: &Walk,
    cfg: &DecoderConfig,
    scratch: &mut TrackScratch,
) -> bool {
    // The up-alias probe skips the candidate's own edges: mark them as
    // the walk did.
    let TrackScratch {
        taken_mask,
        taken,
        slot_times,
        matched,
    } = scratch;
    for &i in matched.iter().flatten() {
        taken_mask[i] = true;
        taken.push(i);
    }
    let pass = alias_checks_impl(view, claimed, walk, slot_times, matched, cfg, taken_mask);
    scratch.clear_taken();
    pass
}

/// [`passes_alias_checks`]' body; `taken_mask` marks the candidate's own
/// matched edges.
fn alias_checks_impl(
    view: &EdgeView<'_>,
    claimed: &[bool],
    walk: &Walk,
    slot_times: &[f64],
    matched: &[Option<usize>],
    cfg: &DecoderConfig,
    taken_mask: &[bool],
) -> bool {
    let (edges, times) = (view.edges, view.times);
    let (rate, t0, n_matched) = (walk.rate, walk.offset, walk.n_matched);
    // Rate-alias check: when (almost) all matched slot indices fall into
    // one residue class mod m ≥ 2, the edges are really an m×-slower
    // stream folded onto this rate's grid. A strict gcd test would be
    // defeated by a single stray noise match, so require only an 85 %
    // majority.
    for m in [2usize, 3, 4, 5] {
        let mut counts = [0usize; 5];
        for (slot, mm) in matched.iter().enumerate() {
            if mm.is_some() {
                counts[slot % m] += 1;
            }
        }
        let majority = counts[..m].iter().copied().max().unwrap_or(0);
        if majority as f64 >= 0.85 * n_matched as f64 {
            lf_obs::event!(
                Debug,
                "reject rate={} t0={:.1} n={} reason=residue_majority",
                walk.rate_bps,
                t0,
                n_matched
            );
            return false;
        }
    }

    // Super-rate (up-alias) check: a stream at rate m·r lands an edge on
    // every m-th boundary of the rate-r grid, so a rate-r hypothesis over
    // it looks perfectly healthy — while explaining only 1/m of the
    // edges. The tell: the *inter-slot* positions (slot + j·period/m)
    // hold about as many unexplained edges as the track matched. Reject
    // and let the faster hypothesis claim the stream whole.
    for m in [2usize, 3] {
        let Ok(sup) = BitRate::from_multiple(rate.multiple().saturating_mul(m as u32)) else {
            continue;
        };
        if !cfg.rate_plan.contains(sup) {
            continue;
        }
        let sub_period = walk.nominal_period / m as f64;
        let probe = match_tolerance(cfg, walk.nominal_period, 1);
        let mut between_diffs: Vec<lf_types::Complex> = Vec::new();
        // A genuine up-alias matches essentially every inter-slot
        // position, so the hit count must reach 70 % of the probes. The
        // count is monotone in positions processed; the moment even a hit
        // on every remaining position cannot reach the bar, the verdict
        // ("not an alias") is already decided and the rest of the scan is
        // skipped — same decision, a fraction of the probes.
        let needed = 0.7 * ((m - 1) * n_matched) as f64;
        let total_positions = slot_times.len() * (m - 1);
        let mut processed = 0usize;
        let mut decided_pass = true;
        'positions: for &t in slot_times {
            for j in 1..m {
                if ((between_diffs.len() + (total_positions - processed)) as f64) < needed {
                    decided_pass = false;
                    break 'positions;
                }
                let pos = t + j as f64 * sub_period;
                let start = view.index.start_of(times, pos - probe);
                for (i, &et) in times.iter().enumerate().skip(start) {
                    if et > pos + probe {
                        break;
                    }
                    if !claimed[i] && !taken_mask[i] {
                        between_diffs.push(edges[i].diff);
                        break;
                    }
                }
                processed += 1;
            }
        }
        if !decided_pass || (between_diffs.len() as f64) < needed {
            continue;
        }
        // The between-edges must be the *same tag's* (one shared edge
        // vector): an independent same-rate neighbour that happens to sit
        // half a period away has its own channel vector, and must not
        // trigger this rejection.
        let mut union: Vec<lf_types::Complex> = matched
            .iter()
            .flatten()
            .map(|&idx| edges[idx].diff)
            .collect();
        union.extend(between_diffs);
        if collinearity_ratio(&union) < 0.1 {
            return false;
        }
    }

    // Interleave-alias check: m same-rate streams whose offsets sit
    // roughly period/m apart can track as one m×-rate stream with every
    // slot matched. The signature that separates a true interleave from a
    // genuine stream (or from a genuine stream occasionally contaminated
    // by a cross-rate neighbour) is the *conjunction* of:
    //
    //  (a) each slot-residue partition's edge diffs are collinear — each
    //      partition is one tag's ±e line (a contaminated true stream
    //      mixes pure and merged vectors inside a partition and fails
    //      this);
    //  (b) the partitions differ — either in direction (whole-set
    //      direction diversity) or in timing (per-residue band means sit
    //      at the tags' distinct sub-grid offsets).
    //
    // Requiring (a) AND (b) catches half-period interleaves with
    // distinct or near-parallel channel vectors, while leaving mixed-rate
    // deployments (where a 50 kbps neighbour periodically lands on one
    // parity of a 100 kbps stream) alone.
    if n_matched >= 6 {
        let residual_of =
            |slot: usize, idx: usize| times[idx] - (t0 + slot as f64 * walk.period_est);
        // The whole-set diversity scatter costs a `hypot` per matched
        // edge; it only matters once a partition passes (a), which most
        // candidates never reach — compute it on first use and cache.
        let mut whole_diverse_cache: Option<bool> = None;
        let mut whole_diverse = || {
            *whole_diverse_cache.get_or_insert_with(|| {
                let all: Vec<lf_types::Complex> = matched
                    .iter()
                    .flatten()
                    .map(|&idx| edges[idx].diff)
                    .collect();
                collinearity_ratio(&all) > 0.2
            })
        };
        for m in [2usize, 3] {
            if !rate.multiple().is_multiple_of(m as u32) {
                continue;
            }
            let Ok(sub) = BitRate::from_multiple(rate.multiple() / m as u32) else {
                continue;
            };
            if !cfg.rate_plan.contains(sub) {
                continue;
            }
            // (a) per-partition collinearity.
            let mut parts: Vec<Vec<lf_types::Complex>> = vec![Vec::new(); m];
            for (slot, mm) in matched.iter().enumerate() {
                if let Some(idx) = *mm {
                    parts[slot % m].push(edges[idx].diff);
                }
            }
            let populated = parts.iter().filter(|p| p.len() >= 2).count();
            let all_collinear = populated >= 2
                && parts
                    .iter()
                    .filter(|p| p.len() >= 2)
                    .all(|p| collinearity_ratio(p) < 0.1);
            if !all_collinear {
                continue;
            }
            // (b) timing bands.
            let mut sums = vec![(0.0f64, 0usize); m];
            for (slot, mm) in matched.iter().enumerate() {
                if let Some(idx) = *mm {
                    let g = slot % m;
                    sums[g].0 += residual_of(slot, idx);
                    sums[g].1 += 1;
                }
            }
            let means: Vec<f64> = sums
                .iter()
                .filter(|(_, n)| *n >= 3)
                .map(|(sum, n)| sum / *n as f64)
                .collect();
            let timing_banded = means.len() >= 2 && {
                let hi = means.iter().copied().fold(f64::MIN, f64::max);
                let lo = means.iter().copied().fold(f64::MAX, f64::min);
                hi - lo > 2.0
            };
            if timing_banded || whole_diverse() {
                lf_obs::event!(
                    Debug,
                    "reject rate={} t0={:.1} n={} reason=interleave",
                    walk.rate_bps,
                    t0,
                    n_matched
                );
                return false;
            }
        }
    }
    true
}

/// Strongest unclaimed edge in `[lo, hi]` not already taken by this
/// track (`taken_mask` is epoch-edge indexed). Times are sorted, so the
/// window is one index lookup plus a short scan over the SoA arrays.
fn strongest_edge_in(
    view: &EdgeView<'_>,
    claimed: &[bool],
    taken_mask: &[bool],
    lo: f64,
    hi: f64,
) -> Option<usize> {
    let (times, strengths) = (view.times, view.strengths);
    let start = view.index.start_of(times, lo);
    let mut best: Option<usize> = None;
    for (i, &t) in times.iter().enumerate().skip(start) {
        if t > hi {
            break;
        }
        if claimed[i] || taken_mask[i] {
            continue;
        }
        if best.is_none_or(|b| strengths[i] > strengths[b]) {
            best = Some(i);
        }
    }
    best
}

/// Sign-invariant collinearity of a set of IQ vectors: the ratio λ₂/λ₁ of
/// the eigenvalues of the outer-product scatter matrix Σ v·vᵀ. Vectors all
/// along one line (in either direction) give ≈0; two distinct directions
/// give O(1).
fn collinearity_ratio(vs: &[lf_types::Complex]) -> f64 {
    let (mut sxx, mut sxy, mut syy) = (0.0f64, 0.0f64, 0.0f64);
    for v in vs {
        // Unit directions: without normalization a strong tag's scatter
        // drowns a weak orthogonal tag's, and the mix reads "collinear".
        let n = v.abs();
        if n < 1e-12 {
            continue;
        }
        let (re, im) = (v.re / n, v.im / n);
        sxx += re * re;
        sxy += re * im;
        syy += im * im;
    }
    let trace = sxx + syy;
    if trace <= 0.0 {
        return 0.0;
    }
    let d = ((sxx - syy).powi(2) + 4.0 * sxy * sxy).sqrt();
    let l1 = 0.5 * (trace + d);
    let l2 = 0.5 * (trace - d);
    if l1 <= 0.0 {
        0.0
    } else {
        (l2 / l1).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    // Tests assert exact values deliberately: decoded rates are drawn from
    // a discrete set and must match identically, not approximately.
    #![allow(clippy::float_cmp)]

    use super::*;
    use lf_types::{Complex, RatePlan, SampleRate};

    fn cfg() -> DecoderConfig {
        let mut c = DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0));
        c.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0, 20_000.0, 40_000.0]).unwrap();
        c
    }

    /// Edge events of an NRZ stream with given bits, period, offset.
    fn stream_edges(bits: &[bool], offset: f64, period: f64, h: Complex) -> Vec<EdgeEvent> {
        let mut level = false;
        let mut out = Vec::new();
        for (k, &b) in bits.iter().enumerate() {
            if b != level {
                let diff = if b { h } else { -h };
                out.push(EdgeEvent {
                    time: offset + k as f64 * period,
                    diff,
                    strength: diff.abs(),
                });
                level = b;
            }
        }
        out
    }

    fn alternating(n: usize) -> Vec<bool> {
        (0..n).map(|k| k % 2 == 0).collect()
    }

    fn merge(mut a: Vec<EdgeEvent>, b: Vec<EdgeEvent>) -> Vec<EdgeEvent> {
        a.extend(b);
        a.sort_by(|x, y| x.time.partial_cmp(&y.time).unwrap());
        a
    }

    #[test]
    fn single_stream_locked_and_fully_matched() {
        let c = cfg();
        let period = 100.0; // 10 kbps at 1 Msps
        let bits = alternating(200);
        let edges = stream_edges(&bits, 57.0, period, Complex::new(0.1, 0.05));
        let streams = find_streams(&edges, 21_000, &c);
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.rate_bps, 10_000.0);
        assert!((s.offset - 57.0).abs() < 1.0);
        assert_eq!(s.n_matched(), edges.len());
        assert!(
            s.residual_std < 0.5,
            "clean stream residual {}",
            s.residual_std
        );
    }

    #[test]
    fn two_rates_both_locked() {
        let c = cfg();
        let fast = stream_edges(&alternating(400), 31.0, 50.0, Complex::new(0.1, 0.0));
        let slow = stream_edges(&alternating(100), 83.0, 200.0, Complex::new(0.0, 0.1));
        let n_fast = fast.len();
        let n_slow = slow.len();
        let edges = merge(fast, slow);
        let streams = find_streams(&edges, 21_000, &c);
        assert_eq!(streams.len(), 2);
        let mut rates: Vec<f64> = streams.iter().map(|s| s.rate_bps).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(rates, vec![5_000.0, 20_000.0]);
        let fast_s = streams.iter().find(|s| s.rate_bps == 20_000.0).unwrap();
        let slow_s = streams.iter().find(|s| s.rate_bps == 5_000.0).unwrap();
        assert_eq!(fast_s.n_matched(), n_fast);
        assert_eq!(slow_s.n_matched(), n_slow);
    }

    #[test]
    fn slow_stream_not_claimed_by_fast_hypothesis() {
        // A 5 kbps stream (period 200) folds perfectly at period 100 and
        // 50 too; the residue-majority check must push it down to its true
        // rate.
        let mut c = cfg();
        c.rate_plan = RatePlan::from_bps(100.0, &[5_000.0, 10_000.0, 20_000.0]).unwrap();
        let edges = stream_edges(&alternating(100), 40.0, 200.0, Complex::new(0.1, 0.0));
        let streams = find_streams(&edges, 21_000, &c);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].rate_bps, 5_000.0);
    }

    #[test]
    fn fast_stream_not_degraded_to_slow_alias() {
        // A 10 kbps stream also produces a perfect-quality 5 kbps
        // candidate (every second edge on the slow grid). Arbitration's
        // rate tie-break must hand the edges to the fast owner.
        let c = cfg();
        let edges = stream_edges(&alternating(200), 40.0, 100.0, Complex::new(0.1, 0.0));
        let streams = find_streams(&edges, 21_000, &c);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].rate_bps, 10_000.0);
    }

    #[test]
    fn same_rate_distinct_offsets_are_two_streams() {
        let c = cfg();
        let a = stream_edges(&alternating(200), 20.0, 100.0, Complex::new(0.1, 0.0));
        let b = stream_edges(&alternating(200), 70.0, 100.0, Complex::new(0.0, 0.1));
        let edges = merge(a, b);
        let streams = find_streams(&edges, 21_000, &c);
        assert_eq!(streams.len(), 2);
        let mut offsets: Vec<f64> = streams.iter().map(|s| s.offset).collect();
        offsets.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((offsets[0] - 20.0).abs() < 1.0);
        assert!((offsets[1] - 70.0).abs() < 1.0);
    }

    #[test]
    fn half_period_interleave_not_fused_into_double_rate() {
        // Two 10 kbps streams offset by exactly half a period look like
        // one 20 kbps stream in time; their non-collinear IQ diffs (or
        // timing bands) must split them.
        let c = cfg();
        let a = stream_edges(&alternating(200), 20.0, 100.0, Complex::new(0.1, 0.0));
        let b = stream_edges(&alternating(200), 70.0, 100.0, Complex::new(0.0, 0.1));
        let edges = merge(a, b);
        let streams = find_streams(&edges, 21_000, &c);
        assert!(streams.iter().all(|s| s.rate_bps == 10_000.0));
        assert_eq!(streams.len(), 2);
    }

    #[test]
    fn drift_is_tracked_across_the_epoch() {
        let c = cfg();
        // 200 ppm fast clock: period 100.02 instead of 100. Over 200 bits
        // the phase moves 4 samples — more than an edge width.
        let period = 100.02;
        let bits = alternating(200);
        let edges = stream_edges(&bits, 57.0, period, Complex::new(0.1, 0.05));
        let streams = find_streams(&edges, 21_000, &c);
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.n_matched(), edges.len(), "drift broke the lock");
        assert!(
            (s.period_est - period).abs() < 0.01,
            "period {}",
            s.period_est
        );
    }

    #[test]
    fn sparse_toggles_still_lock() {
        // Payload with toggles on ~1/3 of boundaries (but co-prime slot
        // gaps so the alias check passes).
        let bits: Vec<bool> = (0..300).map(|k| (k % 7 < 3) ^ (k % 11 < 5)).collect();
        let edges = stream_edges(&bits, 25.0, 100.0, Complex::new(0.1, 0.0));
        let streams = find_streams(&edges, 31_000, &cfg());
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].rate_bps, 10_000.0);
    }

    #[test]
    fn noise_edges_do_not_form_streams() {
        // Pseudo-random edge times with no periodic structure.
        let mut edges: Vec<EdgeEvent> = (0..60)
            .map(|k| {
                let t = ((k as f64 * 997.13).sin().abs() * 20_000.0).max(1.0);
                EdgeEvent {
                    time: t,
                    diff: Complex::new(0.05, 0.0),
                    strength: 0.05,
                }
            })
            .collect();
        edges.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
        let streams = find_streams(&edges, 21_000, &cfg());
        assert!(
            streams.is_empty(),
            "noise produced {} streams",
            streams.len()
        );
    }

    #[test]
    fn missed_edges_leave_unmatched_slots() {
        // Remove every 5th edge: the tracker must coast over the gaps.
        let bits = alternating(200);
        let full = stream_edges(&bits, 57.0, 100.0, Complex::new(0.1, 0.05));
        let total = full.len();
        let edges: Vec<EdgeEvent> = full
            .into_iter()
            .enumerate()
            .filter_map(|(i, e)| (i % 5 != 2).then_some(e))
            .collect();
        let streams = find_streams(&edges, 21_000, &cfg());
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.n_matched(), total - total.div_ceil(5));
        assert!(s.n_slots() >= 199);
    }

    #[test]
    fn merged_pile_tracks_at_true_rate() {
        // Three tags at the same rate within a few samples of each other:
        // the pile must be claimed at 10 kbps (one merged track), not at a
        // faster alias, and not dropped entirely.
        let c = cfg();
        let mut all = Vec::new();
        for (k, off) in [(0u64, 50.0), (1, 54.0), (2, 58.0)] {
            let bits: Vec<bool> = (0..200)
                .map(|i| i == 0 || ((i as u64 * 31 + k * 17) % 5) < 2)
                .collect();
            let h = Complex::from_polar(0.1, 0.9 * k as f64 + 0.2);
            all = merge(all, stream_edges(&bits, off, 100.0, h));
        }
        let streams = find_streams(&all, 21_000, &c);
        // The pile's primary claim must be at 10 kbps with its phase.
        let primary = streams
            .iter()
            .max_by_key(|s| s.n_matched())
            .expect("pile dropped entirely");
        assert_eq!(primary.rate_bps, 10_000.0, "primary claim at wrong rate");
        assert!(
            (45.0..65.0).contains(&primary.offset),
            "offset {}",
            primary.offset
        );
        // Nothing may be claimed at a *faster* rate (zigzag), and the
        // primary must own the majority of the pile's edges. Leftover
        // companion edges may form slower phantom streams — those fail
        // their CRCs downstream and are a documented false-positive mode.
        assert!(streams.iter().all(|s| s.rate_bps <= 10_000.0));
        assert!(primary.n_matched() * 2 >= all.len() / 3);
    }

    #[test]
    fn residual_std_reported() {
        let edges = stream_edges(&alternating(100), 20.0, 100.0, Complex::new(0.1, 0.0));
        let streams = find_streams(&edges, 11_000, &cfg());
        assert_eq!(streams.len(), 1);
        assert!(streams[0].residual_std < 0.1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `EdgeTimeIndex::start_of` is exactly `partition_point` over the
        /// indexed times: on dense and sparse stretches, on duplicate edge
        /// times, at exact edge times, before the first edge and past the
        /// capture, and along a probe walk with short and long forward
        /// jumps and backward steps — the access pattern of the tracker's
        /// windows and the up-alias probes.
        #[test]
        fn start_of_is_partition_point(
            gaps in proptest::collection::vec(0.0f64..600.0, 0..400),
            first in 0.0f64..300.0,
            steps in proptest::collection::vec(-900.0f64..40_000.0, 1..300),
            exact_every in 1usize..8,
        ) {
            // Gaps under 100 samples collapse to 0: runs of equal times.
            let mut times = Vec::with_capacity(gaps.len());
            let mut t = first;
            for g in gaps {
                t += (g - 100.0).max(0.0);
                times.push(t);
            }
            let n_samples = (t + 500.0).ceil() as usize;
            let mut index = EdgeTimeIndex::default();
            index.rebuild(&times, n_samples);
            let check = |probe: f64| {
                let want = times.partition_point(|&x| x < probe);
                proptest::prop_assert_eq!(index.start_of(&times, probe), want, "probe {}", probe);
                Ok(())
            };
            let mut probe = -50.0f64;
            for (k, step) in steps.into_iter().enumerate() {
                probe += step;
                check(probe)?;
                if let Some(&exact) = times.get(k * exact_every) {
                    check(exact)?;
                }
            }
            check(n_samples as f64 + 1e6)?;
        }
    }
}
