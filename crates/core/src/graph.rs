//! The stage-graph decode path: composable stages over a shared
//! [`EpochContext`].
//!
//! The paper's reader is a five-stage pipeline (§3.1–§3.5), but running it
//! as one linear function cannot express the sub-harmonic recovery the
//! ROADMAP calls for: when two tags' edge trains fuse at a shared
//! sub-harmonic, the fix requires *re-entering* the folding stage on the
//! residual edges after the cluster analysis has seen the fused stream.
//! This module models the pipeline as a small graph instead:
//!
//! * [`Stage`] — one stage, a stateless unit struct. All decode state
//!   lives in the [`EpochContext`]; a stage reads and writes the context
//!   and returns a [`StageOutcome`] telling the runner whether to advance
//!   or jump back to an earlier stage by name.
//! * [`EpochContext`] — the per-epoch arena: the borrowed IQ view (never
//!   cloned), the edge list, tracked streams, per-stream slot units, the
//!   carve bookkeeping, and the assembled outputs.
//! * [`PipelineGraph`] — the runner. It owns stage ordering, bounds
//!   re-entry, and is the *single* instrumentation point: one installed
//!   obs context, one span and one timing slot per stage execution
//!   (re-entries accumulate into the same slot), metrics and provenance
//!   recorded once. The public [`crate::pipeline::Decoder`] API is a thin
//!   facade over [`PipelineGraph::run`].
//!
//! Stage names, span names, metric names, and the [`StageTimings`] slots
//! are all derived from the one [`STAGES`] array — adding a stage cannot
//! silently skip timing or observability.
//!
//! The sixth stage implements sub-harmonic carving: when a tracked
//! stream's fold was ambiguous (two edge trains in one histogram) and the
//! cluster analysis could not explain it as a 2-tag collision, the carve
//! collects the unclaimed residual edges along the stream's own channel
//! direction, re-folds them at candidate harmonics of the fused rate, and
//! — if a harmonic explains them — re-enters the folding stage to re-track
//! the stream at that harmonic with the structural alias checks suspended.
//! The attempt is recorded as a [`CarveProvenance`] either way.

use crate::config::DecoderConfig;
use crate::decode::{decode_member_traced, decode_single_traced};
use crate::edges::{detect_edges_with, EdgeEvent, PrefixSums};
use crate::pipeline::{DecodedStream, EpochDecode, StageTimings, StreamKind};
use crate::provenance::{
    AdmissionRecord, AnchorOutcome, CarveProvenance, DecodeProvenance, SeparationProvenance,
    StreamProvenance,
};
use crate::scratch::DecodeScratch;
use crate::separate::{analyze_slots_with, StreamAnalysis};
use crate::slots::{
    companion_radius, edge_owners_into, foreign_edges_into, is_companion, slot_cleanliness,
    slot_differentials,
};
use crate::streams::{find_streams_with, SearchArena, TrackedStream};
use lf_dsp::checks;
use lf_dsp::fold::{FoldTable, FoldedHistogram};
use lf_obs::{Counter, Histogram, ObsContext, SpanGuard};
use lf_types::{BitRate, BitVec, Complex};
use std::time::{Duration, Instant};

/// The decode graph, in nominal execution order. Single source of truth
/// for stage names, spans, metrics, and timing slots.
const STAGES: [&'static dyn Stage; 6] = [
    &EdgesStage,
    &FoldingStage,
    &SlotsStage,
    &SeparationStage,
    &DecodeStage,
    &CarveStage,
];

/// Number of stages in the decode graph (the length of the
/// [`StageTimings`] per-stage array).
pub const STAGE_COUNT: usize = STAGES.len();

/// Upper bound on re-entries per epoch: a stage may send the runner
/// backwards at most this many times, so a buggy split test cannot loop
/// the decode forever.
const MAX_REENTRIES: usize = 4;

/// Minimum residual edges required before a carve is even attempted, and
/// minimum *additional* matched slots the re-tracked stream must explain
/// before it replaces the fused track. Both gates protect healthy decodes
/// from noise-edge false carves.
const MIN_CARVE_EVIDENCE: usize = 3;
const MIN_CARVE_GAIN: usize = 3;

/// Residual edges must align with the stream's own channel direction
/// (|cos| of the angle between unit vectors) to count as carve evidence —
/// another tag's off-grid edges must not feed this stream's split test.
const CARVE_DIR_ALIGN: f64 = 0.85;

/// The graph's stage names, index-aligned with the [`StageTimings`]
/// per-stage slots and the `pipeline.stage.<name>.ns` metric family.
pub fn stage_names() -> [&'static str; STAGE_COUNT] {
    std::array::from_fn(|i| STAGES[i].name())
}

/// What the runner should do after a stage execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// Proceed to the next stage in graph order.
    Advance,
    /// Jump back to the named stage (a re-fold pass). The runner bounds
    /// the number of re-entries per epoch; an unknown name advances.
    ReEnter(&'static str),
}

/// One stage of the decode graph.
///
/// Stages are stateless (`Sync` unit structs); all decode state lives in
/// the shared [`EpochContext`]. The runner wraps every execution in the
/// stage's span and accumulates its wall clock into the stage's
/// [`StageTimings`] slot — stages themselves carry no instrumentation.
pub trait Stage: Sync {
    /// Short stage name: the [`StageTimings`] slot label and the re-entry
    /// key used by [`StageOutcome::ReEnter`].
    fn name(&self) -> &'static str;
    /// Span recorded around every execution of this stage.
    fn span_name(&self) -> &'static str;
    /// Histogram recording this stage's per-epoch latency.
    fn metric_name(&self) -> &'static str;
    /// Executes the stage over the shared context.
    fn run(&self, ctx: &mut EpochContext<'_>) -> StageOutcome;
}

/// A sub-harmonic carve scheduled by the carve stage for the folding
/// stage's re-entry pass.
#[derive(Debug, Clone)]
struct CarveRequest {
    /// Index into [`EpochContext::tracked`] of the fused stream.
    stream: usize,
    /// Harmonic multiple the split test chose (new rate = m × fused rate).
    harmonic: u32,
    /// Residual edges supporting the carve.
    n_residual: usize,
    /// Peak weight of the residual re-fold at the sub-period.
    residual_peak: f64,
}

/// Per-stream working state (stages 3–5 outputs). A carve re-entry keeps
/// the units of the streams whose inputs it did not change.
#[derive(Debug, Clone, Default)]
struct StreamUnit {
    /// Per-slot IQ differentials (stage 3).
    diffs: Vec<Complex>,
    /// Per-slot cleanliness mask (stage 3).
    clean: Vec<bool>,
    /// Cluster analysis and its provenance (stage 4).
    analysis: Option<(StreamAnalysis, SeparationProvenance)>,
    /// Decoded outputs with their provenance (stage 5), carve record
    /// still unset: the decode stage stamps the current one on every
    /// pass.
    decoded: Option<Vec<(DecodedStream, StreamProvenance)>>,
}

/// Shared per-epoch decode state: the borrowed IQ view, the edge arena,
/// tracked streams, per-stream slot units, carve bookkeeping, and the
/// assembled outputs. Stages communicate exclusively through this
/// context; the capture itself is borrowed for the whole decode and never
/// cloned (the runner owns the one sanitized copy that a NaN-poisoned
/// capture forces).
#[derive(Debug)]
pub struct EpochContext<'a> {
    cfg: &'a DecoderConfig,
    signal: &'a [Complex],
    /// Epoch-wide prefix sums, built once by the runner and shared by the
    /// edges and slots stages (the hot-path contract: no stage rebuilds
    /// them — see the `no-epoch-rescan` lint).
    sums: &'a PrefixSums,
    /// Borrowed views into the caller's [`DecodeScratch`].
    msq: &'a mut Vec<f64>,
    select: &'a mut Vec<f64>,
    owner: &'a mut Vec<Option<usize>>,
    prev_owner: &'a mut Vec<Option<usize>>,
    foreign: &'a mut Vec<(f64, Complex)>,
    unowned: &'a mut Vec<bool>,
    fold_hists: &'a mut Vec<FoldedHistogram>,
    /// The stream search's working set, kept for the carve re-tracks.
    search: &'a mut SearchArena,
    edges: Vec<EdgeEvent>,
    /// Admission-cascade rejections recorded by the edges and folding
    /// stages (goes into [`DecodeProvenance::admission`]).
    admission: Vec<AdmissionRecord>,
    tracked: Vec<TrackedStream>,
    units: Vec<StreamUnit>,
    outputs: Vec<(DecodedStream, StreamProvenance)>,
    /// Per-tracked-stream: whether a carve was already requested for it
    /// (one attempt per stream per epoch).
    carve_attempted: Vec<bool>,
    /// Per-tracked-stream carve record, populated by the re-entry pass.
    carves: Vec<Option<CarveProvenance>>,
    /// Per-tracked-stream: an accepted carve replaced the track since the
    /// slots stage last ran.
    replaced: Vec<bool>,
    /// Carves scheduled for the next folding execution.
    carve_requests: Vec<CarveRequest>,
}

impl<'a> EpochContext<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: &'a DecoderConfig,
        signal: &'a [Complex],
        sums: &'a PrefixSums,
        msq: &'a mut Vec<f64>,
        select: &'a mut Vec<f64>,
        owner: &'a mut Vec<Option<usize>>,
        prev_owner: &'a mut Vec<Option<usize>>,
        foreign: &'a mut Vec<(f64, Complex)>,
        unowned: &'a mut Vec<bool>,
        fold_hists: &'a mut Vec<FoldedHistogram>,
        search: &'a mut SearchArena,
    ) -> Self {
        EpochContext {
            cfg,
            signal,
            sums,
            msq,
            select,
            owner,
            prev_owner,
            foreign,
            unowned,
            fold_hists,
            search,
            edges: Vec::new(),
            admission: Vec::new(),
            tracked: Vec::new(),
            units: Vec::new(),
            outputs: Vec::new(),
            carve_attempted: Vec::new(),
            carves: Vec::new(),
            replaced: Vec::new(),
            carve_requests: Vec::new(),
        }
    }
}

/// Stage 1 — edge detection (§3.1).
struct EdgesStage;

impl Stage for EdgesStage {
    fn name(&self) -> &'static str {
        "edges"
    }
    fn span_name(&self) -> &'static str {
        "pipeline.edges"
    }
    fn metric_name(&self) -> &'static str {
        "pipeline.stage.edges.ns"
    }
    fn run(&self, ctx: &mut EpochContext<'_>) -> StageOutcome {
        ctx.edges = detect_edges_with(ctx.sums, ctx.cfg, ctx.msq, ctx.select, &mut ctx.admission);
        for e in &ctx.edges {
            checks::assert_finite_scalar("edge-detection", e.time);
            checks::assert_finite_scalar("edge-detection", e.strength);
            checks::assert_finite_complex("edge-detection", std::slice::from_ref(&e.diff));
        }
        StageOutcome::Advance
    }
}

/// Stage 2 — eye-pattern folding and drift tracking (§3.2). On a carve
/// re-entry this stage re-tracks the requested streams at their carved
/// harmonics instead of searching from scratch, and marks the ones it
/// replaced for stages 3–5 to recompute.
struct FoldingStage;

impl Stage for FoldingStage {
    fn name(&self) -> &'static str {
        "folding"
    }
    fn span_name(&self) -> &'static str {
        "pipeline.folding"
    }
    fn metric_name(&self) -> &'static str {
        "pipeline.stage.folding.ns"
    }
    fn run(&self, ctx: &mut EpochContext<'_>) -> StageOutcome {
        if ctx.carve_requests.is_empty() {
            ctx.tracked = find_streams_with(
                &ctx.edges,
                ctx.signal.len(),
                ctx.cfg,
                ctx.fold_hists,
                &mut ctx.admission,
                ctx.search,
            );
            ctx.carve_attempted = vec![false; ctx.tracked.len()];
            ctx.carves = vec![None; ctx.tracked.len()];
            ctx.replaced = vec![false; ctx.tracked.len()];
            ctx.units.clear();
        } else {
            let requests = std::mem::take(&mut ctx.carve_requests);
            for req in requests {
                apply_carve(ctx, &req);
            }
        }
        for ts in &ctx.tracked {
            checks::assert_finite_scalar("stream-tracking", ts.offset);
            checks::assert_finite_scalar("stream-tracking", ts.period_est);
            checks::assert_finite_f64("stream-tracking", &ts.slot_times);
        }
        StageOutcome::Advance
    }
}

/// Stage 3 — per-slot IQ differentials with cross-stream masking (§3.3
/// input preparation).
struct SlotsStage;

impl Stage for SlotsStage {
    fn name(&self) -> &'static str {
        "slots"
    }
    fn span_name(&self) -> &'static str {
        "pipeline.slots"
    }
    fn metric_name(&self) -> &'static str {
        "pipeline.stage.slots.ns"
    }
    fn run(&self, ctx: &mut EpochContext<'_>) -> StageOutcome {
        // Edge ownership across all tracked streams, computed once per
        // pass: stream k's window trimming must respect edges matched by
        // the *other* streams but keep its own orphan companions (see
        // lf_core::slots).
        std::mem::swap(ctx.owner, ctx.prev_owner);
        edge_owners_into(&ctx.tracked, ctx.edges.len(), ctx.owner);
        let stale = if ctx.units.is_empty() {
            vec![true; ctx.tracked.len()]
        } else {
            stale_streams(ctx)
        };
        ctx.units
            .resize_with(ctx.tracked.len(), StreamUnit::default);
        for (si, ts) in ctx.tracked.iter().enumerate() {
            if !stale[si] {
                continue;
            }
            foreign_edges_into(ts, si, &ctx.edges, &*ctx.owner, ctx.cfg, ctx.foreign);
            let diffs = slot_differentials(ctx.sums, ts, ctx.foreign, ctx.cfg);
            checks::assert_finite_complex("slot-differentials", &diffs);
            let clean = slot_cleanliness(ts, ctx.foreign, ctx.cfg);
            ctx.units[si] = StreamUnit {
                diffs,
                clean,
                ..StreamUnit::default()
            };
        }
        ctx.replaced.fill(false);
        StageOutcome::Advance
    }
}

/// The streams a carve re-entry must recompute. A stream's foreign-edge
/// list — and so its differentials, cleanliness, analysis and bits — is
/// a function of its own track, the owner of every edge, and, for an
/// unowned edge only, whether it sits within the stream's companion
/// radius of a slot boundary. So a stream is stale when a carve replaced
/// its track, when it owned or now owns an edge whose owner changed, or
/// when such an edge is one it could count as a companion; every other
/// stream's unit is still exact.
fn stale_streams(ctx: &EpochContext<'_>) -> Vec<bool> {
    let mut stale = ctx.replaced.clone();
    let mut changed: Vec<f64> = Vec::new();
    for (i, (was, now)) in ctx.prev_owner.iter().zip(ctx.owner.iter()).enumerate() {
        if was == now {
            continue;
        }
        for k in [was, now].into_iter().flatten() {
            if let Some(s) = stale.get_mut(*k) {
                *s = true;
            }
        }
        if let Some(e) = ctx.edges.get(i) {
            changed.push(e.time);
        }
    }
    for (si, ts) in ctx.tracked.iter().enumerate() {
        if stale[si] {
            continue;
        }
        let radius = companion_radius(ts, ctx.cfg);
        stale[si] = changed.iter().any(|&t| is_companion(ts, t, radius));
    }
    stale
}

/// Stage 4 — IQ-cluster collision detection and separation (§3.3–§3.4).
struct SeparationStage;

impl Stage for SeparationStage {
    fn name(&self) -> &'static str {
        "separation"
    }
    fn span_name(&self) -> &'static str {
        "pipeline.separation"
    }
    fn metric_name(&self) -> &'static str {
        "pipeline.stage.separation.ns"
    }
    fn run(&self, ctx: &mut EpochContext<'_>) -> StageOutcome {
        for unit in ctx.units.iter_mut().filter(|u| u.analysis.is_none()) {
            let (analysis, sep_prov) = analyze_slots_with(&unit.diffs, &unit.clean, ctx.cfg);
            match &analysis {
                StreamAnalysis::Single(fit) => {
                    checks::assert_finite_complex(
                        "collision-separation",
                        std::slice::from_ref(&fit.e),
                    );
                }
                StreamAnalysis::Collided(fit) => {
                    checks::assert_finite_complex("collision-separation", &[fit.e1, fit.e2]);
                    checks::assert_finite_scalar("collision-separation", fit.noise_var);
                }
                StreamAnalysis::Unresolved => {}
            }
            unit.analysis = Some((analysis, sep_prov));
        }
        StageOutcome::Advance
    }
}

/// Stage 5 — bit recovery (§3.5) and per-stream provenance assembly.
/// Bits are decoded once per unit; every pass re-stamps the carve
/// records, which the carve stage updates between passes.
struct DecodeStage;

impl Stage for DecodeStage {
    fn name(&self) -> &'static str {
        "decode"
    }
    fn span_name(&self) -> &'static str {
        "pipeline.decode"
    }
    fn metric_name(&self) -> &'static str {
        "pipeline.stage.decode.ns"
    }
    fn run(&self, ctx: &mut EpochContext<'_>) -> StageOutcome {
        ctx.outputs.clear();
        for (si, (ts, unit)) in ctx.tracked.iter().zip(ctx.units.iter_mut()).enumerate() {
            let StreamUnit {
                diffs,
                analysis,
                decoded,
                ..
            } = unit;
            let Some((analysis, sep_prov)) = analysis.as_ref() else {
                continue;
            };
            if let StreamAnalysis::Unresolved = analysis {
                lf_obs::event!(
                    Warn,
                    "stream at {} bps unresolved (k_scores={:?})",
                    ts.rate_bps,
                    sep_prov.k_scores
                );
            }
            let decoded =
                decoded.get_or_insert_with(|| decode_unit(ts, diffs, analysis, sep_prov, ctx.cfg));
            let carve = ctx.carves.get(si).cloned().flatten();
            for (stream, prov) in decoded.iter() {
                ctx.outputs.push((
                    stream.clone(),
                    StreamProvenance {
                        carve: carve.clone(),
                        ..prov.clone()
                    },
                ));
            }
        }
        StageOutcome::Advance
    }
}

/// Decodes one analysed stream: one output for a single or unresolved
/// stream, one per member for a separated collision. The provenance's
/// carve record is left unset.
fn decode_unit(
    ts: &TrackedStream,
    diffs: &[Complex],
    analysis: &StreamAnalysis,
    sep_prov: &SeparationProvenance,
    cfg: &DecoderConfig,
) -> Vec<(DecodedStream, StreamProvenance)> {
    // The per-stream provenance skeleton: what the fold and the tracker
    // saw; the analysis/decode fill the rest.
    let base_prov = StreamProvenance {
        rate_bps: ts.rate_bps,
        fold: ts.fold.clone(),
        n_matched: ts.n_matched(),
        n_slots: ts.n_slots(),
        residual_std: ts.residual_std,
        ..StreamProvenance::default()
    };
    let stream = |bits, kind, edge_vector| DecodedStream {
        rate: ts.rate,
        rate_bps: ts.rate_bps,
        offset: ts.offset,
        period: ts.period_est,
        bits,
        kind,
        edge_vector,
    };
    match analysis {
        StreamAnalysis::Single(fit) => {
            let (bits, trace) = decode_single_traced(diffs, fit, cfg);
            vec![(
                stream(bits, StreamKind::Single, fit.e),
                StreamProvenance {
                    kind: Some(StreamKind::Single),
                    separation: sep_prov.clone(),
                    anchor: trace.anchor,
                    path_metric: trace.path_metric,
                    ..base_prov
                },
            )]
        }
        StreamAnalysis::Collided(fit) => {
            // The anchor slot's lattice classification pinned both
            // member signs during separation.
            let anchor = fit
                .assignments
                .first()
                .map_or(AnchorOutcome::NotEvaluated, |&(a, b)| {
                    AnchorOutcome::Pinned { a, b }
                });
            (0..2)
                .map(|idx| {
                    let obs = fit.member_observations(idx, diffs);
                    let e = if idx == 0 { fit.e1 } else { fit.e2 };
                    let (bits, trace) =
                        decode_member_traced(&obs, e, fit.member_emissions(idx), cfg);
                    (
                        stream(bits, StreamKind::CollisionMember, e),
                        StreamProvenance {
                            kind: Some(StreamKind::CollisionMember),
                            separation: sep_prov.clone(),
                            anchor,
                            path_metric: trace.path_metric,
                            ..base_prov.clone()
                        },
                    )
                })
                .collect()
        }
        StreamAnalysis::Unresolved => vec![(
            stream(BitVec::new(), StreamKind::Unresolved, Complex::ZERO),
            StreamProvenance {
                kind: Some(StreamKind::Unresolved),
                separation: sep_prov.clone(),
                ..base_prov
            },
        )],
    }
}

/// Stage 6 — the sub-harmonic split test. Runs after the decode so it can
/// see the full analysis of every stream; when it finds carve evidence it
/// re-enters the folding stage, which re-tracks the fused streams and
/// lets stages 3–5 recompute.
struct CarveStage;

impl Stage for CarveStage {
    fn name(&self) -> &'static str {
        "carve"
    }
    fn span_name(&self) -> &'static str {
        "pipeline.carve"
    }
    fn metric_name(&self) -> &'static str {
        "pipeline.stage.carve.ns"
    }
    fn run(&self, ctx: &mut EpochContext<'_>) -> StageOutcome {
        if ctx.tracked.is_empty() {
            return StageOutcome::Advance;
        }
        // Edges no tracked stream explains — the carve's raw material.
        ctx.unowned.clear();
        ctx.unowned.resize(ctx.edges.len(), true);
        for ts in &ctx.tracked {
            for m in ts.matched.iter().flatten() {
                if let Some(slot) = ctx.unowned.get_mut(*m) {
                    *slot = false;
                }
            }
        }
        let mut requests = Vec::new();
        for si in 0..ctx.tracked.len() {
            if ctx.carve_attempted.get(si).copied().unwrap_or(true) {
                continue;
            }
            if !ctx.tracked[si].fold.is_ambiguous() {
                continue;
            }
            // A separated 2-tag collision already explains the ambiguity;
            // only Single/Unresolved streams are carve candidates.
            let collided = matches!(
                ctx.units.get(si).and_then(|u| u.analysis.as_ref()),
                Some((StreamAnalysis::Collided(_), _))
            );
            if collided {
                continue;
            }
            if let Some(req) = evaluate_carve(ctx, si) {
                requests.push(req);
            }
        }
        if requests.is_empty() {
            return StageOutcome::Advance;
        }
        for r in &requests {
            if let Some(a) = ctx.carve_attempted.get_mut(r.stream) {
                *a = true;
            }
        }
        ctx.carve_requests = requests;
        StageOutcome::ReEnter("folding")
    }
}

/// The split test for one fused stream: collect unclaimed residual edges
/// (the carve stage's `ctx.unowned` mask) along the stream's own channel
/// direction, score candidate harmonics by how many residuals sit on the
/// harmonic's sub-grid, and re-fold the residual train at the winning
/// sub-period as the evidence record.
fn evaluate_carve(ctx: &EpochContext<'_>, si: usize) -> Option<CarveRequest> {
    let unowned: &[bool] = ctx.unowned;
    let ts = ctx.tracked.get(si)?;
    let dir = principal_direction(&ctx.edges, ts)?;
    let span_start = *ts.slot_times.first()?;
    let span_end = *ts.slot_times.last()? + ts.period_est;
    let mut residuals: Vec<f64> = Vec::new();
    for (i, e) in ctx.edges.iter().enumerate() {
        if !unowned.get(i).copied().unwrap_or(false) {
            continue;
        }
        if e.time < span_start || e.time > span_end {
            continue;
        }
        let n = e.diff.abs();
        if n < 1e-12 {
            continue;
        }
        let cos = (e.diff.re * dir.re + e.diff.im * dir.im) / n;
        if cos.abs() < CARVE_DIR_ALIGN {
            continue;
        }
        residuals.push(e.time);
    }
    if residuals.len() < MIN_CARVE_EVIDENCE {
        return None;
    }
    let tol = 2.0 * ctx.cfg.edge_width;
    let mut best: Option<(u32, usize)> = None;
    for m in 2u32..=5 {
        let Ok(sup) = BitRate::from_multiple(ts.rate.multiple().saturating_mul(m)) else {
            continue;
        };
        if !ctx.cfg.rate_plan.contains(sup) {
            continue;
        }
        let sub = ts.period_est / f64::from(m);
        let mut count = 0usize;
        for &t in &residuals {
            // The sub-grid position of the residual inside its slot: only
            // interior positions (j in 1..m) are carve evidence — an edge
            // at j = 0 or j = m is on the fused grid itself.
            let k = ts.slot_times.partition_point(|&s| s <= t);
            if k == 0 {
                continue;
            }
            let r = t - ts.slot_times[k - 1];
            let j = (r / sub).round();
            if j >= 1.0 && j <= f64::from(m) - 1.0 && (r - j * sub).abs() <= tol {
                count += 1;
            }
        }
        if count >= MIN_CARVE_EVIDENCE && best.is_none_or(|(_, c)| count > c) {
            best = Some((m, count));
        }
    }
    let (harmonic, n_residual) = best?;
    // Re-fold the residual train at the carved sub-period (the resumable
    // fold-table walk): a genuine sub-harmonic piles its residuals into
    // one phase bin, and that peak weight goes into the provenance.
    let sub = ts.period_est / f64::from(harmonic);
    let nbins = ((sub / ctx.cfg.edge_width).round() as usize).clamp(8, 4096);
    let table = FoldTable::with_unit_weights(residuals);
    let residual_peak = table
        .fold(sub, nbins)
        .peaks(1.0, 2)
        .first()
        .map_or(0.0, |&(_, w)| w);
    Some(CarveRequest {
        stream: si,
        harmonic,
        n_residual,
        residual_peak,
    })
}

/// The stream's dominant edge direction (sign-aligned mean of its matched
/// edge differentials, normalized), or `None` for a stream with no usable
/// edge energy.
fn principal_direction(edges: &[EdgeEvent], ts: &TrackedStream) -> Option<Complex> {
    let mut reference: Option<Complex> = None;
    let mut sum = Complex::ZERO;
    for &idx in ts.matched.iter().flatten() {
        let Some(e) = edges.get(idx) else {
            continue;
        };
        let d = e.diff;
        let r = *reference.get_or_insert(d);
        let aligned = if d.re * r.re + d.im * r.im >= 0.0 {
            d
        } else {
            -d
        };
        sum += aligned;
    }
    let n = sum.abs();
    (n > 1e-12).then(|| Complex::new(sum.re / n, sum.im / n))
}

/// Executes one scheduled carve: re-track the fused stream at the carved
/// harmonic over the edges no *other* stream owns, without the structural
/// alias checks (the split test already established the harmonic
/// structure those checks exist to veto blind). The re-track replaces the
/// fused track only when it explains materially more edges.
fn apply_carve(ctx: &mut EpochContext<'_>, req: &CarveRequest) {
    let n_matched_before = ctx
        .tracked
        .get(req.stream)
        .map_or(0, TrackedStream::n_matched);
    let mut prov = CarveProvenance {
        harmonic: req.harmonic,
        n_residual: req.n_residual,
        residual_peak: req.residual_peak,
        n_matched_before,
        n_matched_after: 0,
        accepted: false,
    };
    if let Some(mut new) = retrack_for(ctx, req) {
        prov.n_matched_after = new.n_matched();
        if new.n_matched() >= n_matched_before + MIN_CARVE_GAIN {
            prov.accepted = true;
            if let Some(slot) = ctx.tracked.get_mut(req.stream) {
                // Keep the fused lock's fold record: the ambiguity is what
                // the carve explains, and the provenance should show both.
                new.fold = slot.fold.clone();
                ctx.search.reclaim(&slot.matched, &new.matched);
                *slot = new;
            }
            if let Some(r) = ctx.replaced.get_mut(req.stream) {
                *r = true;
            }
        }
    }
    lf_obs::event!(
        Info,
        "carve stream={} harmonic={} residuals={} matched {}->{} accepted={}",
        req.stream,
        req.harmonic,
        req.n_residual,
        prov.n_matched_before,
        prov.n_matched_after,
        prov.accepted
    );
    if let Some(slot) = ctx.carves.get_mut(req.stream) {
        *slot = Some(prov);
    }
}

/// Re-tracks the requested stream at its carved harmonic, seeded from the
/// fused track's first matched edge, over the edges no other stream owns.
/// The search arena's claim mask covers exactly the tracked streams'
/// edges (the blind search left it so, and [`apply_carve`] moves it with
/// every accepted carve).
fn retrack_for(ctx: &mut EpochContext<'_>, req: &CarveRequest) -> Option<TrackedStream> {
    let ts = ctx.tracked.get(req.stream)?;
    let rate = BitRate::from_multiple(ts.rate.multiple().saturating_mul(req.harmonic)).ok()?;
    let seed_idx = ts.matched.iter().flatten().next().copied()?;
    ctx.search.retrack_at_harmonic(
        &ctx.edges,
        &ts.matched,
        seed_idx,
        rate,
        ctx.signal.len(),
        ctx.cfg,
    )
}

/// The stage-graph runner — the single decode path behind
/// [`crate::pipeline::Decoder`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineGraph;

impl PipelineGraph {
    /// Runs the decode graph over one epoch's IQ capture.
    ///
    /// This is the one instrumented path: the obs context is installed
    /// once, every stage execution gets exactly one span and one timing
    /// slot (re-entries accumulate into the slot of the stage they
    /// re-run), and metrics plus [`DecodeProvenance`] are recorded once at
    /// the end. `Decoder::decode`, `Decoder::decode_timed`, and the
    /// obs-enabled construction are all thin wrappers over this function.
    ///
    /// Non-finite samples are treated as dropouts and zeroed before the
    /// stages run (under `strict-checks` they panic naming the `input`
    /// stage instead — see `lf_dsp::checks`).
    pub fn run(
        cfg: &DecoderConfig,
        obs: &ObsContext,
        signal: &[Complex],
    ) -> (EpochDecode, StageTimings) {
        let mut scratch = DecodeScratch::default();
        Self::run_with(cfg, obs, signal, &mut scratch)
    }

    /// [`PipelineGraph::run`] with caller-owned [`DecodeScratch`]: a
    /// long-running worker reuses one scratch across epochs and pays zero
    /// steady-state allocation for the prefix sums, the edge-detection
    /// series, the ownership index, and the fold histogram. Decode output
    /// is bit-identical to a fresh scratch (the buffers carry no state
    /// between epochs).
    ///
    /// Resolves a transient [`PipelineMetrics`] per call when obs is
    /// enabled; epoch-loop callers should hold one across epochs and use
    /// [`PipelineGraph::run_scoped`] instead (`Decoder` does).
    pub fn run_with(
        cfg: &DecoderConfig,
        obs: &ObsContext,
        signal: &[Complex],
        scratch: &mut DecodeScratch,
    ) -> (EpochDecode, StageTimings) {
        let metrics = obs.is_enabled().then(|| PipelineMetrics::register(obs));
        Self::run_scoped(cfg, obs, metrics.as_ref(), signal, scratch)
    }

    /// The full-control entry: caller-owned scratch *and* caller-owned
    /// pre-resolved metric handles. With `metrics` resolved once per
    /// worker, the per-epoch recording path touches no registry map and
    /// allocates no metric names — the difference between the ~10 %
    /// enabled-path overhead the name-lookup path measured and the <5 %
    /// budget `obs_overhead` now enforces.
    pub fn run_scoped(
        cfg: &DecoderConfig,
        obs: &ObsContext,
        metrics: Option<&PipelineMetrics>,
        signal: &[Complex],
        scratch: &mut DecodeScratch,
    ) -> (EpochDecode, StageTimings) {
        // Install the context for the duration of the decode: every
        // `span!`/`event!` below (and in the dsp kernels underneath) finds
        // it through the thread local. Disabled context ⇒ the guard clears
        // the slot and all of them are no-ops.
        let _obs_guard = obs.install();
        let _span_total = lf_obs::span!("pipeline.total");
        let t_start = Instant::now();
        checks::assert_finite_complex("input", signal);
        let sanitized: Option<Vec<Complex>> = if signal.iter().all(|s| s.is_finite()) {
            None
        } else {
            Some(
                signal
                    .iter()
                    .map(|s| if s.is_finite() { *s } else { Complex::ZERO })
                    .collect(),
            )
        };
        let signal: &[Complex] = sanitized.as_deref().unwrap_or(signal);
        // The one prefix-sum pass over the epoch, shared by the edges and
        // slots stages. Built after sanitization so the sums can never see
        // a non-finite sample; counted in `total` but in no stage slot
        // (epoch setup, not stage work).
        let DecodeScratch {
            prefix,
            msq,
            select,
            owner,
            prev_owner,
            foreign,
            unowned,
            fold_hists,
            search,
        } = scratch;
        prefix.rebuild(signal);
        let mut ctx = EpochContext::new(
            cfg, signal, prefix, msq, select, owner, prev_owner, foreign, unowned, fold_hists,
            search,
        );
        let mut per_stage = [Duration::ZERO; STAGE_COUNT];
        let mut i = 0usize;
        let mut reentries = 0usize;
        while i < STAGE_COUNT {
            let stage = STAGES[i];
            let t_stage = Instant::now();
            let outcome = {
                let _span = SpanGuard::enter(stage.span_name());
                stage.run(&mut ctx)
            };
            per_stage[i] += t_stage.elapsed();
            match outcome {
                StageOutcome::Advance => i += 1,
                StageOutcome::ReEnter(target) => {
                    let back = STAGES.iter().position(|s| s.name() == target);
                    match back {
                        Some(j) if reentries < MAX_REENTRIES => {
                            reentries += 1;
                            i = j;
                        }
                        // Unknown target or re-entry budget exhausted:
                        // never loop, just move on.
                        _ => i += 1,
                    }
                }
            }
        }
        let timings = StageTimings {
            per_stage,
            total: t_start.elapsed(),
        };
        let n_edges = ctx.edges.len();
        let n_tracked = ctx.tracked.len();
        let (streams, stream_provs): (Vec<_>, Vec<_>) = ctx.outputs.into_iter().unzip();
        let decode = EpochDecode {
            streams,
            n_edges,
            n_tracked,
            provenance: DecodeProvenance {
                n_edges,
                n_tracked,
                admission: std::mem::take(&mut ctx.admission),
                streams: stream_provs,
            },
        };
        if let Some(m) = metrics {
            m.record(&decode, &timings);
        }
        (decode, timings)
    }
}

/// Pre-resolved handles for every metric the graph runner publishes per
/// epoch. Registering once per worker (instead of looking names up in the
/// registry per epoch) removes a mutex, a map walk, and a `String`
/// allocation per metric from the decode hot path. Metric names are still
/// derived from the [`STAGES`] array, so a new stage is wired in
/// automatically.
///
/// All handles are cheap `Arc` clones into the shared registry:
/// `PipelineMetrics` is `Clone`, and clones aggregate into the same
/// counters.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    epochs: Counter,
    edges_total: Counter,
    streams_tracked: Counter,
    streams_single: Counter,
    streams_collision: Counter,
    streams_unresolved: Counter,
    stage_ns: [Histogram; STAGE_COUNT],
    total_ns: Histogram,
}

impl PipelineMetrics {
    /// Resolves every pipeline metric handle against `obs` once. On a
    /// disabled context every handle is detached and recording is a no-op
    /// (callers typically skip registering in that case).
    pub fn register(obs: &ObsContext) -> Self {
        PipelineMetrics {
            epochs: obs.counter("pipeline.epochs"),
            edges_total: obs.counter("pipeline.edges_total"),
            streams_tracked: obs.counter("pipeline.streams.tracked"),
            streams_single: obs.counter("pipeline.streams.single"),
            streams_collision: obs.counter("pipeline.streams.collision_member"),
            streams_unresolved: obs.counter("pipeline.streams.unresolved"),
            stage_ns: std::array::from_fn(|i| obs.histogram(STAGES[i].metric_name())),
            total_ns: obs.histogram("pipeline.stage.total.ns"),
        }
    }

    /// Publishes one decode's counts and stage latencies.
    fn record(&self, decode: &EpochDecode, timings: &StageTimings) {
        self.epochs.inc();
        self.edges_total.add(decode.n_edges as u64);
        self.streams_tracked.add(decode.n_tracked as u64);
        for s in &decode.streams {
            match s.kind {
                StreamKind::Single => self.streams_single.inc(),
                StreamKind::CollisionMember => self.streams_collision.inc(),
                StreamKind::Unresolved => self.streams_unresolved.inc(),
            }
        }
        for (h, d) in self.stage_ns.iter().zip(timings.per_stage) {
            h.record_duration(d);
        }
        self.total_ns.record_duration(timings.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_types::{RatePlan, SampleRate};

    #[test]
    fn stage_names_are_unique_and_in_pipeline_order() {
        let names = stage_names();
        assert_eq!(
            names,
            ["edges", "folding", "slots", "separation", "decode", "carve"]
        );
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn span_and_metric_names_derive_from_stage_names() {
        for stage in STAGES {
            assert_eq!(stage.span_name(), format!("pipeline.{}", stage.name()));
            assert_eq!(
                stage.metric_name(),
                format!("pipeline.stage.{}.ns", stage.name())
            );
        }
    }

    #[test]
    fn reenter_target_must_be_a_stage_name() {
        // The carve stage's re-entry target must resolve, or re-entry
        // silently degrades to advance and the carve never runs.
        assert!(STAGES.iter().any(|s| s.name() == "folding"));
    }

    #[test]
    fn empty_signal_runs_the_whole_graph_once() {
        let mut cfg = DecoderConfig::at_sample_rate(SampleRate::from_msps(1.0));
        cfg.rate_plan = RatePlan::from_bps(100.0, &[10_000.0]).expect("plan");
        let obs = ObsContext::disabled();
        let (decode, timings) = PipelineGraph::run(&cfg, &obs, &[]);
        assert!(decode.streams.is_empty());
        assert_eq!(decode.n_edges, 0);
        assert!(timings.total >= timings.per_stage.iter().sum::<Duration>());
    }
}
