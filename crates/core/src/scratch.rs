//! Reusable per-epoch decode scratch.
//!
//! One epoch decode used to allocate ~10 transient buffers — the prefix-sum
//! table, the squared-magnitude series and its quickselect workspace, the
//! edge→owner index, a per-stream foreign-edge list, the carve's unowned
//! mask, a fold histogram per candidate rate per gather round, and the
//! stream search's edge views and candidate buffers. All of
//! them are epoch-scoped and shape-stable across epochs, so a long-running
//! reader worker can hold one [`DecodeScratch`] and decode epoch after
//! epoch with zero steady-state allocation in those paths.
//!
//! The scratch carries **no decode state between epochs**: every buffer is
//! cleared or fully rebuilt by the stage that uses it, so decoding with a
//! freshly-defaulted scratch and a reused one is bit-identical (pinned by
//! the hot-path equivalence tests).

use crate::edges::PrefixSums;
use crate::streams::SearchArena;
use lf_dsp::fold::FoldedHistogram;
use lf_types::Complex;
// Under the `lf-check` feature the pool's Mutex comes from the model
// scheduler's shims (passthrough outside a model run), so
// tests/model_pool.rs can interleave checkout/checkin exhaustively.
#[cfg(feature = "lf-check")]
use lf_check::sync::{Mutex, PoisonError};
#[cfg(not(feature = "lf-check"))]
use std::sync::{Mutex, PoisonError};

/// Reusable buffers for one epoch decode, owned by a worker (or the
/// [`Decoder`](crate::Decoder)'s internal pool) and threaded through
/// [`Decoder::decode_timed_with`](crate::Decoder::decode_timed_with).
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Epoch-wide prefix sums, shared by the edges and slots stages.
    pub(crate) prefix: PrefixSums,
    /// Squared-magnitude differential series (edges stage).
    pub(crate) msq: Vec<f64>,
    /// Quickselect workspace for the robust threshold (edges stage).
    pub(crate) select: Vec<f64>,
    /// Edge→owning-stream index (slots stage).
    pub(crate) owner: Vec<Option<usize>>,
    /// The previous slots pass's ownership index: a carve re-entry
    /// compares it with the new one to find the streams whose inputs
    /// changed (slots stage).
    pub(crate) prev_owner: Vec<Option<usize>>,
    /// Foreign-edge list of the stream currently being processed
    /// (slots stage).
    pub(crate) foreign: Vec<(f64, Complex)>,
    /// Orphan-edge mask (carve stage).
    pub(crate) unowned: Vec<bool>,
    /// Fold histograms — one per admitted candidate rate, filled by the
    /// batched multi-period fold and reused across gather rounds and
    /// epochs (folding stage).
    pub(crate) fold_hists: Vec<FoldedHistogram>,
    /// The stream search's edge views, time index, claim mask and
    /// candidate buffers, reused by the epoch's carve re-tracks (folding
    /// stage).
    pub(crate) search: SearchArena,
}

/// A poison-tolerant pool of reusable values.
///
/// The [`Decoder`](crate::Decoder) keeps its [`DecodeScratch`] buffers in
/// one of these: [`ScratchPool::checkout`] pops a pooled value (or
/// defaults a fresh one), [`ScratchPool::checkin`] returns it. The
/// contract the pool provides — and the lf-check model suite pins — is:
///
/// * **exclusivity** — a checked-out value is owned by exactly one
///   caller until it is checked back in (moves, never shares);
/// * **loss tolerance** — a caller that panics between checkout and
///   checkin simply never returns the value; the pool stays consistent
///   and the next checkout allocates a fresh default;
/// * **poison recovery** — a thread dying *inside* `checkout`/`checkin`
///   poisons the internal lock, but both operations recover: pooled
///   values hold no mid-operation invariants (the `Vec` is valid between
///   operations by construction), so a poisoned lock only means some
///   other thread died.
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    slots: Mutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ScratchPool {
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Takes a value out of the pool, defaulting a fresh one when the
    /// pool is empty (the first checkout, or after a borrower panicked
    /// and its value was lost to the unwind).
    pub fn checkout(&self) -> T {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    /// Returns a value to the pool for reuse.
    pub fn checkin(&self, value: T) {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(value);
    }

    /// How many values are currently pooled (checked in and idle).
    pub fn pooled(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn checkout_defaults_then_reuses() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        let mut v = pool.checkout();
        assert!(v.is_empty());
        v.push(7);
        pool.checkin(v);
        assert_eq!(pool.pooled(), 1);
        // LIFO reuse hands back the same (warm) buffer.
        assert_eq!(pool.checkout(), vec![7]);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn lost_borrow_is_tolerated() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        let borrowed = pool.checkout();
        drop(borrowed); // never checked in — e.g. the borrower panicked
        assert_eq!(pool.pooled(), 0);
        assert!(pool.checkout().is_empty());
    }

    #[test]
    fn poisoned_lock_recovers() {
        let pool: Arc<ScratchPool<Vec<u32>>> = Arc::new(ScratchPool::new());
        pool.checkin(vec![3]);
        let p2 = Arc::clone(&pool);
        // Poison the internal lock: die while holding the guard.
        let t = std::thread::spawn(move || {
            let _guard = p2.slots.lock().unwrap();
            panic!("die holding the pool lock");
        });
        assert!(t.join().is_err());
        // Checkout, checkin, and accounting all still work.
        assert_eq!(pool.checkout(), vec![3]);
        pool.checkin(Vec::new());
        assert_eq!(pool.pooled(), 1);
    }
}
