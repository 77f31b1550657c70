//! Seeded concurrency violations for the linter meta-tests: one lock
//! inversion, two unjustified atomic operations (plus a justified one and
//! a waived one that must stay silent), and one bare `if`-guarded condvar
//! wait (plus a compliant `while` wait and an exempt `wait_while`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

pub struct Shared {
    state: Mutex<Vec<u32>>,
    slots: Mutex<Vec<u64>>,
    ready: Condvar,
    hits: AtomicU64,
}

impl Shared {
    pub fn inverted_lock_order(&self) {
        let slot = self.slots.lock().unwrap();
        let st = self.state.lock().unwrap(); // seeded: outer after inner
        drop((slot, st));
    }

    pub fn ordered_locks_are_fine(&self) {
        let st = self.state.lock().unwrap();
        let slot = self.slots.lock().unwrap();
        drop((st, slot));
    }

    pub fn bump_unjustified(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed); // seeded: no justification
    }

    pub fn read_unjustified(&self) -> u64 {
        self.hits.load(Ordering::SeqCst) // seeded: no justification
    }

    pub fn bump_justified(&self) {
        // ordering: Relaxed — standalone monotone counter; nothing else
        // is published under this increment.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn bump_waived(&self) {
        // Migration shim measured elsewhere.
        self.hits.fetch_add(1, Ordering::Relaxed); // xtask: allow(no-atomic-ordering-default)
    }

    pub fn if_guarded_wait(&self) {
        let mut st = self.state.lock().unwrap();
        if st.is_empty() {
            st = self.ready.wait(st).unwrap(); // seeded: no predicate loop
        }
        drop(st);
    }

    pub fn while_guarded_wait(&self) {
        let mut st = self.state.lock().unwrap();
        while st.is_empty() {
            st = self.ready.wait(st).unwrap();
        }
        drop(st);
    }

    pub fn wait_while_owns_its_loop(&self) {
        let st = self
            .ready
            .wait_while(self.state.lock().unwrap(), |s| s.is_empty());
        drop(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_test_code_concurrency_is_exempt() {
        let shared = Shared {
            state: Mutex::new(Vec::new()),
            slots: Mutex::new(Vec::new()),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
        };
        // in_test_code: unjustified atomics and inverted locks are exempt.
        shared.hits.fetch_add(1, Ordering::SeqCst);
        let slot = shared.slots.lock().unwrap();
        let st = shared.state.lock().unwrap();
        drop((slot, st));
    }
}
