//! A shared atomic view over flag arrays for parallel decision commits.
//!
//! The spanner engines commit per-vertex decision batches by flipping flags in shared
//! `Vec<bool>` masks (`alive`, `in_spanner`). Those writes are *conflict-free* in the
//! sense that any two concurrent writes to the same slot store the same value (flags
//! only ever move one way within a commit) — but Rust's aliasing rules still forbid
//! touching a `&mut [bool]` from two threads. [`AtomicFlags`] reinterprets the
//! exclusive borrow as a slice of relaxed atomics for the duration of the commit,
//! which is exactly the synchronization-free CRCW ("common" write rule) model the
//! paper's PRAM adaptation assumes.
//!
//! All accesses are `Relaxed`: the commit is bracketed by rayon's fork/join, which
//! publishes every store to the joining thread, and no load inside the commit is used
//! to establish ordering between threads.

use std::sync::atomic::{AtomicBool, Ordering};

/// A shared view over a `&mut [bool]`, writable from many threads at once.
#[derive(Clone, Copy)]
pub struct AtomicFlags<'a>(&'a [AtomicBool]);

impl<'a> AtomicFlags<'a> {
    /// Reinterprets an exclusive bool slice as shared atomic flags.
    pub fn new(flags: &'a mut [bool]) -> AtomicFlags<'a> {
        // SAFETY: `AtomicBool` is documented to have the same size, alignment and bit
        // validity as `bool`, and the `&mut` borrow guarantees no other reference
        // observes the slice while this view (which borrows it) is alive.
        let ptr = flags.as_mut_ptr() as *const AtomicBool;
        AtomicFlags(unsafe { std::slice::from_raw_parts(ptr, flags.len()) })
    }

    /// Reads slot `i`. The value may be mid-commit; callers must only depend on it in
    /// ways that are invariant under commit order (see module docs).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.0[i].load(Ordering::Relaxed)
    }

    /// Writes slot `i`.
    #[inline]
    pub fn set(&self, i: usize, value: bool) {
        self.0[i].store(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn concurrent_same_value_flag_writes_land() {
        let mut flags = vec![false; 1024];
        {
            let view = AtomicFlags::new(&mut flags);
            (0..8usize).into_par_iter().for_each(|_| {
                for i in (0..1024).step_by(2) {
                    view.set(i, true);
                }
            });
            assert!(view.get(0) && !view.get(1));
        }
        for (i, &f) in flags.iter().enumerate() {
            assert_eq!(f, i % 2 == 0);
        }
    }
}
