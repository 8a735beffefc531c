//! grail-par: deterministic parallel experiment runner.
//!
//! Every figure in the paper reproduction is a sweep over independent
//! simulation configurations: each point owns its own [`grail_sim`]
//! world, seeded RNG, and energy meters, and never observes another
//! point. That independence is what makes parallelism free — the only
//! thing a thread pool could corrupt is *output order*, and order is
//! exactly what the byte-identical-artifacts contract cares about
//! (`experiments.jsonl`, figure CSVs, trace exports).
//!
//! [`Runner::run`] therefore fans `&[C] -> Vec<R>` across a scoped
//! thread pool but merges results by **input index**, so the returned
//! vector is indistinguishable from `configs.iter().map(...)` run on a
//! single thread. Workers pull work items from a shared atomic counter
//! (dynamic load balancing — sweep points have wildly different costs),
//! stash `(index, result)` pairs locally, and the merge step slots them
//! back into input order after all threads join. No `Mutex`, no
//! channels, no unsafe: the only shared mutable state is one
//! `AtomicUsize`.
//!
//! Thread spawning is *confined* to this crate by grail-lint's
//! `thread-confine` rule; everything downstream of a worker runs the
//! ordinary sequential simulation code.

#![forbid(unsafe_code)]

pub mod shard;

pub use shard::{HorizonProtocol, ShardStep};

use std::sync::atomic::{AtomicUsize, Ordering};

/// How a sweep executes: on the calling thread, or fanned across a
/// fixed number of worker threads with index-ordered merge.
///
/// The two modes are observationally equivalent for pure point
/// functions — that equivalence is property-tested in
/// `tests/determinism.rs` and re-checked end-to-end on real simulation
/// points by the root `tests/par_determinism.rs`, which compares every
/// result bit for bit across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// Run everything on the calling thread, in input order.
    pub fn sequential() -> Self {
        Runner { threads: 1 }
    }

    /// Fan across exactly `n` worker threads (`n >= 1`; `1` is
    /// equivalent to [`Runner::sequential`]).
    pub fn with_threads(n: usize) -> Self {
        assert!(n >= 1, "a runner needs at least one thread");
        Runner { threads: n }
    }

    /// One thread per available core, as reported by the OS. Falls
    /// back to sequential when parallelism cannot be queried.
    pub fn available() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Runner { threads: n }
    }

    /// Build a runner from process arguments, consuming the flags it
    /// recognizes so callers can parse the remainder themselves:
    ///
    /// * `--sequential` — force single-threaded execution,
    /// * `--threads N` — use exactly `N` worker threads.
    ///
    /// With neither flag present this defaults to
    /// [`Runner::available`]. `--sequential` wins if both appear, so a
    /// trailing `--sequential` can always pin down a CI baseline. A
    /// `--threads` without a positive integer after it is an `Err`
    /// naming the problem, for the caller's usage message.
    pub fn from_cli_args(args: &mut Vec<String>) -> Result<Self, String> {
        let mut threads: Option<usize> = None;
        let mut sequential = false;
        let mut kept = Vec::with_capacity(args.len());
        let mut it = args.drain(..);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--sequential" => sequential = true,
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => threads = Some(n),
                        _ => {
                            return Err(format!("--threads expects a positive integer, got `{v}`"))
                        }
                    }
                }
                _ => kept.push(a),
            }
        }
        drop(it);
        *args = kept;
        Ok(if sequential {
            Runner::sequential()
        } else if let Some(n) = threads {
            Runner::with_threads(n)
        } else {
            Runner::available()
        })
    }

    /// Worker thread count this runner fans across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when this runner executes on the calling thread only.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Map `f` over `configs`, returning results in **input order**
    /// regardless of which thread computed each point or when it
    /// finished.
    ///
    /// `f` is called exactly once per config with `(index, &config)`.
    /// It must be a pure function of its arguments for the determinism
    /// contract to hold — the runner guarantees order, purity is the
    /// caller's half of the bargain (grail-lint's determinism rules
    /// police the simulation side).
    ///
    /// A panic in any worker is re-raised on the calling thread after
    /// the scope joins, so failures are no quieter than under a
    /// sequential `for` loop.
    pub fn run<C, R, F>(&self, configs: &[C], f: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(usize, &C) -> R + Sync,
    {
        let n = configs.len();
        let threads = self.threads.min(n.max(1));
        if threads <= 1 {
            // Inline fast path: no scope, no atomics, no merge.
            return configs.iter().enumerate().map(|(i, c)| f(i, c)).collect();
        }

        // Shared work index: each worker claims the next unclaimed
        // config. Relaxed ordering suffices — fetch_add is the sole
        // synchronization point and claims need no ordering relative
        // to anything else; result visibility is given by the joins.
        let next = AtomicUsize::new(0);
        let per_thread: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i, &configs[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        // Index-ordered merge: scheduling decided who computed what;
        // the input order decides where it lands.
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in per_thread.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "config {i} claimed twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("config {i} never claimed")))
            .collect()
    }
}

impl Default for Runner {
    /// Defaults to [`Runner::available`]: use the machine.
    fn default() -> Self {
        Runner::available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_point(i: usize, c: &u64) -> (usize, u64) {
        (i, c * c)
    }

    #[test]
    fn sequential_maps_in_order() {
        let configs: Vec<u64> = (0..10).collect();
        let out = Runner::sequential().run(&configs, square_point);
        let expect: Vec<(usize, u64)> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c * c))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_matches_sequential_order() {
        let configs: Vec<u64> = (0..97).collect();
        let seq = Runner::sequential().run(&configs, square_point);
        for threads in [2, 3, 8, 64] {
            let par = Runner::with_threads(threads).run(&configs, square_point);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_work() {
        let configs = vec![7u64, 8];
        let out = Runner::with_threads(16).run(&configs, square_point);
        assert_eq!(out, vec![(0, 49), (1, 64)]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let configs: Vec<u64> = vec![];
        assert!(Runner::with_threads(4)
            .run(&configs, square_point)
            .is_empty());
        assert!(Runner::sequential().run(&configs, square_point).is_empty());
    }

    #[test]
    fn every_index_called_exactly_once() {
        let configs: Vec<u64> = (0..50).collect();
        let calls = AtomicUsize::new(0);
        let out = Runner::with_threads(4).run(&configs, |i, c| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(*c, i as u64, "index must match the config it claims");
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 50);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "point 3 exploded")]
    fn worker_panic_propagates() {
        let configs: Vec<u64> = (0..8).collect();
        Runner::with_threads(2).run(&configs, |i, _| {
            if i == 3 {
                panic!("point 3 exploded");
            }
            i
        });
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_sequential_flag() {
        let mut a = args(&["--sequential", "--out", "x.json"]);
        let r = Runner::from_cli_args(&mut a).unwrap();
        assert!(r.is_sequential());
        assert_eq!(a, args(&["--out", "x.json"]));
    }

    #[test]
    fn cli_threads_flag() {
        let mut a = args(&["--threads", "6"]);
        let r = Runner::from_cli_args(&mut a).unwrap();
        assert_eq!(r.threads(), 6);
        assert!(a.is_empty());
    }

    #[test]
    fn cli_sequential_beats_threads() {
        let mut a = args(&["--threads", "6", "--sequential"]);
        assert!(Runner::from_cli_args(&mut a).unwrap().is_sequential());
    }

    #[test]
    fn cli_default_uses_machine() {
        let mut a = args(&["positional"]);
        let r = Runner::from_cli_args(&mut a).unwrap();
        assert_eq!(r, Runner::available());
        assert_eq!(a, args(&["positional"]));
    }

    #[test]
    fn cli_threads_missing_value() {
        let mut a = args(&["run", "--threads"]);
        let err = Runner::from_cli_args(&mut a).unwrap_err();
        assert_eq!(err, "--threads requires a value");
    }

    #[test]
    fn cli_threads_zero_rejected() {
        for bad in ["0", "many", "-1"] {
            let mut a = args(&["--threads", bad]);
            let err = Runner::from_cli_args(&mut a).unwrap_err();
            assert_eq!(
                err,
                format!("--threads expects a positive integer, got `{bad}`")
            );
        }
    }

    #[test]
    fn results_need_not_be_clone() {
        // R: Send is the only bound — boxed results move through fine.
        let configs: Vec<u64> = (0..5).collect();
        let out = Runner::with_threads(2).run(&configs, |i, c| Box::new((i, *c)));
        for (i, b) in out.iter().enumerate() {
            assert_eq!(**b, (i, i as u64));
        }
    }
}
