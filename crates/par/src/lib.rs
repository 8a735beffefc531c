//! grail-par: deterministic parallel experiment runner.
//!
//! Every figure in the paper reproduction is a sweep over independent
//! simulation configurations: each point owns its own `grail_sim`
//! world, seeded RNG, and energy meters, and never observes another
//! point. That independence is what makes parallelism free — the only
//! thing a thread pool could corrupt is *output order*, and order is
//! exactly what the byte-identical-artifacts contract cares about
//! (`experiments.jsonl`, figure CSVs, trace exports). The same holds
//! inside one computation cut into independent pieces: a TPC-H table
//! drawn in seeked row ranges, the cells of a sharded simulation, or
//! one aggregate query's scan windows folded in contiguous ranges and
//! merged in range order.
//!
//! The crate is one primitive, [`Runner::for_each_mut`]: the calling
//! thread and `threads − 1` scoped workers claim `(index, &mut item)`
//! pairs from a slice iterator behind a `Mutex` (dynamic load balancing
//! — sweep points have wildly different costs) and run `f` on each item
//! in place, so every result lands at its **input index** whichever
//! thread computed it. [`Runner::run`] maps `&[C] -> Vec<R>` by filling
//! a slot vector through it, and [`Runner::split`] is the one rule that
//! cuts a computation into contiguous ranges for it: `grail_workload`'s
//! TPC-H generator and `grail_query`'s aggregated scan fan out that
//! way, `grail_sim::parallel` one item per cell. All are
//! indistinguishable from a single-threaded `for` loop. No channels, no
//! unsafe: the only shared mutable state is that one locked iterator.
//!
//! Fan-outs do not nest: the generator and the scan ask
//! [`Runner::current`], which is sequential on a thread running an item
//! of a `for_each_mut`. A sweep run with `--threads N` already holds
//! the cores it was given, and one run with `--sequential` keeps every
//! query and table it runs on that one thread.
//!
//! Thread spawning is *confined* to this crate: clippy's
//! `disallowed_methods` rejects `thread::scope`, `Mutex::new` and their
//! kin everywhere, and only an item-level `#[expect]` in this crate's
//! `src/` may waive it (CI rejects one anywhere else). Everything
//! downstream of a worker runs the ordinary sequential code.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::cell::Cell;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Whether this thread is running an item of a [`Runner::for_each_mut`].
    static IN_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running items until dropped, then
/// restores the mark it found (a panicking item unwinds through it).
struct InItem(bool);

impl InItem {
    fn enter() -> Self {
        InItem(IN_ITEM.replace(true))
    }
}

impl Drop for InItem {
    fn drop(&mut self) {
        IN_ITEM.set(self.0);
    }
}

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

    /// Fan across `n` threads, the caller and `n − 1` workers (`n >= 1`;
    /// `1` is [`Runner::sequential`]).
    pub fn with_threads(n: usize) -> Self {
        assert!(n >= 1, "a runner needs at least one thread");
        Runner { threads: n }
    }

    /// One thread per available core, as reported by the OS. Falls
    /// back to sequential when parallelism cannot be queried.
    ///
    /// The OS is asked once per process and the answer cached: on Linux
    /// the query reads cgroup files (~27 µs on a 2-vCPU VM), which a
    /// caller that fans out one query's scan would otherwise pay per
    /// query. A core count changed under a running process is not seen.
    pub fn available() -> Self {
        static AVAILABLE: OnceLock<Runner> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            Runner { threads: n }
        })
    }

    /// The runner for work that may fan out inside one computation, such
    /// as one table's rows or one query's scan windows:
    /// [`Runner::available`] on a thread outside any
    /// [`Runner::for_each_mut`], and [`Runner::sequential`] on one running
    /// an item of one, whatever that runner's thread count. The enclosing
    /// runner already holds the cores it was given, so the nested work
    /// would only crowd them (or, under `--sequential`, leave its one
    /// thread).
    pub fn current() -> Self {
        match IN_ITEM.get() {
            true => Runner::sequential(),
            false => Runner::available(),
        }
    }

    /// Build a runner from process arguments, consuming the flags it
    /// recognizes so callers can parse the remainder themselves:
    ///
    /// * `--sequential` — force single-threaded execution,
    /// * `--threads N` — fan across `N` threads, the caller included.
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

    /// How many threads this runner fans across, the caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cut `0..len` into the contiguous ranges one computation fans out
    /// over: one per thread while each holds at least `min` (`>= 1`)
    /// items, and always one, so `max(1, min(threads, len / min))`
    /// ranges, in order, the longer ones first and none longer than
    /// another by more than one. `len == 0` gives one empty range.
    pub fn split(&self, len: usize, min: usize) -> Vec<Range<usize>> {
        let count = self.threads.min(len / min).max(1);
        let mut start = 0;
        (0..count)
            .map(|k| {
                let range = start..start + len / count + usize::from(k < len % count);
                start = range.end;
                range
            })
            .collect()
    }

    /// Call `f(index, &mut item)` exactly once per item, fanned across
    /// the runner's threads; returns when every item has been visited.
    ///
    /// The calling thread and `threads − 1` scoped workers (fewer when
    /// there are fewer items) claim the next unvisited item from a shared
    /// iterator, so which thread runs which item is scheduling-dependent
    /// — but each item is only ever touched by its one claimant, and
    /// results stay in the slice at their input index. With one thread
    /// (or at most one item) the caller claims every item and nothing is
    /// spawned. [`Runner::current`] is sequential inside `f`.
    ///
    /// A panic in any worker is re-raised on the calling thread after
    /// the scope joins, so failures are no quieter than under a
    /// sequential `for` loop; so is a panic on the calling thread itself,
    /// once the workers have drained the queue.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned lock and thread scope in the workspace"
    )]
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let threads = self.threads.min(items.len());
        let queue = Mutex::new(items.iter_mut().enumerate());
        let work = || {
            let _inside = InItem::enter();
            loop {
                // The guard is dropped before `f` runs, so a panicking `f`
                // never poisons the queue.
                let claimed = queue
                    .lock()
                    .expect("no thread panics while claiming")
                    .next();
                let Some((i, item)) = claimed else { break };
                f(i, item);
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            work();
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Map `f` over `configs`, returning results in **input order**
    /// regardless of which thread computed each point or when it
    /// finished.
    ///
    /// `f` is called exactly once per config with `(index, &config)`.
    /// It must be a pure function of its arguments for the determinism
    /// contract to hold — the runner guarantees order, purity is the
    /// caller's half of the bargain (the workspace's
    /// disallowed paths police the simulation side). Panics propagate as in
    /// [`Runner::for_each_mut`].
    pub fn run<C, R, F>(&self, configs: &[C], f: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(usize, &C) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = configs.iter().map(|_| None).collect();
        self.for_each_mut(&mut slots, |i, slot| *slot = Some(f(i, &configs[i])));
        slots
            .into_iter()
            .map(|slot| slot.expect("for_each_mut visits every slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_mut_visits_every_index_exactly_once() {
        // 0 items, fewer items than threads, and many more.
        for len in [0usize, 3, 97] {
            for threads in [1, 2, 8] {
                let mut visits = vec![0u32; len];
                Runner::with_threads(threads).for_each_mut(&mut visits, |i, v| {
                    *v += 1 + i as u32;
                });
                let want: Vec<u32> = (0..len as u32).map(|i| 1 + i).collect();
                assert_eq!(visits, want, "len={len} threads={threads}");
            }
        }
    }

    /// The first `threads` items each wait until all of them have
    /// started, so each is held by a different thread at once: with the
    /// caller and `threads − 1` workers, one of them is the caller. The
    /// wait gives up after a bounded spin, so a runner that parks the
    /// caller fails instead of hanging.
    #[test]
    fn for_each_mut_runs_items_on_the_caller_too() {
        for threads in [2, 3] {
            let started = AtomicUsize::new(0);
            let mut ran = vec![None; 4 * threads];
            Runner::with_threads(threads).for_each_mut(&mut ran, |i, slot| {
                if i < threads {
                    started.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..1 << 24 {
                        if started.load(Ordering::SeqCst) == threads {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                *slot = Some(std::thread::current().id());
            });
            let mut distinct = Vec::new();
            for id in ran.iter().map(|id| id.expect("every item ran")) {
                if !distinct.contains(&id) {
                    distinct.push(id);
                }
            }
            let caller = std::thread::current().id();
            assert!(
                distinct.contains(&caller),
                "threads={threads}: the caller ran nothing"
            );
            assert!(distinct.len() <= threads, "threads={threads}: {distinct:?}");
        }
    }

    /// At one thread the caller claims every item, in order, and the
    /// current runner is sequential inside each.
    #[test]
    fn for_each_mut_at_one_thread_runs_every_item_on_the_caller() {
        let caller = std::thread::current().id();
        let mut seen = vec![None; 5];
        Runner::sequential().for_each_mut(&mut seen, |i, slot| {
            *slot = Some((i, std::thread::current().id(), Runner::current()));
        });
        let want = (0..5).map(|i| Some((i, caller, Runner::sequential())));
        assert_eq!(seen, want.collect::<Vec<_>>());
    }

    /// `split`'s ranges are contiguous, in order and cover `0..len`;
    /// their lengths differ by at most one; there are `max(1,
    /// min(threads, len / min))` of them, so each holds `min` items or
    /// more unless there is one. Empty and shorter-than-`min` lengths
    /// included.
    #[test]
    fn split_cuts_even_contiguous_ranges() {
        grail_prop::check(512, |g| {
            let (threads, min) = (g.range(1usize..9), g.range(1usize..20));
            let len = match g.one_in(4) {
                true => g.range(0..min),
                false => g.range(0usize..300),
            };
            let ranges = Runner::with_threads(threads).split(len, min);
            let seen = format!("{threads} threads, len {len}, min {min}: {ranges:?}");
            assert_eq!(ranges.len(), threads.min(len / min).max(1), "{seen}");
            assert_eq!(ranges.first().map(|r| r.start), Some(0), "{seen}");
            assert_eq!(ranges.last().map(|r| r.end), Some(len), "{seen}");
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start), "{seen}");
            let short = ranges.iter().map(|r| r.len()).min().expect("a range");
            let long = ranges.iter().map(|r| r.len()).max().expect("a range");
            assert!(long - short <= 1, "{seen}");
            assert!(ranges.len() == 1 || short >= min, "{seen}");
        });
    }

    /// On two threads at four per range, 0 to 7 items stay one range and
    /// 8 or more make two: the window counts at which an aggregated scan
    /// folds inline or on both cores.
    #[test]
    fn split_on_two_threads_at_four_a_range() {
        let two = Runner::with_threads(2);
        for len in 0..8 {
            assert_eq!(two.split(len, 4), vec![0..len], "len {len}");
        }
        assert_eq!(two.split(8, 4), vec![0..4, 4..8]);
        assert_eq!(two.split(10, 4), vec![0..5, 5..10]);
        assert_eq!(two.split(59, 4), vec![0..30, 30..59]);
    }

    /// Inside every item of a sequential or fanned-out runner, and of one
    /// nested in an item, the current runner is sequential; on the caller
    /// it is the machine's again afterwards, after a panicking item too.
    #[test]
    fn current_is_sequential_inside_an_item() {
        assert_eq!(Runner::current(), Runner::available());
        for threads in [1, 2, 3] {
            let runner = Runner::with_threads(threads);
            let inner = runner.run(&[0u8; 6], |_, _| {
                let nested = Runner::with_threads(2).run(&[0u8; 3], |_, _| Runner::current());
                (Runner::current(), nested)
            });
            let sequential = Runner::sequential();
            assert!(
                (inner.iter()).all(|(r, n)| *r == sequential && n.iter().all(|r| *r == sequential)),
                "threads={threads}: {inner:?}"
            );
            assert_eq!(Runner::current(), Runner::available(), "threads={threads}");
            let panicked = std::panic::catch_unwind(|| {
                runner.for_each_mut(&mut [0u8; 4], |i, _| assert!(i != 0, "item 0 panics"));
            });
            assert!(panicked.is_err());
            assert_eq!(Runner::current(), Runner::available(), "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "item 5 exploded")]
    fn for_each_mut_reraises_a_worker_panic_on_the_caller() {
        let mut items = [0u8; 16];
        Runner::with_threads(2).for_each_mut(&mut items, |i, _| {
            if i == 5 {
                panic!("item 5 exploded");
            }
        });
    }

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
        assert_eq!(r.threads(), 1);
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
        assert_eq!(Runner::from_cli_args(&mut a).unwrap().threads(), 1);
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
