//! Shared scoped-thread worker pool.
//!
//! Two phases of the pipeline are embarrassingly parallel behind a
//! deterministic merge: Petri-net validation (one independent
//! maximal-step run per branch assignment) and the DES scheduler's
//! per-wavefront readiness evaluation. Both share this
//! module: chunked fork/join maps over [`std::thread::scope`], with a
//! `threads: usize` knob following one convention everywhere — `0` picks
//! the machine's available parallelism, `1` forces the fully sequential
//! path, and the result is bit-identical for any value.
//!
//! The pool is deliberately scope-per-call: workers borrow the caller's
//! read-only snapshot directly (no `Arc`, no channels), and a call with
//! `threads <= 1` or a tiny input never spawns at all, so sprinkling
//! `par_map` on a cold path costs nothing.
//!
//! When the global `dscweaver-obs` recorder is on, each spawned worker
//! tags itself with the stable `worker-{slot}` trace lane and wraps its
//! chunk/window in a span (`par.map.chunk` / `par.range.window`), so a
//! Chrome-trace export shows one row per pool slot with the fork/join
//! structure of every parallel phase. Disabled, this is one relaxed
//! atomic load per spawned worker.
//!
//! ```
//! use dscweaver_graph::{par_map, par_ranges};
//!
//! let xs: Vec<u64> = (0..100).collect();
//! // Output order matches input order for any thread count.
//! assert_eq!(par_map(4, &xs, &|x| x * x), par_map(1, &xs, &|x| x * x));
//!
//! // Deterministic contiguous windows over 0..n, merged positionally.
//! let sums = par_ranges(3, 100, &|r| r.map(|i| i as u64).sum::<u64>());
//! assert_eq!(sums.len(), 3);
//! assert_eq!(sums.iter().sum::<u64>(), 4950);
//! ```

use dscweaver_obs as obs;

/// Resolves a user-facing thread knob: `0` picks the machine's available
/// parallelism (capped at `cap` — the row/assignment work saturates well
/// before large core counts), anything else is taken literally.
pub fn effective_threads(threads: usize, cap: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cap.max(1))
}

/// Chunked parallel map over scoped threads. Falls back to a plain
/// sequential map for one thread or tiny inputs. Output order matches
/// input order regardless of thread count.
pub fn par_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: &(impl Fn(&T) -> R + Sync),
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        for (wslot, (ichunk, ochunk)) in
            items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
        {
            scope.spawn(move || {
                let _lane = obs::worker_lane(wslot);
                {
                    let _span =
                        obs::span_with("par.map.chunk", || format!("len={}", ichunk.len()));
                    for (item, slot) in ichunk.iter().zip(ochunk.iter_mut()) {
                        *slot = Some(f(item));
                    }
                }
                // Flush inside the closure body: `thread::scope` only
                // waits for the closure, not for thread teardown, so the
                // TLS drop-flush could land after the scope returns.
                obs::flush_thread();
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Splits `0..n` into at most `threads` contiguous windows and maps each
/// on its own scoped thread, returning the per-window results in window
/// order. The deterministic window layout (equal-sized, remainder spread
/// over the leading windows) makes the concatenated result independent of
/// the thread count, so callers can merge worker outputs positionally —
/// e.g. branch-assignment validation keeps its failures in
/// assignment-lexicographic order by construction.
pub fn par_ranges<R: Send>(
    threads: usize,
    n: usize,
    f: &(impl Fn(std::ops::Range<usize>) -> R + Sync),
) -> Vec<R> {
    let windows = windows_of(threads, n);
    if threads <= 1 || windows.len() <= 1 {
        return windows.into_iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(windows.len()).collect();
    std::thread::scope(|scope| {
        for (wslot, (w, slot)) in windows.into_iter().zip(out.iter_mut()).enumerate() {
            scope.spawn(move || {
                let _lane = obs::worker_lane(wslot);
                {
                    let _span =
                        obs::span_with("par.range.window", || format!("{}..{}", w.start, w.end));
                    *slot = Some(f(w));
                }
                // See par_map: flush before the scope's join point, not
                // in thread teardown.
                obs::flush_thread();
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Chunked parallel map over *mutable* shards: each worker owns a
/// contiguous chunk of `shards` exclusively for the duration of the call,
/// so shard state can be advanced in place without locks. The per-shard
/// results come back in shard order regardless of the thread count, which
/// keeps a positional merge deterministic — the streaming conformance
/// monitor relies on this for its batch-ingest fan-out. `f` receives the
/// shard's index alongside the shard so workers can look up read-only
/// side tables (e.g. per-shard routing lists) without capturing them
/// mutably.
///
/// Falls back to a plain sequential loop for `threads <= 1` or a single
/// shard; like [`par_map`], the result is bit-identical either way.
pub fn par_shards<T: Send, R: Send>(
    threads: usize,
    shards: &mut [T],
    f: &(impl Fn(usize, &mut T) -> R + Sync),
) -> Vec<R> {
    if threads <= 1 || shards.len() <= 1 {
        return shards.iter_mut().enumerate().map(|(i, s)| f(i, s)).collect();
    }
    let chunk = shards.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(shards.len()).collect();
    std::thread::scope(|scope| {
        for (wslot, (ichunk, ochunk)) in
            shards.chunks_mut(chunk).zip(out.chunks_mut(chunk)).enumerate()
        {
            scope.spawn(move || {
                let _lane = obs::worker_lane(wslot);
                {
                    let _span =
                        obs::span_with("par.shard.chunk", || format!("len={}", ichunk.len()));
                    for (i, (shard, slot)) in
                        ichunk.iter_mut().zip(ochunk.iter_mut()).enumerate()
                    {
                        *slot = Some(f(wslot * chunk + i, shard));
                    }
                }
                // See par_map: flush before the scope's join point, not
                // in thread teardown.
                obs::flush_thread();
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// The contiguous window layout used by [`par_ranges`]: `min(threads, n)`
/// windows covering `0..n`, sizes differing by at most one, remainder on
/// the leading windows. Empty for `n == 0`.
pub fn windows_of(threads: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let k = threads.max(1).min(n);
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [0usize, 1, 2, 3, 7, 100, 1000] {
            let got = par_map(threads, &items, &|&x| x * x + 1);
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, &|&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], &|&x| x + 1), vec![8]);
    }

    #[test]
    fn par_shards_mutates_in_place_and_merges_in_shard_order() {
        for threads in [0usize, 1, 2, 3, 7, 64] {
            let mut shards: Vec<Vec<u64>> = (0..9).map(|i| vec![i]).collect();
            let sums = par_shards(threads, &mut shards, &|i, s: &mut Vec<u64>| {
                s.push(i as u64 * 10);
                s.iter().sum::<u64>()
            });
            let expect: Vec<u64> = (0..9u64).map(|i| i + i * 10).collect();
            assert_eq!(sums, expect, "threads {threads}");
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s, &vec![i as u64, i as u64 * 10], "shard {i} mutated once");
            }
        }
    }

    #[test]
    fn windows_cover_exactly_once() {
        for threads in 1..8 {
            for n in 0..50 {
                let ws = windows_of(threads, n);
                let mut covered = Vec::new();
                for w in &ws {
                    covered.extend(w.clone());
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "t={threads} n={n}");
                if n > 0 {
                    assert_eq!(ws.len(), threads.min(n));
                    let sizes: Vec<usize> = ws.iter().map(|w| w.len()).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "balanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_ranges_concatenation_is_thread_count_independent() {
        let collect = |threads: usize| -> Vec<usize> {
            par_ranges(threads, 37, &|r| r.map(|i| i * 3).collect::<Vec<_>>())
                .into_iter()
                .flatten()
                .collect()
        };
        // NOTE: window *boundaries* differ with the thread count; only the
        // concatenation is pinned.
        let expect = collect(1);
        for threads in [2usize, 3, 5, 64] {
            assert_eq!(collect(threads), expect, "threads {threads}");
        }
    }

    #[test]
    fn effective_threads_convention() {
        assert_eq!(effective_threads(3, 8), 3);
        assert_eq!(effective_threads(1, 8), 1);
        assert!(effective_threads(0, 8) >= 1);
        assert!(effective_threads(0, 2) <= 2);
    }
}
