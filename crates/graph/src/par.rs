//! Shared scoped-thread worker pool.
//!
//! The streaming monitor's batch ingest and the daemon's connection
//! loop fan out behind a deterministic merge. Both share this
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
//! chunk in a span (`par.map.chunk` / `par.shard.chunk`), so a
//! Chrome-trace export shows one row per pool slot with the fork/join
//! structure of every parallel phase. Disabled, this is one relaxed
//! atomic load per spawned worker.
//!
//! ```
//! use dscweaver_graph::par_map;
//!
//! let xs: Vec<u64> = (0..100).collect();
//! // Output order matches input order for any thread count.
//! assert_eq!(par_map(4, &xs, &|x| x * x), par_map(1, &xs, &|x| x * x));
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
    fn effective_threads_convention() {
        assert_eq!(effective_threads(3, 8), 3);
        assert_eq!(effective_threads(1, 8), 1);
        assert!(effective_threads(0, 8) >= 1);
        assert!(effective_threads(0, 2) <= 2);
    }
}
