//! Recorder properties of the `par` worker pool: every worker window
//! becomes a balanced span on its slot's stable `worker-N` lane, the
//! recorded coverage reconstructs the input exactly, and recording never
//! changes the computed results. The sequential interned closure keeps
//! its per-level spans on the main lane.

use dscweaver_graph::{interned_closure, par_map, DiGraph, DnfPool};
use dscweaver_obs as obs;
use dscweaver_obs::EventKind;

/// Replays each lane's Begin/End sequence, asserting the depth never goes
/// negative and ends at zero, and returns the closed spans as
/// `(lane, name, detail)`.
fn balanced_spans(snap: &obs::TraceSnapshot) -> Vec<(u32, String, String)> {
    let mut depth: std::collections::HashMap<u32, Vec<&str>> = std::collections::HashMap::new();
    let mut closed = Vec::new();
    let mut details: std::collections::HashMap<(u32, usize), String> =
        std::collections::HashMap::new();
    for e in snap.events() {
        let stack = depth.entry(e.lane).or_default();
        match e.kind {
            EventKind::Begin => {
                details.insert(
                    (e.lane, stack.len()),
                    e.detail.as_deref().unwrap_or("").to_string(),
                );
                stack.push(e.name);
            }
            EventKind::End => {
                let name = stack.pop().unwrap_or_else(|| {
                    panic!("End without Begin on lane {}", snap.lane_name(e.lane))
                });
                assert_eq!(name, e.name, "mismatched span nesting");
                let detail = details.remove(&(e.lane, stack.len())).unwrap_or_default();
                closed.push((e.lane, name.to_string(), detail));
            }
            EventKind::Instant => {}
        }
    }
    for (lane, stack) in depth {
        assert!(stack.is_empty(), "unclosed spans on lane {}", snap.lane_name(lane));
    }
    closed
}

#[test]
fn par_map_records_balanced_worker_spans_for_every_thread_count() {
    let _serial = obs::test_lock();
    let items: Vec<u64> = (0..97).collect();
    let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
    for threads in [1usize, 2, 3, 4, 8, 16] {
        let (got, snap) = obs::record_with(|| par_map(threads, &items, &|x| *x * 3 + 1));
        assert_eq!(got, expect, "threads {threads}: recording changed the result");
        let spans = balanced_spans(&snap);
        let chunks: Vec<&(u32, String, String)> =
            spans.iter().filter(|(_, n, _)| n == "par.map.chunk").collect();
        if threads <= 1 {
            assert!(chunks.is_empty(), "sequential path must not spawn");
            continue;
        }
        // One span per spawned chunk, each on a worker lane, and the
        // recorded chunk lengths re-add to the input length.
        assert!(!chunks.is_empty() && chunks.len() <= threads, "threads {threads}");
        let mut covered = 0usize;
        for (lane, _, detail) in &chunks {
            assert!(
                snap.lane_name(*lane).starts_with("worker-"),
                "chunk span on lane {:?}",
                snap.lane_name(*lane)
            );
            let len: usize = detail.strip_prefix("len=").unwrap().parse().unwrap();
            covered += len;
        }
        assert_eq!(covered, items.len(), "threads {threads}: chunks must tile the input");
    }
}

/// The interned-closure build records one balanced `closure.level` span
/// per topological level on the main lane, whose node counts re-add to
/// the whole graph, and spawns no worker lane.
#[test]
fn interned_closure_records_one_level_span_per_level_on_main() {
    let _serial = obs::test_lock();
    let (width, depth) = (12usize, 4usize);
    let mut g: DiGraph<(), Option<u8>> = DiGraph::new();
    let layers: Vec<Vec<_>> = (0..depth)
        .map(|_| (0..width).map(|_| g.add_node(())).collect())
        .collect();
    for d in 0..depth - 1 {
        for (i, &a) in layers[d].iter().enumerate() {
            for (j, &b) in layers[d + 1].iter().enumerate() {
                if (i + j) % 2 == 0 {
                    g.add_edge(a, b, Some(((i + j) % 3) as u8));
                }
            }
        }
    }
    let mut plain_pool: DnfPool<u8> = DnfPool::new();
    let (plain_rows, _) = interned_closure(&g, &|_, w: &Option<u8>| *w, &mut plain_pool).unwrap();

    let mut pool: DnfPool<u8> = DnfPool::new();
    let ((rows, _), snap) =
        obs::record_with(|| interned_closure(&g, &|_, w: &Option<u8>| *w, &mut pool).unwrap());
    assert_eq!(rows, plain_rows, "recording changed the rows");

    let spans = balanced_spans(&snap);
    let levels: Vec<&(u32, String, String)> =
        spans.iter().filter(|(_, n, _)| n == "closure.level").collect();
    assert_eq!(levels.len(), depth, "one span per topological level");
    let mut swept = 0usize;
    for (lane, _, detail) in &levels {
        assert_eq!(snap.lane_name(*lane), "main", "level spans stay on main");
        let nodes: usize = detail.split("nodes=").nth(1).unwrap().parse().unwrap();
        swept += nodes;
    }
    assert_eq!(swept, width * depth, "levels must sweep every node");
    for (lane, name, _) in &spans {
        assert_eq!(snap.lane_name(*lane), "main", "{name} left the main lane");
    }
}

/// Worker lanes are interned per slot: two sequential scopes reuse the
/// same `worker-N` lane names instead of minting new lanes per scope.
#[test]
fn worker_lanes_are_reused_across_scopes() {
    let _serial = obs::test_lock();
    let items: Vec<u32> = (0..8).collect();
    let (_, snap) = obs::record_with(|| {
        par_map(2, &items, &|x| x + 1);
        par_map(2, &items, &|x| x + 2);
    });
    let mut lanes: Vec<&str> = snap
        .events()
        .iter()
        .filter(|e| e.name == "par.map.chunk")
        .map(|e| snap.lane_name(e.lane))
        .collect();
    lanes.sort();
    lanes.dedup();
    assert_eq!(lanes, ["worker-0", "worker-1"]);
}
