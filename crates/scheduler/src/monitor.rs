//! Fleet-scale streaming conformance monitoring: millions of live process
//! instances advancing over one compiled constraint program.
//!
//! The paper's §5 runtime argument is that a woven ASC makes each
//! instance's synchronization state *cheap to track*. This module takes
//! that seriously at fleet scale: a [`MonitorProgram`] compiles a
//! constraint set plus its WSCL conversations once — activity names
//! interned to dense ids, HappenBefore prerequisites flattened to CSR
//! arrays, Exclusive membership packed into 64-bit partner masks,
//! conversation transitions resolved through the same
//! interaction→occurrence mapping the post-hoc checker uses
//! ([`crate::conformance::occurrence_point`]) — and a [`MonitorState`]
//! then tracks every live instance as a tiny *cursor* over that program.
//!
//! ## Struct-of-arrays cursors
//!
//! Instance state is laid out as flat slabs indexed by slot row, not
//! per-instance structs: remaining-dependency counters (`Vec<u32>`, one
//! lane per *consumer slot* of the program), occurrence bitsets (two bits
//! per activity: its start and finish points), one Exclusive running-mask
//! word, and per-conversation interaction watermark bitsets. A live
//! instance costs a fixed few dozen bytes; retired instances return their
//! row to a free list, so memory is bounded by the *peak live* fleet, not
//! the stream length.
//!
//! ## Batch ingestion and determinism
//!
//! [`MonitorState::ingest`] takes a batch of [`MonitorEvent`]s, routes
//! them to shards by `instance % shards`, fans the shards out on
//! [`dscweaver_graph::par_shards`] and merges the per-shard verdicts by
//! the event's position in the batch. Because every violation is detected
//! at the *later* event of its pair, the verdict sequence over a whole
//! stream is identical for any batch size, shard count or thread count —
//! the same merge discipline as the wavefront engines.
//!
//! Verdicts carry the exact relation renderings of the post-hoc oracles
//! ([`Trace::verify`], [`Trace::verify_exclusives`],
//! [`check_conformance`](crate::conformance::check_conformance)), and
//! [`oracle_verdicts`] replays a stream through those oracles
//! instance-at-a-time so tests and benchmarks can pin the streaming path
//! bit-for-bit against the reference semantics.
//!
//! Streams are expected to be *life-cycle well-formed* per instance: each
//! activity starts before it finishes and appears once. Ordering between
//! different activities is exactly what the monitor checks; duplicate
//! events for a live instance are ignored, and an instance retires (its
//! row recycled) after its `2 × n_activities`-th event.

use crate::conformance::{check_all_conformance, occurrence_point};
use crate::trace::{EventKind, Trace, TraceEvent};
use dscweaver_dscl::{ActivityState, ConstraintSet, Name, Relation};
use dscweaver_graph::{effective_threads, par_shards, FxHashMap};
use dscweaver_obs as obs;
use dscweaver_wscl::{Conversation, ServiceBinding};

/// A live process instance's identity on the stream.
pub type InstanceId = u32;

const NONE: u32 = u32::MAX;

/// Batches below this size are processed inline even when the state has
/// worker threads: spawning scoped threads per tiny batch would dominate.
/// The verdict sequence is identical either way.
const PAR_INGEST_MIN: usize = 4096;

/// Which life-cycle edge of an activity an event reports.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum MonitorPhase {
    /// The activity started (resolves its `S` and `R` state points).
    Start = 0,
    /// The activity finished (resolves its `F` state point).
    Finish = 1,
}

/// One stream event: instance × activity × life-cycle edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MonitorEvent {
    /// Which process instance.
    pub instance: InstanceId,
    /// Compiled activity id (see [`MonitorProgram::act_id`]).
    pub act: u16,
    /// Start or finish.
    pub phase: MonitorPhase,
}

/// What kind of violation a verdict reports.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum VerdictKind {
    /// A HappenBefore constraint's consumer fired before a producer.
    Ordering,
    /// Two Exclusive activities' run intervals overlapped.
    Exclusive,
    /// A conversation transition `x → y` observed `y` before `x`.
    Conversation,
}

/// One online violation report. `relation` is rendered exactly as the
/// post-hoc oracle renders the same violation, so streaming and batch
/// verdicts compare as plain strings.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Verdict {
    /// The violating instance.
    pub instance: InstanceId,
    /// Violation category.
    pub kind: VerdictKind,
    /// The violated relation, oracle-rendered.
    pub relation: String,
}

/// Compilation failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MonitorError {
    /// More than `u16::MAX + 1` activities.
    TooManyActivities(usize),
    /// More than 64 distinct activities participate in Exclusive
    /// relations (the running set is one mask word per instance).
    TooManyExclusiveMembers(usize),
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::TooManyActivities(n) => {
                write!(f, "monitor supports at most 65536 activities, got {n}")
            }
            MonitorError::TooManyExclusiveMembers(n) => {
                write!(f, "monitor supports at most 64 exclusive activities, got {n}")
            }
        }
    }
}

impl std::error::Error for MonitorError {}

/// The compiled, shared, read-only program every instance cursor runs
/// over. Compile once per (constraint set, conversations) pair; share
/// across any number of [`MonitorState`]s.
#[derive(Clone, Debug)]
pub struct MonitorProgram {
    /// Activity names in id order (sorted — `ConstraintSet::activities`
    /// is a `BTreeSet`, so ids are stable across compiles).
    acts: Vec<String>,
    act_ix: FxHashMap<String, u16>,

    // HappenBefore: consumer points with prerequisites get a counter
    // *slot*; prerequisites per slot and dependent slots per producer
    // point are CSR-flattened.
    slot_of_point: Vec<u32>,
    slot_prereq_index: Vec<u32>,
    prereq_point: Vec<u32>,
    prereq_relation: Vec<String>,
    template: Vec<u32>,
    dep_index: Vec<u32>,
    dep_slot: Vec<u32>,

    // Exclusive: member index per activity, partner mask + ordered
    // partner list (with oracle-rendered pair relations) per member.
    excl_member: Vec<u32>,
    excl_mask: Vec<u64>,
    excl_partners: Vec<Vec<(u32, Vec<String>)>>,
    excl_pairs: Vec<(u16, u16)>,

    // Conversations: interactions flattened to global ids; which
    // interactions occur at each point, and each interaction's successor
    // transitions with oracle-rendered relations.
    point_inter_index: Vec<u32>,
    point_inter: Vec<u32>,
    succ_index: Vec<u32>,
    succ_inter: Vec<u32>,
    succ_relation: Vec<String>,
    inter_point: Vec<u32>,

    occ_words: usize,
    conv_words: usize,
    events_per_instance: u32,
}

impl MonitorProgram {
    /// Compiles `cs` + bound conversations into a monitor program.
    ///
    /// Mirroring the post-hoc oracles, the compiler *skips* whatever they
    /// treat as vacuous on a complete, skip-free stream: conditional
    /// HappenBefore relations (streamed finishes carry no guard value),
    /// relations whose endpoints are not activities of `cs` (external
    /// service nodes), Exclusive relations over missing or identical
    /// activities, and interactions unbound or bound to activities
    /// outside `cs`.
    pub fn compile(
        cs: &ConstraintSet,
        conversations: &[(Conversation, ServiceBinding)],
    ) -> Result<MonitorProgram, MonitorError> {
        let _span = obs::span_with("monitor.compile", || cs.name.clone());
        let acts: Vec<String> = cs.activities.iter().map(Name::to_string).collect();
        if acts.len() > u16::MAX as usize + 1 {
            return Err(MonitorError::TooManyActivities(acts.len()));
        }
        let act_ix: FxHashMap<String, u16> = acts
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), i as u16))
            .collect();
        let n_points = acts.len() * 2;
        let point = |act: u16, state: ActivityState| -> u32 {
            let phase = match state {
                ActivityState::Start | ActivityState::Run => 0,
                ActivityState::Finish => 1,
            };
            act as u32 * 2 + phase
        };

        // --- HappenBefore prerequisites, bucketed per consumer point.
        let mut buckets: Vec<Vec<(u32, String)>> = vec![Vec::new(); n_points];
        for r in cs.happen_befores() {
            let Relation::HappenBefore { from, to, cond, .. } = r else {
                unreachable!("filtered to HappenBefore");
            };
            if cond.is_some() {
                continue;
            }
            let (Some(&fa), Some(&ta)) =
                (act_ix.get(from.activity.as_str()), act_ix.get(to.activity.as_str()))
            else {
                continue;
            };
            let producer = point(fa, from.state);
            let consumer = point(ta, to.state);
            buckets[consumer as usize].push((producer, r.to_string()));
        }
        let mut slot_of_point = vec![NONE; n_points];
        let mut slot_prereq_index = vec![0u32];
        let mut prereq_point = Vec::new();
        let mut prereq_relation = Vec::new();
        let mut template = Vec::new();
        let mut deps: Vec<Vec<u32>> = vec![Vec::new(); n_points];
        for (p, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let slot = template.len() as u32;
            slot_of_point[p] = slot;
            template.push(bucket.len() as u32);
            for (producer, relation) in bucket {
                deps[producer as usize].push(slot);
                prereq_point.push(producer);
                prereq_relation.push(relation);
            }
            slot_prereq_index.push(prereq_point.len() as u32);
        }
        let mut dep_index = vec![0u32];
        let mut dep_slot = Vec::new();
        for d in deps {
            dep_slot.extend(d);
            dep_index.push(dep_slot.len() as u32);
        }

        // --- Exclusives: register members (first-seen order), pair
        // relation strings keyed by unordered member pair.
        let mut member_of: FxHashMap<u16, u32> = FxHashMap::default();
        let mut members: Vec<u16> = Vec::new();
        let mut pair_rels: std::collections::BTreeMap<(u32, u32), Vec<String>> =
            std::collections::BTreeMap::new();
        for (a, b) in cs.exclusives() {
            let (Some(&aa), Some(&ba)) =
                (act_ix.get(a.activity.as_str()), act_ix.get(b.activity.as_str()))
            else {
                continue;
            };
            if aa == ba {
                continue;
            }
            let mut member = |act: u16| -> u32 {
                *member_of.entry(act).or_insert_with(|| {
                    members.push(act);
                    members.len() as u32 - 1
                })
            };
            let (ma, mb) = (member(aa), member(ba));
            pair_rels
                .entry((ma.min(mb), ma.max(mb)))
                .or_default()
                .push(format!("{a} >< {b}"));
        }
        if members.len() > 64 {
            return Err(MonitorError::TooManyExclusiveMembers(members.len()));
        }
        let mut excl_member = vec![NONE; acts.len()];
        for (m, &act) in members.iter().enumerate() {
            excl_member[act as usize] = m as u32;
        }
        let mut excl_mask = vec![0u64; members.len()];
        let mut excl_partners: Vec<Vec<(u32, Vec<String>)>> = vec![Vec::new(); members.len()];
        let mut excl_pairs = Vec::new();
        for (&(m1, m2), rels) in &pair_rels {
            excl_mask[m1 as usize] |= 1 << m2;
            excl_mask[m2 as usize] |= 1 << m1;
            excl_partners[m1 as usize].push((m2, rels.clone()));
            excl_partners[m2 as usize].push((m1, rels.clone()));
            excl_pairs.push((members[m1 as usize], members[m2 as usize]));
        }
        for p in &mut excl_partners {
            p.sort_by_key(|(m, _)| *m);
        }

        // --- Conversations: flatten interactions that have an occurrence
        // point inside the activity table, via the shared mapping.
        let mut inter_point: Vec<u32> = Vec::new();
        let mut point_inters: Vec<Vec<u32>> = vec![Vec::new(); n_points];
        let mut inter_ids: Vec<FxHashMap<&str, u32>> = Vec::with_capacity(conversations.len());
        for (conv, binding) in conversations {
            let mut ids: FxHashMap<&str, u32> = FxHashMap::default();
            for i in &conv.interactions {
                let Some((act, state)) = occurrence_point(conv, binding, &i.id) else {
                    continue;
                };
                let Some(&a) = act_ix.get(act) else { continue };
                let g = inter_point.len() as u32;
                let p = point(a, state);
                inter_point.push(p);
                point_inters[p as usize].push(g);
                ids.insert(i.id.as_str(), g);
            }
            inter_ids.push(ids);
        }
        let mut succs: Vec<Vec<(u32, String)>> = vec![Vec::new(); inter_point.len()];
        for (ci, (conv, _)) in conversations.iter().enumerate() {
            for (x, y) in &conv.transitions {
                let (Some(&gx), Some(&gy)) =
                    (inter_ids[ci].get(x.as_str()), inter_ids[ci].get(y.as_str()))
                else {
                    continue;
                };
                succs[gx as usize].push((gy, format!("{}: {x} -> {y}", conv.name)));
            }
        }
        let mut point_inter_index = vec![0u32];
        let mut point_inter = Vec::new();
        for pi in point_inters {
            point_inter.extend(pi);
            point_inter_index.push(point_inter.len() as u32);
        }
        let mut succ_index = vec![0u32];
        let mut succ_inter = Vec::new();
        let mut succ_relation = Vec::new();
        for s in succs {
            for (y, rel) in s {
                succ_inter.push(y);
                succ_relation.push(rel);
            }
            succ_index.push(succ_inter.len() as u32);
        }

        let events_per_instance = n_points as u32;
        Ok(MonitorProgram {
            occ_words: n_points.div_ceil(64),
            conv_words: inter_point.len().div_ceil(64),
            acts,
            act_ix,
            slot_of_point,
            slot_prereq_index,
            prereq_point,
            prereq_relation,
            template,
            dep_index,
            dep_slot,
            excl_member,
            excl_mask,
            excl_partners,
            excl_pairs,
            point_inter_index,
            point_inter,
            succ_index,
            succ_inter,
            succ_relation,
            inter_point,
            events_per_instance,
        })
    }

    /// Number of compiled activities.
    pub fn n_activities(&self) -> usize {
        self.acts.len()
    }

    /// Number of consumer counter slots per instance.
    pub fn n_slots(&self) -> usize {
        self.template.len()
    }

    /// The activity name behind a compiled id.
    pub fn activity_name(&self, act: u16) -> &str {
        &self.acts[act as usize]
    }

    /// The compiled id of an activity name.
    pub fn act_id(&self, name: &str) -> Option<u16> {
        self.act_ix.get(name).copied()
    }

    /// Events a complete instance emits (start + finish per activity) —
    /// the retirement threshold.
    pub fn events_per_instance(&self) -> u32 {
        self.events_per_instance
    }

    /// A state point id: `2 × act + phase`.
    pub fn point_of(&self, act: u16, phase: MonitorPhase) -> u32 {
        act as u32 * 2 + phase as u32
    }

    /// Inverse of [`MonitorProgram::point_of`].
    pub fn split_point(&self, point: u32) -> (u16, MonitorPhase) {
        let phase = if point & 1 == 0 {
            MonitorPhase::Start
        } else {
            MonitorPhase::Finish
        };
        ((point / 2) as u16, phase)
    }

    /// Every compiled `(producer point, consumer point)` prerequisite
    /// pair, in compile order (violation-injection hook).
    pub fn ordering_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.prereq_point.len());
        for (p, &slot) in self.slot_of_point.iter().enumerate() {
            if slot == NONE {
                continue;
            }
            let (s, e) = self.prereq_range(slot);
            for k in s..e {
                out.push((self.prereq_point[k], p as u32));
            }
        }
        out
    }

    /// Every compiled Exclusive activity pair (violation-injection hook).
    pub fn exclusive_pairs(&self) -> &[(u16, u16)] {
        &self.excl_pairs
    }

    /// Every compiled conversation transition as
    /// `(point of x, point of y)` (violation-injection hook).
    pub fn conversation_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.succ_inter.len());
        for (x, &px) in self.inter_point.iter().enumerate() {
            let (s, e) = self.succ_range(x);
            for k in s..e {
                out.push((px, self.inter_point[self.succ_inter[k] as usize]));
            }
        }
        out
    }

    fn prereq_range(&self, slot: u32) -> (usize, usize) {
        (
            self.slot_prereq_index[slot as usize] as usize,
            self.slot_prereq_index[slot as usize + 1] as usize,
        )
    }

    fn dep_range(&self, point: u32) -> (usize, usize) {
        (
            self.dep_index[point as usize] as usize,
            self.dep_index[point as usize + 1] as usize,
        )
    }

    fn point_inter_range(&self, point: u32) -> (usize, usize) {
        (
            self.point_inter_index[point as usize] as usize,
            self.point_inter_index[point as usize + 1] as usize,
        )
    }

    fn succ_range(&self, inter: usize) -> (usize, usize) {
        (
            self.succ_index[inter] as usize,
            self.succ_index[inter + 1] as usize,
        )
    }
}

/// Knobs for a [`MonitorState`].
#[derive(Clone, Debug, Default)]
pub struct MonitorConfig {
    /// Worker threads for batch fan-out: `0` = auto (capped at 8),
    /// `1` = sequential. Verdicts are bit-identical regardless.
    pub threads: usize,
    /// Instance shards (`0` = one per worker thread). Instances route to
    /// `instance % shards`; the shard count affects slab layout only,
    /// never verdicts.
    pub shards: usize,
    /// Expected live-instance capacity (total, spread over shards) to
    /// pre-size the slabs. `0` grows on demand.
    pub capacity: usize,
}

/// Aggregate state/throughput counters of a [`MonitorState`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MonitorStats {
    /// Instances currently live (allocated, not yet retired).
    pub live: usize,
    /// High-water mark of `live`.
    pub peak_live: usize,
    /// Instances retired (completed their event budget; row recycled).
    pub retired: u64,
    /// Slab rows ever allocated across shards (≥ peak live; rows are
    /// recycled, never freed).
    pub slab_rows: usize,
    /// Events ingested.
    pub events: u64,
    /// Verdicts emitted.
    pub verdicts: u64,
    /// Estimated resident bytes of the instance slabs + routing tables.
    pub bytes: usize,
}

struct Shard {
    map: FxHashMap<InstanceId, u32>,
    free: Vec<u32>,
    rows: u32,
    remaining: Vec<u32>,
    occurred: Vec<u64>,
    excl_running: Vec<u64>,
    conv_seen: Vec<u64>,
    seen: Vec<u32>,
    live: usize,
    peak_live: usize,
    retired: u64,
}

impl Shard {
    fn with_capacity(rows: usize, p: &MonitorProgram) -> Shard {
        let mut map = FxHashMap::default();
        map.reserve(rows);
        Shard {
            map,
            free: Vec::new(),
            rows: 0,
            remaining: Vec::with_capacity(rows * p.n_slots()),
            occurred: Vec::with_capacity(rows * p.occ_words),
            excl_running: Vec::with_capacity(rows),
            conv_seen: Vec::with_capacity(rows * p.conv_words),
            seen: Vec::with_capacity(rows),
            live: 0,
            peak_live: 0,
            retired: 0,
        }
    }

    fn alloc_row(&mut self, p: &MonitorProgram) -> u32 {
        if let Some(r) = self.free.pop() {
            let r_us = r as usize;
            let ns = p.n_slots();
            self.remaining[r_us * ns..(r_us + 1) * ns].copy_from_slice(&p.template);
            self.occurred[r_us * p.occ_words..(r_us + 1) * p.occ_words].fill(0);
            self.excl_running[r_us] = 0;
            self.conv_seen[r_us * p.conv_words..(r_us + 1) * p.conv_words].fill(0);
            self.seen[r_us] = 0;
            return r;
        }
        let r = self.rows;
        self.rows += 1;
        self.remaining.extend_from_slice(&p.template);
        self.occurred.extend(std::iter::repeat(0u64).take(p.occ_words));
        self.excl_running.push(0);
        self.conv_seen.extend(std::iter::repeat(0u64).take(p.conv_words));
        self.seen.push(0);
        r
    }

    fn advance(
        &mut self,
        p: &MonitorProgram,
        idx: u32,
        ev: &MonitorEvent,
        out: &mut Vec<(u32, Verdict)>,
    ) {
        debug_assert!((ev.act as usize) < p.n_activities());
        let row = if let Some(&r) = self.map.get(&ev.instance) {
            r
        } else {
            let r = self.alloc_row(p);
            self.map.insert(ev.instance, r);
            self.live += 1;
            self.peak_live = self.peak_live.max(self.live);
            r
        };
        let row_us = row as usize;
        let point = p.point_of(ev.act, ev.phase);

        // Duplicate life-cycle event for a live instance: ignore.
        let ow = row_us * p.occ_words + (point as usize >> 6);
        let obit = 1u64 << (point & 63);
        if self.occurred[ow] & obit != 0 {
            return;
        }

        // 1. Ordering: a consumer with unsatisfied prerequisites names
        // every producer that has not occurred yet. The counter is the
        // fast path; the enumeration only runs on actual violations.
        let slot = p.slot_of_point[point as usize];
        let base = row_us * p.n_slots();
        if slot != NONE && self.remaining[base + slot as usize] > 0 {
            let (s, e) = p.prereq_range(slot);
            for k in s..e {
                let pp = p.prereq_point[k] as usize;
                if self.occurred[row_us * p.occ_words + (pp >> 6)] & (1u64 << (pp & 63)) == 0 {
                    out.push((
                        idx,
                        Verdict {
                            instance: ev.instance,
                            kind: VerdictKind::Ordering,
                            relation: p.prereq_relation[k].clone(),
                        },
                    ));
                }
            }
        }
        self.occurred[ow] |= obit;

        // 2. This point produces: release its dependents' counters.
        let (ds, de) = p.dep_range(point);
        for k in ds..de {
            let s = p.dep_slot[k] as usize;
            debug_assert!(self.remaining[base + s] > 0);
            self.remaining[base + s] -= 1;
        }

        // 3. Exclusive co-occurrence: detected at the later start.
        let m = p.excl_member[ev.act as usize];
        if m != NONE {
            match ev.phase {
                MonitorPhase::Start => {
                    let running = self.excl_running[row_us];
                    if running & p.excl_mask[m as usize] != 0 {
                        for (partner, rels) in &p.excl_partners[m as usize] {
                            if running & (1u64 << partner) != 0 {
                                for rel in rels {
                                    out.push((
                                        idx,
                                        Verdict {
                                            instance: ev.instance,
                                            kind: VerdictKind::Exclusive,
                                            relation: rel.clone(),
                                        },
                                    ));
                                }
                            }
                        }
                    }
                    self.excl_running[row_us] |= 1u64 << m;
                }
                MonitorPhase::Finish => self.excl_running[row_us] &= !(1u64 << m),
            }
        }

        // 4. Conversation transitions: `x → y` inverted iff `y`'s
        // watermark bit is already set when `x` occurs.
        let (is_, ie) = p.point_inter_range(point);
        for k in is_..ie {
            let x = p.point_inter[k] as usize;
            let (ss, se) = p.succ_range(x);
            for j in ss..se {
                let y = p.succ_inter[j] as usize;
                if self.conv_seen[row_us * p.conv_words + (y >> 6)] & (1u64 << (y & 63)) != 0 {
                    out.push((
                        idx,
                        Verdict {
                            instance: ev.instance,
                            kind: VerdictKind::Conversation,
                            relation: p.succ_relation[j].clone(),
                        },
                    ));
                }
            }
            self.conv_seen[row_us * p.conv_words + (x >> 6)] |= 1u64 << (x & 63);
        }

        // 5. Retirement: event budget exhausted → recycle the row.
        self.seen[row_us] += 1;
        if self.seen[row_us] == p.events_per_instance {
            self.map.remove(&ev.instance);
            self.free.push(row);
            self.live -= 1;
            self.retired += 1;
        }
    }

    fn bytes(&self) -> usize {
        self.remaining.capacity() * 4
            + self.occurred.capacity() * 8
            + self.excl_running.capacity() * 8
            + self.conv_seen.capacity() * 8
            + self.seen.capacity() * 4
            + self.free.capacity() * 4
            // FxHashMap<u32, u32>: 8-byte payload plus control byte,
            // counted at its allocated capacity.
            + self.map.capacity() * 9
    }
}

/// The live fleet: sharded struct-of-arrays instance cursors over one
/// [`MonitorProgram`].
pub struct MonitorState<'p> {
    program: &'p MonitorProgram,
    threads: usize,
    shards: Vec<Shard>,
    route: Vec<Vec<u32>>,
    events: u64,
    verdicts: u64,
}

impl<'p> MonitorState<'p> {
    /// A fresh fleet over `program`.
    pub fn new(program: &'p MonitorProgram, config: &MonitorConfig) -> MonitorState<'p> {
        let threads = effective_threads(config.threads, 8);
        let nshards = if config.shards == 0 {
            threads
        } else {
            config.shards
        }
        .max(1);
        let per_shard = config.capacity.div_ceil(nshards);
        MonitorState {
            program,
            threads,
            shards: (0..nshards)
                .map(|_| Shard::with_capacity(per_shard, program))
                .collect(),
            route: vec![Vec::new(); nshards],
            events: 0,
            verdicts: 0,
        }
    }

    /// The shared program.
    pub fn program(&self) -> &'p MonitorProgram {
        self.program
    }

    /// Ingests one event batch and returns the verdicts it triggered, in
    /// batch order (ties within one event keep emission order). The
    /// concatenation of verdicts over a stream is independent of how the
    /// stream is cut into batches and of the thread/shard configuration.
    pub fn ingest(&mut self, batch: &[MonitorEvent]) -> Vec<Verdict> {
        let _span = obs::span_with("monitor.ingest", || format!("events={}", batch.len()));
        let t0 = std::time::Instant::now();
        let nshards = self.shards.len();
        let program = self.program;
        let parts: Vec<Vec<(u32, Verdict)>> = if nshards == 1 {
            let _adv = obs::span("monitor.advance");
            let shard = &mut self.shards[0];
            let mut out = Vec::new();
            for (i, ev) in batch.iter().enumerate() {
                shard.advance(program, i as u32, ev, &mut out);
            }
            vec![out]
        } else {
            for r in &mut self.route {
                r.clear();
            }
            for (i, ev) in batch.iter().enumerate() {
                self.route[ev.instance as usize % nshards].push(i as u32);
            }
            let route = &self.route;
            let threads = if batch.len() >= PAR_INGEST_MIN {
                self.threads
            } else {
                1
            };
            par_shards(threads, &mut self.shards, &|si, shard| {
                let _adv = obs::span_with("monitor.advance", || {
                    format!("shard={si} events={}", route[si].len())
                });
                let mut out = Vec::new();
                for &i in &route[si] {
                    shard.advance(program, i, &batch[i as usize], &mut out);
                }
                out
            })
        };

        let _merge = obs::span("monitor.verdicts");
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut tagged: Vec<(u32, Verdict)> = Vec::with_capacity(total);
        for p in parts {
            tagged.extend(p);
        }
        // Stable by batch position: one event's verdicts come from one
        // shard and keep their emission order.
        tagged.sort_by_key(|(i, _)| *i);
        self.events += batch.len() as u64;
        self.verdicts += tagged.len() as u64;
        obs::counter_add("monitor.events", batch.len() as u64);
        obs::counter_add("monitor.verdicts", tagged.len() as u64);
        // Metrics plane: per-batch ingest latency, instantaneous
        // throughput, and fleet occupancy (cheap sums over the shard
        // headers; all no-ops while metrics recording is off).
        if obs::metrics_enabled() {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            obs::histogram("monitor.ingest_batch").observe(dur_ns);
            if dur_ns > 0 && !batch.is_empty() {
                obs::gauge_set(
                    "monitor.events_per_sec",
                    batch.len() as f64 * 1e9 / dur_ns as f64,
                );
            }
            let (mut live, mut rows) = (0u64, 0u64);
            for sh in &self.shards {
                live += sh.live as u64;
                rows += sh.rows as u64;
            }
            obs::gauge_set("monitor.live_instances", live as f64);
            obs::gauge_set("monitor.slab_rows", rows as f64);
            obs::gauge_set(
                "monitor.slab_occupancy",
                if rows > 0 { live as f64 / rows as f64 } else { 0.0 },
            );
        }
        tagged.into_iter().map(|(_, v)| v).collect()
    }

    /// Aggregate counters and the slab-memory estimate.
    pub fn stats(&self) -> MonitorStats {
        let mut s = MonitorStats {
            events: self.events,
            verdicts: self.verdicts,
            ..MonitorStats::default()
        };
        for sh in &self.shards {
            s.live += sh.live;
            s.peak_live += sh.peak_live;
            s.retired += sh.retired;
            s.slab_rows += sh.rows as usize;
            s.bytes += sh.bytes();
        }
        s.bytes += self.route.iter().map(|r| r.capacity() * 4).sum::<usize>();
        s
    }
}

/// Replays a stream through the post-hoc oracles, instance at a time:
/// each instance's events become a [`Trace`] (time = position in the
/// instance's own stream), checked with [`Trace::verify`] (completeness
/// rows excluded — streaming completeness is retirement's job, see
/// [`MonitorStats::live`]), [`Trace::verify_exclusives`] and
/// [`check_all_conformance`]. Returns the verdicts sorted by
/// `(instance, kind, relation)` — compare against a sorted concatenation
/// of [`MonitorState::ingest`] outputs.
pub fn oracle_verdicts(
    program: &MonitorProgram,
    cs: &ConstraintSet,
    conversations: &[(Conversation, ServiceBinding)],
    events: &[MonitorEvent],
) -> Vec<Verdict> {
    let _span = obs::span("monitor.oracle");
    // Group stream positions by instance, preserving per-instance order.
    let mut idx: Vec<u32> = (0..events.len() as u32).collect();
    idx.sort_by_key(|&i| events[i as usize].instance);
    let mut out = Vec::new();
    let mut trace = Trace::default();
    let mut i = 0;
    while i < idx.len() {
        let instance = events[idx[i] as usize].instance;
        trace.events.clear();
        let mut k = 0u64;
        while i < idx.len() && events[idx[i] as usize].instance == instance {
            let ev = &events[idx[i] as usize];
            trace.events.push(TraceEvent {
                time: k,
                seq: k,
                activity: program.activity_name(ev.act).into(),
                kind: match ev.phase {
                    MonitorPhase::Start => EventKind::Start,
                    MonitorPhase::Finish => EventKind::Finish,
                },
                value: None,
            });
            k += 1;
            i += 1;
        }
        for v in trace.verify(cs) {
            if v.relation.starts_with("completeness(") {
                continue;
            }
            out.push(Verdict {
                instance,
                kind: VerdictKind::Ordering,
                relation: v.relation,
            });
        }
        for v in trace.verify_exclusives(cs) {
            out.push(Verdict {
                instance,
                kind: VerdictKind::Exclusive,
                relation: v.relation,
            });
        }
        for v in check_all_conformance(&trace, conversations) {
            out.push(Verdict {
                instance,
                kind: VerdictKind::Conversation,
                relation: v.relation,
            });
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscweaver_dscl::{Origin, StateRef};

    fn chain_cs() -> ConstraintSet {
        let mut cs = ConstraintSet::new("m");
        for a in ["a", "b", "c", "p", "q"] {
            cs.add_activity(a);
        }
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("b"),
            Origin::Data,
        ));
        cs.push(Relation::before(
            StateRef::finish("b"),
            StateRef::start("c"),
            Origin::Data,
        ));
        cs.push(Relation::Exclusive {
            a: StateRef::run("p"),
            b: StateRef::run("q"),
            origin: Origin::Cooperation,
        });
        cs
    }

    fn conv() -> Vec<(Conversation, ServiceBinding)> {
        vec![(
            Conversation::new("Svc")
                .receive("port1", "D1")
                .receive("port2", "D2")
                .transition("port1", "port2"),
            ServiceBinding::new().invoke("port1", "a").invoke("port2", "b"),
        )]
    }

    fn ev(p: &MonitorProgram, instance: u32, act: &str, phase: MonitorPhase) -> MonitorEvent {
        MonitorEvent {
            instance,
            act: p.act_id(act).unwrap(),
            phase,
        }
    }

    /// A well-formed instance stream with `b` started before `a` finished
    /// (ordering violation), `q` started inside `p`'s run (exclusive
    /// violation) and — since port1 occurs at F(a), port2 at F(b) —
    /// a conversation inversion (F(b) before F(a)).
    fn violating_stream(p: &MonitorProgram, instance: u32) -> Vec<MonitorEvent> {
        use MonitorPhase::*;
        [
            ("a", Start),
            ("b", Start), // F(a) -> S(b) violated at this event
            ("b", Finish), // port2 before port1
            ("a", Finish), // port1 -> port2 inversion detected here
            ("c", Start),  // F(b) -> S(c) satisfied
            ("c", Finish),
            ("p", Start),
            ("q", Start), // exclusive co-run detected here
            ("q", Finish),
            ("p", Finish),
        ]
        .iter()
        .map(|(a, ph)| ev(p, instance, a, *ph))
        .collect()
    }

    fn clean_stream(p: &MonitorProgram, instance: u32) -> Vec<MonitorEvent> {
        use MonitorPhase::*;
        [
            ("a", Start),
            ("a", Finish),
            ("b", Start),
            ("b", Finish),
            ("c", Start),
            ("c", Finish),
            ("p", Start),
            ("p", Finish),
            ("q", Start),
            ("q", Finish),
        ]
        .iter()
        .map(|(a, ph)| ev(p, instance, a, *ph))
        .collect()
    }

    #[test]
    fn clean_instance_no_verdicts_and_retires() {
        let cs = chain_cs();
        let convs = conv();
        let p = MonitorProgram::compile(&cs, &convs).unwrap();
        let mut st = MonitorState::new(&p, &MonitorConfig::default());
        let verdicts = st.ingest(&clean_stream(&p, 7));
        assert!(verdicts.is_empty(), "{verdicts:?}");
        let stats = st.stats();
        assert_eq!(stats.live, 0);
        assert_eq!(stats.retired, 1);
        assert_eq!(stats.peak_live, 1);
    }

    #[test]
    fn all_three_verdict_kinds_detected_and_match_oracle() {
        let cs = chain_cs();
        let convs = conv();
        let p = MonitorProgram::compile(&cs, &convs).unwrap();
        let stream = violating_stream(&p, 3);
        let mut st = MonitorState::new(&p, &MonitorConfig::default());
        let mut got = st.ingest(&stream);
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!(got[0].kind, VerdictKind::Ordering);
        assert!(got[0].relation.contains("F(a)") && got[0].relation.contains("S(b)"));
        assert_eq!(got[1].kind, VerdictKind::Conversation);
        assert!(got[1].relation.contains("port1 -> port2"));
        assert_eq!(got[2].kind, VerdictKind::Exclusive);
        assert!(got[2].relation.contains("><"));
        got.sort();
        assert_eq!(got, oracle_verdicts(&p, &cs, &convs, &stream));
    }

    #[test]
    fn verdict_stream_is_batch_size_and_thread_invariant() {
        let cs = chain_cs();
        let convs = conv();
        let p = MonitorProgram::compile(&cs, &convs).unwrap();
        // Interleave 40 instances, every third violating.
        let mut stream = Vec::new();
        let per: Vec<Vec<MonitorEvent>> = (0..40u32)
            .map(|i| {
                if i % 3 == 0 {
                    violating_stream(&p, i)
                } else {
                    clean_stream(&p, i)
                }
            })
            .collect();
        for k in 0..per[0].len() {
            for s in &per {
                stream.push(s[k]);
            }
        }
        let reference: Vec<Verdict> = {
            let mut st = MonitorState::new(&p, &MonitorConfig { threads: 1, shards: 1, capacity: 0 });
            st.ingest(&stream)
        };
        assert!(!reference.is_empty());
        for threads in [1usize, 2, 4, 8] {
            for batch in [1usize, 7, 64, stream.len()] {
                let mut st = MonitorState::new(
                    &p,
                    &MonitorConfig { threads, shards: threads, capacity: 0 },
                );
                let mut got = Vec::new();
                for chunk in stream.chunks(batch) {
                    got.extend(st.ingest(chunk));
                }
                assert_eq!(got, reference, "threads={threads} batch={batch}");
                assert_eq!(st.stats().live, 0);
                assert_eq!(st.stats().retired, 40);
            }
        }
    }

    #[test]
    fn rows_are_recycled_without_verdict_leakage() {
        let cs = chain_cs();
        let convs = conv();
        let p = MonitorProgram::compile(&cs, &convs).unwrap();
        let mut st =
            MonitorState::new(&p, &MonitorConfig { threads: 1, shards: 1, capacity: 0 });
        // Cohorts of 4 instances, 12 cohorts: first cohort violates, the
        // rest are clean and reuse the violators' rows.
        for cohort in 0..12u32 {
            let mut stream = Vec::new();
            for i in 0..4u32 {
                let id = cohort * 4 + i;
                let s = if cohort == 0 {
                    violating_stream(&p, id)
                } else {
                    clean_stream(&p, id)
                };
                stream.extend(s);
            }
            let verdicts = st.ingest(&stream);
            if cohort == 0 {
                assert_eq!(verdicts.len(), 12);
            } else {
                assert!(verdicts.is_empty(), "cohort {cohort}: {verdicts:?}");
            }
        }
        let stats = st.stats();
        assert_eq!(stats.retired, 48);
        assert_eq!(stats.live, 0);
        assert!(
            stats.slab_rows <= 4,
            "rows recycled across cohorts: {}",
            stats.slab_rows
        );
    }

    #[test]
    fn duplicate_events_are_ignored() {
        let cs = chain_cs();
        let convs = conv();
        let p = MonitorProgram::compile(&cs, &convs).unwrap();
        let mut st = MonitorState::new(&p, &MonitorConfig::default());
        let mut stream = clean_stream(&p, 1);
        // Duplicate an early start mid-stream: no verdicts, no double
        // counting toward retirement.
        stream.insert(5, ev(&p, 1, "a", MonitorPhase::Start));
        let verdicts = st.ingest(&stream);
        assert!(verdicts.is_empty(), "{verdicts:?}");
        assert_eq!(st.stats().retired, 1);
    }

    #[test]
    fn conditional_and_external_relations_are_skipped() {
        let mut cs = chain_cs();
        cs.add_domain("a", vec!["T".into(), "F".into()]);
        cs.push(Relation::before_if(
            StateRef::finish("a"),
            StateRef::start("c"),
            dscweaver_dscl::Condition::new("a", "T"),
            Origin::Control,
        ));
        cs.add_service("Ext");
        cs.push(Relation::before(
            StateRef::finish("a"),
            StateRef::start("Ext"),
            Origin::Service,
        ));
        let p = MonitorProgram::compile(&cs, &[]).unwrap();
        // Same prerequisite structure as without the extra relations.
        let base = MonitorProgram::compile(&chain_cs(), &[]).unwrap();
        assert_eq!(p.ordering_pairs(), base.ordering_pairs());
    }

    #[test]
    fn program_introspection() {
        let cs = chain_cs();
        let convs = conv();
        let p = MonitorProgram::compile(&cs, &convs).unwrap();
        assert_eq!(p.n_activities(), 5);
        assert_eq!(p.events_per_instance(), 10);
        assert_eq!(p.ordering_pairs().len(), 2);
        assert_eq!(p.exclusive_pairs().len(), 1);
        assert_eq!(p.conversation_pairs().len(), 1);
        let (act, phase) = p.split_point(p.point_of(3, MonitorPhase::Finish));
        assert_eq!((act, phase), (3, MonitorPhase::Finish));
        assert_eq!(p.act_id(p.activity_name(2)), Some(2));
    }
}
