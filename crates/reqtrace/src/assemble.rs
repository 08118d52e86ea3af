//! Span assembly: raw recorder events → attributed per-request records.

use pioeval_types::{ReqEvent, ReqMark, ReqOp, SimDuration, SimTime, Tid, NO_COLLECTIVE};

/// Pseudo-entity id for wire/lookahead gaps between recorded marks
/// (time on the wire that no single fabric entity observed).
pub const WIRE_ENTITY: u32 = u32::MAX;

/// The four latency layers every nanosecond of a request is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Waiting in a server FIFO queue or gateway admission slot.
    Queue,
    /// Server protocol processing (non-device residency).
    Service,
    /// Storage-media service (OST / burst-buffer SSD device time).
    Device,
    /// Fabric transmission plus wire/lookahead gaps between marks.
    Fabric,
}

/// All buckets, in reporting order.
pub const BUCKETS: [Bucket; 4] = [
    Bucket::Queue,
    Bucket::Service,
    Bucket::Device,
    Bucket::Fabric,
];

impl Bucket {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Queue => "queue",
            Bucket::Service => "service",
            Bucket::Device => "device",
            Bucket::Fabric => "fabric",
        }
    }

    /// Parse a [`Bucket::name`] back.
    pub fn parse(name: &str) -> Option<Bucket> {
        BUCKETS.iter().copied().find(|b| b.name() == name)
    }

    /// Index into [`BUCKETS`]-shaped arrays.
    pub fn index(self) -> usize {
        match self {
            Bucket::Queue => 0,
            Bucket::Service => 1,
            Bucket::Device => 2,
            Bucket::Fabric => 3,
        }
    }
}

/// One attributed segment of a request's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The entity the time was spent at ([`WIRE_ENTITY`] for gaps).
    pub entity: u32,
    /// Where: a [`pioeval_types::ServerKind`] name, `"fabric"`, or
    /// `"wire"`.
    pub label: &'static str,
    /// Which latency layer the segment is charged to.
    pub bucket: Bucket,
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
}

impl Span {
    /// Segment length.
    pub fn len(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// True for zero-length segments.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// One fully-assembled traced request.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// Globally-unique trace id.
    pub tid: Tid,
    /// Issuing rank index.
    pub rank: u32,
    /// Operation class.
    pub op: ReqOp,
    /// Target file / object key index.
    pub file: u32,
    /// Payload bytes (0 for metadata).
    pub bytes: u64,
    /// Collective-instance index, or [`NO_COLLECTIVE`].
    pub collective: u32,
    /// Client send time.
    pub issue: SimTime,
    /// Client reply-delivery time.
    pub done: SimTime,
    /// Attributed segments tiling `[issue, done]` in order.
    pub spans: Vec<Span>,
}

impl RequestRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.done.since(self.issue)
    }

    /// Nanoseconds attributed to `bucket`.
    pub fn bucket_ns(&self, bucket: Bucket) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.bucket == bucket)
            .map(|s| s.len().as_nanos())
            .sum()
    }

    /// Per-bucket nanoseconds, indexed like [`BUCKETS`].
    pub fn breakdown(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for s in &self.spans {
            out[s.bucket.index()] += s.len().as_nanos();
        }
        out
    }

    /// True when this request ran inside a collective operation.
    pub fn in_collective(&self) -> bool {
        self.collective != NO_COLLECTIVE
    }
}

/// The result of assembling a run's raw events.
#[derive(Clone, Debug, Default)]
pub struct Assembly {
    /// Completed root requests, sorted by (issue time, tid).
    pub requests: Vec<RequestRecord>,
    /// Root requests with an Issue mark but no Done mark (the run ended
    /// with the request in flight).
    pub incomplete: usize,
}

/// Group raw events by request and attribute each completed root
/// request's latency. Child requests (tids without an Issue mark) are
/// folded into their parents via their Spawn marks; they never appear
/// as records of their own.
///
/// One sort puts every request's marks in one contiguous run of the
/// sorted events (see [`sort_events`]); a parent finds its children's
/// runs by binary search, so assembly allocates nothing per request
/// beyond the output records.
pub fn assemble(events: &[ReqEvent]) -> Assembly {
    let sorted = sort_events(events);
    let mut roots: Vec<(SimTime, Tid, &[ReqEvent])> = sorted
        .chunk_by(|a, b| a.tid == b.tid)
        .filter_map(|marks| {
            marks.iter().find_map(|e| match e.mark {
                ReqMark::Issue { at, .. } => Some((at, e.tid, marks)),
                _ => None,
            })
        })
        .collect();
    roots.sort_unstable_by_key(|&(at, tid, _)| (at, tid));

    let mut out = Assembly::default();
    // Spans are built in one reused buffer and copied out at their
    // exact length.
    let mut spans = Vec::new();
    for (_, tid, marks) in roots {
        let Some((rank, op, file, bytes, collective, issue)) =
            marks.iter().find_map(|e| match e.mark {
                ReqMark::Issue {
                    rank,
                    op,
                    file,
                    bytes,
                    collective,
                    at,
                } => Some((rank, op, file, bytes, collective, at)),
                _ => None,
            })
        else {
            continue;
        };
        let Some(done) = marks.iter().rev().find_map(|e| match e.mark {
            ReqMark::Done { at } => Some(at),
            _ => None,
        }) else {
            out.incomplete += 1;
            continue;
        };
        spans.clear();
        let cursor = walk(marks, issue, &sorted, &mut spans);
        // The Done mark advances the cursor at least to the delivery
        // time. Eagerly-recorded residencies can reach past it (an SSD
        // completion recorded at absorb, outlived by a failure-flushed
        // early ACK), so clamp the tiling to [issue, done].
        debug_assert!(cursor >= done, "cursor stopped short of done");
        for s in &mut spans {
            s.start = s.start.min(done);
            s.end = s.end.min(done);
        }
        spans.retain(|s| !s.is_empty());
        out.requests.push(RequestRecord {
            tid,
            rank,
            op,
            file,
            bytes,
            collective,
            issue,
            done,
            spans: spans.to_vec(),
        });
    }
    out
}

/// `events` ordered by (tid, mark start, entity, seq), ties kept in
/// drain order (the executor-identity guarantee rests on that order).
///
/// A stable LSD radix sort of (tid, drain index) keys, one pass per
/// byte in which the tids differ, groups the events by tid; a gather
/// copies them into that order, and a stable sort of each tid's short
/// run orders its marks on the timeline.
fn sort_events(events: &[ReqEvent]) -> Vec<ReqEvent> {
    let mut keys: Vec<(Tid, usize)> = events.iter().map(|e| e.tid).zip(0..).collect();
    let first = keys.first().map_or(0, |&(tid, _)| tid);
    let differ = keys.iter().fold(0, |acc, &(tid, _)| acc | (tid ^ first));
    let mut spare = vec![(0, 0); keys.len()];
    for shift in (0..64).step_by(8).filter(|s| (differ >> s) & 0xFF != 0) {
        let digit = |tid: Tid| ((tid >> shift) & 0xFF) as usize;
        let mut next = [0usize; 256];
        for &(tid, _) in &keys {
            next[digit(tid)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = at;
            at += count;
        }
        for &key in &keys {
            let d = digit(key.0);
            spare[next[d]] = key;
            next[d] += 1;
        }
        std::mem::swap(&mut keys, &mut spare);
    }
    drop(spare);
    let mut sorted: Vec<ReqEvent> = keys.iter().map(|&(_, i)| events[i]).collect();
    for run in sorted.chunk_by_mut(|a, b| a.tid == b.tid) {
        run.sort_by_key(|e| (e.mark.start(), e.entity, e.seq));
    }
    sorted
}

/// The run of `sorted` holding `tid`'s marks (empty when it has none).
fn marks_of(sorted: &[ReqEvent], tid: Tid) -> &[ReqEvent] {
    let lo = sorted.partition_point(|e| e.tid < tid);
    let len = sorted[lo..].partition_point(|e| e.tid == tid);
    &sorted[lo..lo + len]
}

/// Append a wire-gap span covering `[from, to)` (no-op when empty).
fn gap(spans: &mut Vec<Span>, from: SimTime, to: SimTime) {
    if to > from {
        spans.push(Span {
            entity: WIRE_ENTITY,
            label: "wire",
            bucket: Bucket::Fabric,
            start: from,
            end: to,
        });
    }
}

/// The last instant any of `marks` covers (used to pick the critical
/// child among fan-out siblings); `None` for a request with no marks.
fn last_covered(marks: &[ReqEvent]) -> Option<SimTime> {
    marks
        .iter()
        .map(|e| match e.mark {
            ReqMark::Issue { at, .. } => at,
            ReqMark::Hop { depart, .. } => depart,
            ReqMark::Server { depart, .. } => depart,
            ReqMark::Spawn { at, .. } => at,
            ReqMark::Done { at } => at,
        })
        .max()
}

/// Walk one request's `marks` starting at `from`, appending attributed
/// spans that tile the timeline with a monotone cursor, and return the
/// final cursor position. Marks are clamped forward so that spans can
/// never overlap even if the recorded intervals were inconsistent.
/// Spawned children's marks are looked up in `sorted`.
fn walk(marks: &[ReqEvent], from: SimTime, sorted: &[ReqEvent], spans: &mut Vec<Span>) -> SimTime {
    let mut cursor = from;
    let mut i = 0;
    while i < marks.len() {
        let ReqEvent { entity, mark, .. } = marks[i];
        match mark {
            ReqMark::Issue { .. } => i += 1,
            ReqMark::Hop { arrive, depart } => {
                let arrive = arrive.max(cursor);
                let depart = depart.max(arrive);
                gap(spans, cursor, arrive);
                spans.push(Span {
                    entity,
                    label: "fabric",
                    bucket: Bucket::Fabric,
                    start: arrive,
                    end: depart,
                });
                cursor = depart;
                i += 1;
            }
            ReqMark::Server {
                kind,
                arrive,
                queue,
                depart,
            } => {
                let arrive = arrive.max(cursor);
                let depart = depart.max(arrive);
                gap(spans, cursor, arrive);
                let queue_end = arrive.saturating_add(queue).min(depart);
                spans.push(Span {
                    entity,
                    label: kind.name(),
                    bucket: Bucket::Queue,
                    start: arrive,
                    end: queue_end,
                });
                // The children this server spawned for this request
                // (their Spawn marks sort inside our interval).
                let spawned = marks[i + 1..]
                    .iter()
                    .take_while(|e| matches!(e.mark, ReqMark::Spawn { at, .. } if at <= depart))
                    .count();
                let children = &marks[i + 1..i + 1 + spawned];
                i += 1 + spawned;
                let inner = if kind.is_device() {
                    Bucket::Device
                } else {
                    Bucket::Service
                };
                // Refine through the critical child: the spawned
                // sub-request that finishes last bounds the parent's
                // completion, so its own hops/queues/devices replace
                // the parent's opaque residency where they overlap.
                let critical = children
                    .iter()
                    .filter_map(|e| match e.mark {
                        ReqMark::Spawn { child, at } => {
                            last_covered(marks_of(sorted, child)).map(|end| (end, child, at))
                        }
                        _ => None,
                    })
                    .max();
                if let Some((_, child, spawn_at)) = critical {
                    let spawn_at = spawn_at.clamp(queue_end, depart);
                    spans.push(Span {
                        entity,
                        label: kind.name(),
                        bucket: inner,
                        start: queue_end,
                        end: spawn_at,
                    });
                    let child_base = spans.len();
                    let child_end =
                        walk(marks_of(sorted, child), spawn_at, sorted, spans).min(depart);
                    // A child can outlive its parent's recorded
                    // residency — a replication leg still in flight
                    // when its failed node flushed the client ACK —
                    // so clamp its spans to the parent's window to
                    // keep the tiling non-overlapping.
                    for s in &mut spans[child_base..] {
                        s.start = s.start.min(depart);
                        s.end = s.end.min(depart);
                    }
                    spans.push(Span {
                        entity,
                        label: kind.name(),
                        bucket: inner,
                        start: child_end,
                        end: depart,
                    });
                } else {
                    spans.push(Span {
                        entity,
                        label: kind.name(),
                        bucket: inner,
                        start: queue_end,
                        end: depart,
                    });
                }
                cursor = depart;
            }
            // A Spawn not following a Server mark has nothing to refine.
            ReqMark::Spawn { .. } => i += 1,
            ReqMark::Done { at } => {
                let at = at.max(cursor);
                gap(spans, cursor, at);
                cursor = at;
                i += 1;
            }
        }
    }
    cursor
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::{tid_for, ServerKind};
    use proptest::prelude::*;

    /// The assembler [`assemble`] replaced, kept as the differential
    /// oracle: one `HashMap` vector per tid, each sorted on its own,
    /// and a walk that copies each request's marks.
    mod oracle {
        use super::super::{gap, Assembly, Bucket, RequestRecord, Span};
        use pioeval_types::{ReqEvent, ReqMark, SimTime, Tid};
        use std::collections::HashMap;

        pub fn assemble(events: &[ReqEvent]) -> Assembly {
            let mut by_tid: HashMap<Tid, Vec<ReqEvent>> = HashMap::new();
            for ev in events {
                by_tid.entry(ev.tid).or_default().push(*ev);
            }
            for list in by_tid.values_mut() {
                list.sort_by_key(|e| (e.mark.start(), e.entity, e.seq));
            }

            let mut roots: Vec<(SimTime, Tid)> = Vec::new();
            for (&tid, list) in &by_tid {
                if let Some(at) = list.iter().find_map(|e| match e.mark {
                    ReqMark::Issue { at, .. } => Some(at),
                    _ => None,
                }) {
                    roots.push((at, tid));
                }
            }
            roots.sort();

            let mut out = Assembly::default();
            for (_, tid) in roots {
                let list = &by_tid[&tid];
                let Some((rank, op, file, bytes, collective, issue)) =
                    list.iter().find_map(|e| match e.mark {
                        ReqMark::Issue {
                            rank,
                            op,
                            file,
                            bytes,
                            collective,
                            at,
                        } => Some((rank, op, file, bytes, collective, at)),
                        _ => None,
                    })
                else {
                    continue;
                };
                let Some(done) = list.iter().rev().find_map(|e| match e.mark {
                    ReqMark::Done { at } => Some(at),
                    _ => None,
                }) else {
                    out.incomplete += 1;
                    continue;
                };
                let mut spans = Vec::new();
                walk(tid, issue, &by_tid, &mut spans);
                for s in &mut spans {
                    s.start = s.start.min(done);
                    s.end = s.end.min(done);
                }
                spans.retain(|s| !s.is_empty());
                out.requests.push(RequestRecord {
                    tid,
                    rank,
                    op,
                    file,
                    bytes,
                    collective,
                    issue,
                    done,
                    spans,
                });
            }
            out
        }

        fn last_covered(tid: Tid, by_tid: &HashMap<Tid, Vec<ReqEvent>>) -> Option<SimTime> {
            by_tid
                .get(&tid)?
                .iter()
                .map(|e| match e.mark {
                    ReqMark::Issue { at, .. } => at,
                    ReqMark::Hop { depart, .. } => depart,
                    ReqMark::Server { depart, .. } => depart,
                    ReqMark::Spawn { at, .. } => at,
                    ReqMark::Done { at } => at,
                })
                .max()
        }

        fn walk(
            tid: Tid,
            from: SimTime,
            by_tid: &HashMap<Tid, Vec<ReqEvent>>,
            spans: &mut Vec<Span>,
        ) -> SimTime {
            let mut cursor = from;
            let Some(list) = by_tid.get(&tid) else {
                return cursor;
            };
            let marks: Vec<(u32, ReqMark)> = list.iter().map(|e| (e.entity, e.mark)).collect();
            let mut i = 0;
            while i < marks.len() {
                let (entity, mark) = marks[i];
                match mark {
                    ReqMark::Issue { .. } => i += 1,
                    ReqMark::Hop { arrive, depart } => {
                        let arrive = arrive.max(cursor);
                        let depart = depart.max(arrive);
                        gap(spans, cursor, arrive);
                        spans.push(Span {
                            entity,
                            label: "fabric",
                            bucket: Bucket::Fabric,
                            start: arrive,
                            end: depart,
                        });
                        cursor = depart;
                        i += 1;
                    }
                    ReqMark::Server {
                        kind,
                        arrive,
                        queue,
                        depart,
                    } => {
                        let arrive = arrive.max(cursor);
                        let depart = depart.max(arrive);
                        gap(spans, cursor, arrive);
                        let queue_end = arrive.saturating_add(queue).min(depart);
                        spans.push(Span {
                            entity,
                            label: kind.name(),
                            bucket: Bucket::Queue,
                            start: arrive,
                            end: queue_end,
                        });
                        let mut children: Vec<(Tid, SimTime)> = Vec::new();
                        let mut j = i + 1;
                        while j < marks.len() {
                            match marks[j].1 {
                                ReqMark::Spawn { child, at } if at <= depart => {
                                    children.push((child, at));
                                    j += 1;
                                }
                                _ => break,
                            }
                        }
                        i = j;
                        let inner = if kind.is_device() {
                            Bucket::Device
                        } else {
                            Bucket::Service
                        };
                        let critical = children
                            .iter()
                            .filter_map(|&(c, at)| last_covered(c, by_tid).map(|end| (end, c, at)))
                            .max();
                        if let Some((_, child, spawn_at)) = critical {
                            let spawn_at = spawn_at.clamp(queue_end, depart);
                            spans.push(Span {
                                entity,
                                label: kind.name(),
                                bucket: inner,
                                start: queue_end,
                                end: spawn_at,
                            });
                            let child_base = spans.len();
                            let child_end = walk(child, spawn_at, by_tid, spans).min(depart);
                            for s in &mut spans[child_base..] {
                                s.start = s.start.min(depart);
                                s.end = s.end.min(depart);
                            }
                            spans.push(Span {
                                entity,
                                label: kind.name(),
                                bucket: inner,
                                start: child_end,
                                end: depart,
                            });
                        } else {
                            spans.push(Span {
                                entity,
                                label: kind.name(),
                                bucket: inner,
                                start: queue_end,
                                end: depart,
                            });
                        }
                        cursor = depart;
                    }
                    ReqMark::Spawn { .. } => i += 1,
                    ReqMark::Done { at } => {
                        let at = at.max(cursor);
                        gap(spans, cursor, at);
                        cursor = at;
                        i += 1;
                    }
                }
            }
            cursor
        }
    }

    /// splitmix64: the generator behind [`stream`].
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// Owners spread over several tid bytes, so the radix sort runs
    /// more than one pass.
    const OWNERS: [u32; 6] = [0, 1, 7, 300, 70_000, 0x7FFF_FFFE];

    const KINDS: [ServerKind; 6] = [
        ServerKind::OssDevice,
        ServerKind::Mds,
        ServerKind::IoNodeSsd,
        ServerKind::Gateway,
        ServerKind::Shard,
        ServerKind::Replica,
    ];

    /// Hops and server residencies of `tid`; each server may spawn up
    /// to two children, which get marks of their own down to `depth`
    /// 2 or none at all. Times come from a small range, so starts
    /// often tie across entities, Spawns fall before or after their
    /// server's depart and children outlive their parents.
    fn body(rng: &mut Rng, tid: Tid, depth: u32, children: &mut u64, out: &mut Vec<ReqEvent>) {
        for _ in 0..rng.below(5) {
            let entity = rng.below(3) as u32;
            // Sequence numbers repeat, so that (tid, start, entity, seq)
            // ties are left to drain order.
            let seq = rng.below(3) as u32;
            let arrive = t(rng.below(200));
            if rng.below(3) == 0 {
                let depart = arrive.saturating_add(SimDuration::from_nanos(rng.below(20)));
                out.push(ev(tid, entity, seq, ReqMark::Hop { arrive, depart }));
                continue;
            }
            let depart = arrive.saturating_add(SimDuration::from_nanos(rng.below(60)));
            let server = ReqMark::Server {
                kind: rng.pick(&KINDS),
                arrive,
                queue: SimDuration::from_nanos(rng.below(10)),
                depart,
            };
            out.push(ev(tid, entity, seq, server));
            for _ in 0..rng.below(3) {
                *children += 1;
                let child = tid_for(rng.pick(&OWNERS), 1 << 24 | *children);
                let at = arrive.saturating_add(SimDuration::from_nanos(rng.below(80)));
                out.push(ev(tid, entity, seq + 1, ReqMark::Spawn { child, at }));
                if depth < 2 && rng.below(4) != 0 {
                    body(rng, child, depth + 1, children, out);
                }
            }
        }
    }

    /// A drain-order event stream of `roots` requests (some without a
    /// Done mark, some with two) plus marks of a tid nobody spawns,
    /// shuffled.
    fn stream(seed: u64, roots: u64) -> Vec<ReqEvent> {
        let mut rng = Rng(seed);
        let mut out = Vec::new();
        let mut children = 0;
        for r in 0..roots {
            let tid = tid_for(rng.pick(&OWNERS), rng.below(4) << 20 | r);
            let issue = ReqMark::Issue {
                rank: rng.below(4) as u32,
                op: ReqOp::Write,
                file: rng.below(8) as u32,
                bytes: rng.below(1 << 20),
                collective: NO_COLLECTIVE,
                at: t(rng.below(50)),
            };
            out.push(ev(tid, rng.below(3) as u32, 0, issue));
            body(&mut rng, tid, 0, &mut children, &mut out);
            for _ in 0..rng.below(3) {
                let done = ReqMark::Done {
                    at: t(rng.below(300)),
                };
                out.push(ev(tid, rng.below(3) as u32, rng.below(3) as u32, done));
            }
        }
        body(&mut rng, tid_for(5, 1 << 30), 2, &mut children, &mut out);
        for i in (1..out.len()).rev() {
            out.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-sort assembler equals the per-tid `HashMap` oracle
        /// on random drain-order streams.
        #[test]
        fn assembly_matches_the_oracle(seed in 0u64..u64::MAX, roots in 0u64..40) {
            let events = stream(seed, roots);
            let got = assemble(&events);
            let want = oracle::assemble(&events);
            prop_assert_eq!(got.incomplete, want.incomplete);
            prop_assert_eq!(got.requests, want.requests);
        }
    }

    /// The generated streams do hold the cases the oracle test is for.
    /// Each stream is checked on its own: tids repeat across seeds.
    #[test]
    fn streams_cover_the_hard_cases() {
        let (mut unmarked, mut grandchild, mut incomplete) = (false, false, false);
        for seed in 0..64 {
            let events = stream(seed, 20);
            let has_marks = |tid: Tid| events.iter().any(|e| e.tid == tid);
            let spawned = |tid: Tid| {
                events.iter().filter_map(move |e| match e.mark {
                    ReqMark::Spawn { child, .. } if e.tid == tid => Some(child),
                    _ => None,
                })
            };
            let roots = events
                .iter()
                .filter(|e| matches!(e.mark, ReqMark::Issue { .. }));
            for root in roots {
                for child in spawned(root.tid) {
                    unmarked |= !has_marks(child);
                    grandchild |= spawned(child).any(has_marks);
                }
            }
            incomplete |= assemble(&events).incomplete > 0;
        }
        assert!(unmarked, "no spawn of a tid without marks");
        assert!(grandchild, "no spawn chain two levels deep");
        assert!(incomplete, "no root without a Done mark");
    }

    #[test]
    fn empty_input_assembles_nothing() {
        let asm = assemble(&[]);
        assert!(asm.requests.is_empty());
        assert_eq!(asm.incomplete, 0);
    }

    fn ev(tid: Tid, entity: u32, seq: u32, mark: ReqMark) -> ReqEvent {
        ReqEvent {
            tid,
            entity,
            seq,
            mark,
        }
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn simple_request_tiles_exactly() {
        // issue@0 → fabric 10..20 → oss arrive@30 queue 5 depart@100
        // → fabric 110..120 → done@130.
        let events = vec![
            ev(
                7,
                1,
                0,
                ReqMark::Issue {
                    rank: 0,
                    op: ReqOp::Write,
                    file: 3,
                    bytes: 4096,
                    collective: NO_COLLECTIVE,
                    at: t(0),
                },
            ),
            ev(
                7,
                2,
                0,
                ReqMark::Hop {
                    arrive: t(10),
                    depart: t(20),
                },
            ),
            ev(
                7,
                3,
                0,
                ReqMark::Server {
                    kind: ServerKind::OssDevice,
                    arrive: t(30),
                    queue: SimDuration::from_nanos(5),
                    depart: t(100),
                },
            ),
            ev(
                7,
                2,
                1,
                ReqMark::Hop {
                    arrive: t(110),
                    depart: t(120),
                },
            ),
            ev(7, 1, 1, ReqMark::Done { at: t(130) }),
        ];
        let asm = assemble(&events);
        assert_eq!(asm.requests.len(), 1);
        assert_eq!(asm.incomplete, 0);
        let r = &asm.requests[0];
        assert_eq!(r.latency(), SimDuration::from_nanos(130));
        let b = r.breakdown();
        assert_eq!(b[Bucket::Queue.index()], 5);
        assert_eq!(b[Bucket::Device.index()], 65);
        assert_eq!(b[Bucket::Service.index()], 0);
        // fabric = hops (10+10) + gaps (0..10, 20..30, 100..110, 120..130).
        assert_eq!(b[Bucket::Fabric.index()], 60);
        assert_eq!(b.iter().sum::<u64>(), 130);
    }

    #[test]
    fn critical_child_refines_parent_residency() {
        // Gateway holds 10..100 (queue 20), spawns child@40; child device
        // 50..80 (queue 10). Parent service = [30,40] + [80,100] = 30.
        let events = vec![
            ev(
                1,
                9,
                0,
                ReqMark::Issue {
                    rank: 2,
                    op: ReqOp::Read,
                    file: 0,
                    bytes: 100,
                    collective: 4,
                    at: t(0),
                },
            ),
            ev(
                1,
                5,
                0,
                ReqMark::Server {
                    kind: ServerKind::Gateway,
                    arrive: t(10),
                    queue: SimDuration::from_nanos(20),
                    depart: t(100),
                },
            ),
            ev(
                1,
                5,
                1,
                ReqMark::Spawn {
                    child: 99,
                    at: t(40),
                },
            ),
            ev(
                99,
                6,
                0,
                ReqMark::Server {
                    kind: ServerKind::OssDevice,
                    arrive: t(50),
                    queue: SimDuration::from_nanos(10),
                    depart: t(80),
                },
            ),
            ev(1, 9, 1, ReqMark::Done { at: t(120) }),
        ];
        let asm = assemble(&events);
        assert_eq!(asm.requests.len(), 1, "child tid must not become a record");
        let r = &asm.requests[0];
        assert!(r.in_collective());
        let b = r.breakdown();
        assert_eq!(b[Bucket::Queue.index()], 20 + 10);
        assert_eq!(b[Bucket::Service.index()], 30);
        assert_eq!(b[Bucket::Device.index()], 20);
        // gaps: 0..10 (wire), 40..50 (to child), 100..120 (reply).
        assert_eq!(b[Bucket::Fabric.index()], 40);
        assert_eq!(b.iter().sum::<u64>(), 120);
    }

    #[test]
    fn unfinished_requests_count_as_incomplete() {
        let events = vec![ev(
            3,
            1,
            0,
            ReqMark::Issue {
                rank: 0,
                op: ReqOp::Meta(pioeval_types::MetaOp::Create),
                file: 1,
                bytes: 0,
                collective: NO_COLLECTIVE,
                at: t(5),
            },
        )];
        let asm = assemble(&events);
        assert!(asm.requests.is_empty());
        assert_eq!(asm.incomplete, 1);
    }
}
