//! The load generator: two threads, one connection each, driving one
//! phase at a time against the in-process server, and checking every
//! answer.
//!
//! An open-loop lane sends on a pre-generated schedule whatever happens
//! and times each request from the moment it was *due*, so a stall is
//! charged to every request it delays. A closed-loop lane sends its next
//! request when the previous answer is in.

use crate::http::{Client, Timing};
use crate::spec::EVENT_BATCH;
use lrgcn::obs::json::{self, Value};
use lrgcn_stream::StreamEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The late sign-ups' interactions in arrival order, handed out in
/// batches of [`EVENT_BATCH`] to whichever lane writes next.
pub struct Feed {
    pub events: Vec<StreamEvent>,
    /// Per late user, `(event index, item)` ascending by index.
    by_user: HashMap<u32, Vec<(usize, u32)>>,
    next_batch: AtomicUsize,
    acked: Vec<AtomicBool>,
    /// Batches `0..acked_prefix` are all acknowledged.
    acked_prefix: AtomicUsize,
}

impl Feed {
    pub fn new(events: Vec<StreamEvent>) -> Self {
        let mut by_user: HashMap<u32, Vec<(usize, u32)>> = HashMap::new();
        for (i, ev) in events.iter().enumerate() {
            by_user.entry(ev.user).or_default().push((i, ev.item));
        }
        let acked = (0..events.len() / EVENT_BATCH)
            .map(|_| AtomicBool::new(false))
            .collect();
        Self {
            events,
            by_user,
            next_batch: AtomicUsize::new(0),
            acked,
            acked_prefix: AtomicUsize::new(0),
        }
    }

    /// Batches handed out so far; the log must hold exactly their events.
    pub fn batches_taken(&self) -> usize {
        self.next_batch.load(Ordering::SeqCst).min(self.acked.len())
    }

    pub fn events_acked(&self) -> usize {
        self.acked_prefix.load(Ordering::SeqCst) * EVENT_BATCH
    }

    fn take_batch(&self) -> Option<usize> {
        let b = self.next_batch.fetch_add(1, Ordering::SeqCst);
        (b < self.acked.len()).then_some(b)
    }

    fn ack(&self, batch: usize) {
        self.acked[batch].store(true, Ordering::SeqCst);
        loop {
            let p = self.acked_prefix.load(Ordering::SeqCst);
            if p >= self.acked.len() || !self.acked[p].load(Ordering::SeqCst) {
                return;
            }
            // Losing the race means another lane advanced it; look again.
            let _ =
                self.acked_prefix
                    .compare_exchange(p, p + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
    }

    /// Items of `user` among the first `n_events` of the feed.
    fn items_before(&self, user: u32, n_events: usize) -> impl Iterator<Item = u32> + '_ {
        self.by_user
            .get(&user)
            .into_iter()
            .flatten()
            .take_while(move |(i, _)| *i < n_events)
            .map(|&(_, item)| item)
    }
}

/// One `POST /events` body. The log drops an event whose `seq` is not above
/// its client's high-water mark, so each lane writes as a client of its own:
/// a lane takes its batches in rising order, and two lanes racing under one
/// client id would have the later batch's ack erase the earlier batch.
pub fn event_jsonl(events: &[StreamEvent], lane: u8) -> String {
    events
        .iter()
        .map(|e| {
            format!(
                "{{\"user\":{},\"item\":{},\"ts\":{},\"client\":\"bench-{lane}\",\"seq\":{}}}\n",
                e.user, e.item, e.timestamp, e.seq
            )
        })
        .collect()
}

#[derive(Clone, Debug)]
pub enum Op {
    Recs {
        user: u32,
        k: usize,
    },
    /// `/recs` for a late user picked among the acknowledged events
    /// (read-your-writes); `fallback` while nothing is acknowledged yet.
    RecsStreamed {
        pick: u64,
        fallback: u32,
        k: usize,
    },
    Healthz,
    /// `POST /events` with the feed's next batch.
    Events,
    Score(Vec<(u32, u32)>),
    Similar {
        item: u32,
        k: usize,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Recs,
    Healthz,
    Events,
    Score,
    Similar,
}

#[derive(Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Nanoseconds from the phase start; `None` in a closed loop.
    pub due_ns: Option<u64>,
    /// When the lane was free to send this request.
    pub ready_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
    /// The exchange was sent with the timing split on (`timing` is set).
    pub traced: bool,
    pub timing: Timing,
    pub wire_bytes: u32,
}

impl Sample {
    /// Client-observed latency: from the due time in an open loop, so a
    /// busy connection's wait is part of it.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns.unwrap_or(self.start_ns)
    }

    /// How late the generator itself sent: past the due time, not counting
    /// the wait for a free connection (the program's doing, and already
    /// inside the latency).
    pub fn late_ns(&self) -> u64 {
        self.due_ns.map_or(0, |due| {
            self.start_ns.saturating_sub(due.max(self.ready_ns))
        })
    }
}

/// An open-loop schedule and the request due at each of its times; lanes
/// sharing one take arrivals in turn, so an arrival waits only when every
/// connection is busy.
pub struct Open {
    due: Vec<u64>,
    ops: Vec<Op>,
    cursor: AtomicUsize,
}

impl Open {
    pub fn new(due: Vec<u64>, ops: Vec<Op>) -> Self {
        assert_eq!(due.len(), ops.len(), "one request per arrival");
        Self {
            due,
            ops,
            cursor: AtomicUsize::new(0),
        }
    }
}

/// Makes a closed-loop lane's next request from its rng and sequence number.
pub type OpGen<'a> = &'a (dyn Fn(&mut StdRng, u32) -> Op + Sync);

pub enum Lane<'a> {
    Open(&'a Open),
    /// Back-to-back requests from the generator, seeded per lane.
    Closed(OpGen<'a>),
}

/// What the generator needs to send and to check.
pub struct Target {
    pub addr: SocketAddr,
    pub n_items: usize,
    pub feed: Feed,
    /// The first few failures, for the report.
    pub failures: Mutex<Vec<String>>,
}

pub struct Phase {
    pub name: &'static str,
    pub seconds: f64,
    pub samples: Vec<Sample>,
}

impl Phase {
    pub fn of(&self, kind: Kind) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.kind == kind)
    }

    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Latencies of the valid answers of one kind, in milliseconds, in
    /// the order the requests were due (or were sent, in a closed loop).
    pub fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        let mut valid: Vec<&Sample> = self.of(kind).filter(|s| s.ok).collect();
        valid.sort_by_key(|s| s.due_ns.unwrap_or(s.start_ns));
        valid.iter().map(|s| s.latency_ns() as f64 / 1e6).collect()
    }

    /// Valid answers completed per second of the phase.
    pub fn rate_per_s(&self, kind: Option<Kind>) -> f64 {
        let end = (self.seconds * 1e9) as u64;
        let done = |s: &&Sample| s.ok && s.end_ns <= end && kind.is_none_or(|k| s.kind == k);
        self.samples.iter().filter(done).count() as f64 / self.seconds
    }
}

/// Runs one phase: each lane on its own thread and connection, for
/// `seconds` (an open lane ends with its schedule). With `trace`, every
/// other request is sent with the timing split on.
pub fn run_phase(
    target: &Target,
    name: &'static str,
    seconds: f64,
    seed: u64,
    trace: bool,
    lanes: [Lane; 2],
) -> Phase {
    let started = Instant::now();
    let until = Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                scope.spawn(move || run_lane(target, lane, i as u8, seed, trace, started, until))
            })
            .collect();
        for h in handles {
            samples.extend(h.join().expect("generator lane panicked"));
        }
    });
    Phase {
        name,
        seconds,
        samples,
    }
}

fn run_lane(
    target: &Target,
    lane: &Lane,
    lane_no: u8,
    seed: u64,
    trace: bool,
    started: Instant,
    until: Duration,
) -> Vec<Sample> {
    let mut client = Client::new(target.addr);
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane_no as u64 + 1));
    let since_start = |at: Instant| at.duration_since(started).as_nanos() as u64;
    let mut out = Vec::new();
    for seq in 0u32.. {
        let (index, due_ns, op) = match lane {
            Lane::Open(open) => {
                let i = open.cursor.fetch_add(1, Ordering::SeqCst);
                let Some(&due) = open.due.get(i) else { break };
                (i, Some(due), open.ops[i].clone())
            }
            Lane::Closed(gen) => {
                if started.elapsed() >= until {
                    break;
                }
                (seq as usize, None, gen(&mut rng, seq))
            }
        };
        let ready_ns = since_start(Instant::now());
        if let Some(wait) = due_ns.and_then(|due| due.checked_sub(ready_ns)) {
            std::thread::sleep(Duration::from_nanos(wait));
        }
        let traced = trace && index % 2 == 0;
        let done = execute(target, &mut client, lane_no, &op, traced);
        out.push(Sample {
            kind: done.kind,
            due_ns,
            ready_ns,
            start_ns: since_start(done.start),
            end_ns: since_start(done.end),
            ok: done.ok,
            traced,
            timing: done.timing,
            wire_bytes: done.wire_bytes,
        });
    }
    out
}

struct Done {
    kind: Kind,
    start: Instant,
    /// Stamped at the last body byte, before any checking.
    end: Instant,
    ok: bool,
    timing: Timing,
    wire_bytes: u32,
}

/// Sends `op` and checks the answer; the checking is off the clock.
fn execute(target: &Target, client: &mut Client, lane: u8, op: &Op, split: bool) -> Done {
    let mut must_not_list: Vec<u32> = Vec::new();
    let mut batch = None;
    let (kind, method, path, body) = match op {
        Op::Recs { user, k } => (
            Kind::Recs,
            "GET",
            format!("/recs/{user}?k={k}"),
            String::new(),
        ),
        Op::RecsStreamed { pick, fallback, k } => {
            let n_events = target.feed.events_acked();
            let user = if n_events == 0 {
                *fallback
            } else {
                let user = target.feed.events[(*pick % n_events as u64) as usize].user;
                must_not_list.extend(target.feed.items_before(user, n_events));
                user
            };
            (
                Kind::Recs,
                "GET",
                format!("/recs/{user}?k={k}"),
                String::new(),
            )
        }
        Op::Healthz => (Kind::Healthz, "GET", "/healthz".to_string(), String::new()),
        Op::Events => {
            batch = target.feed.take_batch();
            let body = batch.map_or(String::new(), |b| {
                event_jsonl(
                    &target.feed.events[b * EVENT_BATCH..(b + 1) * EVENT_BATCH],
                    lane,
                )
            });
            (Kind::Events, "POST", "/events".to_string(), body)
        }
        Op::Score(pairs) => {
            let list: Vec<String> = pairs.iter().map(|(u, i)| format!("[{u},{i}]")).collect();
            (
                Kind::Score,
                "POST",
                "/score".to_string(),
                format!("{{\"pairs\":[{}]}}", list.join(",")),
            )
        }
        Op::Similar { item, k } => (
            Kind::Similar,
            "GET",
            format!("/similar/{item}?k={k}"),
            String::new(),
        ),
    };
    let start = Instant::now();
    let result = if kind == Kind::Events && batch.is_none() {
        Err("event feed exhausted: the phase outran the generated events".to_string())
    } else {
        client.request(method, &path, body.as_bytes(), split)
    };
    let end = Instant::now();
    let mut done = Done {
        kind,
        start,
        end,
        ok: false,
        timing: Timing::default(),
        wire_bytes: 0,
    };
    let verdict = result.and_then(|(resp, timing)| {
        done.timing = timing;
        done.wire_bytes = resp.wire_bytes as u32;
        if resp.status != 200 {
            return Err(format!(
                "status {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        if kind == Kind::Healthz {
            return Ok(());
        }
        let text = std::str::from_utf8(&resp.body).map_err(|_| "non-UTF8 body".to_string())?;
        let v = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        let listed = |k: usize| -> Result<Vec<(u32, f64)>, String> {
            let items = item_list(&v, target.n_items)?;
            if items.len() == k {
                Ok(items)
            } else {
                Err(format!("{} items for k={k}", items.len()))
            }
        };
        match op {
            Op::Recs { k, .. } | Op::RecsStreamed { k, .. } => {
                match listed(*k)?.iter().find(|(i, _)| must_not_list.contains(i)) {
                    Some((i, _)) => Err(format!(
                        "item {i} was streamed by this user before the request"
                    )),
                    None => Ok(()),
                }
            }
            Op::Similar { k, .. } => listed(*k).map(|_| ()),
            Op::Score(pairs) => match v.get("scores") {
                Some(Value::Arr(s)) if s.len() == pairs.len() => Ok(()),
                _ => Err("scores do not match the pairs sent".to_string()),
            },
            Op::Events => {
                let count = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(-1.0);
                if count("accepted") + count("duplicates") == EVENT_BATCH as f64 {
                    target.feed.ack(batch.expect("sent a batch"));
                    Ok(())
                } else {
                    Err(format!(
                        "ack does not account for {EVENT_BATCH} events: {text}"
                    ))
                }
            }
            Op::Healthz => unreachable!("answered above"),
        }
    });
    match verdict {
        Ok(()) => done.ok = true,
        Err(e) => {
            let mut failures = target.failures.lock().expect("failure list poisoned");
            if failures.len() < 8 {
                failures.push(format!("{method} {path}: {e}"));
            }
        }
    }
    done
}

/// The `items` of a `/recs` or `/similar` answer as `(item, score)`, each
/// item checked against the catalogue.
pub fn item_list(v: &Value, n_items: usize) -> Result<Vec<(u32, f64)>, String> {
    let Some(Value::Arr(items)) = v.get("items") else {
        return Err("answer has no items array".into());
    };
    items
        .iter()
        .map(|it| {
            let item = it
                .get("item")
                .and_then(Value::as_f64)
                .ok_or("item without an id")?;
            let score = it
                .get("score")
                .and_then(Value::as_f64)
                .ok_or("item without a score")?;
            if item < 0.0 || item.fract() != 0.0 || item >= n_items as f64 {
                return Err(format!("item {item} outside the catalogue of {n_items}"));
            }
            Ok((item as u32, score))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: usize, user: u32, item: u32) -> StreamEvent {
        StreamEvent {
            user,
            item,
            timestamp: i as i64,
            client: "bench".into(),
            seq: i as u64 + 1,
            request_id: String::new(),
        }
    }

    #[test]
    fn feed_acks_advance_a_contiguous_prefix_only() {
        let events: Vec<_> = (0..17)
            .map(|i| ev(i, 100 + (i % 2) as u32, i as u32))
            .collect();
        let feed = Feed::new(events);
        assert_eq!(feed.acked.len(), 3, "the odd tail never ships");
        let (a, b, c) = (
            feed.take_batch().unwrap(),
            feed.take_batch().unwrap(),
            feed.take_batch().unwrap(),
        );
        assert_eq!((a, b, c, feed.take_batch()), (0, 1, 2, None));
        feed.ack(b);
        assert_eq!(feed.events_acked(), 0, "batch 0 is still in flight");
        feed.ack(a);
        assert_eq!(feed.events_acked(), 10);
        assert_eq!(
            feed.items_before(100, 10).collect::<Vec<_>>(),
            [0, 2, 4, 6, 8]
        );
        assert_eq!(feed.items_before(101, 4).collect::<Vec<_>>(), [1, 3]);
        feed.ack(c);
        assert_eq!((feed.events_acked(), feed.batches_taken()), (15, 3));
    }

    #[test]
    fn item_lists_are_checked_against_the_catalogue() {
        let ok =
            json::parse(r#"{"items":[{"item":3,"score":0.5},{"item":0,"score":-1}]}"#).unwrap();
        assert_eq!(item_list(&ok, 4).unwrap(), [(3, 0.5), (0, -1.0)]);
        assert!(item_list(&ok, 3)
            .unwrap_err()
            .contains("outside the catalogue"));
        assert!(item_list(&json::parse("{}").unwrap(), 3).is_err());
    }

    #[test]
    fn event_lines_carry_the_idempotency_key() {
        let text = event_jsonl(&[ev(0, 7, 9)], 1);
        assert_eq!(
            text,
            "{\"user\":7,\"item\":9,\"ts\":0,\"client\":\"bench-1\",\"seq\":1}\n"
        );
    }
}
