//! The snapshot-swap layer under rule churn, probed in the traced run
//! of `acl4k-search`. One writer thread applies insert/remove pairs open
//! loop at a fixed rate; the reader classifies the workload's headers
//! through `SnapshotReader::classify` in a closed loop.
//!
//! This is a layer probe rather than a workload of its own: with both
//! cores busy, its end-to-end figures spread 13–26% from run to run on
//! the shared two-core machine the benchmark was tuned on, beyond any
//! regression bound the benchmark may set.

use crate::inputs;
use crate::spans::Tracer;
use crate::stats::quantile;
use crate::Outcome;
use spc_engine::{EngineBuilder, PacketClassifier, SnapshotEngine, SnapshotReader, UpdateError};
use spc_types::{Header, Rule, RuleId, RuleSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SPEC: &str = "snapshot:inner=(configurable-mbt)";
/// Offered update rate of the open-loop writer, per second.
const UPDATES_PER_S: f64 = 20.0;

/// Reads alone for a quarter of `budget`, then beside the writer for
/// the rest, checking every verdict, and reports the snapshot layer's
/// metrics.
pub fn probe(
    out: &mut Outcome,
    tracer: &Tracer,
    rules: &RuleSet,
    headers: &[Header],
    want: &[Option<RuleId>],
    pool: &[Rule],
    budget: Duration,
) -> Result<(), String> {
    let mut engine = EngineBuilder::from_spec(SPEC)
        .and_then(|b| b.build_snapshot(rules))
        .map_err(|e| format!("{SPEC}: {e}"))?;
    let mut reader = engine.reader();
    let w = Workload {
        headers,
        want,
        pool,
    };
    let quiet = read(&mut reader, &w, budget.mul_f64(0.25), (tracer, 0));
    let (reads, mut writer) = churn(&mut engine, &mut reader, &w, budget.mul_f64(0.75), tracer)?;
    for r in [&quiet, &reads] {
        out.attempted += r.lookup_us.len() as u64;
        out.failed += r.failed;
    }
    out.attempted += writer.ops;
    out.failed += writer.rejected;
    out.duplicates += writer.duplicates;
    final_check(out, &mut reader, rules, &w, writer.live)?;

    let updates = writer.update_us.len() as u64;
    out.metric(
        "snapshot.update_busy_frac",
        writer.busy.as_secs_f64() / reads.wall.as_secs_f64(),
        updates,
    );
    out.metric(
        "snapshot.reader_slowdown",
        reads.ns_per_lookup() / quiet.ns_per_lookup(),
        reads.lookup_us.len() as u64,
    );
    out.metric(
        "churn.writer_late_us_p90",
        quantile(&mut writer.late_us, 0.9),
        updates,
    );
    out.report.push(format!(
        "snapshot churn: {updates} updates at {UPDATES_PER_S}/s, due-to-published p50 {:.0} µs \
         p90 {:.0} µs; reader {:.0} ns/lookup with churn, {:.0} without",
        quantile(&mut writer.update_us, 0.5),
        quantile(&mut writer.update_us, 0.9),
        reads.ns_per_lookup(),
        quiet.ns_per_lookup()
    ));
    Ok(())
}

/// The reader's inputs: headers, their base-set verdicts, the pool.
struct Workload<'a> {
    headers: &'a [Header],
    want: &'a [Option<RuleId>],
    pool: &'a [Rule],
}

/// What the reader saw.
#[derive(Debug, Default)]
struct Reads {
    lookup_us: Vec<f64>,
    wall: Duration,
    failed: u64,
}

impl Reads {
    fn ns_per_lookup(&self) -> f64 {
        self.wall.as_secs_f64() * 1e9 / self.lookup_us.len().max(1) as f64
    }
}

/// What the writer did.
#[derive(Debug, Default)]
struct Writer {
    /// Due time to return, per successful update, in µs.
    update_us: Vec<f64>,
    /// Due time to start, per update, in µs.
    late_us: Vec<f64>,
    /// Time spent inside `insert`/`remove`.
    busy: Duration,
    /// Updates attempted.
    ops: u64,
    rejected: u64,
    duplicates: u64,
    /// The pool rule installed and not yet removed.
    live: Option<(usize, RuleId)>,
}

/// Closed-loop reads through `SnapshotReader::classify` until `budget`
/// is spent, each call timed and checked.
fn read(
    reader: &mut SnapshotReader,
    w: &Workload,
    budget: Duration,
    (tracer, root): (&Tracer, u64),
) -> Reads {
    let start = Instant::now();
    let deadline = start + budget;
    let mut r = Reads::default();
    'passes: loop {
        for (h, want) in w.headers.iter().zip(w.want) {
            let t = Instant::now();
            let v = tracer.span("snapshot.reader_classify", root, || reader.classify(h));
            r.lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
            r.failed += u64::from(!inputs::churn_verdict_ok(&v, *want, h, w.pool));
            if r.lookup_us.len().is_multiple_of(16) && Instant::now() >= deadline {
                break 'passes;
            }
        }
    }
    r.wall = start.elapsed();
    r
}

/// Runs the writer on its own thread beside the reader for `budget`.
fn churn(
    engine: &mut SnapshotEngine,
    reader: &mut SnapshotReader,
    w: &Workload,
    budget: Duration,
    tracer: &Tracer,
) -> Result<(Reads, Writer), String> {
    let root = tracer.open("churn", 0);
    let root_id = root.id();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (joined, reads) = std::thread::scope(|s| {
        let handle = s.spawn(|| write(engine, w.pool, start, &stop, (tracer, root_id)));
        let reads = read(reader, w, budget, (tracer, root_id));
        stop.store(true, Ordering::SeqCst);
        (handle.join(), reads)
    });
    tracer.close(root);
    let writer = joined.map_err(|_| "the churn writer panicked".to_string())?;
    Ok((reads, writer))
}

/// The open-loop writer: update `k` is due at `start + k / rate`. It
/// alternates inserting the next pool rule and removing it again, and
/// measures each update from its due time, so a slow update delays the
/// ones queued behind it.
fn write(
    engine: &mut SnapshotEngine,
    pool: &[Rule],
    start: Instant,
    stop: &AtomicBool,
    (tracer, root): (&Tracer, u64),
) -> Writer {
    let period = Duration::from_secs_f64(1.0 / UPDATES_PER_S);
    let mut w = Writer::default();
    let mut inserts = 0usize;
    let mut due = start;
    loop {
        loop {
            if stop.load(Ordering::SeqCst) {
                return w;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        }
        let began = Instant::now();
        w.late_us.push((began - due).as_secs_f64() * 1e6);
        let live = w.live;
        let insert_at = inserts % pool.len();
        let name = match live {
            Some(_) => "snapshot.remove",
            None => {
                inserts += 1;
                "snapshot.insert"
            }
        };
        let result = tracer.span(name, root, || match live {
            Some((_, id)) => engine.remove(id).map(|()| None),
            None => engine
                .insert(pool[insert_at])
                .map(|id| Some((insert_at, id))),
        });
        let done = Instant::now();
        w.busy += done - began;
        w.ops += 1;
        match result {
            Ok(now_live) => {
                w.live = now_live;
                w.update_us.push((done - due).as_secs_f64() * 1e6);
            }
            Err(UpdateError::Duplicate { .. }) => w.duplicates += 1,
            Err(_) => w.rejected += 1,
        }
        due += period;
    }
}

/// After the writer stops, every header must get the verdict of a
/// `linear` oracle rebuilt over the live rule set.
fn final_check(
    out: &mut Outcome,
    reader: &mut SnapshotReader,
    rules: &RuleSet,
    w: &Workload,
    live: Option<(usize, RuleId)>,
) -> Result<(), String> {
    let mut all = rules.rules().to_vec();
    let mut ids: Vec<RuleId> = rules.iter().map(|(id, _)| id).collect();
    if let Some((i, id)) = live {
        all.push(w.pool[i]);
        ids.push(id);
    }
    let want: Vec<Option<RuleId>> = inputs::oracle(&RuleSet::from_rules(all), w.headers)?
        .into_iter()
        .map(|o| o.map(|r| ids[r.0 as usize]))
        .collect();
    reader.refresh();
    let got: Vec<_> = w.headers.iter().map(|h| reader.classify(h)).collect();
    out.attempted += got.len() as u64;
    out.failed += inputs::mismatches(&got, &want);
    Ok(())
}
