//! The pcap-replay workloads, `acl4k-search` and `acl4k-flows`: a
//! capture replayed `PcapReader` → `IngestPipeline::run_source` with one
//! worker plus the feeding thread, every verdict checked against the
//! `linear` oracle.

use crate::churn;
use crate::core_probe::{self, Op};
use crate::inputs::{self, TempPcap};
use crate::spans::{self, Tracer};
use crate::stats::{median, quantile};
use crate::{Args, Outcome};
use rand::{rngs::StdRng, Rng, SeedableRng};
use spc_classbench::{PcapReader, TraceEvent, TraceSource};
use spc_engine::pipeline::BatchWorker;
use spc_engine::{
    EngineBuilder, IngestConfig, IngestPipeline, LookupStats, PacketClassifier, Verdict,
};
use spc_types::{Header, RuleId, RuleSet};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Headers in the `acl4k-search` capture.
const SEARCH_PACKETS: usize = 4096;
/// Distinct flows in `acl4k-flows`; they fit the 8192-slot cache.
const FLOWS: usize = 2048;
/// Packets in the `acl4k-flows` capture (replayed as often as time allows).
const FLOW_PACKETS: usize = 1 << 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Measuring rounds per untraced run.
const ROUNDS: usize = 48;
/// Cap on insert/remove pairs per update pass.
const MAX_UPDATE_PAIRS: usize = 4096;

/// One worker plus the feeding thread: the pool fits the two cores the
/// benchmark is sized for, and queue and chunk sizes are the defaults.
fn ingest_config() -> IngestConfig {
    IngestConfig {
        workers: 1,
        ..IngestConfig::default()
    }
}

/// What one replay workload serves and checks.
struct Plan {
    spec: &'static str,
    /// The captured headers, in replay order, and their expected rules.
    headers: Vec<Header>,
    want: Vec<Option<RuleId>>,
    /// Distinct headers that warm the cache before timing (flows only),
    /// with their expected rules; the core probe classifies these.
    flows: Option<(Vec<Header>, Vec<Option<RuleId>>)>,
    /// Lookups per timed group in the latency pass: 1, except where a
    /// lookup is too short (a cache hit, ~0.1 µs) for one clock read
    /// (~25 ns) to time it alone.
    group: usize,
}

pub fn search(args: &Args) -> Result<Outcome, String> {
    let rules = inputs::rules();
    let headers = inputs::trace(&rules, args.seed, SEARCH_PACKETS);
    let want = inputs::oracle(&rules, &headers)?;
    run(
        args,
        &rules,
        Plan {
            spec: "configurable-mbt",
            headers,
            want,
            flows: None,
            group: 1,
        },
    )
}

pub fn flows(args: &Args) -> Result<Outcome, String> {
    let rules = inputs::rules();
    let mut seen = HashSet::new();
    let flows: Vec<Header> = inputs::trace(&rules, args.seed, FLOWS * 2)
        .into_iter()
        .filter(|h| seen.insert(*h))
        .take(FLOWS)
        .collect();
    if flows.len() < FLOWS {
        return Err(format!("only {} distinct flows generated", flows.len()));
    }
    let flow_want = inputs::oracle(&rules, &flows)?;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xF10F);
    let order: Vec<usize> = (0..FLOW_PACKETS).map(|_| rng.gen_range(0..FLOWS)).collect();
    run(
        args,
        &rules,
        Plan {
            spec: "cached:inner=configurable-mbt,flows=8192",
            headers: order.iter().map(|&i| flows[i]).collect(),
            want: order.iter().map(|&i| flow_want[i]).collect(),
            flows: Some((flows, flow_want)),
            group: 16,
        },
    )
}

fn run(args: &Args, rules: &RuleSet, plan: Plan) -> Result<Outcome, String> {
    let pcap = TempPcap::write(&args.workload, args.seed, &plan.headers)?;
    let builder = EngineBuilder::from_spec(plan.spec).map_err(|e| format!("{}: {e}", plan.spec))?;
    let mut out = Outcome {
        spec: plan.spec.to_string(),
        ..Outcome::default()
    };
    if args.trace {
        traced(args, rules, &plan, &builder, pcap.path(), &mut out)?;
    } else {
        untraced(args, rules, &plan, &builder, pcap.path(), &mut out)?;
    }
    Ok(out)
}

/// Builds the engine and warms its cache with the flow set (flows
/// only). Returns the engine, the build time and the warm-up time.
fn prepare(
    builder: &EngineBuilder,
    rules: &RuleSet,
    plan: &Plan,
) -> Result<(Box<dyn PacketClassifier>, Duration, Duration), String> {
    let t = Instant::now();
    let mut engine = builder
        .build(rules)
        .map_err(|e| format!("{}: {e}", plan.spec))?;
    let built = t.elapsed();
    let t = Instant::now();
    if let Some((flows, _)) = &plan.flows {
        engine.classify_batch(flows, &mut Vec::new());
    }
    Ok((engine, built, t.elapsed()))
}

fn spawn(workers: Vec<Box<dyn BatchWorker>>) -> Result<(IngestPipeline, Duration), String> {
    let t = Instant::now();
    let pipe = IngestPipeline::from_workers(workers, ingest_config())
        .map_err(|e| format!("ingest pipeline: {e}"))?;
    Ok((pipe, t.elapsed()))
}

/// Runs the whole set-up (build, warm-up, pipeline spawn) `SETUP_REPS`
/// times and keeps the last pipeline. Returns it with each set-up's
/// time and each warm-up's time.
fn setups(
    builder: &EngineBuilder,
    rules: &RuleSet,
    plan: &Plan,
) -> Result<(IngestPipeline, Vec<f64>, Vec<f64>), String> {
    let (mut setup_s, mut warm_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(pipe) = kept.take() {
            IngestPipeline::shutdown(pipe);
        }
        let (engine, built, warmed) = prepare(builder, rules, plan)?;
        let (pipe, spawned) = spawn(vec![Box::new(engine)])?;
        kept = Some(pipe);
        setup_s.push((built + warmed + spawned).as_secs_f64());
        warm_s.push(warmed.as_secs_f64());
    }
    let pipe = kept.ok_or("no set-up ran")?;
    Ok((pipe, setup_s, warm_s))
}

/// Measures in `ROUNDS` rounds of replay and single-lookup latency.
/// Throughput is the median over all replay passes.
///
/// The latency percentiles are over each header's (flows: each group's)
/// fastest timing in the run. The machine's speed changes from moment to
/// moment: other tenants share its cores and caches, and their load only
/// ever slows a timing down, by up to 1.6x, for a share of the run that
/// differs from run to run. A header's least disturbed timing is what
/// repeats from run to run; the percentiles of whole passes (or rounds)
/// follow the share of the run that was slowed.
fn untraced(
    args: &Args,
    rules: &RuleSet,
    plan: &Plan,
    builder: &EngineBuilder,
    pcap: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut pipe, mut setup_s, _) = setups(builder, rules, plan)?;
    // Single lookups are timed on a second, identically prepared engine,
    // since the served one lives inside the pipeline.
    let (probe, _, _) = prepare(builder, rules, plan)?;

    let mut rates = Vec::new();
    let mut fastest = vec![f64::INFINITY; plan.headers.len() / plan.group];
    let (mut packets, mut lookups, mut latency_passes) = (0u64, 0u64, 0u64);
    let (mut replaying, mut timing) = (Duration::ZERO, Duration::ZERO);
    for round in 1..=ROUNDS {
        // Each kind of pass runs until its share of the rounds so far is
        // spent, in whole passes: a search pass (~0.6 s) outlasts one
        // round's share.
        let due = |share: f64| args.budget(share * round as f64 / ROUNDS as f64);
        if replaying < due(0.55) {
            let r = replay(&mut pipe, pcap, &plan.want, due(0.55) - replaying, None)?;
            replaying += r.wall;
            out.attempted += r.packets;
            out.failed += r.failed;
            packets += r.packets;
            rates.extend(r.pass_rates);
        }
        while timing < due(0.4) {
            let t = Instant::now();
            out.failed += latency_pass(probe.as_ref(), plan, &mut fastest);
            timing += t.elapsed();
            let timed = (fastest.len() * plan.group) as u64;
            out.attempted += timed;
            lookups += timed;
            latency_passes += 1;
        }
    }
    pipe.shutdown();

    let passes = rates.len() as u64;
    out.metric("throughput_mpps", median(&mut rates) / 1e6, passes);
    out.metric("lookup_p50_us", quantile(&mut fastest, 0.5), lookups);
    out.metric("lookup_p99_us", quantile(&mut fastest, 0.99), lookups);
    out.metric("setup_s", median(&mut setup_s), SETUP_REPS as u64);
    out.metric("hw_memory_mbits", probe.memory_bits() as f64 / 1e6, 1);
    out.report.push(format!(
        "{ROUNDS} rounds: {packets} packets replayed in {passes} passes, \
         {lookups} lookups timed in {latency_passes} passes"
    ));
    Ok(())
}

/// Times `engine.classify` once on every replayed header, in order, and
/// lowers each entry of `fastest` to its group's time where that is less.
/// Calls are timed in groups of `plan.group` back-to-back lookups, a
/// group's time being its duration divided by its size, in µs. Returns
/// the number of verdicts that disagree with the oracle.
fn latency_pass(engine: &dyn PacketClassifier, plan: &Plan, fastest: &mut [f64]) -> u64 {
    let mut failed = 0;
    for ((hs, ws), fastest) in plan
        .headers
        .chunks_exact(plan.group)
        .zip(plan.want.chunks_exact(plan.group))
        .zip(fastest)
    {
        let t = Instant::now();
        for (h, w) in hs.iter().zip(ws) {
            failed += u64::from(engine.classify(h).rule != *w);
        }
        *fastest = fastest.min(t.elapsed().as_secs_f64() * 1e6 / plan.group as f64);
    }
    failed
}

/// Totals over the replay passes of one pipeline.
#[derive(Debug, Default)]
struct Replay {
    packets: u64,
    passes: u64,
    wall: Duration,
    failed: u64,
    stats: LookupStats,
    /// Packets per second of each pass.
    pass_rates: Vec<f64>,
}

/// Tracing hooks of a traced replay: the span store and the slot that
/// tells the worker which replay span its chunks belong to.
struct Traced<'a> {
    tracer: &'a Tracer,
    root: &'a AtomicU64,
}

/// Replays the capture through `pipe` until `budget` is spent (at least
/// one pass), checking every verdict. Untraced passes go through
/// `IngestPipeline::run_source`; traced passes make the same calls one
/// by one, each inside a span.
fn replay(
    pipe: &mut IngestPipeline,
    pcap: &Path,
    want: &[Option<RuleId>],
    budget: Duration,
    traced: Option<&Traced>,
) -> Result<Replay, String> {
    let deadline = Instant::now() + budget;
    let mut r = Replay::default();
    let mut verdicts = Vec::new();
    loop {
        let t = Instant::now();
        let stats = match traced {
            None => {
                let mut src = PcapReader::open(pcap).map_err(|e| format!("pcap: {e}"))?;
                pipe.run_source(&mut src, &mut verdicts)
                    .map_err(|e| format!("replay: {e}"))?
            }
            Some(tr) => traced_pass(pipe, pcap, &mut verdicts, tr)?,
        };
        let dt = t.elapsed();
        r.wall += dt;
        r.pass_rates.push(verdicts.len() as f64 / dt.as_secs_f64());
        r.packets += verdicts.len() as u64;
        r.passes += 1;
        r.failed += inputs::mismatches(&verdicts, want);
        r.stats = r.stats + stats;
        if Instant::now() >= deadline {
            return Ok(r);
        }
    }
}

fn traced_pass(
    pipe: &mut IngestPipeline,
    pcap: &Path,
    verdicts: &mut Vec<Verdict>,
    tr: &Traced,
) -> Result<LookupStats, String> {
    let root = tr.tracer.open("replay", 0);
    let id = root.id();
    tr.root.store(id, Ordering::Relaxed);
    let mut src = tr
        .tracer
        .span("classbench.pcap", id, || PcapReader::open(pcap))
        .map_err(|e| format!("pcap: {e}"))?;
    loop {
        let event = tr
            .tracer
            .span("classbench.pcap", id, || src.next_event())
            .map_err(|e| format!("pcap: {e}"))?;
        match event {
            None => break,
            Some(TraceEvent::Headers(headers)) => {
                tr.tracer.span("pipeline.feed", id, || pipe.feed(&headers));
            }
            Some(_) => return Err("the capture holds update events".to_string()),
        }
    }
    verdicts.clear();
    let stats = tr
        .tracer
        .span("pipeline.drain", id, || pipe.drain(verdicts));
    tr.tracer.close(root);
    Ok(stats)
}

/// A pipeline worker that records a span around each
/// `BatchWorker::process` call of the engine it wraps.
struct TracedWorker {
    engine: Box<dyn PacketClassifier>,
    tracer: Arc<Tracer>,
    root: Arc<AtomicU64>,
}

impl BatchWorker for TracedWorker {
    fn process(&mut self, headers: &[Header], out: &mut Vec<Verdict>) -> LookupStats {
        // The feeder publishes the root before it feeds, and the queue
        // hand-off orders that store before this load.
        let root = self.root.load(Ordering::Relaxed);
        let engine = &mut self.engine;
        self.tracer
            .span("engine.process", root, || engine.process(headers, out))
    }
}

fn traced(
    args: &Args,
    rules: &RuleSet,
    plan: &Plan,
    builder: &EngineBuilder,
    pcap: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = Arc::new(Tracer::default());
    let root = Arc::new(AtomicU64::new(0));
    let (mut plain, _, mut warm_s) = setups(builder, rules, plan)?;
    let (traced_engine, _, _) = prepare(builder, rules, plan)?;
    let worker = TracedWorker {
        engine: traced_engine,
        tracer: Arc::clone(&tracer),
        root: Arc::clone(&root),
    };
    let (mut traced_pipe, _) = spawn(vec![Box::new(worker)])?;
    let hooks = Traced {
        tracer: &tracer,
        root: &root,
    };

    // Alternate untraced and traced passes, so the tracing overhead is
    // measured under the same conditions as the traced numbers.
    let deadline = Instant::now() + args.budget(0.45);
    let (mut untraced_r, mut traced_r) = (Replay::default(), Replay::default());
    while Instant::now() < deadline || traced_r.passes == 0 {
        let a = replay(&mut plain, pcap, &plan.want, Duration::ZERO, None)?;
        let b = replay(
            &mut traced_pipe,
            pcap,
            &plan.want,
            Duration::ZERO,
            Some(&hooks),
        )?;
        for (total, pass) in [(&mut untraced_r, a), (&mut traced_r, b)] {
            total.packets += pass.packets;
            total.passes += pass.passes;
            total.wall += pass.wall;
            total.failed += pass.failed;
            total.stats = total.stats + pass.stats;
        }
    }
    plain.shutdown();
    traced_pipe.shutdown();
    out.attempted += untraced_r.packets + traced_r.packets;
    out.failed += untraced_r.failed + traced_r.failed;

    let spans = tracer.spans();
    let packets = traced_r.packets.max(1) as f64;
    let replay_ns = spans::total_ns(&spans, "replay") as f64;
    let process_ns = spans::total_ns(&spans, "engine.process") as f64;
    let (covered, _) = spans::coverage(&spans, "replay", &["classbench.pcap", "engine.process"]);
    let (all_covered, all_root) = spans::coverage(&spans, "replay", &[]);
    let cached = plan.flows.is_some();
    let n = traced_r.packets;
    let untraced_ns = untraced_r.wall.as_secs_f64() / untraced_r.packets.max(1) as f64;
    let traced_ns = traced_r.wall.as_secs_f64() / packets;
    let stats = untraced_r.stats + traced_r.stats;
    out.metric(
        "classbench.pcap_ns_per_pkt",
        spans::total_ns(&spans, "classbench.pcap") as f64 / packets,
        n,
    );
    out.metric(
        "pipeline.overhead_ns_per_pkt",
        (replay_ns - covered as f64) / packets,
        n,
    );
    out.metric(
        "pipeline.feed_blocked_frac",
        spans::total_ns(&spans, "pipeline.feed") as f64 / replay_ns,
        n,
    );
    out.metric("pipeline.worker_busy_frac", process_ns / replay_ns, n);
    out.metric(
        "cache.ns_per_pkt",
        if cached { process_ns / packets } else { 0.0 },
        n,
    );
    out.metric("cache.hit_rate", stats.cache_hit_rate(), stats.packets);
    out.metric("cache.misses", stats.cache_misses as f64, stats.packets);
    out.metric(
        "cache.warm_s",
        if cached { median(&mut warm_s) } else { 0.0 },
        SETUP_REPS as u64,
    );
    out.metric(
        "trace.coverage_frac",
        all_covered as f64 / all_root.max(1) as f64,
        n,
    );
    out.metric("trace.overhead_frac", traced_ns / untraced_ns - 1.0, n);

    let (headers, want) = match &plan.flows {
        Some((flows, want)) => (flows.as_slice(), want.as_slice()),
        None => (plan.headers.as_slice(), plan.want.as_slice()),
    };
    core_probe::phases(out, &tracer, rules, headers, want, args.budget(0.2))?;
    let pool = inputs::churn_pool(args.seed);
    let ops: Vec<Op> = core_probe::pairs(pool.len(), MAX_UPDATE_PAIRS);
    core_probe::updates(out, &tracer, rules, &pool, &ops, args.budget(0.05))?;
    if cached {
        for name in [
            "snapshot.update_busy_frac",
            "snapshot.reader_slowdown",
            "churn.writer_late_us_p90",
        ] {
            out.metric(name, 0.0, 0);
        }
    } else {
        churn::probe(out, &tracer, rules, headers, want, &pool, args.budget(0.2))?;
    }

    report_layers(out, &tracer, &args.workload)?;
    out.report.push(format!(
        "tracing: {} traced and {} untraced packets, overhead {:+.2}%, spans cover {:.1}% of replay",
        traced_r.packets,
        untraced_r.packets,
        (traced_ns / untraced_ns - 1.0) * 100.0,
        all_covered as f64 / all_root.max(1) as f64 * 100.0
    ));
    Ok(())
}

/// Adds each layer's span count and self time to the report and writes
/// every span to `.perfbench/spans-<workload>.jsonl`.
fn report_layers(out: &mut Outcome, tracer: &Tracer, workload: &str) -> Result<(), String> {
    let spans = tracer.spans();
    for (name, t) in spans::layer_times(&spans) {
        out.report.push(format!(
            "layer {name:<26} spans {:>9}  total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let path = Path::new(inputs::OUT_DIR).join(format!("spans-{workload}.jsonl"));
    spans::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.report
        .push(format!("spans written to {}", path.display()));
    Ok(())
}
