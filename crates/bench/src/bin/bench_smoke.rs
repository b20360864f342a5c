//! CI bench-smoke: a fast, deterministic throughput comparison across
//! the engine registry's interesting configurations — the unsharded
//! inner engine against `sharded` at increasing shard counts, a
//! non-sharded backend driven through the `IngestPipeline` worker pool
//! at increasing worker counts, the same workload replayed from a pcap
//! capture (`replay:*` rows, covering the reader on every push),
//! scripted churn scenarios (`scenario:*` rows), and concurrent serving
//! under churn (`concurrent:*` rows: snapshot readers vs a mutexed
//! stop-the-world baseline whose reps are time-bounded, see
//! `docs/concurrency.md`) — that also
//! cross-checks every configuration's verdicts against the linear
//! oracle before timing it (a benchmark of a wrong classifier is worse
//! than no benchmark).
//!
//! Writes the measurements as `BENCH_smoke.json` (override the path
//! with `SPC_BENCH_OUT`) so CI can upload the perf trajectory as a
//! workflow artifact, and prints the same numbers as a table. Scale
//! with `SPC_SCALE` (rule count, default 4096).
//!
//! Run: `cargo run --release -p spc-bench --bin bench_smoke`

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use spc_bench::{print_table, ruleset, scale_or, trace, traffic, Row, ToJson};
use spc_classbench::{
    write_pcap, FilterKind, PcapReader, RuleSetGenerator, ScenarioScript, TraceGenerator,
    TraceSource,
};
use spc_engine::{
    build_engine, run_scenario, EngineBuilder, EngineSource, IngestConfig, IngestPipeline,
    PacketClassifier, Verdict,
};
use spc_types::{Header, Priority, Rule, RuleId, RuleSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Timed repetitions per spec; the best (lowest-noise) rep is reported.
const REPS: usize = 3;
const TRACE_LEN: usize = 4096;
/// Wall-clock budget of one rep of the `concurrent:*` mutex arm. The
/// churn writer can re-take an unfair `Mutex` almost every time, so a
/// rep that had to classify the whole trace could starve for minutes;
/// a rep instead stops at this budget and reports headers classified
/// per second of elapsed time.
const LOCKED_REP_BUDGET: Duration = Duration::from_millis(500);

struct Record {
    experiment: &'static str,
    filter_kind: &'static str,
    rules: usize,
    trace_len: usize,
    reps: usize,
    rows: Vec<SpecRec>,
    scenarios: Vec<ScenarioRec>,
    cached: Vec<CachedRec>,
    concurrent: Vec<ConcurrentRec>,
    optimized: Vec<OptimizedRec>,
}

struct SpecRec {
    spec: String,
    engine: String,
    rules: usize,
    memory_kbits: f64,
    build_ms: f64,
    batch_melems_per_s: f64,
    avg_mem_reads: f64,
    hit_rate: f64,
    oracle_agrees: bool,
}

/// One scripted churn measurement: a `ScenarioScript` driven through
/// `run_scenario` on an updatable spec, oracle-checked against a linear
/// engine built over the post-churn rule set.
struct ScenarioRec {
    spec: String,
    rules: usize,
    ops: u64,
    kops_per_s: f64,
    avg_update_cycles: f64,
    oracle_agrees: bool,
}

/// One concurrent-serving measurement: a reader classifies the probe
/// trace while a background thread replays net-zero churn — a snapshot
/// reader against `snapshot:inner=(<inner>)` next to the stop-the-world
/// arrangement (the same inner behind a `Mutex`, lock per classify and
/// per update). Each mutex-arm rep stops at [`LOCKED_REP_BUDGET`].
/// Oracle-checked after the churn settles: net-zero churn must land the
/// reader exactly back on the base-set verdicts.
struct ConcurrentRec {
    spec: String,
    churn_ops: u64,
    melems_per_s: f64,
    locked_melems_per_s: f64,
    locked_churn_ops: u64,
    speedup: f64,
    oracle_agrees: bool,
}

/// One optimizer measurement: the semantics-preserving pass pipeline
/// (`spc-analyze`'s `optimize`, id-preserving configuration — the one
/// `optimize=validated` wires into every backend) ahead of a large
/// build. Rules elided, build memory and per-packet `mem_reads` for the
/// optimized engine next to the same backend built raw, the checker's
/// validation verdict, and an oracle check against linear over the
/// *original* set — the optimized engine answers in original id space
/// by contract, so the comparison is exact, id for id.
struct OptimizedRec {
    spec: String,
    filter_kind: &'static str,
    rules_before: usize,
    rules_removed: usize,
    optimize_ms: f64,
    raw_memory_kbits: f64,
    memory_kbits: f64,
    raw_avg_mem_reads: f64,
    avg_mem_reads: f64,
    validation: String,
    oracle_agrees: bool,
}

/// One flow-cache measurement: a `cached:*` spec on a locality-shaped
/// trace, timed next to its own *uncached* inner engine on the same
/// trace — the speedup column is the cache's whole value proposition.
struct CachedRec {
    spec: String,
    locality: f64,
    flows: usize,
    cache_hit_rate: f64,
    batch_melems_per_s: f64,
    inner_melems_per_s: f64,
    speedup: f64,
    oracle_agrees: bool,
}

spc_bench::json_object!(Record {
    experiment,
    filter_kind,
    rules,
    trace_len,
    reps,
    rows,
    scenarios,
    cached,
    concurrent,
    optimized
});
spc_bench::json_object!(OptimizedRec {
    spec,
    filter_kind,
    rules_before,
    rules_removed,
    optimize_ms,
    raw_memory_kbits,
    memory_kbits,
    raw_avg_mem_reads,
    avg_mem_reads,
    validation,
    oracle_agrees
});
spc_bench::json_object!(ConcurrentRec {
    spec,
    churn_ops,
    melems_per_s,
    locked_melems_per_s,
    locked_churn_ops,
    speedup,
    oracle_agrees
});
spc_bench::json_object!(CachedRec {
    spec,
    locality,
    flows,
    cache_hit_rate,
    batch_melems_per_s,
    inner_melems_per_s,
    speedup,
    oracle_agrees
});
spc_bench::json_object!(ScenarioRec {
    spec,
    rules,
    ops,
    kops_per_s,
    avg_update_cycles,
    oracle_agrees
});
spc_bench::json_object!(SpecRec {
    spec,
    engine,
    rules,
    memory_kbits,
    build_ms,
    batch_melems_per_s,
    avg_mem_reads,
    hit_rate,
    oracle_agrees
});

/// Verdict agreement with the oracle vector, field by field.
fn agrees(got: &[Verdict], want: &[Verdict]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.rule == w.rule && g.priority == w.priority && g.action == w.action)
}

/// Drives `spec` through the scripted churn workload — bursty inserts
/// from a pool interleaved with classify batches and FIFO removes —
/// then cross-checks the post-churn engine against a linear oracle
/// built over the rules that are actually live (global ids mapped
/// through `live`).
fn scenario_row(
    spec: &str,
    script: &ScenarioScript,
    base: &RuleSet,
    pool: &[Rule],
    probe: &[Header],
) -> ScenarioRec {
    let mut engine = build_engine(spec, base).unwrap_or_else(|e| panic!("{spec} must build: {e}"));
    assert!(engine.supports_updates(), "{spec} must be updatable");
    let mut source = script
        .source(&traffic(), base, pool)
        .expect("scenario binds")
        .with_chunk(256);
    let mut verdicts = Vec::new();
    let t0 = Instant::now();
    let report = run_scenario(engine.as_mut(), &mut source, &mut verdicts)
        .unwrap_or_else(|e| panic!("{spec}: scenario failed: {e}"));
    let elapsed = t0.elapsed().as_secs_f64();
    let ops = report.lookup.packets
        + report.inserts
        + report.duplicates
        + report.removes
        + report.skipped_removes;

    let mut live: Vec<(RuleId, Rule)> = base.iter().map(|(id, r)| (id, *r)).collect();
    live.extend(report.live_inserts.iter().copied());
    let final_rules: RuleSet = live.iter().map(|&(_, r)| r).collect();
    let oracle = build_engine("linear", &final_rules).expect("linear always builds");
    let oracle_agrees = probe.iter().all(|h| {
        let want = oracle.classify(h);
        let got = engine.classify(h);
        got.rule == want.rule.map(|pos| live[pos.0 as usize].0)
            && got.priority == want.priority
            && got.action == want.action
    });

    ScenarioRec {
        spec: spec.to_string(),
        rules: engine.rules(),
        ops,
        kops_per_s: ops as f64 / elapsed / 1e3,
        avg_update_cycles: report.update_cycles() as f64 / report.update_ops().max(1) as f64,
        oracle_agrees,
    }
}

/// Measures classify throughput of one reader *during* sustained
/// net-zero churn (insert a foreign pool rule, remove it again, loop),
/// for the snapshot arrangement and the mutex stop-the-world baseline
/// over the same inner spec. Correctness under concurrency is proven by
/// `tests/snapshot_consistency.rs`; here the post-churn verdicts are
/// oracle-checked (net-zero churn must land back on the base set).
fn concurrent_row(
    inner: &str,
    base: &RuleSet,
    t: &[Header],
    want: &[Verdict],
    pool: &[Rule],
) -> ConcurrentRec {
    let spec = format!("snapshot:inner=({inner})");

    // Arm 1: snapshot-swap — the reader never blocks.
    let mut engine = EngineBuilder::from_spec(&spec)
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
        .build_snapshot(base)
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    let mut reader = engine.reader();
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let mut best = f64::INFINITY;
    thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                // Insert-then-remove pairs keep the churn net zero; a
                // pool rule colliding with the base set is skipped as a
                // Duplicate, identically for both arms.
                if let Ok(id) = engine.insert(pool[i % pool.len()]) {
                    engine.remove(id).expect("just inserted");
                    ops.fetch_add(2, Ordering::Relaxed);
                }
                i += 1;
                thread::yield_now();
            }
        });
        for rep in 0..=REPS {
            let t1 = Instant::now();
            let mut hits = 0u64;
            for h in t {
                hits += u64::from(reader.classify(h).rule.is_some());
            }
            std::hint::black_box(hits);
            if rep > 0 {
                best = best.min(t1.elapsed().as_secs_f64());
            }
        }
        stop.store(true, Ordering::Release);
    });
    let melems = t.len() as f64 / best / 1e6;
    let out: Vec<Verdict> = t.iter().map(|h| reader.classify(h)).collect();
    let mut oracle_agrees = agrees(&out, want);

    // Arm 2: the same inner behind a mutex — lock per classify and per
    // update, so the reader stops for every §V.A op the writer runs.
    let locked: Mutex<Box<dyn PacketClassifier>> =
        Mutex::new(build_engine(inner, base).unwrap_or_else(|e| panic!("{inner} must build: {e}")));
    let locked_stop = AtomicBool::new(false);
    let locked_ops = AtomicU64::new(0);
    let mut locked_best = 0.0f64; // headers per second
    thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0usize;
            while !locked_stop.load(Ordering::Acquire) {
                let inserted = locked.lock().unwrap().insert(pool[i % pool.len()]);
                if let Ok(id) = inserted {
                    locked.lock().unwrap().remove(id).expect("just inserted");
                    locked_ops.fetch_add(2, Ordering::Relaxed);
                }
                i += 1;
                thread::yield_now();
            }
        });
        for rep in 0..=REPS {
            let t1 = Instant::now();
            let mut hits = 0u64;
            let mut done = 0usize;
            for h in t {
                hits += u64::from(locked.lock().unwrap().classify(h).rule.is_some());
                done += 1;
                if t1.elapsed() >= LOCKED_REP_BUDGET {
                    break;
                }
            }
            std::hint::black_box(hits);
            if rep > 0 {
                locked_best = locked_best.max(done as f64 / t1.elapsed().as_secs_f64());
            }
        }
        locked_stop.store(true, Ordering::Release);
    });
    let locked_melems = locked_best / 1e6;
    let locked_out: Vec<Verdict> = {
        let guard = locked.lock().unwrap();
        t.iter().map(|h| guard.classify(h)).collect()
    };
    oracle_agrees &= agrees(&locked_out, want);

    ConcurrentRec {
        spec,
        churn_ops: ops.into_inner(),
        melems_per_s: melems,
        locked_melems_per_s: locked_melems,
        locked_churn_ops: locked_ops.into_inner(),
        speedup: melems / locked_melems,
        oracle_agrees,
    }
}

fn main() {
    let n = scale_or(4096);
    let rules = ruleset(FilterKind::Acl, n);
    let t = trace(&rules, TRACE_LEN);
    eprintln!("bench_smoke: {} rules, {} headers", rules.len(), t.len());

    let oracle = build_engine("linear", &rules).expect("linear always builds");
    let want: Vec<Verdict> = t.iter().map(|h| oracle.classify(h)).collect();

    let specs = [
        "linear".to_string(),
        "configurable-bst".to_string(),
        // The update-first backends, next to the architecture they frame.
        "tss".to_string(),
        "tcam".to_string(),
        "sharded:inner=configurable-bst,shards=2,strategy=hash".to_string(),
        "sharded:inner=configurable-bst,shards=4,strategy=hash".to_string(),
        "sharded:inner=configurable-bst,shards=8,strategy=hash".to_string(),
        "sharded:inner=configurable-bst,shards=8,strategy=prio".to_string(),
        "sharded:inner=linear,shards=8,strategy=prio".to_string(),
    ];

    let mut rows = Vec::new();
    let mut recs = Vec::new();
    let mut all_agree = true;
    for spec in &specs {
        let t0 = Instant::now();
        let mut engine =
            build_engine(spec, &rules).unwrap_or_else(|e| panic!("{spec} must build: {e}"));
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut out = Vec::new();
        let mut stats = engine.classify_batch(&t, &mut out);
        let oracle_agrees = agrees(&out, &want);
        all_agree &= oracle_agrees;

        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t1 = Instant::now();
            stats = engine.classify_batch(&t, &mut out);
            best = best.min(t1.elapsed().as_secs_f64());
        }
        let melems = t.len() as f64 / best / 1e6;

        rows.push(Row {
            name: spec.clone(),
            values: vec![
                format!("{melems:.2}"),
                format!("{:.2}", stats.avg_mem_reads()),
                format!("{:.0}", engine.memory_bits() as f64 / 1e3),
                format!("{build_ms:.0}"),
                if oracle_agrees { "yes" } else { "NO" }.to_string(),
            ],
        });
        recs.push(SpecRec {
            spec: spec.clone(),
            engine: engine.name().to_string(),
            rules: engine.rules(),
            memory_kbits: engine.memory_bits() as f64 / 1e3,
            build_ms,
            batch_melems_per_s: melems,
            avg_mem_reads: stats.avg_mem_reads(),
            hit_rate: stats.hit_rate(),
            oracle_agrees,
        });
    }

    // The same trace through the generalised ingest pipeline: one
    // non-sharded backend, replicated per worker — scaling with worker
    // count lands in the artifact next to the sharded numbers.
    const INGEST_SPEC: &str = "configurable-bst";
    let builder = EngineBuilder::from_spec(INGEST_SPEC).expect("valid ingest spec");
    for workers in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let source =
            EngineSource::replicated(&builder, &rules, workers).expect("replicas must build");
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers,
                queue_chunks: 2 * workers,
                chunk: 1024,
            },
        )
        .expect("valid pipeline config");
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut out = Vec::new();
        let mut stats = pipe.run_batch(&t, &mut out);
        let oracle_agrees = agrees(&out, &want);
        all_agree &= oracle_agrees;

        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t1 = Instant::now();
            stats = pipe.run_batch(&t, &mut out);
            best = best.min(t1.elapsed().as_secs_f64());
        }
        let melems = t.len() as f64 / best / 1e6;

        let spec = format!("ingest:{INGEST_SPEC},workers={workers}");
        rows.push(Row {
            name: spec.clone(),
            values: vec![
                format!("{melems:.2}"),
                format!("{:.2}", stats.avg_mem_reads()),
                "-".to_string(),
                format!("{build_ms:.0}"),
                if oracle_agrees { "yes" } else { "NO" }.to_string(),
            ],
        });
        recs.push(SpecRec {
            spec,
            engine: format!("IngestPipeline({INGEST_SPEC} x{workers})"),
            rules: rules.len(),
            memory_kbits: 0.0, // replicas share nothing; memory is workers x backend
            build_ms,
            batch_melems_per_s: melems,
            avg_mem_reads: stats.avg_mem_reads(),
            hit_rate: stats.hit_rate(),
            oracle_agrees,
        });
    }

    // Pcap replay: write the evaluation trace as a temporary capture,
    // read it back (round-trip checked bit for bit), classify the
    // replayed workload (`replay:<spec>`), and stream the capture
    // straight into the ingest pipeline (`replay:ingest,...`) — so the
    // reader and the `run_source` path are exercised on every CI push.
    let pcap_path =
        std::env::temp_dir().join(format!("spc_bench_smoke_{}.pcap", std::process::id()));
    write_pcap(&pcap_path, t.iter().copied()).expect("write temp pcap");
    let replayed = PcapReader::open(&pcap_path)
        .expect("reopen temp pcap")
        .collect_headers()
        .expect("well-formed capture");
    assert_eq!(replayed, t, "pcap round-trip must reproduce the trace");
    for spec in ["linear", "configurable-bst"] {
        let t0 = Instant::now();
        let mut engine =
            build_engine(spec, &rules).unwrap_or_else(|e| panic!("{spec} must build: {e}"));
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut out = Vec::new();
        let mut stats = engine.classify_batch(&replayed, &mut out);
        let oracle_agrees = agrees(&out, &want);
        all_agree &= oracle_agrees;
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t1 = Instant::now();
            stats = engine.classify_batch(&replayed, &mut out);
            best = best.min(t1.elapsed().as_secs_f64());
        }
        let melems = replayed.len() as f64 / best / 1e6;
        let name = format!("replay:{spec}");
        rows.push(Row {
            name: name.clone(),
            values: vec![
                format!("{melems:.2}"),
                format!("{:.2}", stats.avg_mem_reads()),
                format!("{:.0}", engine.memory_bits() as f64 / 1e3),
                format!("{build_ms:.0}"),
                if oracle_agrees { "yes" } else { "NO" }.to_string(),
            ],
        });
        recs.push(SpecRec {
            spec: name,
            engine: engine.name().to_string(),
            rules: engine.rules(),
            memory_kbits: engine.memory_bits() as f64 / 1e3,
            build_ms,
            batch_melems_per_s: melems,
            avg_mem_reads: stats.avg_mem_reads(),
            hit_rate: stats.hit_rate(),
            oracle_agrees,
        });
    }
    {
        // Streaming replay: a fresh reader per rep, so the measured
        // number includes pcap parsing — captured traffic to verdicts.
        const WORKERS: usize = 2;
        let t0 = Instant::now();
        let source = EngineSource::replicated(&builder, &rules, WORKERS).expect("replicas build");
        let mut pipe = IngestPipeline::spawn(
            source,
            IngestConfig {
                workers: WORKERS,
                queue_chunks: 2 * WORKERS,
                chunk: 1024,
            },
        )
        .expect("valid pipeline config");
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut out = Vec::new();
        let mut stats = spc_engine::LookupStats::default();
        let mut best = f64::INFINITY;
        for rep in 0..=REPS {
            let mut reader = PcapReader::open(&pcap_path).expect("reopen temp pcap");
            let t1 = Instant::now();
            stats = pipe
                .run_source(&mut reader, &mut out)
                .expect("classify-only capture");
            if rep > 0 {
                best = best.min(t1.elapsed().as_secs_f64());
            }
        }
        let oracle_agrees = agrees(&out, &want);
        all_agree &= oracle_agrees;
        let melems = t.len() as f64 / best / 1e6;
        let name = format!("replay:ingest:{INGEST_SPEC},workers={WORKERS}");
        rows.push(Row {
            name: name.clone(),
            values: vec![
                format!("{melems:.2}"),
                format!("{:.2}", stats.avg_mem_reads()),
                "-".to_string(),
                format!("{build_ms:.0}"),
                if oracle_agrees { "yes" } else { "NO" }.to_string(),
            ],
        });
        recs.push(SpecRec {
            spec: name,
            engine: format!("PcapReader -> IngestPipeline({INGEST_SPEC} x{WORKERS})"),
            rules: rules.len(),
            memory_kbits: 0.0,
            build_ms,
            batch_melems_per_s: melems,
            avg_mem_reads: stats.avg_mem_reads(),
            hit_rate: stats.hit_rate(),
            oracle_agrees,
        });
    }
    let _ = std::fs::remove_file(&pcap_path);

    // Flow cache: `cached:*` over a dedicated 8k-rule ACL set, swept
    // across flow-locality x cache size, each row timed against its own
    // *uncached* inner engine on the identical trace and oracle-checked
    // against linear. Hit rate and speedup land in the artifact so the
    // cache's perf trajectory is tracked per push.
    const CACHE_INNER: &str = "configurable-bst";
    let cache_rules = ruleset(FilterKind::Acl, scale_or(8192));
    let cache_oracle = build_engine("linear", &cache_rules).expect("linear always builds");
    let mut cached_rows = Vec::new();
    let mut cached_recs = Vec::new();
    for locality in [0.5, 0.9, 0.99] {
        let ctrace = TraceGenerator::new()
            .seed(spc_bench::SEED_TRACE)
            .match_fraction(0.9)
            .locality(locality)
            .generate(&cache_rules, TRACE_LEN);
        let cwant: Vec<Verdict> = ctrace.iter().map(|h| cache_oracle.classify(h)).collect();

        let mut inner = build_engine(CACHE_INNER, &cache_rules).expect("inner must build");
        let mut out = Vec::new();
        inner.classify_batch(&ctrace, &mut out);
        let mut inner_best = f64::INFINITY;
        for _ in 0..REPS {
            let t1 = Instant::now();
            inner.classify_batch(&ctrace, &mut out);
            inner_best = inner_best.min(t1.elapsed().as_secs_f64());
        }
        let inner_melems = ctrace.len() as f64 / inner_best / 1e6;

        for flows in [1024usize, 8192] {
            let spec = format!("cached:inner={CACHE_INNER},flows={flows}");
            let mut engine =
                build_engine(&spec, &cache_rules).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let mut stats = engine.classify_batch(&ctrace, &mut out);
            let oracle_agrees = agrees(&out, &cwant);
            all_agree &= oracle_agrees;
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let t1 = Instant::now();
                stats = engine.classify_batch(&ctrace, &mut out);
                best = best.min(t1.elapsed().as_secs_f64());
            }
            let melems = ctrace.len() as f64 / best / 1e6;
            let rec = CachedRec {
                spec: spec.clone(),
                locality,
                flows,
                cache_hit_rate: stats.cache_hit_rate(),
                batch_melems_per_s: melems,
                inner_melems_per_s: inner_melems,
                speedup: melems / inner_melems,
                oracle_agrees,
            };
            cached_rows.push(Row {
                name: format!("{spec} @ loc={locality}"),
                values: vec![
                    format!("{melems:.2}"),
                    format!("{inner_melems:.2}"),
                    format!("{:.2}x", rec.speedup),
                    format!("{:.3}", rec.cache_hit_rate),
                    if oracle_agrees { "yes" } else { "NO" }.to_string(),
                ],
            });
            cached_recs.push(rec);
        }
    }

    // Optimizer: the semantics-preserving pass pipeline ahead of a
    // large build, per ClassBench family. The raw backend and
    // `optimize=validated` over the same original set classify the same
    // trace; both verdict vectors are checked against the linear oracle
    // over the ORIGINAL set — the optimized engine must answer in
    // original id space, so the oracle comparison is exact, id for id.
    const OPT_INNER: &str = "configurable-bst";
    let mut optimized_rows = Vec::new();
    let mut optimized_recs = Vec::new();
    for (fk, fk_name) in [
        (FilterKind::Acl, "acl"),
        (FilterKind::Fw, "fw"),
        (FilterKind::Ipc, "ipc"),
    ] {
        let orules = ruleset(fk, scale_or(8192));
        let otrace = trace(&orules, TRACE_LEN);
        let ooracle = build_engine("linear", &orules).expect("linear always builds");
        let owant: Vec<Verdict> = otrace.iter().map(|h| ooracle.classify(h)).collect();

        // The pass pipeline itself, timed: the id-preserving
        // configuration is exactly what `optimize=validated` runs.
        let t0 = Instant::now();
        let opt = spc_analyze::optimize(&orules, &spc_analyze::OptimizeConfig::id_preserving())
            .unwrap_or_else(|e| panic!("optimizer must validate on {fk_name}: {e}"));
        let optimize_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut out = Vec::new();
        let mut raw =
            build_engine(OPT_INNER, &orules).unwrap_or_else(|e| panic!("{OPT_INNER}: {e}"));
        let raw_stats = raw.classify_batch(&otrace, &mut out);
        all_agree &= agrees(&out, &owant);
        let raw_memory_kbits = raw.memory_bits() as f64 / 1e3;

        let spec = format!("{OPT_INNER}:optimize=validated");
        let mut engine = build_engine(&spec, &orules).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let stats = engine.classify_batch(&otrace, &mut out);
        let oracle_agrees = agrees(&out, &owant);
        all_agree &= oracle_agrees;

        let rec = OptimizedRec {
            spec: spec.clone(),
            filter_kind: fk_name,
            rules_before: orules.len(),
            rules_removed: opt.removed_rules(),
            optimize_ms,
            raw_memory_kbits,
            memory_kbits: engine.memory_bits() as f64 / 1e3,
            raw_avg_mem_reads: raw_stats.avg_mem_reads(),
            avg_mem_reads: stats.avg_mem_reads(),
            validation: opt.validation.to_string(),
            oracle_agrees,
        };
        optimized_rows.push(Row {
            name: format!("optimized:{fk_name}:{spec}"),
            values: vec![
                format!("{}", rec.rules_removed),
                format!("{optimize_ms:.0}"),
                format!("{:.0} -> {:.0}", rec.raw_memory_kbits, rec.memory_kbits),
                format!("{:.2} -> {:.2}", rec.raw_avg_mem_reads, rec.avg_mem_reads),
                if rec.oracle_agrees { "yes" } else { "NO" }.to_string(),
            ],
        });
        optimized_recs.push(rec);
    }

    // Scripted churn: the §V.A fast-update path as a ScenarioScript —
    // insert bursts from a foreign pool, classify batches, FIFO
    // removes — sharded at {1, 2, 8} shards (both strategies) against
    // the unsharded configurable inner, every row oracle-checked over
    // its post-churn rule set.
    let churn_pool: Vec<Rule> = RuleSetGenerator::new(FilterKind::Fw, 192)
        .seed(spc_bench::SEED_RULES ^ 0x77)
        .generate()
        .rules()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = *r;
            // Fresh priorities past the base set keep the workload
            // identical for every spec (and exercise band appends).
            r.priority = Priority(1_000_000 + i as u32);
            r
        })
        .collect();
    let script = ScenarioScript::parse(
        "repeat 24 { insert 8; classify 128; remove 4 }", // 192 inserts, half survive
    )
    .expect("valid churn script");
    let scenario_specs = [
        "configurable-bst".to_string(),
        "sharded:inner=configurable-bst,shards=1,strategy=prio".to_string(),
        "sharded:inner=configurable-bst,shards=2,strategy=prio".to_string(),
        "sharded:inner=configurable-bst,shards=8,strategy=prio".to_string(),
        "sharded:inner=configurable-bst,shards=2,strategy=hash".to_string(),
        "sharded:inner=configurable-bst,shards=8,strategy=hash".to_string(),
        // Update-first backends under the same scripted churn, so the
        // §V.A numbers sit next to a TSS and a TCAM in the artifact.
        "tss".to_string(),
        "tcam".to_string(),
        "sharded:inner=tss,shards=2,strategy=prio".to_string(),
    ];
    let mut scenario_rows = Vec::new();
    let mut scenario_recs = Vec::new();
    for spec in &scenario_specs {
        let rec = scenario_row(spec, &script, &rules, &churn_pool, &t);
        all_agree &= rec.oracle_agrees;
        scenario_rows.push(Row {
            name: format!("scenario:{spec}"),
            values: vec![
                format!("{:.1}", rec.kops_per_s),
                format!("{:.1}", rec.avg_update_cycles),
                format!("{}", rec.rules),
                if rec.oracle_agrees { "yes" } else { "NO" }.to_string(),
            ],
        });
        scenario_recs.push(rec);
    }

    // Concurrent serving: one reader's classify throughput *during*
    // net-zero churn — snapshot readers (never block) vs the same inner
    // behind a mutex (stop-the-world). The concurrency-oracle tier
    // (tests/snapshot_consistency.rs) proves the correctness side; these
    // rows track the throughput side per push. On a single-core runner
    // both arms pay the churn thread's CPU, so the speedup column is
    // informative, not asserted.
    let mut concurrent_rows = Vec::new();
    let mut concurrent_recs = Vec::new();
    for inner in [
        "configurable-bst",
        "sharded:inner=configurable-bst,shards=4,strategy=prio",
    ] {
        let rec = concurrent_row(inner, &rules, &t, &want, &churn_pool);
        all_agree &= rec.oracle_agrees;
        concurrent_rows.push(Row {
            name: format!("concurrent:{}", rec.spec),
            values: vec![
                format!("{:.2}", rec.melems_per_s),
                format!("{:.4}", rec.locked_melems_per_s),
                format!("{:.2}x", rec.speedup),
                format!("{}", rec.churn_ops),
                format!("{}", rec.locked_churn_ops),
                if rec.oracle_agrees { "yes" } else { "NO" }.to_string(),
            ],
        });
        concurrent_recs.push(rec);
    }

    print_table(
        &format!(
            "bench-smoke (acl, {} rules, batch {})",
            rules.len(),
            t.len()
        ),
        &["Melem/s", "avg reads", "mem Kb", "build ms", "oracle"],
        &rows,
    );
    print_table(
        &format!(
            "flow cache (acl, {} rules, batch {}, locality sweep, warm cache)",
            cache_rules.len(),
            TRACE_LEN
        ),
        &["Melem/s", "inner Melem/s", "speedup", "hit rate", "oracle"],
        &cached_rows,
    );
    print_table(
        &format!(
            "optimizer (id-preserving passes, {} rules/family, batch {})",
            scale_or(8192),
            TRACE_LEN
        ),
        &["removed", "opt ms", "mem Kb", "avg reads", "oracle"],
        &optimized_rows,
    );
    print_table(
        &format!(
            "scenario churn (acl base {}, fw pool {}, script: {} classifies / {} inserts / {} removes)",
            rules.len(),
            churn_pool.len(),
            script.total_headers(),
            script.total_inserts(),
            script.total_removes(),
        ),
        &["Kops/s", "avg cycles", "rules after", "oracle"],
        &scenario_rows,
    );
    print_table(
        &format!(
            "concurrent serving (acl, {} rules, probe batch {}, net-zero churn in background; \
             mutex arm time-bounded: each rep stops after {} ms)",
            rules.len(),
            t.len(),
            LOCKED_REP_BUDGET.as_millis()
        ),
        &[
            "Melem/s",
            "mutex Melem/s",
            "speedup",
            "churn ops",
            "mutex ops",
            "oracle",
        ],
        &concurrent_rows,
    );

    let record = Record {
        experiment: "bench_smoke",
        filter_kind: "acl",
        rules: rules.len(),
        trace_len: t.len(),
        reps: REPS,
        rows: recs,
        scenarios: scenario_recs,
        cached: cached_recs,
        concurrent: concurrent_recs,
        optimized: optimized_recs,
    };
    let path = std::env::var("SPC_BENCH_OUT").unwrap_or_else(|_| "BENCH_smoke.json".to_string());
    std::fs::write(&path, record.to_json().pretty() + "\n").expect("write bench record");
    eprintln!("wrote {path}");

    assert!(all_agree, "a backend disagreed with the linear oracle");
}
