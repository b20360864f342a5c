//! Layer probes below the engine API: the `spc-core` classifier phases,
//! the `spc-lookup` field engines, the `spc-hwsim` cycle model, and the
//! §V.A update path of a bare engine. Every traced run makes them, on
//! its own workload's headers.

use crate::spans::{total_ns, Tracer};
use crate::stats::{mean, quantile};
use crate::Outcome;
use spc_core::{ArchConfig, Classifier, ClassifyScratch, CombineStrategy};
use spc_engine::{build_engine, PacketClassifier, UpdateError};
use spc_types::{Header, Rule, RuleId, RuleSet};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Packet size of the paper's headline throughput (40-byte packets).
const MODEL_PACKET_BYTES: u32 = 40;

/// The exact classifier as the engine builder provisions it for
/// `configurable-mbt`: `ArchConfig::large()` with a Rule Filter of at
/// least four slots per rule.
fn classifier(rules: &RuleSet, combine: CombineStrategy) -> Result<Classifier, String> {
    let mut cfg = ArchConfig::large().with_combine(combine);
    while (1usize << cfg.rule_filter_addr_bits) < rules.len().saturating_mul(4)
        && cfg.rule_filter_addr_bits < 22
    {
        cfg.rule_filter_addr_bits += 1;
    }
    let mut cls = Classifier::new(cfg);
    cls.load(rules)
        .map_err(|e| format!("core classifier: {e}"))?;
    Ok(cls)
}

/// Times `Classifier::classify_with` under the exact and the first-label
/// strategy, and `RuleFilter::probe` over the stored keys, on `headers`
/// until `budget` is spent. Exact verdicts are checked against `want`.
pub fn phases(
    out: &mut Outcome,
    tracer: &Tracer,
    rules: &RuleSet,
    headers: &[Header],
    want: &[Option<RuleId>],
    budget: Duration,
) -> Result<(), String> {
    let exact = classifier(rules, CombineStrategy::PriorityProbe)?;
    let first = classifier(rules, CombineStrategy::FirstLabel)?;
    let mut scratch = ClassifyScratch::new();

    let root = tracer.open("core.probe", 0);
    let deadline = Instant::now() + budget.mul_f64(0.8);
    let (mut combos, mut reads, mut cycles) = (Vec::new(), Vec::new(), Vec::new());
    let mut hits = 0u64;
    for (h, w) in headers.iter().zip(want) {
        let c = tracer.span("core.classify_with", root.id(), || {
            exact.classify_with(h, &mut scratch)
        });
        out.attempted += 1;
        out.failed += u64::from(c.hit.map(|hit| hit.rule_id) != *w);
        hits += u64::from(c.hit.is_some());
        combos.push(f64::from(c.combos_probed));
        reads.push(f64::from(c.total_reads()));
        cycles.push(f64::from(c.timing.initiation_interval));
        if Instant::now() >= deadline {
            break;
        }
    }
    let probed = combos.len();
    for h in &headers[..probed] {
        black_box(tracer.span("core.classify_with_first", root.id(), || {
            first.classify_with(h, &mut scratch)
        }));
    }
    let rf = exact.rule_filter();
    let keys: Vec<u128> = rf.iter().map(|s| s.key).collect();
    let probe_deadline = Instant::now() + budget.mul_f64(0.1);
    let mut probes = 0u64;
    while probes == 0 || Instant::now() < probe_deadline {
        tracer.span("core.rf_probe_keys", root.id(), || {
            for &k in &keys {
                black_box(rf.probe(black_box(k)));
            }
        });
        probes += keys.len() as u64;
    }
    tracer.close(root);

    let spans = tracer.spans();
    let n = probed as u64;
    let per = |name: &str, count: u64| total_ns(&spans, name) as f64 / count.max(1) as f64;
    let classify_ns = per("core.classify_with", n);
    let first_ns = per("core.classify_with_first", n);
    let probe_ns = per("core.rf_probe_keys", probes);
    let total_combos: f64 = combos.iter().sum();
    let mean_cycles = mean(&cycles);
    out.metric("core.classify_ns_per_pkt", classify_ns, n);
    out.metric("core.first_ns_per_pkt", first_ns, n);
    out.metric("core.search_ns_per_pkt", classify_ns - first_ns, n);
    out.metric("core.rf_probe_ns", probe_ns, probes);
    out.metric("core.combos_mean", mean(&combos), n);
    out.metric("core.combos_p99", quantile(&mut combos, 0.99), n);
    out.metric("core.combos_max", quantile(&mut combos, 1.0), n);
    out.metric(
        "core.useful_probe_frac",
        hits as f64 / total_combos.max(1.0),
        n,
    );
    out.metric("core.mem_reads_mean", mean(&reads), n);
    out.metric("core.mem_reads_max", quantile(&mut reads, 1.0), n);
    out.metric("lookup.phase2_ns_per_pkt", first_ns - probe_ns, n);
    out.metric("hwsim.cycles_per_pkt_mean", mean_cycles, n);
    out.metric(
        "hwsim.model_gbps_40b",
        exact
            .config()
            .clock
            .throughput_gbps(mean_cycles, MODEL_PACKET_BYTES),
        n,
    );
    out.report.push(format!(
        "core: {n} packets, classify {classify_ns:.0} ns, first-label {first_ns:.0} ns, \
         rule-filter probe {probe_ns:.1} ns, {total_combos} combinations, {hits} hits"
    ));
    Ok(())
}

/// One §V.A update against a rule of the churn pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert(usize),
    Remove(usize),
}

/// `n` insert-then-remove pairs cycling through a pool of `pool_len`.
pub fn pairs(pool_len: usize, n: usize) -> Vec<Op> {
    (0..n)
        .flat_map(|i| [Op::Insert(i % pool_len), Op::Remove(i % pool_len)])
        .collect()
}

/// Outcome of applying update operations.
#[derive(Debug, Default)]
struct Updates {
    /// Call-to-return time of each successful update, in µs.
    latency_us: Vec<f64>,
    /// §V.A hardware write cycles of each successful update.
    hw_cycles: Vec<f64>,
    attempted: u64,
    rejected: u64,
    duplicates: u64,
}

/// Applies `ops` in a closed loop, stopping before an insert once
/// `deadline` has passed (so no pool rule is left installed). A remove
/// whose insert was refused as a duplicate is skipped.
fn apply(
    engine: &mut dyn PacketClassifier,
    pool: &[Rule],
    ops: &[Op],
    deadline: Instant,
) -> Updates {
    let mut u = Updates::default();
    let mut installed: HashMap<usize, RuleId> = HashMap::new();
    for &op in ops {
        let t = Instant::now();
        let result = match op {
            Op::Insert(_) if t >= deadline => break,
            Op::Insert(i) => engine.insert(pool[i]).map(|id| {
                installed.insert(i, id);
            }),
            Op::Remove(i) => match installed.remove(&i) {
                Some(id) => engine.remove(id),
                None => continue,
            },
        };
        let dt = t.elapsed();
        u.attempted += 1;
        match result {
            Ok(()) => {
                u.latency_us.push(dt.as_secs_f64() * 1e6);
                if let Some(r) = engine.last_update_report() {
                    u.hw_cycles.push(r.hw_write_cycles as f64);
                }
            }
            Err(UpdateError::Duplicate { .. }) => u.duplicates += 1,
            Err(_) => u.rejected += 1,
        }
    }
    u
}

/// Applies `ops` to a bare `configurable-mbt` built over `rules`: the
/// update cost without any wrapper in front of the §V.A path.
pub fn updates(
    out: &mut Outcome,
    tracer: &Tracer,
    rules: &RuleSet,
    pool: &[Rule],
    ops: &[Op],
    budget: Duration,
) -> Result<(), String> {
    let mut engine =
        build_engine("configurable-mbt", rules).map_err(|e| format!("configurable-mbt: {e}"))?;
    let deadline = Instant::now() + budget;
    let mut u = tracer.span("core.updates", 0, || {
        apply(engine.as_mut(), pool, ops, deadline)
    });
    out.attempted += u.attempted;
    out.failed += u.rejected;
    out.duplicates += u.duplicates;
    let n = u.latency_us.len() as u64;
    out.metric("core.update_us_p50", quantile(&mut u.latency_us, 0.5), n);
    out.metric("core.update_hw_cycles_mean", mean(&u.hw_cycles), n);
    Ok(())
}
