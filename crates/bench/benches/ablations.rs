//! Criterion ablations over two design choices: the combination strategy
//! (the paper's single-probe fast path versus the exact priority probe of
//! docs/engine_design.md §"Exact phase 3") and MBT leaf provisioning.

// Reproduction harness: a panic here means the bench environment itself
// is broken (bad spec string, generator misconfiguration), and aborting
// with the site's message is the correct response — there is no caller
// to hand a typed error to.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spc_bench::{ruleset, trace};
use spc_classbench::FilterKind;
use spc_core::{ArchConfig, Classifier, CombineStrategy};

fn bench_combine_strategy(c: &mut Criterion) {
    let rules = ruleset(FilterKind::Acl, 2000);
    let t = trace(&rules, 256);
    let mut group = c.benchmark_group("combine_strategy");
    group.throughput(Throughput::Elements(t.len() as u64));
    for strat in [CombineStrategy::FirstLabel, CombineStrategy::PriorityProbe] {
        let mut cfg = ArchConfig::large().with_combine(strat);
        cfg.rule_filter_addr_bits = 14;
        let mut cls = Classifier::new(cfg);
        cls.load(&rules).expect("fits");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strat:?}")),
            &t,
            |b, t| {
                b.iter(|| {
                    let mut probes = 0u64;
                    for h in t {
                        probes += u64::from(cls.classify(h).combos_probed);
                    }
                    probes
                });
            },
        );
    }
    group.finish();
}

fn bench_mbt_leaf_nodes(c: &mut Criterion) {
    let rules = ruleset(FilterKind::Acl, 1000);
    let t = trace(&rules, 512);
    let mut group = c.benchmark_group("mbt_leaf_nodes");
    group.throughput(Throughput::Elements(t.len() as u64));
    for leaf in [384usize, 512, 1024] {
        let mut cfg = ArchConfig::large().with_combine(CombineStrategy::FirstLabel);
        cfg.mbt_leaf_nodes = leaf;
        cfg.rule_filter_addr_bits = 14;
        let mut cls = Classifier::new(cfg);
        cls.load(&rules).expect("fits");
        group.bench_with_input(BenchmarkId::from_parameter(leaf), &t, |b, t| {
            b.iter(|| {
                let mut hits = 0usize;
                for h in t {
                    hits += usize::from(cls.classify(h).hit.is_some());
                }
                hits
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_combine_strategy, bench_mbt_leaf_nodes);
criterion_main!(benches);
