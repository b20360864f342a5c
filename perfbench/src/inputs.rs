//! Seeded inputs and the oracle every verdict is checked against.
//!
//! The program under test receives only what is built here: the rule
//! set, the headers, and the pcap capture they are written to.

use rand::{rngs::StdRng, SeedableRng, SliceRandom};
use spc_classbench::{write_pcap, FilterKind, RuleSetGenerator, TraceGenerator};
use spc_engine::{build_engine, Verdict};
use spc_types::{Header, Priority, Rule, RuleId, RuleSet};
use std::path::{Path, PathBuf};

/// Candidate rules in the ACL set every workload classifies against.
pub const RULES: usize = 4096;
/// Output directory (relative to the working directory) for captures
/// and span dumps.
pub const OUT_DIR: &str = ".perfbench";
/// Priorities of churn-pool rules start here, below every base rule.
pub const POOL_PRIORITY: u32 = 1_000_000;

/// The 4096-candidate ClassBench ACL set that every experiment in the
/// repository uses (`spc_bench::ruleset`). It is the same for every
/// seed: search cost differs by up to 1.7x between generated rule sets,
/// so a per-seed rule set would turn seed-to-seed spread into false
/// regressions.
pub fn rules() -> RuleSet {
    spc_bench::ruleset(FilterKind::Acl, RULES)
}

/// Uniform-popularity traffic: 90% of headers sampled from rules, no
/// flow locality.
pub fn trace(rules: &RuleSet, seed: u64, len: usize) -> Vec<Header> {
    TraceGenerator::new()
        .seed(seed)
        .match_fraction(0.9)
        .locality(0.0)
        .generate(rules, len)
}

/// The foreign firewall rules that churn inserts and removes: the pool
/// `bench_smoke` churns with (192 candidates from the repository's fixed
/// rule seed), in a seeded order. Priorities rank below every base rule,
/// so a pool rule can never change a verdict the base set decides.
///
/// The rules are the same for every seed because the cost of an update
/// through `cached:` depends on them: a rule that widens the flow
/// cache's fold mask flushes its megaflow layer, after which updates cost
/// about a third as much.
pub fn churn_pool(seed: u64) -> Vec<Rule> {
    let mut pool = RuleSetGenerator::new(FilterKind::Fw, 192)
        .seed(spc_bench::SEED_RULES ^ 0x77)
        .generate()
        .rules()
        .to_vec();
    pool.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9001));
    for (i, r) in pool.iter_mut().enumerate() {
        r.priority = Priority(POOL_PRIORITY + i as u32);
    }
    pool
}

/// The expected rule id per header, from the `linear` reference engine.
pub fn oracle(rules: &RuleSet, headers: &[Header]) -> Result<Vec<Option<RuleId>>, String> {
    let linear = build_engine("linear", rules).map_err(|e| format!("linear oracle: {e}"))?;
    Ok(headers.iter().map(|h| linear.classify(h).rule).collect())
}

/// Verdicts that disagree with the expected rule ids (a length mismatch
/// counts every missing or extra verdict).
pub fn mismatches(got: &[Verdict], want: &[Option<RuleId>]) -> u64 {
    let wrong = got.iter().zip(want).filter(|(v, w)| v.rule != **w).count();
    (wrong + got.len().abs_diff(want.len())) as u64
}

/// Whether a verdict read during churn is correct. A header the base set
/// matches must get the base verdict, since pool rules rank below every
/// base rule; any other header may miss or hit a pool rule that matches
/// it (which pool rules are live depends on when the reader looked).
pub fn churn_verdict_ok(v: &Verdict, want: Option<RuleId>, h: &Header, pool: &[Rule]) -> bool {
    if want.is_some() {
        return v.rule == want;
    }
    match v.priority {
        None => v.rule.is_none(),
        Some(p) => {
            p.0.checked_sub(POOL_PRIORITY)
                .and_then(|i| pool.get(i as usize))
                .is_some_and(|r| r.priority == p && r.matches(h))
        }
    }
}

/// A capture file that is deleted when dropped.
#[derive(Debug)]
pub struct TempPcap {
    path: PathBuf,
}

impl TempPcap {
    pub fn write(tag: &str, seed: u64, headers: &[Header]) -> Result<Self, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let path = Path::new(OUT_DIR).join(format!("{tag}-{seed}-{}.pcap", std::process::id()));
        let pcap = TempPcap { path };
        write_pcap(&pcap.path, headers.iter().copied())
            .map_err(|e| format!("write {}: {e}", pcap.path.display()))?;
        Ok(pcap)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempPcap {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_corrupted_verdict_is_detected() {
        let rules = RuleSetGenerator::new(FilterKind::Acl, 200)
            .seed(5)
            .generate();
        let headers = trace(&rules, 9, 500);
        let want = oracle(&rules, &headers).unwrap();
        let engine = build_engine("configurable-mbt", &rules).unwrap();
        let mut got: Vec<Verdict> = headers.iter().map(|h| engine.classify(h)).collect();
        assert_eq!(mismatches(&got, &want), 0);

        let i = want.iter().position(Option::is_some).unwrap();
        got[i].rule = Some(RuleId(got[i].rule.unwrap().0 + 1));
        assert_eq!(mismatches(&got, &want), 1);
        got.pop();
        assert!(
            mismatches(&got, &want) >= 1,
            "a missing verdict is a failure"
        );
    }

    #[test]
    fn churn_check_accepts_only_matching_pool_hits() {
        let rules = RuleSetGenerator::new(FilterKind::Acl, 200)
            .seed(5)
            .generate();
        let pool = churn_pool(3);
        let base_max = rules.rules().iter().map(|r| r.priority.0).max().unwrap();
        assert!(pool.iter().all(|r| r.priority.0 > base_max));

        let h = spc_classbench::sample_matching_header(
            &pool[7],
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1),
        );
        let base = oracle(&rules, &[h]).unwrap()[0];
        let with_pool = {
            let mut all = rules.rules().to_vec();
            all.push(pool[7]);
            build_engine("linear", &RuleSet::from_rules(all))
                .unwrap()
                .classify(&h)
        };
        assert!(churn_verdict_ok(&with_pool, base, &h, &pool));
        let mut corrupted = with_pool;
        corrupted.rule = Some(RuleId(corrupted.rule.map_or(0, |r| r.0 + 1)));
        corrupted.priority = Some(Priority(POOL_PRIORITY + pool.len() as u32));
        assert!(!churn_verdict_ok(&corrupted, base, &h, &pool));
    }
}
