//! The repository benchmark: two seeded, oracle-checked workloads over
//! the 4096-rule ClassBench ACL set, driven through the public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload acl4k-search --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics from a run that records spans around the benchmark's calls
//! into each layer. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the line before
//! it is the full record (seed, environment stamp, sample counts). See
//! `perfbench/README.md` for the workloads and metrics.

mod churn;
mod core_probe;
mod inputs;
mod replay;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run, in this order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_mpps", "Mpps"),
    ("lookup_p50_us", "us"),
    ("lookup_p99_us", "us"),
    ("setup_s", "s"),
    ("hw_memory_mbits", "Mbit"),
    ("rss_peak_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run, in this order. A
/// layer that is not on a workload's path reports 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("classbench.pcap_ns_per_pkt", "ns"),
    ("pipeline.overhead_ns_per_pkt", "ns"),
    ("pipeline.feed_blocked_frac", "fraction"),
    ("pipeline.worker_busy_frac", "fraction"),
    ("cache.ns_per_pkt", "ns"),
    ("cache.hit_rate", "fraction"),
    ("cache.misses", "count"),
    ("cache.warm_s", "s"),
    ("core.classify_ns_per_pkt", "ns"),
    ("core.first_ns_per_pkt", "ns"),
    ("core.search_ns_per_pkt", "ns"),
    ("core.rf_probe_ns", "ns"),
    ("core.combos_mean", "count"),
    ("core.combos_p99", "count"),
    ("core.combos_max", "count"),
    ("core.useful_probe_frac", "fraction"),
    ("core.mem_reads_mean", "count"),
    ("core.mem_reads_max", "count"),
    ("lookup.phase2_ns_per_pkt", "ns"),
    ("hwsim.cycles_per_pkt_mean", "cycles"),
    ("hwsim.model_gbps_40b", "Gbps"),
    ("snapshot.update_busy_frac", "fraction"),
    ("snapshot.reader_slowdown", "ratio"),
    ("churn.writer_late_us_p90", "us"),
    ("core.update_us_p50", "us"),
    ("core.update_hw_cycles_mean", "cycles"),
    ("trace.coverage_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

pub const WORKLOADS: [&str; 2] = ["acl4k-search", "acl4k-flows"];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s.is_finite() && (0.5..=600.0).contains(&s)) {
                        return Err(bad(&"must be within 0.5..=600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(40.0),
            trace: trace.unwrap_or(false),
        })
    }

    /// `share` of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// One measured value, with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Spec string of the engine the workload serves from.
    pub spec: String,
    /// Verdicts checked against an oracle plus updates attempted.
    pub attempted: u64,
    /// Verdicts that disagreed with the oracle plus rejected updates.
    pub failed: u64,
    /// Inserts refused as duplicates of an installed rule (not failures).
    pub duplicates: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }
}

const USAGE: &str = "usage: perfbench --workload <acl4k-search|acl4k-flows> \
                     --seed <n> [--seconds <s>] [--trace <0|1>]";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "acl4k-search" => replay::search(&args),
        _ => replay::flows(&args),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        match rss_peak_mib() {
            Some(mib) => outcome.metric("rss_peak_mib", mib, 1),
            None => {
                eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
                return ExitCode::from(1);
            }
        }
    }
    match render(&args, &outcome) {
        Ok((record, last)) => {
            for line in &outcome.report {
                println!("{line}");
            }
            println!("{record}");
            println!("{last}");
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed the oracle check",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Renders the full record and the final result line, checking that the
/// workload produced exactly the metrics its mode must print.
fn render(args: &Args, o: &Outcome) -> Result<(String, String), String> {
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut record = String::new();
    let mut last = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let mut found = o.metrics.iter().filter(|m| m.name == *name);
        let m = found
            .next()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if found.next().is_some() {
            return Err(format!("metric {name} was measured twice"));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            record,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {}}}",
            m.value, m.samples
        );
        let _ = write!(
            last,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        );
    }
    if o.metrics.len() != wanted.len() {
        return Err(format!(
            "{} metrics measured, {} expected",
            o.metrics.len(),
            wanted.len()
        ));
    }
    let correct = o.failed == 0 && o.attempted > 0;
    let record = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"attempted\": {}, \"failed\": {}, \"duplicate_inserts\": {}, \"env\": {}, \
         \"metrics\": {{{record}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.attempted,
        o.failed,
        o.duplicates,
        env_stamp(&o.spec),
    );
    let last = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{last}}}}}",
        o.attempted, o.failed
    );
    Ok((record, last))
}

/// Peak resident set size of this process, from `VmHWM`.
fn rss_peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU model, core count, toolchain, code-generation flags, commit and
/// engine spec, as a JSON object.
fn env_stamp(spec: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"cpu_model\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"rustflags\": \"{}\", \
         \"target_features\": \"{}\", \"git_commit\": \"{}\", \"spec\": \"{}\"}}",
        json_escape(&cpu),
        json_escape(env!("PERFBENCH_RUSTC")),
        json_escape(env!("PERFBENCH_RUSTFLAGS")),
        json_escape(env!("PERFBENCH_TARGET_FEATURES")),
        json_escape(&git_commit()),
        json_escape(spec),
    )
}

/// The commit of the working directory when it is the top of a git
/// checkout; `unknown` otherwise (an exported source tree).
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let here = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    let top = git(&["rev-parse", "--show-toplevel"]).and_then(|t| std::fs::canonicalize(t).ok());
    match (here, top) {
        (Some(h), Some(t)) if h == t => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
        }
        _ => "unknown".to_string(),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload acl4k-flows --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload acl4k-flows").is_err());
        assert!(parse("--workload acl4k-flows --seed 1 --trace 2").is_err());
        assert!(parse("--workload acl4k-flows --seed 1 --seconds").is_err());
    }

    #[test]
    fn a_failed_verdict_makes_the_run_incorrect() {
        let args = Args::parse(
            "--workload acl4k-search --seed 1 --trace 1"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        for (name, _) in PER_LAYER {
            o.metric(name, 1.5, 1);
        }
        let (_, last) = render(&args, &o).unwrap();
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
        o.metrics.pop();
        assert!(render(&args, &o).is_err(), "a missing metric is an error");
    }
}
