//! Constructing any backend from an [`EngineKind`] or a config string.

use crate::kind::ParseEngineKindError;
use crate::{
    BaselineEngine, CachedEngine, ConfigurableEngine, EngineKind, InnerFactory, PacketClassifier,
    ShardedEngine,
};
use spc_analyze::{AnalyzerLimits, RuleSetReport};
use spc_baselines::{
    Dcfl, HyperCuts, HyperCutsConfig, LinearSearch, OptionClassifier, OptionKind, Rfc,
};
use spc_core::shard::{self, ShardStrategy};
use spc_core::{ArchConfig, Classifier, CombineStrategy, IpAlg};
use spc_types::{Dim, DimValue, RuleId, RuleSet};
use std::collections::HashMap;
use std::fmt;

/// Default RFC phase-table entry cap (the Table I harness value).
const DEFAULT_RFC_ENTRY_CAP: u64 = 1 << 27;

/// Which backend family accepts a spec key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyScope {
    /// Configurable backends — and `sharded`, which forwards these to
    /// its inner engines. (The cached wrapper does *not* forward them:
    /// tune its inner engine inside the nested `inner=(...)` spec.)
    Configurable,
    /// The sharded backend only.
    Sharded,
    /// Wrapper backends that take an inner engine (`sharded`, `cached`,
    /// `snapshot`).
    Inner,
    /// The cached backend only.
    Cached,
    /// The tuple-space backend only.
    TupleSpace,
    /// The software-TCAM backend only.
    Tcam,
    /// Every backend (build-level keys such as `optimize`).
    Any,
}

impl KeyScope {
    fn accepts(self, kind: EngineKind) -> bool {
        match self {
            KeyScope::Configurable => kind.is_configurable() || kind == EngineKind::Sharded,
            KeyScope::Sharded => kind == EngineKind::Sharded,
            KeyScope::Inner => {
                kind == EngineKind::Sharded
                    || kind == EngineKind::Cached
                    || kind == EngineKind::Snapshot
            }
            KeyScope::Cached => kind == EngineKind::Cached,
            KeyScope::TupleSpace => kind == EngineKind::TupleSpace,
            KeyScope::Tcam => kind == EngineKind::SoftTcam,
            KeyScope::Any => true,
        }
    }
}

/// The single source of truth for engine-spec keys: the
/// [`EngineBuilder::from_spec`] parser dispatches through this table and
/// [`BuildError::BadOption`]'s `Display` derives its key list from it —
/// adding a key here is the *only* way to make the parser accept it, so
/// the error message cannot rot behind the grammar.
const SPEC_KEYS: &[(&str, KeyScope)] = &[
    ("rf_bits", KeyScope::Configurable),
    ("combine", KeyScope::Configurable),
    ("inner", KeyScope::Inner),
    ("shards", KeyScope::Sharded),
    ("strategy", KeyScope::Sharded),
    ("hash_dim", KeyScope::Sharded),
    ("skew", KeyScope::Sharded),
    ("flows", KeyScope::Cached),
    ("megaflow", KeyScope::Cached),
    ("tables", KeyScope::TupleSpace),
    ("capacity", KeyScope::Tcam),
    ("partitions", KeyScope::Tcam),
    ("optimize", KeyScope::Any),
];

/// The comma-separated key list for error messages, straight from
/// [`SPEC_KEYS`].
fn spec_key_list() -> String {
    SPEC_KEYS
        .iter()
        .map(|&(name, _)| name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Error from [`EngineBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The spec string did not name a registered backend.
    UnknownKind {
        /// The parse failure.
        source: ParseEngineKindError,
    },
    /// A spec option was malformed: not `key=value`, or the value did
    /// not parse for its key.
    BadOption {
        /// The offending option text.
        option: String,
    },
    /// A well-formed `key=value` pair the spec cannot accept: an unknown
    /// key, a key belonging to a different backend, a duplicated key, or
    /// an inconsistent combination. Unknown keys are a hard error on
    /// every path — a sweep must never silently measure a configuration
    /// it didn't ask for.
    ConfigError {
        /// The offending option text.
        option: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The backend could not hold the rule set (capacity, RFC table
    /// blow-up, ...).
    Rejected {
        /// Which backend rejected it.
        kind: EngineKind,
        /// Backend-specific reason.
        reason: String,
    },
    /// Two rules in the set have identical match conditions. Duplicate
    /// 5-tuples are rejected up front on **every** backend — the
    /// configurable architecture cannot represent them (their 7-label
    /// keys collide), and letting decomposition backends silently accept
    /// what label backends reject would make the registry diverge.
    DuplicateRules {
        /// The rule that owns the filter (first occurrence).
        first: RuleId,
        /// The rule that repeats it.
        dup: RuleId,
    },
    /// The pre-build audit found [`spc_analyze::Severity::Error`]
    /// findings and the builder was configured with
    /// [`AuditPolicy::RejectErrors`].
    AuditRejected {
        /// Number of error-level findings.
        errors: usize,
        /// The first error finding's explanation.
        first: String,
    },
    /// [`OptimizePolicy::Validated`] ran the rule-set optimizer and its
    /// output failed equivalence validation against the original set —
    /// an optimizer bug caught before any engine was built from the bad
    /// rewrite.
    OptimizeFailed {
        /// The validation failure, witness included.
        reason: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownKind { source } => source.fmt(f),
            BuildError::BadOption { option } => {
                write!(
                    f,
                    "bad engine option {option:?}; expected key=value (keys: {})",
                    spec_key_list()
                )
            }
            BuildError::ConfigError { option, reason } => {
                write!(f, "bad engine config {option:?}: {reason}")
            }
            BuildError::Rejected { kind, reason } => {
                write!(f, "{kind} cannot hold this rule set: {reason}")
            }
            BuildError::DuplicateRules { first, dup } => {
                write!(
                    f,
                    "rule {} duplicates the match conditions of rule {}; \
                     duplicate 5-tuples are rejected on every backend",
                    dup.0, first.0
                )
            }
            BuildError::AuditRejected { errors, first } => {
                write!(
                    f,
                    "pre-build audit rejected the rule set ({errors} error finding{}): {first}",
                    if *errors == 1 { "" } else { "s" }
                )
            }
            BuildError::OptimizeFailed { reason } => {
                write!(f, "rule-set optimization failed validation: {reason}")
            }
        }
    }
}

/// What [`EngineBuilder::build`] does with the pre-build audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditPolicy {
    /// No audit (the default): build directly.
    #[default]
    Off,
    /// Run the audit and print its findings to stderr, then build
    /// regardless of severity.
    Warn,
    /// Run the audit and refuse to build sets with
    /// [`spc_analyze::Severity::Error`] findings
    /// ([`BuildError::AuditRejected`]); print nothing.
    RejectErrors,
}

impl std::error::Error for BuildError {}

/// Whether [`EngineBuilder::build`] runs the semantics-preserving
/// rule-set optimizer before constructing the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizePolicy {
    /// Build from the rule set as given (the default).
    #[default]
    Off,
    /// Run `spc_analyze::optimize` with its id-preserving configuration
    /// (duplicate coalescing, dead-rule elimination, priority
    /// renumbering — no range merging), validate the output against the
    /// original set with the equivalence checker, build the backend from
    /// the optimized set, and wrap it in [`crate::OptimizedEngine`] so
    /// every verdict, update report and error speaks the *original* id
    /// space. Validation failure is [`BuildError::OptimizeFailed`] —
    /// never a silently different engine.
    Validated,
}

/// Builds any registered backend as a `Box<dyn PacketClassifier>`.
///
/// ```
/// use spc_engine::EngineBuilder;
/// use spc_types::{Priority, Rule, RuleSet};
///
/// let rules = RuleSet::from_rules(vec![Rule::any(Priority(0))]);
/// // Sweep backends from config strings — the CLI/bench entry point.
/// for spec in ["linear", "hypercuts", "configurable-bst:rf_bits=14"] {
///     let engine = EngineBuilder::from_spec(spec).unwrap().build(&rules).unwrap();
///     assert!(engine.rules() == 1, "{spec}");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    kind: EngineKind,
    rule_filter_bits: Option<u32>,
    combine: Option<CombineStrategy>,
    shard_count: usize,
    shard_strategy: ShardStrategy,
    shard_inner: EngineKind,
    band_skew: f64,
    audit: AuditPolicy,
    cache_flows: usize,
    cache_megaflow: bool,
    /// Full builder for the cached wrapper's inner engine (`None` means
    /// the default `configurable-bst`) — boxed because the type recurses.
    cache_inner: Option<Box<EngineBuilder>>,
    /// Full builder for the snapshot wrapper's inner engine (`None`
    /// means the default `configurable-bst`) — boxed like `cache_inner`.
    snapshot_inner: Option<Box<EngineBuilder>>,
    tss_tables: usize,
    tcam_capacity: usize,
    tcam_partitions: usize,
    optimize: OptimizePolicy,
}

/// Default shard count for `sharded` specs that don't say.
const DEFAULT_SHARDS: usize = 4;

/// Default microflow capacity for `cached` specs that don't say.
const DEFAULT_CACHE_FLOWS: usize = 4096;

/// Default band-rebalance skew factor for updatable priority-band
/// sharding: a band splits once it exceeds twice its build-time quota.
const DEFAULT_BAND_SKEW: f64 = 2.0;

/// Default dimension for `strategy=hash` when `hash_dim` is absent: the
/// low destination-IP segment, typically the most value-diverse field in
/// ClassBench-style sets.
const DEFAULT_HASH_DIM: Dim = Dim::DipLo;

/// Splits a spec's option list on commas at parenthesis depth 0, so a
/// nested inner spec — `cached:inner=(sharded:inner=linear,shards=2)` —
/// keeps its own commas.
fn split_opts(opts: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in opts.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&opts[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&opts[start..]);
    parts
}

/// Strips one balanced outer parenthesis pair, if present: the optional
/// grouping syntax for nested inner specs.
fn strip_parens(s: &str) -> &str {
    match s.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        Some(inner) => inner,
        None => s,
    }
}

fn parse_dim(s: &str) -> Option<Dim> {
    Some(match s {
        "sip_hi" => Dim::SipHi,
        "sip_lo" => Dim::SipLo,
        "dip_hi" => Dim::DipHi,
        "dip_lo" => Dim::DipLo,
        "src_port" => Dim::SrcPort,
        "dst_port" => Dim::DstPort,
        "proto" => Dim::Proto,
        _ => return None,
    })
}

impl EngineBuilder {
    /// A builder for the given backend with default provisioning.
    ///
    /// For [`EngineKind::Sharded`] the defaults are 4 shards of
    /// `configurable-bst` split by priority bands.
    pub fn new(kind: EngineKind) -> Self {
        EngineBuilder {
            kind,
            rule_filter_bits: None,
            combine: None,
            shard_count: DEFAULT_SHARDS,
            shard_strategy: ShardStrategy::PriorityBands,
            shard_inner: EngineKind::ConfigurableBst,
            band_skew: DEFAULT_BAND_SKEW,
            audit: AuditPolicy::Off,
            cache_flows: DEFAULT_CACHE_FLOWS,
            cache_megaflow: true,
            cache_inner: None,
            snapshot_inner: None,
            tss_tables: crate::DEFAULT_TSS_TABLES,
            tcam_capacity: crate::DEFAULT_TCAM_CAPACITY,
            tcam_partitions: crate::DEFAULT_TCAM_PARTITIONS,
            optimize: OptimizePolicy::Off,
        }
    }

    /// Parses a config string: a backend name, optionally followed by
    /// `:key=value[,key=value...]` options.
    ///
    /// Configurable backends take `rf_bits=N` (Rule Filter address
    /// width) and `combine=first|probe` (phase-3 strategy). The sharded
    /// backend takes `inner=<kind>`, `shards=N`, `strategy=prio|hash`,
    /// `hash_dim=<dimension>` (e.g. `dst_port`; implies nothing on
    /// its own — it refines `strategy=hash`) and `skew=F` (band-split
    /// factor ≥ 1.0; refines `strategy=prio`, see
    /// [`ShardedEngine::enable_updates`]), plus `rf_bits`/`combine`
    /// when its inner engine is configurable. The cached backend takes
    /// `inner=<spec>` (a *full* nested spec — parenthesise it when it
    /// contains commas, e.g. `cached:inner=(sharded:shards=4),flows=8192`),
    /// `flows=N` (microflow slots, rounded up to a power of two at build
    /// time) and `megaflow=on|off`. The snapshot backend takes
    /// `inner=<spec>` (a full nested spec, like cached —
    /// `snapshot:inner=(sharded:shards=4)` rebuilds per shard). The
    /// tuple-space backend takes `tables=N` (per-tuple hash-slot hint,
    /// rounded up to a power of two at build time); the software TCAM
    /// takes `capacity=N` (provisioned slots) and `partitions=K`
    /// (allocator partition count, at most one per slot).
    ///
    /// Every key is checked against the kind it is for: unknown keys,
    /// keys for another backend, and duplicated keys are hard
    /// [`BuildError::ConfigError`]s, never silently ignored.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownKind`] for an unregistered backend name,
    /// [`BuildError::BadOption`] for malformed `key=value` text, and
    /// [`BuildError::ConfigError`] for unknown/duplicate/inconsistent
    /// keys.
    pub fn from_spec(spec: &str) -> Result<Self, BuildError> {
        let (kind_str, opts) = match spec.split_once(':') {
            Some((k, o)) => (k, Some(o)),
            None => (spec, None),
        };
        let kind: EngineKind = kind_str
            .trim()
            .parse()
            .map_err(|source| BuildError::UnknownKind { source })?;
        let mut b = EngineBuilder::new(kind);
        let mut seen: Vec<String> = Vec::new();
        let mut hash_dim: Option<Dim> = None;
        let mut strategy_set = false;
        let mut skew_set = false;
        for opt in opts.into_iter().flat_map(split_opts) {
            let opt = opt.trim();
            if opt.is_empty() {
                continue;
            }
            let bad = || BuildError::BadOption {
                option: opt.to_string(),
            };
            let config_err = |reason: String| BuildError::ConfigError {
                option: opt.to_string(),
                reason,
            };
            let (key, value) = opt.split_once('=').ok_or_else(bad)?;
            let (key, value) = (key.trim(), value.trim());
            if seen.iter().any(|k| k == key) {
                return Err(config_err(format!(
                    "duplicate key {key:?}; each key may appear once"
                )));
            }
            seen.push(key.to_string());
            // Admission runs through the shared SPEC_KEYS table: an
            // unregistered key — or one registered for another backend
            // family — is a hard error, never silently ignored.
            let scope = SPEC_KEYS.iter().find(|&&(name, _)| name == key);
            match scope {
                None => {
                    return Err(config_err(format!(
                        "unknown key {key:?}; known keys: {}",
                        spec_key_list()
                    )))
                }
                Some(&(_, scope)) if !scope.accepts(kind) => {
                    return Err(config_err(format!(
                        "unknown key {key:?} for backend {kind}"
                    )))
                }
                Some(_) => {}
            }
            match key {
                "rf_bits" => {
                    b.rule_filter_bits = Some(value.parse().map_err(|_| bad())?);
                }
                "combine" => {
                    b.combine = Some(match value {
                        "first" => CombineStrategy::FirstLabel,
                        "probe" => CombineStrategy::PriorityProbe,
                        _ => return Err(bad()),
                    });
                }
                "inner" if kind == EngineKind::Cached => {
                    // The cached wrapper nests a *full* spec, not just a
                    // kind name, so the inner engine is tunable in place.
                    let inner_spec = strip_parens(value);
                    let inner = EngineBuilder::from_spec(inner_spec)
                        .map_err(|e| config_err(format!("inner spec {inner_spec:?}: {e}")))?;
                    if inner.kind == EngineKind::Cached {
                        return Err(config_err(
                            "the inner engine cannot itself be cached".to_string(),
                        ));
                    }
                    b.cache_inner = Some(Box::new(inner));
                }
                "inner" if kind == EngineKind::Snapshot => {
                    // Like the cached wrapper, the snapshot wrapper
                    // nests a *full* spec — `snapshot:inner=(sharded:
                    // shards=4)` gets the per-shard rebuild path.
                    let inner_spec = strip_parens(value);
                    let inner = EngineBuilder::from_spec(inner_spec)
                        .map_err(|e| config_err(format!("inner spec {inner_spec:?}: {e}")))?;
                    if inner.kind == EngineKind::Snapshot {
                        return Err(config_err(
                            "the inner engine cannot itself be a snapshot wrapper".to_string(),
                        ));
                    }
                    b.snapshot_inner = Some(Box::new(inner));
                }
                "inner" => {
                    let inner: EngineKind = value
                        .parse()
                        .map_err(|source| BuildError::UnknownKind { source })?;
                    if inner == EngineKind::Sharded {
                        return Err(config_err(
                            "the inner engine cannot itself be sharded".to_string(),
                        ));
                    }
                    if inner == EngineKind::Snapshot {
                        return Err(config_err(
                            "the snapshot wrapper serves concurrent readers; nest it \
                             outside, not inside, a sharded engine"
                                .to_string(),
                        ));
                    }
                    b.shard_inner = inner;
                }
                "flows" => {
                    let n: usize = value.parse().map_err(|_| bad())?;
                    if n == 0 {
                        return Err(config_err(
                            "flows must be >= 1 (the cache needs at least one slot)".to_string(),
                        ));
                    }
                    if !n.is_power_of_two() {
                        eprintln!(
                            "warning: flows={n} is not a power of two; \
                             rounding up to {}",
                            n.next_power_of_two()
                        );
                    }
                    b.cache_flows = n;
                }
                "megaflow" => {
                    b.cache_megaflow = match value {
                        "on" => true,
                        "off" => false,
                        _ => return Err(bad()),
                    };
                }
                "tables" => {
                    let n: usize = value.parse().map_err(|_| bad())?;
                    if n == 0 {
                        return Err(config_err(
                            "tables must be >= 1 (each tuple needs at least one slot)".to_string(),
                        ));
                    }
                    if !n.is_power_of_two() {
                        eprintln!(
                            "warning: tables={n} is not a power of two; \
                             rounding up to {}",
                            n.next_power_of_two()
                        );
                    }
                    b.tss_tables = n;
                }
                "capacity" => {
                    let n: usize = value.parse().map_err(|_| bad())?;
                    if n == 0 {
                        return Err(config_err(
                            "capacity must be >= 1 (the TCAM needs at least one slot)".to_string(),
                        ));
                    }
                    b.tcam_capacity = n;
                }
                "partitions" => {
                    let n: usize = value.parse().map_err(|_| bad())?;
                    if n == 0 {
                        return Err(config_err("partitions must be >= 1".to_string()));
                    }
                    b.tcam_partitions = n;
                }
                "optimize" => {
                    b.optimize = match value {
                        "off" => OptimizePolicy::Off,
                        "validated" => OptimizePolicy::Validated,
                        _ => return Err(bad()),
                    };
                }
                "shards" => {
                    let n: usize = value.parse().map_err(|_| bad())?;
                    if n == 0 {
                        return Err(config_err("shards must be >= 1".to_string()));
                    }
                    b.shard_count = n;
                }
                "strategy" => {
                    strategy_set = true;
                    b.shard_strategy = match value {
                        "prio" | "priority" | "bands" => ShardStrategy::PriorityBands,
                        "hash" | "field-hash" => ShardStrategy::FieldHash(DEFAULT_HASH_DIM),
                        _ => return Err(bad()),
                    };
                }
                "hash_dim" => {
                    // An unknown dimension is an unparseable value, the
                    // same class as combine=middle: BadOption.
                    hash_dim = Some(parse_dim(value).ok_or_else(bad)?);
                }
                "skew" => {
                    let skew: f64 = value.parse().map_err(|_| bad())?;
                    if !skew.is_finite() || skew < 1.0 {
                        return Err(config_err(format!(
                            "skew must be a finite factor >= 1.0, got {value}"
                        )));
                    }
                    skew_set = true;
                    b.band_skew = skew;
                }
                _ => unreachable!("every SPEC_KEYS entry is dispatched above"),
            }
        }
        // Cross-key validation (spec key order must not matter).
        if let Some(dim) = hash_dim {
            match b.shard_strategy {
                ShardStrategy::FieldHash(_) if strategy_set => {
                    b.shard_strategy = ShardStrategy::FieldHash(dim);
                }
                _ => {
                    return Err(BuildError::ConfigError {
                        option: format!("hash_dim={dim}"),
                        reason: "hash_dim requires strategy=hash".to_string(),
                    })
                }
            }
        }
        if skew_set && matches!(b.shard_strategy, ShardStrategy::FieldHash(_)) {
            return Err(BuildError::ConfigError {
                option: format!("skew={}", b.band_skew),
                reason: "skew tunes priority-band splitting; it requires strategy=prio".to_string(),
            });
        }
        if kind == EngineKind::SoftTcam && b.tcam_partitions > b.tcam_capacity {
            return Err(BuildError::ConfigError {
                option: format!("partitions={}", b.tcam_partitions),
                reason: format!("partitions must not exceed capacity ({})", b.tcam_capacity),
            });
        }
        if kind == EngineKind::Sharded
            && !b.shard_inner.is_configurable()
            && (b.rule_filter_bits.is_some() || b.combine.is_some())
        {
            return Err(BuildError::ConfigError {
                option: spec.to_string(),
                reason: format!(
                    "rf_bits/combine apply to configurable inner engines, not {}",
                    b.shard_inner
                ),
            });
        }
        Ok(b)
    }

    /// The backend this builder constructs.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Overrides the Rule Filter address width (configurable backends).
    pub fn with_rule_filter_bits(mut self, bits: u32) -> Self {
        self.rule_filter_bits = Some(bits);
        self
    }

    /// Sets the shard count (sharded backend; 0 is clamped to 1 at
    /// build time).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shard_count = shards;
        self
    }

    /// Sets the inner backend each shard runs (sharded backend).
    pub fn with_shard_inner(mut self, inner: EngineKind) -> Self {
        self.shard_inner = inner;
        self
    }

    /// Sets what [`EngineBuilder::build`] does with the pre-build audit.
    pub fn with_audit(mut self, policy: AuditPolicy) -> Self {
        self.audit = policy;
        self
    }

    /// Sets the microflow capacity (cached backend; rounded up to a
    /// power of two at build time, 0 is rejected there).
    pub fn with_cache_flows(mut self, flows: usize) -> Self {
        self.cache_flows = flows;
        self
    }

    /// Sets whether [`EngineBuilder::build`] optimizes the rule set
    /// first (spec key `optimize=off|validated`; any backend).
    pub fn with_optimize(mut self, policy: OptimizePolicy) -> Self {
        self.optimize = policy;
        self
    }

    /// The analyzer limits matching what this builder would actually
    /// provision for `rules`: label and Rule Filter capacities are taken
    /// from the same [`ArchConfig`] that [`EngineBuilder::build`] uses
    /// (including Rule Filter auto-sizing), so audit predictions line up
    /// with the built engine.
    pub fn audit_limits(&self, rules: &RuleSet) -> AnalyzerLimits {
        let alg = match self.kind {
            EngineKind::ConfigurableMbt => IpAlg::Mbt,
            _ => IpAlg::Bst,
        };
        let cfg = self.arch_for(alg, rules);
        let w = cfg.label_widths;
        AnalyzerLimits::from_capacities(
            (1usize << w.ip).min(cfg.ip_label_entries),
            (1usize << w.port).min(cfg.port_label_entries),
            1usize << w.proto,
            cfg.rule_slots(),
        )
    }

    /// Runs the static pre-build audit over a rule set, judged against
    /// this builder's provisioning (see [`EngineBuilder::audit_limits`]).
    ///
    /// This never constructs an engine; it is cheap enough to run before
    /// every build of an untrusted set. [`EngineBuilder::with_audit`]
    /// folds it into [`EngineBuilder::build`] itself.
    pub fn audit(&self, rules: &RuleSet) -> RuleSetReport {
        spc_analyze::analyze_with(rules, &self.audit_limits(rules))
    }

    fn arch_for(&self, alg: IpAlg, rules: &RuleSet) -> ArchConfig {
        let mut cfg = ArchConfig::large();
        cfg.ip_alg = alg;
        if let Some(bits) = self.rule_filter_bits {
            cfg.rule_filter_addr_bits = bits;
        } else {
            // Auto-size the Rule Filter to keep hash-probe chains short:
            // at least 4x the rule count, within the large() default.
            let mut bits = cfg.rule_filter_addr_bits;
            while (1usize << bits) < rules.len().saturating_mul(4) && bits < 22 {
                bits += 1;
            }
            cfg.rule_filter_addr_bits = bits;
        }
        if let Some(combine) = self.combine {
            cfg.combine = combine;
        }
        cfg
    }

    fn build_configurable(
        &self,
        alg: IpAlg,
        rules: &RuleSet,
    ) -> Result<ConfigurableEngine, BuildError> {
        let mut cls = Classifier::new(self.arch_for(alg, rules));
        cls.load(rules).map_err(|e| BuildError::Rejected {
            kind: self.kind,
            reason: e.to_string(),
        })?;
        Ok(ConfigurableEngine::new(cls))
    }

    /// The builder each shard of this `sharded` builder runs: its inner
    /// kind with the forwarded provisioning. Each shard is built for its
    /// own slice, so Rule Filter autosizing sees the shard's rule count,
    /// not the global one — that per-shard right-sizing is half the win.
    fn shard_builder(&self) -> EngineBuilder {
        let mut per = EngineBuilder::new(self.shard_inner);
        per.rule_filter_bits = self.rule_filter_bits;
        per.combine = self.combine;
        per.tss_tables = self.tss_tables;
        per.tcam_capacity = self.tcam_capacity;
        per.tcam_partitions = self.tcam_partitions;
        per
    }

    pub(crate) fn build_sharded(&self, rules: &RuleSet) -> Result<ShardedEngine, BuildError> {
        if self.shard_inner == EngineKind::Sharded {
            return Err(BuildError::ConfigError {
                option: "inner=sharded".to_string(),
                reason: "the inner engine cannot itself be sharded".to_string(),
            });
        }
        if self.shard_inner == EngineKind::Snapshot {
            return Err(BuildError::ConfigError {
                option: "inner=snapshot".to_string(),
                reason: "the snapshot wrapper serves concurrent readers; nest it \
                         outside, not inside, a sharded engine"
                    .to_string(),
            });
        }
        let plan = shard::plan(rules, self.shard_count, self.shard_strategy);
        let router = shard::ShardRouter::from_plan(&plan, self.shard_count);
        let inner = self.shard_builder();
        let mut parts = Vec::with_capacity(plan.shards.len());
        for slice in plan.shards {
            let engine = inner.build(&slice.rules)?;
            parts.push((engine, slice));
        }
        // Capability probing delegates to the engines actually built,
        // not their registry kind: sharding stays updatable exactly when
        // every inner shard is.
        let updatable = parts.iter().all(|(engine, _)| engine.supports_updates());
        let mut engine = ShardedEngine::from_parts(parts, self.shard_strategy, self.shard_inner);
        if updatable {
            // Churn can open shards the plan never built (an empty hash
            // slot gaining its first rule, a band split): hand the
            // engine a factory for empty inners with identical
            // provisioning.
            let inner_builder = inner.clone();
            let factory: InnerFactory = Box::new(move || {
                inner_builder
                    .build(&RuleSet::new())
                    .map_err(|e| e.to_string())
            });
            engine.enable_updates(router, factory, self.band_skew);
        }
        Ok(engine)
    }

    pub(crate) fn build_cached(&self, rules: &RuleSet) -> Result<CachedEngine, BuildError> {
        let inner_builder = match &self.cache_inner {
            Some(b) => (**b).clone(),
            None => EngineBuilder::new(EngineKind::ConfigurableBst),
        };
        if self.cache_flows == 0 {
            return Err(BuildError::ConfigError {
                option: "flows=0".to_string(),
                reason: "flows must be >= 1 (the cache needs at least one slot)".to_string(),
            });
        }
        let inner = inner_builder.build(rules)?;
        Ok(CachedEngine::new(
            inner,
            self.cache_flows.next_power_of_two(),
            self.cache_megaflow,
            rules.rules(),
        ))
    }

    /// Builds the snapshot-swap wrapper as its concrete type, so callers
    /// can take [`crate::SnapshotReader`]s ([`crate::SnapshotEngine::reader`])
    /// — the trait object returned by [`EngineBuilder::build`] cannot
    /// hand those out. `inner` defaults to `configurable-bst`; a
    /// `sharded:` inner is decomposed so updates rebuild only the
    /// touched shard.
    ///
    /// # Errors
    ///
    /// As [`EngineBuilder::build`] (snapshot-in-snapshot nesting is
    /// already rejected by [`EngineBuilder::from_spec`]).
    pub fn build_snapshot(&self, rules: &RuleSet) -> Result<crate::SnapshotEngine, BuildError> {
        let inner = match &self.snapshot_inner {
            Some(b) => (**b).clone(),
            None => EngineBuilder::new(EngineKind::ConfigurableBst),
        };
        if inner.kind == EngineKind::Sharded {
            let plan = shard::plan(rules, inner.shard_count, inner.shard_strategy);
            let router = shard::ShardRouter::from_plan(&plan, inner.shard_count);
            let per = inner.shard_builder();
            crate::SnapshotEngine::from_sharded(plan, router, per, inner.shard_strategy)
        } else {
            crate::SnapshotEngine::from_single(rules, inner)
        }
    }

    /// Builds the backend over a rule set.
    ///
    /// # Errors
    ///
    /// [`BuildError::DuplicateRules`] when two rules have identical match
    /// conditions (checked up front on every backend),
    /// [`BuildError::AuditRejected`] when
    /// [`AuditPolicy::RejectErrors`] is set and the audit finds
    /// error-level issues, [`BuildError::OptimizeFailed`] when
    /// [`OptimizePolicy::Validated`] is set and the optimizer's output
    /// fails equivalence validation, and [`BuildError::Rejected`] when
    /// the backend cannot hold the set (provisioning limits, RFC entry
    /// cap).
    pub fn build(&self, rules: &RuleSet) -> Result<Box<dyn PacketClassifier>, BuildError> {
        // Duplicate 5-tuples are unrepresentable on the configurable
        // architecture; reject them uniformly so a set either builds on
        // every backend or on none. The check runs on the set as given,
        // before any optimization, so registry semantics do not depend
        // on the optimize policy.
        let mut first_seen: HashMap<[DimValue; 7], RuleId> = HashMap::new();
        for (id, rule) in rules.iter() {
            if let Some(&first) = first_seen.get(&rule.dim_values()) {
                return Err(BuildError::DuplicateRules { first, dup: id });
            }
            first_seen.insert(rule.dim_values(), id);
        }
        drop(first_seen);
        match self.audit {
            AuditPolicy::Off => {}
            AuditPolicy::Warn => {
                let report = self.audit(rules);
                for finding in &report.findings {
                    eprintln!("audit: {finding}");
                }
            }
            AuditPolicy::RejectErrors => {
                let report = self.audit(rules);
                if report.has_errors() {
                    let errors: Vec<_> = report.at_severity(spc_analyze::Severity::Error).collect();
                    return Err(BuildError::AuditRejected {
                        errors: errors.len(),
                        first: errors[0].message.clone(),
                    });
                }
            }
        }
        match self.optimize {
            OptimizePolicy::Off => self.build_raw(rules),
            OptimizePolicy::Validated => {
                let opt =
                    spc_analyze::optimize(rules, &spc_analyze::OptimizeConfig::id_preserving())
                        .map_err(|e| BuildError::OptimizeFailed {
                            reason: e.to_string(),
                        })?;
                let inner = self.build_raw(&opt.rules)?;
                Ok(Box::new(crate::OptimizedEngine::new(inner, &opt, rules)))
            }
        }
    }

    /// The kind dispatch, after all set-level checks: builds the backend
    /// from exactly the rules it is given.
    fn build_raw(&self, rules: &RuleSet) -> Result<Box<dyn PacketClassifier>, BuildError> {
        Ok(match self.kind {
            EngineKind::ConfigurableMbt => Box::new(self.build_configurable(IpAlg::Mbt, rules)?),
            EngineKind::ConfigurableBst => Box::new(self.build_configurable(IpAlg::Bst, rules)?),
            EngineKind::Linear => Box::new(BaselineEngine::new(
                self.kind,
                LinearSearch::build(rules),
                rules,
            )),
            EngineKind::HyperCuts => Box::new(BaselineEngine::new(
                self.kind,
                HyperCuts::build(rules, HyperCutsConfig::default()),
                rules,
            )),
            EngineKind::Rfc => {
                let rfc =
                    Rfc::build(rules, DEFAULT_RFC_ENTRY_CAP).map_err(|e| BuildError::Rejected {
                        kind: self.kind,
                        reason: e.to_string(),
                    })?;
                Box::new(BaselineEngine::new(self.kind, rfc, rules))
            }
            EngineKind::Dcfl => Box::new(BaselineEngine::new(self.kind, Dcfl::build(rules), rules)),
            EngineKind::Option1 => Box::new(BaselineEngine::new(
                self.kind,
                OptionClassifier::build(rules, OptionKind::One),
                rules,
            )),
            EngineKind::Option2 => Box::new(BaselineEngine::new(
                self.kind,
                OptionClassifier::build(rules, OptionKind::Two),
                rules,
            )),
            EngineKind::Sharded => Box::new(self.build_sharded(rules)?),
            EngineKind::Cached => Box::new(self.build_cached(rules)?),
            EngineKind::Snapshot => Box::new(self.build_snapshot(rules)?),
            EngineKind::TupleSpace => Box::new(
                crate::TupleSpaceEngine::build(rules, self.tss_tables).map_err(|e| {
                    BuildError::Rejected {
                        kind: self.kind,
                        reason: e.to_string(),
                    }
                })?,
            ),
            EngineKind::SoftTcam => Box::new(
                crate::SoftTcamEngine::build(rules, self.tcam_capacity, self.tcam_partitions)
                    .map_err(|e| BuildError::Rejected {
                        kind: self.kind,
                        reason: e.to_string(),
                    })?,
            ),
        })
    }
}

/// One-shot convenience: parse a spec and build over a rule set.
///
/// # Errors
///
/// As [`EngineBuilder::from_spec`] and [`EngineBuilder::build`].
pub fn build_engine(spec: &str, rules: &RuleSet) -> Result<Box<dyn PacketClassifier>, BuildError> {
    EngineBuilder::from_spec(spec)?.build(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc_types::{Action, Header, PortRange, Priority, ProtoSpec, Rule};

    fn rules() -> RuleSet {
        RuleSet::from_rules(vec![
            Rule::builder(Priority(0))
                .dst_port(PortRange::exact(80))
                .proto(ProtoSpec::Exact(6))
                .action(Action::Forward(1))
                .build(),
            Rule::builder(Priority(1)).action(Action::Drop).build(),
        ])
    }

    #[test]
    fn every_registry_kind_builds_and_classifies() {
        let rules = rules();
        let h = Header::new([9, 9, 9, 9].into(), [8, 8, 8, 8].into(), 1, 80, 6);
        for kind in EngineKind::ALL {
            let e = EngineBuilder::new(kind).build(&rules).unwrap();
            assert_eq!(e.kind(), kind);
            assert_eq!(e.rules(), 2, "{kind}");
            assert_eq!(e.classify(&h).priority, Some(Priority(0)), "{kind}");
            assert!(e.memory_bits() > 0, "{kind}");
            // Update capability delegates to the built engine, not the
            // registry kind: the default sharded and cached configs wrap
            // configurable-bst inners, so they are updatable too. The
            // snapshot wrapper is updatable regardless of its inner —
            // build-once inners are rebuilt wholesale per update. The
            // tuple-space and software-TCAM backends are update-first by
            // design.
            let expected = kind.is_configurable()
                || kind == EngineKind::Sharded
                || kind == EngineKind::Cached
                || kind == EngineKind::Snapshot
                || kind == EngineKind::TupleSpace
                || kind == EngineKind::SoftTcam;
            assert_eq!(e.supports_updates(), expected, "{kind}");
        }
    }

    #[test]
    fn sharded_capability_follows_the_inner_engines() {
        let rules = rules();
        // Configurable inners keep the §V.A update path alive...
        for spec in [
            "sharded:inner=configurable-bst,shards=2,strategy=prio",
            "sharded:inner=configurable-mbt,shards=2,strategy=hash",
        ] {
            let e = build_engine(spec, &rules).unwrap();
            assert!(e.supports_updates(), "{spec}");
        }
        // ...build-once inners do not.
        for spec in ["sharded:inner=linear,shards=2", "sharded:inner=hypercuts"] {
            let mut e = build_engine(spec, &rules).unwrap();
            assert!(!e.supports_updates(), "{spec}");
            assert!(matches!(
                e.insert(Rule::any(Priority(9))),
                Err(crate::UpdateError::Unsupported { .. })
            ));
        }
    }

    #[test]
    fn skew_spec_rules() {
        // skew parses and reaches the builder on the prio strategy.
        let b = EngineBuilder::from_spec("sharded:strategy=prio,skew=1.5").unwrap();
        assert!((b.band_skew - 1.5).abs() < 1e-12);
        // Default strategy is prio, so a bare skew is fine too.
        assert!(EngineBuilder::from_spec("sharded:skew=3").is_ok());
        // Malformed values are BadOption; out-of-range and
        // strategy-mismatched ones are ConfigError.
        assert!(matches!(
            EngineBuilder::from_spec("sharded:skew=fast"),
            Err(BuildError::BadOption { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("sharded:skew=0.5"),
            Err(BuildError::ConfigError { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("sharded:strategy=hash,skew=2"),
            Err(BuildError::ConfigError { .. })
        ));
        // skew is a sharded key, nobody else's.
        assert!(matches!(
            EngineBuilder::from_spec("linear:skew=2"),
            Err(BuildError::ConfigError { .. })
        ));
    }

    #[test]
    fn bad_option_key_list_tracks_the_parser_table() {
        let msg = BuildError::BadOption {
            option: "x".to_string(),
        }
        .to_string();
        for &(key, scope) in SPEC_KEYS {
            assert!(msg.contains(key), "BadOption must list {key:?}: {msg}");
            // Every table entry is live grammar: with a garbage value a
            // backend in the key's scope must fail on the *value*, never
            // with an unknown-key rejection.
            let probe = match scope {
                KeyScope::Cached => "cached",
                KeyScope::TupleSpace => "tss",
                KeyScope::Tcam => "tcam",
                _ => "sharded",
            };
            let e = EngineBuilder::from_spec(&format!("{probe}:{key}=\u{2301}")).unwrap_err();
            let rejected_key = matches!(
                &e,
                BuildError::ConfigError { reason, .. } if reason.contains("unknown key")
            );
            assert!(!rejected_key, "{key:?} fell out of the parser: {e}");
        }
    }

    #[test]
    fn spec_options_reach_the_classifier() {
        let rules = rules();
        let b = EngineBuilder::from_spec("configurable-mbt:rf_bits=14,combine=first").unwrap();
        assert_eq!(b.kind(), EngineKind::ConfigurableMbt);
        // Inspect the *built* engine's live config through the adapter
        // accessor, so dropping the parsed options in build() would fail
        // here.
        let engine = b.build_configurable(IpAlg::Mbt, &rules).unwrap();
        let cfg = engine.classifier().config();
        assert_eq!(cfg.rule_filter_addr_bits, 14);
        assert_eq!(cfg.combine, CombineStrategy::FirstLabel);
        assert_eq!(cfg.ip_alg, IpAlg::Mbt);
    }

    #[test]
    fn bad_specs_fail_loudly() {
        assert!(matches!(
            EngineBuilder::from_spec("warp-drive"),
            Err(BuildError::UnknownKind { .. })
        ));
        // Unknown keys are a hard ConfigError on every kind.
        assert!(matches!(
            EngineBuilder::from_spec("linear:frobnicate=1"),
            Err(BuildError::ConfigError { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("sharded:frobnicate=1"),
            Err(BuildError::ConfigError { .. })
        ));
        // Malformed values stay BadOption.
        assert!(matches!(
            EngineBuilder::from_spec("configurable-mbt:rf_bits=banana"),
            Err(BuildError::BadOption { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("configurable-mbt:combine=middle"),
            Err(BuildError::BadOption { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("configurable-mbt:rf_bits"),
            Err(BuildError::BadOption { .. })
        ));
        // Keys for another backend must fail loudly, not be silently
        // discarded.
        assert!(matches!(
            EngineBuilder::from_spec("rfc:combine=first"),
            Err(BuildError::ConfigError { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("dcfl:rf_bits=20"),
            Err(BuildError::ConfigError { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("linear:shards=4"),
            Err(BuildError::ConfigError { .. })
        ));
        // Duplicated keys are ambiguous, not last-wins.
        assert!(matches!(
            EngineBuilder::from_spec("configurable-mbt:rf_bits=14,rf_bits=12"),
            Err(BuildError::ConfigError { .. })
        ));
    }

    #[test]
    fn sharded_spec_options_reach_the_engine() {
        let rules = rules();
        let b = EngineBuilder::from_spec(
            "sharded:inner=linear,shards=2,strategy=hash,hash_dim=dst_port",
        )
        .unwrap();
        assert_eq!(b.kind(), EngineKind::Sharded);
        let engine = b.build_sharded(&rules).unwrap();
        assert_eq!(engine.inner_kind(), EngineKind::Linear);
        assert_eq!(engine.strategy(), ShardStrategy::FieldHash(Dim::DstPort));
        assert!(engine.shard_count() <= 2);
        assert_eq!(engine.rules(), 2);

        // strategy=hash alone picks the default dimension.
        let b = EngineBuilder::from_spec("sharded:strategy=hash").unwrap();
        let engine = b.build_sharded(&rules).unwrap();
        assert!(matches!(engine.strategy(), ShardStrategy::FieldHash(_)));

        // rf_bits flows through to configurable inner shards.
        let b =
            EngineBuilder::from_spec("sharded:inner=configurable-mbt,shards=2,rf_bits=13").unwrap();
        assert!(b.build_sharded(&rules).is_ok());
    }

    #[test]
    fn sharded_spec_inconsistencies_are_config_errors() {
        for spec in [
            "sharded:inner=sharded",                // recursive sharding
            "sharded:shards=0",                     // no shards
            "sharded:hash_dim=dst_port",            // hash_dim without strategy=hash
            "sharded:strategy=prio,hash_dim=proto", // same, explicit prio
            "sharded:inner=linear,rf_bits=14",      // rf_bits needs configurable inner
            "sharded:inner=linear,combine=probe",   // combine likewise
        ] {
            assert!(
                matches!(
                    EngineBuilder::from_spec(spec),
                    Err(BuildError::ConfigError { .. })
                ),
                "{spec} must be a ConfigError"
            );
        }
        assert!(matches!(
            EngineBuilder::from_spec("sharded:inner=quantum"),
            Err(BuildError::UnknownKind { .. })
        ));
        assert!(matches!(
            EngineBuilder::from_spec("sharded:shards=many"),
            Err(BuildError::BadOption { .. })
        ));
        // An unknown dimension name is an unparseable value: BadOption,
        // like combine=middle.
        assert!(matches!(
            EngineBuilder::from_spec("sharded:strategy=hash,hash_dim=warp"),
            Err(BuildError::BadOption { .. })
        ));
        // The builder-method path is validated at build time.
        let e = EngineBuilder::new(EngineKind::Sharded)
            .with_shard_inner(EngineKind::Sharded)
            .build(&rules());
        assert!(matches!(e, Err(BuildError::ConfigError { .. })));
    }

    #[test]
    fn spec_key_order_does_not_matter() {
        let rules = rules();
        for spec in [
            "sharded:strategy=hash,hash_dim=proto,inner=linear",
            "sharded:hash_dim=proto,strategy=hash,inner=linear",
            "sharded:inner=linear,hash_dim=proto,strategy=hash",
        ] {
            let e = EngineBuilder::from_spec(spec)
                .unwrap()
                .build_sharded(&rules);
            assert_eq!(
                e.unwrap().strategy(),
                ShardStrategy::FieldHash(Dim::Proto),
                "{spec}"
            );
        }
    }

    #[test]
    fn duplicate_rules_reject_on_every_backend() {
        // Identical match conditions (priorities differ — they are not
        // part of the filter) are a uniform hard error: no backend may
        // accept a set another backend must reject.
        let dup = RuleSet::from_rules(vec![Rule::any(Priority(0)), Rule::any(Priority(1))]);
        for kind in EngineKind::ALL {
            let e = EngineBuilder::new(kind).build(&dup);
            assert!(
                matches!(
                    e,
                    Err(BuildError::DuplicateRules {
                        first: spc_types::RuleId(0),
                        dup: spc_types::RuleId(1),
                    })
                ),
                "{kind} must reject duplicate 5-tuples"
            );
        }
        // Same conditions *and* different fields: fine everywhere.
        let ok = RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::builder(Priority(1))
                .dst_port(PortRange::exact(80))
                .build(),
        ]);
        for kind in EngineKind::ALL {
            assert!(EngineBuilder::new(kind).build(&ok).is_ok(), "{kind}");
        }
    }

    #[test]
    fn audit_surfaces_findings_and_matches_provisioning() {
        let rules = rules();
        let b = EngineBuilder::new(EngineKind::ConfigurableBst);
        let report = b.audit(&rules);
        // Rule 1 is a catch-all below a specific rule: clean, no shadows.
        assert!(report.shadowed_rules().is_empty());
        assert!(!report.has_errors());
        // Limits mirror the exact config build() would use, including
        // Rule Filter auto-sizing.
        let limits = b.audit_limits(&rules);
        let cfg = b.arch_for(IpAlg::Bst, &rules);
        assert_eq!(limits.rule_filter_slots, cfg.rule_slots());
    }

    #[test]
    fn audit_policy_rejects_error_sets() {
        // 9 distinct filters against a 4-slot Rule Filter: the audit
        // predicts overflow as an error before any engine is built.
        let rules: RuleSet = (0..9u16)
            .map(|i| {
                Rule::builder(Priority(u32::from(i)))
                    .dst_port(PortRange::exact(i))
                    .proto(ProtoSpec::Exact(6))
                    .build()
            })
            .collect();
        let b = EngineBuilder::new(EngineKind::ConfigurableBst)
            .with_rule_filter_bits(2)
            .with_audit(crate::AuditPolicy::RejectErrors);
        let e = b.build(&rules);
        assert!(
            matches!(e, Err(BuildError::AuditRejected { errors, .. }) if errors >= 1),
            "audit must reject the overflowing set"
        );
        // The same build without the audit fails later, inside the
        // engine, with a less specific capacity error.
        let raw = EngineBuilder::new(EngineKind::ConfigurableBst)
            .with_rule_filter_bits(2)
            .build(&rules);
        assert!(matches!(raw, Err(BuildError::Rejected { .. })));
        // Warning-level findings (a shadowed rule) do not reject.
        let shadowing = RuleSet::from_rules(vec![
            Rule::any(Priority(0)),
            Rule::builder(Priority(1))
                .dst_port(PortRange::exact(80))
                .build(),
        ]);
        let b = EngineBuilder::new(EngineKind::ConfigurableBst)
            .with_audit(crate::AuditPolicy::RejectErrors);
        assert!(b.audit(&shadowing).max_severity() == Some(spc_analyze::Severity::Warning));
        assert!(b.build(&shadowing).is_ok());
    }

    #[test]
    fn cached_spec_options_reach_the_engine() {
        let rules = rules();
        let b = EngineBuilder::from_spec("cached:inner=linear,flows=128,megaflow=off").unwrap();
        assert_eq!(b.kind(), EngineKind::Cached);
        let engine = b.build_cached(&rules).unwrap();
        assert_eq!(engine.inner().kind(), EngineKind::Linear);
        assert!(!engine.has_megaflow());

        // Defaults: configurable-bst inner, megaflow on.
        let engine = EngineBuilder::from_spec("cached")
            .unwrap()
            .build_cached(&rules)
            .unwrap();
        assert_eq!(engine.inner().kind(), EngineKind::ConfigurableBst);
        assert!(engine.has_megaflow());
        assert!(engine.supports_updates());

        // A nested inner spec tunes the inner engine in place; parens
        // protect its commas from the outer split.
        let engine =
            EngineBuilder::from_spec("cached:inner=(sharded:inner=linear,shards=2),flows=64")
                .unwrap()
                .build_cached(&rules)
                .unwrap();
        assert_eq!(engine.inner().kind(), EngineKind::Sharded);
        // Colon-style nested options work without parens when comma-free.
        let engine = EngineBuilder::from_spec("cached:inner=configurable-mbt:rf_bits=14")
            .unwrap()
            .build_cached(&rules)
            .unwrap();
        assert_eq!(engine.inner().kind(), EngineKind::ConfigurableMbt);
    }

    #[test]
    fn cached_spec_inconsistencies_are_config_errors() {
        // flows=0 is a typed ConfigError at parse time...
        let e = EngineBuilder::from_spec("cached:flows=0").unwrap_err();
        assert!(
            matches!(&e, BuildError::ConfigError { reason, .. } if reason.contains("flows")),
            "{e}"
        );
        // ...and at build time through the builder-method path.
        let e = EngineBuilder::new(EngineKind::Cached)
            .with_cache_flows(0)
            .build(&rules())
            .unwrap_err();
        assert!(matches!(e, BuildError::ConfigError { .. }));
        // A cached wrapper inside a cached wrapper is rejected.
        assert!(matches!(
            EngineBuilder::from_spec("cached:inner=cached"),
            Err(BuildError::ConfigError { .. })
        ));
        // A broken nested spec carries the inner parser's message.
        let e = EngineBuilder::from_spec("cached:inner=(linear:frobnicate=1)").unwrap_err();
        match &e {
            BuildError::ConfigError { reason, .. } => {
                assert!(
                    reason.contains("frobnicate"),
                    "inner message kept: {reason}"
                );
            }
            other => panic!("expected ConfigError, got {other}"),
        }
        // Cache keys belong to the cached backend only; rf_bits does not
        // forward through the wrapper (tune the nested inner spec).
        for spec in [
            "linear:flows=64",
            "sharded:megaflow=on",
            "cached:rf_bits=14",
            "cached:megaflow=sideways",
        ] {
            assert!(
                EngineBuilder::from_spec(spec).is_err(),
                "{spec} must be rejected"
            );
        }
    }

    #[test]
    fn tuplespace_and_tcam_spec_options_reach_the_engine() {
        let rules = rules();
        let e = build_engine("tss:tables=16", &rules).unwrap();
        assert_eq!(e.kind(), EngineKind::TupleSpace);
        assert!(e.supports_updates());
        let e = build_engine("tcam:capacity=1024,partitions=4", &rules).unwrap();
        assert_eq!(e.kind(), EngineKind::SoftTcam);
        assert!(e.supports_updates());
        // Both compose as wrapper inners and under sharding.
        for spec in [
            "cached:inner=tss,flows=64",
            "snapshot:inner=(tcam:capacity=4096)",
            "sharded:inner=tss,shards=2",
            "sharded:inner=tcam,shards=2",
        ] {
            let e = build_engine(spec, &rules).unwrap();
            assert_eq!(e.rules(), 2, "{spec}");
            assert!(e.supports_updates(), "{spec}");
        }
    }

    #[test]
    fn tuplespace_and_tcam_spec_errors_are_typed() {
        // Malformed values are BadOption.
        for spec in ["tss:tables=lots", "tcam:capacity=big", "tcam:partitions=x"] {
            assert!(
                matches!(
                    EngineBuilder::from_spec(spec),
                    Err(BuildError::BadOption { .. })
                ),
                "{spec} must be BadOption"
            );
        }
        // Out-of-range and inconsistent values are ConfigError.
        for spec in [
            "tss:tables=0",
            "tcam:capacity=0",
            "tcam:partitions=0",
            "tcam:capacity=4,partitions=8",
            "tcam:partitions=8,capacity=4", // key order must not matter
        ] {
            assert!(
                matches!(
                    EngineBuilder::from_spec(spec),
                    Err(BuildError::ConfigError { .. })
                ),
                "{spec} must be ConfigError"
            );
        }
        // Each backend's keys belong to it alone.
        for spec in [
            "tcam:tables=8",
            "tss:capacity=64",
            "linear:partitions=2",
            "sharded:inner=tss,tables=8",
        ] {
            assert!(
                matches!(
                    EngineBuilder::from_spec(spec),
                    Err(BuildError::ConfigError { .. })
                ),
                "{spec} must be ConfigError"
            );
        }
        // A rule set whose expansion overflows the TCAM is a typed
        // build rejection, not a panic.
        let wide = RuleSet::from_rules(vec![Rule::builder(Priority(0))
            .src_port(PortRange::new(1000, 40000).unwrap())
            .build()]);
        let e = EngineBuilder::from_spec("tcam:capacity=4,partitions=2")
            .unwrap()
            .build(&wide);
        assert!(
            matches!(&e, Err(BuildError::Rejected { kind, reason })
                if *kind == EngineKind::SoftTcam && reason.contains("capacity")),
            "expected a capacity rejection, got {e:?}"
        );
    }

    #[test]
    fn rule_filter_autosizing_scales() {
        let b = EngineBuilder::new(EngineKind::ConfigurableMbt);
        let small = b.arch_for(IpAlg::Mbt, &rules());
        assert_eq!(
            small.rule_filter_addr_bits,
            ArchConfig::large().rule_filter_addr_bits
        );
        let many: RuleSet = (0..40_000u32)
            .map(|i| {
                Rule::builder(Priority(i))
                    .dst_port(PortRange::exact(i as u16))
                    .build()
            })
            .collect();
        let big = b.arch_for(IpAlg::Mbt, &many);
        assert!(big.rule_filter_addr_bits > ArchConfig::large().rule_filter_addr_bits);
    }
}
