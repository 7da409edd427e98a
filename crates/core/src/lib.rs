//! # migratory-core — dynamic constraints and object migration
//!
//! The primary contribution of Su, *Dynamic Constraints and Object
//! Migration* (VLDB 1991 / TCS 184 (1997) 195–236), implemented in full:
//!
//! * **Patterns and inventories** ([`pattern`], [`inventory`]): migration
//!   patterns as words over the role-set alphabet Ω ([`alphabet`]), the
//!   four families (all / immediate-start / proper / lazy), and regular
//!   inventories as dynamic integrity constraints;
//! * **Analysis** ([`separator`], [`graph`], [`mod@analyze`]): Theorem 3.2(1)
//!   — the hyperplane/separator construction turning any SL transaction
//!   schema into a migration graph whose walks spell its pattern
//!   families, each a regular language with an effectively constructed
//!   regular expression;
//! * **Synthesis** ([`mod@synthesize`]): Lemma 3.4 / Theorem 3.2(2) — SL
//!   transactions characterizing any regular inventory;
//! * **Decision procedures** ([`mod@decide`]): Corollary 3.3 —
//!   satisfies/generates/characterizes with counterexamples;
//! * **Runtime enforcement** ([`enforce`]): the paper's motivating
//!   application — a monitor admitting only updates whose object
//!   migration patterns stay inside the inventory. The engine is
//!   **incremental**: transactions are applied through
//!   `migratory_lang::apply_transaction_delta` and validated from the
//!   change-set alone (apply-then-undo, no database clone), untouched
//!   objects advance via cohorts keyed by (DFA state, role symbol) — one
//!   `dfa.step` per cohort, not per object — and per-object histories are
//!   run-length encoded, so admitting a transaction costs O(touched +
//!   |cohorts|) instead of O(|db| × run-length). The pre-optimization
//!   rescan algorithm survives as `enforce::ReferenceMonitor`, the
//!   testing oracle, and Corollary 3.3 still provides the static
//!   certification fast path for provably conforming SL schemas.
//!   Because objects evolve independently (Lemma 3.5), tracking also
//!   *shards*: `enforce::ShardedMonitor` partitions the population by
//!   weakly-connected role component (oid stripes as fallback), gives
//!   every shard its own letter clock, so shards share no mutable state,
//!   stages each participating shard's checks inline on the calling
//!   thread, and batch-admits whole blocks of transactions against one
//!   cohort sweep per shard (`try_apply_batch`); with one shard it is
//!   the paper's single monitor. Tracking state is **durable** on
//!   request: a write-ahead log of committed transaction deltas plus
//!   canonical snapshots (`enforce::wal`, group-committed per block)
//!   lets a monitor recover byte-identical state after a crash without
//!   replaying history, and a bounded per-shard ingress
//!   (`enforce::ingress`) admits concurrent callers with backpressure;
//! * **CSL expressiveness** ([`tm_compile`], [`cfg_compile`]): Theorem
//!   4.3's Turing-machine simulation and Theorem 4.8's Greibach-normal-
//!   form compiler, with scripted completeness drivers and fuzzable
//!   soundness;
//! * **Ground truth** ([`mod@explore`]): Theorem 4.2's bounded r.e.
//!   enumeration of pattern families, the oracle everything else is
//!   tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alphabet;
pub mod analyze;
pub mod cfg_compile;
pub mod decide;
pub mod enforce;
pub mod error;
pub mod explore;
pub mod graph;
pub mod inventory;
pub mod pattern;
pub mod separator;
pub mod synthesize;
pub mod tm_compile;

pub use alphabet::RoleAlphabet;
pub use analyze::{
    analyze, analyze_all_components, analyze_families, families, Analysis, AnalyzeOptions, Families,
};
pub use cfg_compile::{compile_cfg, standard_cfg_schema, CfgCompiled};
pub use decide::{decide, decide_with_families, Decision, Verdict};
pub use enforce::{EnforceError, ShardStats, ShardedMonitor, StepPolicy, Violation};
pub use error::CoreError;
pub use explore::{explore, ExploreConfig, PatternSets};
pub use graph::MigrationGraph;
pub use inventory::Inventory;
pub use pattern::{MigrationPattern, PatternKind};
pub use separator::VertexKey;
pub use synthesize::{from_graph, synthesize, synthesize_lazy, Synthesis};
pub use tm_compile::{compile_tm, drive_word, standard_tm_schema, TmCompiled, TmSpec};
