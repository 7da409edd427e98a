//! The migration-graph analyzer — Theorem 3.2(1) as an algorithm.
//!
//! Given an SL transaction schema Σ, build the migration graph G_Σ whose
//! walks from `vs` spell exactly the migration patterns of Σ:
//!
//! * **vertices** are the separator triples `(ω, hyperplane, equivalence)`
//!   of [`crate::separator`] — by Lemma 3.8, Σ cannot distinguish objects
//!   matching the same vertex, so per-vertex behaviour is well defined;
//! * **creation edges** `vs → v` arise from running every transaction on
//!   the empty database under every canonical assignment (Lemma 3.9's
//!   claim shows constants ∪ fresh values suffice);
//! * **interior edges** `v → v′` and **deletion edges** `v → vt` arise
//!   from running every transaction on the canonical one-object database
//!   `d_v` under assignments over constants ∪ {p₁…p_l} ∪ {ν₁…ν_m}.
//!
//! Two search modes are provided (an ablation `experiments thm3.2` times):
//! *reachable-only* (default — only vertices reachable from creations are
//! materialized) and *full-space* (the paper's whole `V_Σ`, exponential).
//! Edge computation can optionally run on multiple threads.

use crate::alphabet::RoleAlphabet;
use crate::error::CoreError;
use crate::graph::{EdgeInfo, MigrationGraph, VS, VT};
use crate::pattern::PatternKind;
use crate::separator::{
    canonical_db, enumerate_full_space, num_free_classes, vertex_of, VertexKey,
};
use migratory_automata::{concat as nfa_concat, Dfa, Nfa, Regex};
use migratory_lang::{run, validate_schema, Assignment, Language, TransactionSchema};
use migratory_model::{Instance, Oid, Schema, Value};
use std::collections::HashMap;

/// Base tag for the ν (per-assignment fresh) values; the p values of
/// canonical databases use tags `0..128`.
const NU_BASE: u32 = 1 << 16;

/// Options controlling [`analyze`].
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Materialize the full separator space instead of only reachable
    /// vertices (ablation; exponential).
    pub full_space: bool,
    /// Compute each frontier's edges on `available_parallelism()` scoped
    /// threads, one contiguous chunk of the frontier each.
    pub parallel: bool,
    /// Abort when more than this many vertices get materialized.
    pub max_vertices: usize,
    /// Extra constants to refine hyperplanes with (used by the
    /// reachability procedures of Section 5, whose assertions mention
    /// constants of their own).
    pub extra_constants: Vec<Value>,
    /// Enumerate the *full product* of assignment values instead of the
    /// deduplicated canonical (restricted-growth) generator — the ablation
    /// `experiments micro` times. Identical results, more ground runs.
    pub naive_assignments: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            full_space: false,
            parallel: false,
            max_vertices: 200_000,
            extra_constants: Vec::new(),
            naive_assignments: false,
        }
    }
}

/// Statistics of an analysis run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AnalyzeStats {
    /// Interior vertices materialized.
    pub vertices: usize,
    /// Edges of the migration graph.
    pub edges: usize,
    /// Ground transactions executed.
    pub runs: u64,
}

/// The result of analyzing an SL schema.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The migration graph (vertex `v ≥ 2` has key `keys[v-2]`).
    pub graph: MigrationGraph,
    /// The separator key of each interior vertex.
    pub keys: Vec<VertexKey>,
    /// The constant set `C` used for hyperplanes.
    pub constants: Vec<Value>,
    /// Search statistics.
    pub stats: AnalyzeStats,
}

/// Which transaction/assignment realizes an edge — kept per edge for the
/// reachability procedures of Section 5.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EdgeWitness {
    /// Edge endpoints.
    pub from: u32,
    /// Edge endpoints.
    pub to: u32,
    /// Index of the transaction in the schema.
    pub transaction: usize,
    /// Whether this realization *updates the object* (role set or
    /// attribute change) — script schemas (Definition 5.3) only order the
    /// updating applications.
    pub updates_object: bool,
}

/// Analyze an SL transaction schema over one component, producing its
/// migration graph (Theorem 3.2(1)). Fails with [`CoreError::NotSl`] on
/// CSL input — those families are r.e.-complete (Section 4), not regular.
pub fn analyze(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    ts: &TransactionSchema,
    opts: &AnalyzeOptions,
) -> Result<Analysis, CoreError> {
    let (analysis, _) = analyze_with_witnesses(schema, alphabet, ts, opts)?;
    Ok(analysis)
}

/// [`analyze`], additionally returning one witness per edge.
pub fn analyze_with_witnesses(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    ts: &TransactionSchema,
    opts: &AnalyzeOptions,
) -> Result<(Analysis, Vec<EdgeWitness>), CoreError> {
    if ts.language() != Language::Sl {
        return Err(CoreError::NotSl);
    }
    validate_schema(schema, ts)?;
    let mut constants: Vec<Value> = ts.constants().into_iter().collect();
    constants.extend(opts.extra_constants.iter().cloned());
    constants.sort();
    constants.dedup();
    assert!(
        constants.iter().all(|c| !c.is_fresh()),
        "schema constants must not use the reserved Fresh values"
    );

    let mut graph = MigrationGraph::new();
    let mut keys: Vec<VertexKey> = Vec::new();
    let mut index: HashMap<VertexKey, u32> = HashMap::new();
    let mut witnesses: Vec<EdgeWitness> = Vec::new();
    let mut stats = AnalyzeStats::default();

    let intern = |key: VertexKey,
                  graph: &mut MigrationGraph,
                  keys: &mut Vec<VertexKey>,
                  index: &mut HashMap<VertexKey, u32>|
     -> u32 {
        if let Some(&v) = index.get(&key) {
            return v;
        }
        let v = graph.add_vertex(key.role);
        keys.push(key.clone());
        index.insert(key, v);
        v
    };

    // Full-space mode materializes every separator vertex up front.
    let mut frontier: Vec<u32> = Vec::new();
    if opts.full_space {
        for key in enumerate_full_space(schema, alphabet, &constants) {
            let v = intern(key, &mut graph, &mut keys, &mut index);
            frontier.push(v);
            if keys.len() > opts.max_vertices {
                return Err(CoreError::VertexBudgetExceeded(opts.max_vertices));
            }
        }
    }

    // Creation edges: run every transaction on the empty database.
    for (ti, t) in ts.transactions().iter().enumerate() {
        for args in assignments(&constants, 0, t.params.len(), opts.naive_assignments) {
            stats.runs += 1;
            let next = run(schema, &Instance::empty(), t, &args).expect("validated");
            for o in next.objects() {
                let cs = next.role_set(o);
                let comp = cs.first().map(|c| schema.component_of(c));
                if comp != Some(alphabet.component()) {
                    continue;
                }
                if let Some(key) = vertex_of(schema, alphabet, &constants, &next, o) {
                    let v = intern(key, &mut graph, &mut keys, &mut index);
                    if (v as usize - 2) == keys.len() - 1 && !opts.full_space {
                        frontier.push(v);
                    }
                    // Creation changes the object (∅ → ω): always proper.
                    graph.add_edge(VS, v, EdgeInfo { proper: true });
                    witnesses.push(EdgeWitness {
                        from: VS,
                        to: v,
                        transaction: ti,
                        updates_object: true,
                    });
                }
            }
        }
        if keys.len() > opts.max_vertices {
            return Err(CoreError::VertexBudgetExceeded(opts.max_vertices));
        }
    }

    // Interior and deletion edges, breadth-first over new vertices.
    let naive = opts.naive_assignments;
    while !frontier.is_empty() {
        let batch = std::mem::take(&mut frontier);
        let edges_of = |&v: &u32| {
            (v, vertex_edges(schema, alphabet, ts, &constants, &keys[v as usize - 2], naive))
        };
        let results: Vec<(u32, _)> = if opts.parallel && batch.len() > 1 {
            // One thread per contiguous chunk, joined in frontier order,
            // so vertices are numbered exactly as the sequential run does.
            let workers = std::thread::available_parallelism().map_or(1, usize::from);
            std::thread::scope(|scope| {
                let handles: Vec<_> = batch
                    .chunks(batch.len().div_ceil(workers))
                    .map(|part| scope.spawn(move || part.iter().map(edges_of).collect::<Vec<_>>()))
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("no panics")).collect()
            })
        } else {
            batch.iter().map(edges_of).collect()
        };
        for (v, (edges, runs)) in results {
            stats.runs += runs;
            for (ti, target) in edges {
                match target {
                    Target::Deleted => {
                        graph.add_edge(v, VT, EdgeInfo { proper: true });
                        witnesses.push(EdgeWitness {
                            from: v,
                            to: VT,
                            transaction: ti,
                            updates_object: true,
                        });
                    }
                    Target::Moved { key, proper } => {
                        let before = keys.len();
                        let v2 = intern(key, &mut graph, &mut keys, &mut index);
                        if keys.len() > before && !opts.full_space {
                            frontier.push(v2);
                        }
                        graph.add_edge(v, v2, EdgeInfo { proper });
                        witnesses.push(EdgeWitness {
                            from: v,
                            to: v2,
                            transaction: ti,
                            updates_object: proper,
                        });
                    }
                }
            }
            if keys.len() > opts.max_vertices {
                return Err(CoreError::VertexBudgetExceeded(opts.max_vertices));
            }
        }
    }

    stats.vertices = keys.len();
    stats.edges = graph.num_edges();
    Ok((Analysis { graph, keys, constants, stats }, witnesses))
}

/// One observed outcome for the canonical object.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Target {
    Deleted,
    Moved { key: VertexKey, proper: bool },
}

/// All `(transaction index, outcome)` pairs observable from a vertex's
/// canonical database (deduplicated), and the number of ground runs
/// that observed them.
fn vertex_edges(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    ts: &TransactionSchema,
    constants: &[Value],
    key: &VertexKey,
    naive: bool,
) -> (Vec<(usize, Target)>, u64) {
    let db = canonical_db(schema, alphabet, constants, key);
    let o1 = Oid(1);
    let before_tuple = db.tuple_of(o1);
    let l = num_free_classes(key);
    let mut out: Vec<(usize, Target)> = Vec::new();
    let mut runs = 0;
    for (ti, t) in ts.transactions().iter().enumerate() {
        for args in assignments(constants, l, t.params.len(), naive) {
            runs += 1;
            let next = run(schema, &db, t, &args).expect("validated");
            let target = if next.occurs(o1) {
                let key2 = vertex_of(schema, alphabet, constants, &next, o1)
                    .expect("occurring object matches a vertex");
                let proper = key2 != *key || next.tuple_of(o1) != before_tuple;
                Target::Moved { key: key2, proper }
            } else {
                Target::Deleted
            };
            let entry = (ti, target);
            if !out.contains(&entry) {
                out.push(entry);
            }
        }
    }
    (out, runs)
}

/// Canonical assignments over `constants ∪ {p₀…p_{l−1}} ∪ {ν…}`:
/// ν values are used in restricted-growth order (`ν_k` only after
/// `ν_{k−1}` has appeared), which enumerates every behaviour class of
/// Lemma 3.9's claim without redundant fresh renamings.
fn assignments(constants: &[Value], l: usize, m: usize, naive: bool) -> Vec<Assignment> {
    let mut base: Vec<Value> = constants.to_vec();
    for j in 0..l {
        base.push(Value::Fresh(j as u32));
    }
    if naive {
        // Full product over base ∪ {ν₀…ν_{m−1}}: every behaviour class of
        // the canonical generator appears here too (with redundant fresh
        // renamings), so the analysis result is identical.
        for k in 0..m {
            base.push(Value::Fresh(NU_BASE + k as u32));
        }
        let mut out = Vec::new();
        let mut cur: Vec<Value> = Vec::with_capacity(m);
        fn prod(base: &[Value], m: usize, cur: &mut Vec<Value>, out: &mut Vec<Assignment>) {
            if cur.len() == m {
                out.push(Assignment::new(cur.clone()));
                return;
            }
            for v in base {
                cur.push(v.clone());
                prod(base, m, cur, out);
                cur.pop();
            }
        }
        prod(&base, m, &mut cur, &mut out);
        return out;
    }
    let mut out = Vec::new();
    let mut cur: Vec<Value> = Vec::with_capacity(m);
    fn rec(
        base: &[Value],
        m: usize,
        fresh_used: u32,
        cur: &mut Vec<Value>,
        out: &mut Vec<Assignment>,
    ) {
        if cur.len() == m {
            out.push(Assignment::new(cur.clone()));
            return;
        }
        for v in base {
            cur.push(v.clone());
            rec(base, m, fresh_used, cur, out);
            cur.pop();
        }
        for k in 0..=fresh_used {
            cur.push(Value::Fresh(NU_BASE + k));
            rec(base, m, fresh_used.max(k + 1), cur, out);
            cur.pop();
            if k == fresh_used {
                break;
            }
        }
    }
    rec(&base, m, 0, &mut cur, &mut out);
    out
}

/// The four pattern-family DFAs of an analyzed schema.
#[derive(Clone, Debug)]
pub struct Families {
    /// 𝓛(Σ) — all patterns.
    pub all: Dfa,
    /// 𝓛ᵢₘₘ(Σ).
    pub imm: Dfa,
    /// 𝓛ₚᵣₒ(Σ).
    pub pro: Dfa,
    /// 𝓛ₗₐ(Σ).
    pub lazy: Dfa,
}

impl Families {
    /// The family of a given kind.
    #[must_use]
    pub fn of(&self, kind: PatternKind) -> &Dfa {
        match kind {
            PatternKind::All => &self.all,
            PatternKind::ImmediateStart => &self.imm,
            PatternKind::Proper => &self.pro,
            PatternKind::Lazy => &self.lazy,
        }
    }

    /// Effectively constructed regular expressions for each family
    /// (Theorem 3.2(1)'s "whose regular expressions can be effectively
    /// constructed").
    #[must_use]
    pub fn regexes(&self) -> [Regex; 4] {
        [
            migratory_automata::dfa_to_regex(&self.all),
            migratory_automata::dfa_to_regex(&self.imm),
            migratory_automata::dfa_to_regex(&self.pro),
            migratory_automata::dfa_to_regex(&self.lazy),
        ]
    }
}

/// Assemble the family DFAs from a migration graph:
///
/// * 𝓛ᵢₘₘ = walk labels (∅-loop at the sink);
/// * 𝓛 = ∅*·𝓛ᵢₘₘ (Corollary 3.6 — the ∅* alternative is subsumed since
///   λ ∈ 𝓛ᵢₘₘ);
/// * 𝓛ₚᵣₒ = (λ∪∅)·(proper walks, no sink loop);
/// * 𝓛ₗₐ = (λ∪∅)·(label-changing walks, no sink loop).
///
/// With an empty transaction schema there are no steps at all and every
/// family is `{λ}`.
#[must_use]
pub fn families(
    graph: &MigrationGraph,
    alphabet: &RoleAlphabet,
    num_transactions: usize,
) -> Families {
    let ns = alphabet.num_symbols();
    let e = alphabet.empty_symbol();
    if num_transactions == 0 {
        let lambda = Dfa::from_nfa(&Nfa::from_regex(&Regex::Epsilon, ns)).minimize();
        return Families {
            all: lambda.clone(),
            imm: lambda.clone(),
            pro: lambda.clone(),
            lazy: lambda,
        };
    }
    let imm_nfa = graph.walks_nfa(ns, e, PatternKind::ImmediateStart);
    let empty_star = Nfa::from_regex(&Regex::star(Regex::Sym(e)), ns);
    let empty_opt = Nfa::from_regex(&Regex::opt(Regex::Sym(e)), ns);
    let all_nfa = nfa_concat(&empty_star, &imm_nfa).expect("same alphabet");
    let pro_nfa = nfa_concat(&empty_opt, &graph.walks_nfa(ns, e, PatternKind::Proper))
        .expect("same alphabet");
    let lazy_nfa =
        nfa_concat(&empty_opt, &graph.walks_nfa(ns, e, PatternKind::Lazy)).expect("same alphabet");
    Families {
        all: Dfa::from_nfa(&all_nfa).minimize(),
        imm: Dfa::from_nfa(&imm_nfa).minimize(),
        pro: Dfa::from_nfa(&pro_nfa).minimize(),
        lazy: Dfa::from_nfa(&lazy_nfa).minimize(),
    }
}

/// Analyze and assemble families in one call.
///
/// ```
/// use migratory_core::{analyze_families, AnalyzeOptions, PatternKind, RoleAlphabet};
/// use migratory_lang::parse_transactions;
/// use migratory_model::{schema::university_schema, RoleSet};
///
/// let schema = university_schema();
/// let alphabet = RoleAlphabet::new(&schema, 0)?;
/// let ts = parse_transactions(&schema, r#"
///     transaction Hire(x) { create(PERSON, { SSN = x, Name = "n" }); }
///     transaction Fire(x) { delete(PERSON, { SSN = x }); }
/// "#)?;
/// let (_, fams) = analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default())?;
/// let p = alphabet
///     .symbol_of(RoleSet::closure_of_named(&schema, &["PERSON"])?)
///     .expect("[PERSON] is a role set");
/// let e = alphabet.empty_symbol();
/// assert!(fams.of(PatternKind::All).accepts(&[p, p, e]));
/// assert!(!fams.of(PatternKind::All).accepts(&[p, e, p]), "no re-creation");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze_families(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    ts: &TransactionSchema,
    opts: &AnalyzeOptions,
) -> Result<(Analysis, Families), CoreError> {
    let analysis = analyze(schema, alphabet, ts, opts)?;
    let fams = families(&analysis.graph, alphabet, ts.len());
    Ok((analysis, fams))
}

/// Lemma 4.1 — migration patterns never cross weakly-connected
/// components, so the families of a schema over a multi-component
/// database schema decompose as the per-component union
/// `𝓛(Σ) = ⋃ᵢ 𝓛(Σ, Gᵢ)`. This analyzes every component with its own
/// role alphabet (Section 3's weak-connectivity assumption is recovered
/// component by component; SL operations on one component cannot observe
/// another).
pub fn analyze_all_components(
    schema: &Schema,
    ts: &TransactionSchema,
    opts: &AnalyzeOptions,
) -> Result<Vec<(RoleAlphabet, Families)>, CoreError> {
    let mut out = Vec::with_capacity(schema.num_components());
    for comp in 0..schema.num_components() as u32 {
        let alphabet = RoleAlphabet::new(schema, comp)?;
        let (_, fams) = analyze_families(schema, &alphabet, ts, opts)?;
        out.push((alphabet, fams));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use migratory_lang::parse_transactions;
    use migratory_model::schema::university_schema;
    use migratory_model::{RoleSet, SchemaBuilder};

    /// A slim university schema: one attribute total, so the separator
    /// space stays tiny and the explorer equivalence check is cheap.
    fn slim() -> (Schema, RoleAlphabet) {
        let mut b = SchemaBuilder::new();
        let p = b.class("P", &["Id"]).unwrap();
        let s = b.subclass("S", &[p], &[]).unwrap();
        b.subclass("G", &[s], &[]).unwrap();
        let schema = b.build().unwrap();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        (schema, alphabet)
    }

    use migratory_model::Schema;

    const SLIM_TS: &str = r"
        transaction Mk(x) { create(P, { Id = x }); }
        transaction Up(x) { specialize(P, S, { Id = x }, {}); }
        transaction Dn(x) { generalize(S, { Id = x }); }
        transaction Rm(x) { delete(P, { Id = x }); }
    ";

    fn check_against_explorer(schema: &Schema, alphabet: &RoleAlphabet, src: &str, depth: usize) {
        let ts = parse_transactions(schema, src).unwrap();
        let (_, fams) =
            analyze_families(schema, alphabet, &ts, &AnalyzeOptions::default()).unwrap();
        let sets = explore(
            schema,
            alphabet,
            &ts,
            &ExploreConfig { max_steps: depth, ..Default::default() },
        );
        // Every word of length ≤ depth must agree between the DFA and the
        // enumerated ground truth.
        let ns = alphabet.num_symbols();
        let mut words: Vec<Vec<u32>> = vec![vec![]];
        let mut layer = vec![vec![]];
        for _ in 0..depth {
            let mut next = Vec::new();
            for w in &layer {
                for s in 0..ns {
                    let mut w2: Vec<u32> = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            words.extend(next.iter().cloned());
            layer = next;
        }
        for w in &words {
            for (kind, dfa, set) in [
                (PatternKind::All, &fams.all, &sets.all),
                (PatternKind::ImmediateStart, &fams.imm, &sets.imm),
                (PatternKind::Proper, &fams.pro, &sets.pro),
                (PatternKind::Lazy, &fams.lazy, &sets.lazy),
            ] {
                assert_eq!(
                    dfa.accepts(w),
                    set.contains(w),
                    "{kind} family disagrees on {} (analyzer={}, explorer={})",
                    alphabet.display_word(w),
                    dfa.accepts(w),
                    set.contains(w),
                );
            }
        }
    }

    #[test]
    fn analyzer_matches_explorer_on_slim_schema() {
        let (schema, alphabet) = slim();
        check_against_explorer(&schema, &alphabet, SLIM_TS, 3);
    }

    #[test]
    fn naive_assignments_agree_with_canonical() {
        // The ablation: the restricted-growth canonical generator and
        // the full value product must produce identical graphs and
        // families; the product executes strictly more ground runs.
        let (schema, alphabet) = slim();
        let src = r#"
            transaction Mk(x) { create(P, { Id = x }); }
            transaction Mv(x, y) { modify(P, { Id = x }, { Id = y }); }
            transaction UpV() { specialize(P, S, { Id = "v" }, {}); }
            transaction Rm(x) { delete(P, { Id = x }); }
        "#;
        let ts = parse_transactions(&schema, src).unwrap();
        let (a1, f1) =
            analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
        let (a2, f2) = analyze_families(
            &schema,
            &alphabet,
            &ts,
            &AnalyzeOptions { naive_assignments: true, ..Default::default() },
        )
        .unwrap();
        assert_eq!(a1.graph, a2.graph, "same migration graph");
        for kind in PatternKind::ALL {
            assert!(f1.of(kind).equivalent(f2.of(kind)), "{kind} family differs");
        }
        assert!(
            a2.stats.runs > a1.stats.runs,
            "the full product must run more ground transactions ({} vs {})",
            a2.stats.runs,
            a1.stats.runs
        );
    }

    /// `stats.runs` counts every ground run: recounted independently
    /// as the creation assignments plus, for every materialized vertex,
    /// each transaction's assignments over its free classes.
    #[test]
    fn runs_count_every_ground_run() {
        let (schema, alphabet) = slim();
        let ts = parse_transactions(&schema, SLIM_TS).unwrap();
        for naive in [false, true] {
            let opts = AnalyzeOptions { naive_assignments: naive, ..Default::default() };
            let analysis = analyze(&schema, &alphabet, &ts, &opts).unwrap();
            let constants = &analysis.constants;
            let per_vertex = |l: usize| -> usize {
                ts.transactions()
                    .iter()
                    .map(|t| assignments(constants, l, t.params.len(), naive).len())
                    .sum()
            };
            let expected = per_vertex(0)
                + analysis.keys.iter().map(|key| per_vertex(num_free_classes(key))).sum::<usize>();
            assert_eq!(analysis.stats.runs, expected as u64, "naive = {naive}");
        }
    }

    #[test]
    fn analyzer_matches_explorer_with_constants() {
        let (schema, alphabet) = slim();
        // Constants refine the hyperplanes: objects with Id="v" behave
        // differently from others.
        let src = r#"
            transaction Mk(x) { create(P, { Id = x }); }
            transaction UpV() { specialize(P, S, { Id = "v" }, {}); }
            transaction Rn(x) { modify(P, { Id = x }, { Id = "v" }); }
            transaction Rm() { delete(P, { Id = "v" }); }
        "#;
        check_against_explorer(&schema, &alphabet, src, 3);
    }

    #[test]
    fn analyzer_matches_explorer_on_modify_only_properness() {
        let (schema, alphabet) = slim();
        // Up is idempotent on already-S objects; Touch changes values
        // without changing the role set (proper but not lazy).
        let src = r#"
            transaction Mk(x) { create(P, { Id = x }); }
            transaction Touch(x, y) { modify(P, { Id = x }, { Id = y }); }
        "#;
        check_against_explorer(&schema, &alphabet, src, 3);
    }

    #[test]
    fn lemma_4_1_components_decompose() {
        // Two weakly-connected components: P ⊇ S (component of P) and a
        // lone class Q. Patterns never cross components; each component's
        // family is exactly what the per-component explorer observes, and
        // transactions on the other component only contribute repeated
        // role sets (the object is untouched).
        let mut b = SchemaBuilder::new();
        let p = b.class("P", &["Id"]).unwrap();
        b.subclass("S", &[p], &[]).unwrap();
        b.class("Q", &["Jd"]).unwrap();
        let schema = b.build().unwrap();
        assert_eq!(schema.num_components(), 2);
        let src = r"
            transaction MkP(x) { create(P, { Id = x }); }
            transaction UpS(x) { specialize(P, S, { Id = x }, {}); }
            transaction MkQ(x) { create(Q, { Jd = x }); }
            transaction RmQ(x) { delete(Q, { Jd = x }); }
        ";
        let ts = parse_transactions(&schema, src).unwrap();
        let per_comp = analyze_all_components(&schema, &ts, &AnalyzeOptions::default()).unwrap();
        assert_eq!(per_comp.len(), 2);
        for (alphabet, fams) in &per_comp {
            // Agreement with the bounded explorer on this component.
            let sets = explore(
                &schema,
                alphabet,
                &ts,
                &ExploreConfig { max_steps: 3, ..Default::default() },
            );
            for w in sets.all.iter() {
                assert!(fams.all.accepts(w), "component {} missing {w:?}", alphabet.component());
            }
            for w in fams.all.enumerate(3, 10_000) {
                assert!(
                    sets.all.contains(&w),
                    "component {} over-approximates {w:?}",
                    alphabet.component()
                );
            }
        }
        // Cross-component repetition: on the P-component, MkQ can fire
        // while a P-object sits still, so [P][P] is a pattern there.
        let (a0, f0) = &per_comp[0];
        let psym = a0.symbol_of(RoleSet::closure_of_named(&schema, &["P"]).unwrap()).unwrap();
        assert!(f0.all.accepts(&[psym, psym]));
        // And the Q-component cannot see S: its alphabet has ∅ and [Q]
        // only.
        let (a1, _) = &per_comp[1];
        assert_eq!(a1.num_symbols(), 2);
    }

    #[test]
    fn example_3_4_families_closed_forms() {
        // The paper's Example 3.4 on the full Fig. 1 schema.
        let schema = university_schema();
        let alphabet = RoleAlphabet::new(&schema, 0).unwrap();
        let ts = parse_transactions(
            &schema,
            r"
            transaction T1(n, s, t, m) {
              create(PERSON, { SSN = s, Name = n });
              specialize(PERSON, STUDENT, { SSN = s }, { Major = m, FirstEnroll = t });
            }
            transaction T2(s, p, x, d) {
              specialize(STUDENT, GRAD_ASSIST, { SSN = s },
                         { PcAppoint = p, Salary = x, WorksIn = d });
            }
            transaction T3(s) { generalize(EMPLOYEE, { SSN = s }); }
            transaction T4(s) { delete(PERSON, { SSN = s }); }
        ",
        )
        .unwrap();
        let (analysis, fams) = analyze_families(
            &schema,
            &alphabet,
            &ts,
            &AnalyzeOptions { parallel: true, ..Default::default() },
        )
        .unwrap();
        assert!(analysis.stats.vertices > 0);

        let re = |src: &str| {
            let r = alphabet.parse_regex(&schema, src).unwrap();
            Dfa::from_nfa(&Nfa::from_regex(&r, alphabet.num_symbols())).minimize()
        };
        // 𝓛ᵢₘₘ = Init(([S]⁺[G]*)*∅*)  (paper's closed form).
        let imm_expected = Dfa::from_nfa(
            &Nfa::from_regex(
                &{
                    let s = alphabet
                        .symbol_of(RoleSet::closure_of_named(&schema, &["STUDENT"]).unwrap())
                        .unwrap();
                    let g = alphabet
                        .symbol_of(RoleSet::closure_of_named(&schema, &["GRAD_ASSIST"]).unwrap())
                        .unwrap();
                    Regex::concat([
                        Regex::star(Regex::concat([
                            Regex::plus(Regex::Sym(s)),
                            Regex::star(Regex::Sym(g)),
                        ])),
                        Regex::star(Regex::Sym(alphabet.empty_symbol())),
                    ])
                },
                alphabet.num_symbols(),
            )
            .prefix_closure(),
        )
        .minimize();
        // The paper's displayed form accidentally contains pure-∅ words
        // (λ ∈ ([S]+[G]*)* composes with ∅*); strict Definition 3.4
        // excludes them from immediate-start (ω₁ ≠ ∅), so intersect with
        // "λ or non-∅ start".
        let empty_start = Dfa::from_nfa(&Nfa::from_regex(
            &Regex::concat([
                Regex::Sym(alphabet.empty_symbol()),
                Regex::star(Regex::union(
                    (0..alphabet.num_symbols()).map(Regex::Sym).collect::<Vec<_>>(),
                )),
            ]),
            alphabet.num_symbols(),
        ));
        let imm_expected = imm_expected.intersect(&empty_start.complement()).minimize();
        assert!(
            fams.imm.equivalent(&imm_expected),
            "𝓛ᵢₘₘ ≠ Init(([S]+[G]*)*∅*) ∖ ∅Σ*: counterexample {:?}",
            fams.imm
                .witness_not_subset(&imm_expected)
                .or_else(|| imm_expected.witness_not_subset(&fams.imm))
                .map(|w| alphabet.display_word(&w)),
        );

        // 𝓛 = ∅*·𝓛ᵢₘₘ.
        let all_expected = Dfa::from_nfa(
            &nfa_concat(
                &Nfa::from_regex(
                    &Regex::star(Regex::Sym(alphabet.empty_symbol())),
                    alphabet.num_symbols(),
                ),
                &imm_expected.to_nfa(),
            )
            .unwrap(),
        )
        .minimize();
        assert!(fams.all.equivalent(&all_expected), "𝓛 ≠ ∅*𝓛ᵢₘₘ (Corollary 3.6)");

        // 𝓛ₚᵣₒ = 𝓛ₗₐ = (λ∪∅)·Init([S]([G][S])*(λ∪[G])(λ∪∅)): strict
        // alternation (T1/T2 are idempotent on existing members).
        let pro_expected = re("(λ ∪ ∅) ([STUDENT] ([GRAD_ASSIST] [STUDENT])* [GRAD_ASSIST]? ∅?)?");
        // prefix-close the walk part: build via Init of the inner walk.
        let pro_expected = {
            let s = alphabet
                .symbol_of(RoleSet::closure_of_named(&schema, &["STUDENT"]).unwrap())
                .unwrap();
            let g = alphabet
                .symbol_of(RoleSet::closure_of_named(&schema, &["GRAD_ASSIST"]).unwrap())
                .unwrap();
            let walk = Regex::concat([
                Regex::Sym(s),
                Regex::star(Regex::word([g, s])),
                Regex::opt(Regex::Sym(g)),
                Regex::opt(Regex::Sym(alphabet.empty_symbol())),
            ]);
            let init = Nfa::from_regex(&walk, alphabet.num_symbols()).prefix_closure();
            let with_prefix = nfa_concat(
                &Nfa::from_regex(
                    &Regex::opt(Regex::Sym(alphabet.empty_symbol())),
                    alphabet.num_symbols(),
                ),
                &init,
            )
            .unwrap();
            let _ = pro_expected;
            Dfa::from_nfa(&with_prefix).minimize()
        };
        assert!(
            fams.pro.equivalent(&pro_expected),
            "𝓛ₚᵣₒ ≠ (λ∪∅)·Init([S]([G][S])*[G]?∅?): counterexample {:?}",
            fams.pro
                .witness_not_subset(&pro_expected)
                .or_else(|| pro_expected.witness_not_subset(&fams.pro))
                .map(|w| alphabet.display_word(&w)),
        );
        assert!(fams.lazy.equivalent(&pro_expected), "𝓛ₗₐ = 𝓛ₚᵣₒ in Example 3.4");

        // Family inclusions: pro/lazy words of shape … are within all.
        assert!(fams.imm.is_subset_of(&fams.all));
        assert!(fams.pro.is_subset_of(&fams.all));
        assert!(fams.lazy.is_subset_of(&fams.pro));
    }

    #[test]
    fn full_space_agrees_with_reachable() {
        let (schema, alphabet) = slim();
        let ts = parse_transactions(&schema, SLIM_TS).unwrap();
        let (_, f1) =
            analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
        let (a2, f2) = analyze_families(
            &schema,
            &alphabet,
            &ts,
            &AnalyzeOptions { full_space: true, ..Default::default() },
        )
        .unwrap();
        assert!(f1.all.equivalent(&f2.all));
        assert!(f1.imm.equivalent(&f2.imm));
        assert!(f1.pro.equivalent(&f2.pro));
        assert!(f1.lazy.equivalent(&f2.lazy));
        // Full space materializes at least as many vertices.
        let (a1, _) =
            analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
        assert!(a2.stats.vertices >= a1.stats.vertices);
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let (schema, alphabet) = slim();
        let ts = parse_transactions(&schema, SLIM_TS).unwrap();
        let (_, f1) =
            analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
        let (_, f2) = analyze_families(
            &schema,
            &alphabet,
            &ts,
            &AnalyzeOptions { parallel: true, ..Default::default() },
        )
        .unwrap();
        assert!(f1.all.equivalent(&f2.all) && f1.imm.equivalent(&f2.imm));
        assert!(f1.pro.equivalent(&f2.pro) && f1.lazy.equivalent(&f2.lazy));
    }

    #[test]
    fn csl_input_rejected() {
        let (schema, alphabet) = slim();
        let ts =
            parse_transactions(&schema, "transaction T() { when P() -> delete(P, {}); }").unwrap();
        assert_eq!(
            analyze(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap_err(),
            CoreError::NotSl
        );
    }

    #[test]
    fn empty_schema_families_are_lambda() {
        let (schema, alphabet) = slim();
        let ts = migratory_lang::TransactionSchema::new();
        let (_, fams) =
            analyze_families(&schema, &alphabet, &ts, &AnalyzeOptions::default()).unwrap();
        assert!(fams.all.accepts(&[]));
        assert!(!fams.all.accepts(&[0]));
        assert!(!fams.all.accepts(&[1]));
    }

    #[test]
    fn vertex_budget_respected() {
        let (schema, alphabet) = slim();
        let ts = parse_transactions(&schema, SLIM_TS).unwrap();
        let err = analyze(
            &schema,
            &alphabet,
            &ts,
            &AnalyzeOptions { max_vertices: 0, ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::VertexBudgetExceeded(0)));
    }

    #[test]
    fn assignment_generator_is_canonical() {
        let asg = assignments(&[Value::int(1)], 1, 2, false);
        // Values per slot: {1, p0, ν0, (ν1 after ν0)} — canonical count:
        // first slot 3 choices; ν1 allowed in slot 2 only after ν0.
        // Enumerate and verify no assignment uses ν1 without ν0 earlier.
        for a in &asg {
            let vals: Vec<&Value> = a.values().collect();
            if vals.contains(&&Value::Fresh(NU_BASE + 1)) {
                let pos1 = vals.iter().position(|v| **v == Value::Fresh(NU_BASE + 1)).unwrap();
                let pos0 = vals.iter().position(|v| **v == Value::Fresh(NU_BASE));
                assert!(pos0.is_some_and(|p0| p0 < pos1), "non-canonical ν use: {vals:?}");
            }
        }
        // 3 base values for slot one… total = 3*4 + ν-restricted cases.
        assert!(asg.len() > 9);
        assert!(asg.iter().all(|a| a.len() == 2));
    }
}
