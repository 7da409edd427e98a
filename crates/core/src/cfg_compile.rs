//! Compiling context-free inventories into CSL⁺ schemas —
//! Theorem 4.8 and Example 4.1.
//!
//! Every context-free `L ⊆ Ω₊*` is the proper/immediate-start pattern
//! family (up to leading ∅ letters, before the object exists) of a CSL⁺
//! schema. The construction runs the Greibach-normal-form grammar of `L`
//! as a *leftmost derivation machine*: the class `S` stores the stack of
//! pending nonterminals as a linked chain
//!
//! > `(A1 = id, A2 = below-id, A3 = nonterminal)`
//!
//! with the top cell named `¢` and a `⊥` bottom sentinel. For each GNF
//! production `N₀ → c N₁…N_k` a transaction pops `N₀`, *emits* `c`
//! (migrates every object of the target component to `ω(c)` and swaps the
//! root attribute between 0 and 1, so repeated letters still change the
//! object — the paper's properness trick), and pushes `N₁…N_k`. Start
//! productions additionally reset the database and create the migrating
//! object.
//!
//! Soundness against adversarial parameters follows the same discipline
//! as [`crate::tm_compile`]: pushed cells are validated with `≠` atoms
//! (distinct, not colliding with reserved ids) before anything is
//! emitted; a failed validation skips the emission and the stack update,
//! leaving only orphan junk cells, so later runs continue from the
//! untouched top (self-healing — a persistent "busy" state turned out to
//! be exploitable and is deliberately absent). The pop/rename tail runs
//! under a flag marker that is set and cleared within one transaction.
//! Torn stacks can only truncate a derivation, and truncated emissions
//! are prefixes, which `Init`-closure admits.

use crate::alphabet::RoleAlphabet;
use crate::error::CoreError;
use migratory_chomsky::{to_gnf, Cfg, Sym};
use migratory_lang::{
    con, mig_ops, AtomicUpdate, GuardedUpdate, Literal, Transaction, TransactionSchema,
};
use migratory_model::{Atom, ClassId, CmpOp, Condition, RoleSet, Schema, Term, Value, VarId};
use std::collections::BTreeMap;

/// The compiled schema plus the GNF grammar actually used (for drivers).
#[derive(Clone, Debug)]
pub struct CfgCompiled {
    /// The CSL⁺ transaction schema.
    pub transactions: TransactionSchema,
    /// The Greibach-normal-form grammar driving it.
    pub gnf: Cfg,
    /// Whether λ was in the source language (λ needs no transactions —
    /// Init-closure supplies it).
    pub derives_lambda: bool,
}

fn s_val(s: &str) -> Value {
    Value::str(s)
}

fn nt_val(n: u32) -> Value {
    Value::str(&format!("N{n}"))
}

/// Compile a context-free grammar (terminals `0..letter_of.len()`) into a
/// CSL⁺ schema over `schema`. `s_class` must be an isa-root with at least
/// three attributes in a component different from `alphabet`'s; the
/// target component's root needs at least one attribute (the flip).
pub fn compile_cfg(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    s_class: ClassId,
    cfg: &Cfg,
    letter_of: &[RoleSet],
) -> Result<CfgCompiled, CoreError> {
    if schema.component_of(s_class) == alphabet.component() {
        return Err(CoreError::BadMachine("the S class must live in a separate component".into()));
    }
    if !schema.is_isa_root(s_class) || schema.attrs_of(s_class).len() < 3 {
        return Err(CoreError::BadMachine(
            "the S class must be an isa-root with at least three attributes".into(),
        ));
    }
    if letter_of.len() != cfg.num_terminals as usize {
        return Err(CoreError::BadMachine("letter_of must cover the terminals".into()));
    }
    let g_root = schema.component_root(alphabet.component());
    if schema.attrs_of(g_root).is_empty() {
        return Err(CoreError::BadMachine(
            "the target component's root needs an attribute for the properness flip".into(),
        ));
    }
    for rs in letter_of {
        if alphabet.symbol_of(*rs).is_none() || rs.is_empty() {
            return Err(CoreError::BadMachine(
                "letters must denote non-empty role sets of the target component".into(),
            ));
        }
    }

    let nf = to_gnf(cfg);
    let gnf = nf.cfg;
    let sa = schema.attrs_of(s_class);
    let (a1, a2, a3) = (sa[0], sa[1], sa[2]);
    let flip = schema.attrs_of(g_root)[0];

    // G defaults for creation/migration.
    let mut g_values: BTreeMap<migratory_model::AttrId, Term> = BTreeMap::new();
    for class in schema.component_classes(alphabet.component()).iter() {
        for &attr in schema.attrs_of(class) {
            g_values.insert(attr, con(0));
        }
    }
    let mut g_create = Condition::empty();
    for &attr in schema.attrs_of(g_root) {
        g_create.push(Atom::eq_const(attr, 0));
    }

    let flag_idle = Condition::from_atoms([
        Atom::eq_const(a1, s_val("f")),
        Atom::eq_const(a2, s_val("f")),
        Atom::eq_const(a3, s_val("idle")),
    ]);
    let flag_marked = Condition::from_atoms([
        Atom::eq_const(a1, s_val("f")),
        Atom::eq_const(a2, s_val("go")),
        Atom::eq_const(a3, s_val("idle")),
    ]);
    let idle = Literal::pos(s_class, flag_idle.clone());
    let marked = Literal::pos(s_class, flag_marked.clone());

    // Emission of terminal c: migrate all G objects and swap the flip
    // attribute 0 ↔ 1 (via the scratch value 2).
    let emit = |c: u32, guards: &[Literal]| -> Result<Vec<GuardedUpdate>, CoreError> {
        let mut ops: Vec<AtomicUpdate> = Vec::new();
        ops.extend(mig_ops(schema, None, letter_of[c as usize], &Condition::empty(), &g_values)?);
        for (from, to) in [(0i64, 2i64), (1, 0), (2, 1)] {
            ops.push(AtomicUpdate::Modify {
                class: g_root,
                select: Condition::from_atoms([Atom::eq_const(flip, from)]),
                set: Condition::from_atoms([Atom::eq_const(flip, to)]),
            });
        }
        Ok(ops.into_iter().map(|op| GuardedUpdate::when(guards.to_vec(), op)).collect())
    };

    // Validity gate for pushed cells y₁…y_k (variables offset..offset+k):
    // each exists with the expected link and nonterminal, and its id is
    // none of the reserved names, x, or a later y. A failed gate skips
    // everything downstream of it — the junk cells it leaves behind are
    // orphans, and the stack top survives untouched, so later runs are
    // unaffected (self-healing rather than stuck).
    let push_gates = |offset: u32, body: &[Sym], x_var: Option<VarId>| -> Vec<Literal> {
        let k = body.len() as u32;
        (0..k)
            .map(|i| {
                let link: Term = if i + 1 < k {
                    Term::Var(VarId(offset + i + 1))
                } else if let Some(x) = x_var {
                    Term::Var(x)
                } else {
                    Term::Const(s_val("bot"))
                };
                let Sym::N(nt) = body[i as usize] else {
                    unreachable!("GNF tails are nonterminals")
                };
                let mut cond = Condition::from_atoms([
                    Atom::eq_var(a1, VarId(offset + i)),
                    Atom { attr: a2, op: CmpOp::Eq, term: link },
                    Atom::eq_const(a3, nt_val(nt)),
                    Atom::ne_const(a1, s_val("f")),
                    Atom::ne_const(a1, s_val("bot")),
                    Atom::ne_const(a1, s_val("¢")),
                ]);
                if let Some(x) = x_var {
                    cond.push(Atom::ne_var(a1, x));
                }
                for j in i + 1..k {
                    cond.push(Atom::ne_var(a1, VarId(offset + j)));
                }
                Literal::pos(s_class, cond)
            })
            .collect()
    };

    // Push cells (dedup-delete then create), bottom-up.
    let push_cells = |steps: &mut Vec<GuardedUpdate>,
                      guards: &[Literal],
                      offset: u32,
                      body: &[Sym],
                      x_var: Option<VarId>| {
        let k = body.len() as u32;
        for i in (0..k).rev() {
            let y = VarId(offset + i);
            let link: Term = if i + 1 < k {
                Term::Var(VarId(offset + i + 1))
            } else if let Some(x) = x_var {
                Term::Var(x)
            } else {
                Term::Const(s_val("bot"))
            };
            let Sym::N(nt) = body[i as usize] else { unreachable!("GNF tails are nonterminals") };
            steps.push(GuardedUpdate::when(
                guards.to_vec(),
                AtomicUpdate::Delete {
                    class: s_class,
                    gamma: Condition::from_atoms([Atom::eq_var(a1, y)]),
                },
            ));
            steps.push(GuardedUpdate::when(
                guards.to_vec(),
                AtomicUpdate::Create {
                    class: s_class,
                    gamma: Condition::from_atoms([
                        Atom::eq_var(a1, y),
                        Atom { attr: a2, op: CmpOp::Eq, term: link },
                        Atom::eq_const(a3, nt_val(nt)),
                    ]),
                },
            ));
        }
    };

    let mut ts = TransactionSchema::new();

    for (pi, prod) in gnf.prods.iter().enumerate() {
        let Some(&Sym::T(c)) = prod.rhs.first() else {
            return Err(CoreError::BadMachine("grammar not in GNF".into()));
        };
        let body = &prod.rhs[1..];
        let k = body.len() as u32;

        // ------ T_p{pi}(x, y₁…y_k): mid-derivation step. -----------------
        //
        // No persistent "busy" state: every step is gated on
        // [idle ∧ top_is ∧ gates], and the pop/rename tail runs under a
        // marker that is set and reset within this same transaction, so a
        // failed gate can never strand state that a later application
        // would misinterpret (the flaw the fuzzer caught in the first
        // version of this construction).
        {
            let x = VarId(0);
            let params: Vec<String> =
                std::iter::once("x".to_owned()).chain((0..k).map(|i| format!("y{i}"))).collect();
            let top_is = Literal::pos(
                s_class,
                Condition::from_atoms([
                    Atom::eq_const(a1, s_val("¢")),
                    Atom::eq_var(a2, x),
                    Atom::eq_const(a3, nt_val(prod.lhs)),
                ]),
            );
            let mut steps: Vec<GuardedUpdate> = Vec::new();
            let base = vec![idle.clone(), top_is.clone()];
            push_cells(&mut steps, &base, 1, body, Some(x));
            let mut gates = base.clone();
            gates.extend(push_gates(1, body, Some(x)));
            steps.extend(emit(c, &gates)?);
            // Marker on the flag (A2 ← "go"), reset unconditionally below.
            steps.push(GuardedUpdate::when(
                gates.clone(),
                AtomicUpdate::Modify {
                    class: s_class,
                    select: flag_idle.clone(),
                    set: Condition::from_atoms([Atom::eq_const(a2, s_val("go"))]),
                },
            ));
            steps.push(GuardedUpdate::when(
                vec![marked.clone()],
                AtomicUpdate::Delete {
                    class: s_class,
                    gamma: Condition::from_atoms([Atom::eq_const(a1, s_val("¢"))]),
                },
            ));
            let new_top = if k > 0 {
                Condition::from_atoms([Atom::eq_var(a1, VarId(1))])
            } else {
                Condition::from_atoms([Atom::eq_var(a1, x), Atom::ne_const(a1, s_val("f"))])
            };
            steps.push(GuardedUpdate::when(
                vec![marked.clone()],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: new_top,
                    set: Condition::from_atoms([Atom::eq_const(a1, s_val("¢"))]),
                },
            ));
            // The marker is ALWAYS cleared in the same transaction.
            steps.push(GuardedUpdate::when(
                vec![marked.clone()],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: Condition::from_atoms([
                        Atom::eq_const(a1, s_val("f")),
                        Atom::eq_const(a2, s_val("go")),
                    ]),
                    set: Condition::from_atoms([Atom::eq_const(a2, s_val("f"))]),
                },
            ));
            ts.add(Transaction { name: format!("T_p{pi}"), params, steps })?;
        }

        // ------ T_init{pi}(y₁…y_k): start-of-derivation reset. ------------
        if prod.lhs == gnf.start {
            let params: Vec<String> = (0..k).map(|i| format!("y{i}")).collect();
            let mut steps: Vec<GuardedUpdate> = vec![
                GuardedUpdate::plain(AtomicUpdate::Delete {
                    class: g_root,
                    gamma: Condition::empty(),
                }),
                GuardedUpdate::plain(AtomicUpdate::Delete {
                    class: s_class,
                    gamma: Condition::empty(),
                }),
                GuardedUpdate::plain(AtomicUpdate::Create {
                    class: s_class,
                    gamma: flag_idle.clone(),
                }),
                GuardedUpdate::plain(AtomicUpdate::Create {
                    class: s_class,
                    gamma: Condition::from_atoms([
                        Atom::eq_const(a1, s_val("bot")),
                        Atom::eq_const(a2, s_val("bot")),
                        Atom::eq_const(a3, s_val("⊥")),
                    ]),
                }),
            ];
            push_cells(&mut steps, &[], 0, body, None);
            let gates = push_gates(0, body, None);
            steps.push(GuardedUpdate::when(
                gates.clone(),
                AtomicUpdate::Create { class: g_root, gamma: g_create.clone() },
            ));
            steps.extend(emit(c, &gates)?);
            if k > 0 {
                steps.push(GuardedUpdate::when(
                    gates,
                    AtomicUpdate::Modify {
                        class: s_class,
                        select: Condition::from_atoms([Atom::eq_var(a1, VarId(0))]),
                        set: Condition::from_atoms([Atom::eq_const(a1, s_val("¢"))]),
                    },
                ));
            }
            ts.add(Transaction { name: format!("T_init{pi}"), params, steps })?;
        }
    }

    migratory_lang::validate_schema(schema, &ts)?;
    Ok(CfgCompiled { transactions: ts, gnf, derives_lambda: nf.derives_lambda })
}

/// The standard host schema for CFG compilation: `R{F} ⊇ L0…` plus
/// `S{A1..A3}`.
pub fn standard_cfg_schema(
    num_letters: usize,
) -> Result<(Schema, RoleAlphabet, ClassId, Vec<RoleSet>), CoreError> {
    let mut b = migratory_model::SchemaBuilder::new();
    let r = b.class("R", &["F"])?;
    let mut classes = Vec::new();
    for i in 0..num_letters {
        classes.push(b.subclass(&format!("L{i}"), &[r], &[])?);
    }
    let s = b.class("S", &["A1", "A2", "A3"])?;
    let schema = b.build()?;
    let alphabet = RoleAlphabet::new(&schema, schema.component_of(r))?;
    let roles = classes
        .into_iter()
        .map(|c| RoleSet::closure_of(&schema, [c]).map_err(CoreError::from))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((schema, alphabet, s, roles))
}

/// A witnessing script for one word of the language: the leftmost GNF
/// derivation replayed as `(transaction name, arguments)`. `None` when
/// the word is not derivable.
#[must_use]
pub fn drive_word(compiled: &CfgCompiled, word: &[u32]) -> Option<Vec<(String, Vec<Value>)>> {
    let gnf = &compiled.gnf;
    if word.is_empty() {
        return None; // λ needs no transactions; Init-closure covers it.
    }
    // Leftmost derivation search: state = (position, stack of NTs).
    fn derive(
        gnf: &Cfg,
        word: &[u32],
        pos: usize,
        stack: &mut [u32],
        script_prods: &mut Vec<usize>,
        seen: &mut std::collections::HashSet<(usize, Vec<u32>)>,
    ) -> bool {
        if pos == word.len() {
            return stack.is_empty();
        }
        if stack.is_empty() || stack.len() > word.len() - pos {
            return false; // each NT yields ≥ 1 letter in ε-free GNF
        }
        if !seen.insert((pos, stack.to_vec())) {
            return false;
        }
        let top = stack[0];
        for (pi, p) in gnf.prods.iter().enumerate() {
            if p.lhs != top {
                continue;
            }
            let Some(&Sym::T(c)) = p.rhs.first() else { continue };
            if c != word[pos] {
                continue;
            }
            let mut next: Vec<u32> = p.rhs[1..]
                .iter()
                .map(|s| match s {
                    Sym::N(n) => *n,
                    Sym::T(_) => unreachable!("GNF tail"),
                })
                .collect();
            next.extend_from_slice(&stack[1..]);
            script_prods.push(pi);
            if derive(gnf, word, pos + 1, &mut next, script_prods, seen) {
                return true;
            }
            script_prods.pop();
        }
        false
    }

    let mut prods = Vec::new();
    let mut stack = vec![gnf.start];
    // The first production must come from the start symbol; handle it as
    // T_init. Search full derivations from the start.
    if !derive(gnf, word, 0, &mut stack, &mut prods, &mut std::collections::HashSet::new()) {
        return None;
    }

    // Replay, tracking cell ids. Stack entries: (current id, nonterminal).
    let mut script: Vec<(String, Vec<Value>)> = Vec::new();
    let mut fresh = 0usize;
    let mint = |fresh: &mut usize| -> Value {
        *fresh += 1;
        Value::str(&format!("c{fresh}"))
    };
    let mut cells: Vec<Value> = Vec::new(); // ids below (and incl.) top, top first

    for (step, &pi) in prods.iter().enumerate() {
        let p = &compiled.gnf.prods[pi];
        let k = p.rhs.len() - 1;
        if step == 0 {
            let ys: Vec<Value> = (0..k).map(|_| mint(&mut fresh)).collect();
            script.push((format!("T_init{pi}"), ys.clone()));
            cells = ys;
            if !cells.is_empty() {
                cells[0] = s_val("¢"); // renamed top
            }
        } else {
            let x = cells.get(1).cloned().unwrap_or_else(|| s_val("bot"));
            let ys: Vec<Value> = (0..k).map(|_| mint(&mut fresh)).collect();
            let mut args = vec![x];
            args.extend(ys.clone());
            script.push((format!("T_p{pi}"), args));
            let mut next_cells = ys;
            if next_cells.is_empty() {
                // Pop: the below cell was renamed to ¢.
                next_cells = cells[1..].to_vec();
            } else {
                next_cells.extend_from_slice(&cells[1..]);
            }
            if !next_cells.is_empty() {
                next_cells[0] = s_val("¢");
            }
            cells = next_cells;
        }
    }
    Some(script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::patterns_of_run;
    use migratory_chomsky::cfg::grammars;
    use migratory_lang::Assignment;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    fn setup(cfg: &Cfg) -> (Schema, RoleAlphabet, CfgCompiled, Vec<u32>) {
        let (schema, alphabet, s_class, roles) =
            standard_cfg_schema(cfg.num_terminals as usize).unwrap();
        let compiled = compile_cfg(&schema, &alphabet, s_class, cfg, &roles).unwrap();
        let syms = roles.iter().map(|r| alphabet.symbol_of(*r).unwrap()).collect();
        (schema, alphabet, compiled, syms)
    }

    fn run_script(
        schema: &Schema,
        alphabet: &RoleAlphabet,
        compiled: &CfgCompiled,
        script: &[(String, Vec<Value>)],
    ) -> Vec<Vec<u32>> {
        let steps: Vec<(&Transaction, Assignment)> = script
            .iter()
            .map(|(name, args)| {
                (
                    compiled.transactions.get(name).expect("transaction exists"),
                    Assignment::new(args.clone()),
                )
            })
            .collect();
        let refs: Vec<(&Transaction, &Assignment)> = steps.iter().map(|(t, a)| (*t, a)).collect();
        patterns_of_run(schema, alphabet, refs).unwrap().into_iter().map(|(_, p)| p).collect()
    }

    #[test]
    fn example_4_1_anbn_words_emit_correctly() {
        // Example 4.1: L = {aⁱbⁱ}.
        let g = grammars::anbn();
        let (schema, alphabet, compiled, syms) = setup(&g);
        assert!(compiled.derives_lambda);
        for n in 1..4usize {
            let mut word = vec![0u32; n];
            word.extend(vec![1u32; n]);
            let script = drive_word(&compiled, &word).expect("aⁿbⁿ derivable");
            let patterns = run_script(&schema, &alphabet, &compiled, &script);
            let visible: Vec<Vec<u32>> = patterns
                .into_iter()
                .map(|p| p.into_iter().filter(|&s| s != alphabet.empty_symbol()).collect())
                .filter(|v: &Vec<u32>| !v.is_empty())
                .collect();
            assert_eq!(visible.len(), 1, "one migrating object for n={n}");
            let expected: Vec<u32> = word.iter().map(|&c| syms[c as usize]).collect();
            assert_eq!(visible[0], expected);
        }
        // Non-members are not derivable.
        for bad in [vec![0u32], vec![1, 0], vec![0, 1, 1], vec![0, 0, 1]] {
            assert!(drive_word(&compiled, &bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn dyck_words_emit_correctly() {
        let g = grammars::dyck();
        let (schema, alphabet, compiled, syms) = setup(&g);
        for word in [vec![0u32, 1], vec![0, 0, 1, 1], vec![0, 1, 0, 1], vec![0, 0, 1, 1, 0, 1]] {
            let script = drive_word(&compiled, &word).expect("balanced word");
            let patterns = run_script(&schema, &alphabet, &compiled, &script);
            let visible: Vec<Vec<u32>> = patterns
                .into_iter()
                .map(|p| p.into_iter().filter(|&s| s != alphabet.empty_symbol()).collect())
                .filter(|v: &Vec<u32>| !v.is_empty())
                .collect();
            assert_eq!(visible.len(), 1);
            let expected: Vec<u32> = word.iter().map(|&c| syms[c as usize]).collect();
            assert_eq!(visible[0], expected);
        }
        assert!(drive_word(&compiled, &[1, 0]).is_none());
        assert!(drive_word(&compiled, &[0]).is_none());
    }

    /// Soundness fuzzing against the Dyck language: whatever arguments are
    /// thrown at the compiled schema, the emitted letter sequence of any
    /// object is a *prefix of some balanced word* — i.e. every prefix has
    /// #close ≤ #open.
    #[test]
    fn fuzzed_runs_emit_only_dyck_prefixes() {
        let g = grammars::dyck();
        let (schema, alphabet, compiled, syms) = setup(&g);
        let (open, close) = (syms[0], syms[1]);
        let mut rng = StdRng::seed_from_u64(42);
        let mut pool: Vec<Value> = compiled.transactions.constants().into_iter().collect();
        for i in 0..3 {
            pool.push(Value::str(&format!("c{i}")));
        }
        pool.push(Value::str("junk"));

        for _run in 0..150 {
            let mut db = migratory_model::Instance::empty();
            let mut trace = vec![db.clone()];
            for _ in 0..12 {
                let t = &compiled.transactions.transactions()
                    [rng.random_range(0..compiled.transactions.len())];
                let args = Assignment::new(
                    (0..t.params.len())
                        .map(|_| pool[rng.random_range(0..pool.len())].clone())
                        .collect(),
                );
                migratory_lang::apply_transaction(&schema, &mut db, t, &args).unwrap();
                trace.push(db.clone());
            }
            let max_oid = trace.last().unwrap().next_oid().0;
            for i in 1..max_oid {
                let o = migratory_model::Oid(i);
                let in_g = trace.iter().all(|d| {
                    let cs = d.role_set(o);
                    cs.is_empty()
                        || cs.first().map(|c| schema.component_of(c)) == Some(alphabet.component())
                });
                if !in_g {
                    continue;
                }
                let obs = crate::pattern::observe(&schema, &alphabet, &trace, o);
                let pat = crate::pattern::pattern_of(&obs);
                let letters: Vec<u32> =
                    pat.iter().copied().filter(|&s| s != alphabet.empty_symbol()).collect();
                let mut depth: i64 = 0;
                for &l in &letters {
                    if l == open {
                        depth += 1;
                    } else if l == close {
                        depth -= 1;
                    } else {
                        panic!("unexpected symbol {l} in {letters:?}");
                    }
                    assert!(depth >= 0, "emitted non-Dyck prefix {letters:?}");
                }
            }
        }
    }

    #[test]
    fn compiled_schema_is_csl_plus() {
        let g = grammars::anbn();
        let (_, _, compiled, _) = setup(&g);
        assert_eq!(compiled.transactions.language(), migratory_lang::Language::CslPlus);
    }

    #[test]
    fn regular_grammar_also_compiles() {
        // (01)* via the unit/ε-ridden grammar — the GNF pipeline cleans it.
        let g = grammars::zero_one_star();
        let (schema, alphabet, compiled, syms) = setup(&g);
        let word = vec![0u32, 1, 0, 1];
        let script = drive_word(&compiled, &word).unwrap();
        let patterns = run_script(&schema, &alphabet, &compiled, &script);
        let visible: Vec<Vec<u32>> = patterns
            .into_iter()
            .map(|p| p.into_iter().filter(|&s| s != alphabet.empty_symbol()).collect())
            .filter(|v: &Vec<u32>| !v.is_empty())
            .collect();
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0], vec![syms[0], syms[1], syms[0], syms[1]]);
    }

    #[test]
    fn bad_hosts_rejected() {
        let g = grammars::anbn();
        // S class with too few attributes.
        let mut b = migratory_model::SchemaBuilder::new();
        let r = b.class("R", &["F"]).unwrap();
        b.subclass("L0", &[r], &[]).unwrap();
        b.subclass("L1", &[r], &[]).unwrap();
        let s = b.class("S", &["A1", "A2"]).unwrap();
        let schema = b.build().unwrap();
        let alphabet = RoleAlphabet::new(&schema, schema.component_of(r)).unwrap();
        let roles = vec![
            RoleSet::closure_of_named(&schema, &["L0"]).unwrap(),
            RoleSet::closure_of_named(&schema, &["L1"]).unwrap(),
        ];
        assert!(matches!(
            compile_cfg(&schema, &alphabet, s, &g, &roles),
            Err(CoreError::BadMachine(_))
        ));
    }
}
