//! Compiling Turing machines into CSL⁺ transaction schemas —
//! Theorem 4.3 and the paper's appendix.
//!
//! Every r.e. inventory `L ⊆ Ω₊*` is `𝓛(Σ, G) = ∅*·Init(L·∅*)` for some
//! CSL⁺ schema Σ: the class `S` of a second weakly-connected component
//! stores an encoded machine configuration (Fig. 7) as a *chain* of cells
//!
//! > `(A1 = id, A2 = next-id, A3 = tape symbol, A4 = head/state mark)`
//!
//! and Σ runs three phases, tracked by a flag object whose four
//! attributes all hold the phase constant (`aw` generate-word,
//! `ac` compute, `am` migrate):
//!
//! 1. `T_init`/`T_expand` "randomly" generate an input word (parameters
//!    supply cell ids and letters);
//! 2. `T_startc` places the head, then one transaction per TM transition
//!    simulates moves (`T_pad` materializes blank cells on demand);
//! 3. on halt, `T_startmig` creates an object in the component `G` and
//!    `T_mig` migrates it through the role sets spelled by the accepted
//!    word, deleting it at the word's end.
//!
//! Differences from the appendix: the chain
//! end is a *self-linked* cell instead of a `$` sentinel (expressible as
//! `{A1 = x, A2 = x}` with a repeated variable, which keeps predecessor
//! lookups unambiguous within CSL⁺), inequality atoms such as `A1 ≠ y`
//! guard against id collisions, full-tuple flag tests prevent junk cells
//! from spoofing phase markers, and consumed letters are marked `*`
//! (distinct from the `#` delimiter, so a consumed cell can never be
//! re-read as an end-of-word marker within the same transaction). Every deviation preserves the
//! invariant that makes the theorem true: **any** reachable chain encodes
//! some word, and objects only migrate along words the machine actually
//! accepted — garbled runs dead-end instead of emitting wrong patterns.

use crate::alphabet::RoleAlphabet;
use crate::error::CoreError;
use migratory_chomsky::{Move, TuringMachine};
use migratory_lang::{
    con, mig_ops, var, AtomicUpdate, GuardedUpdate, Literal, Transaction, TransactionSchema,
};
use migratory_model::{Atom, ClassId, Condition, RoleSet, Schema, Value};
use std::collections::BTreeMap;

/// What each tape symbol means to the migration phase.
#[derive(Clone, Debug)]
pub struct TmSpec {
    /// `letter_of[sym]`: the role set whose letter this tape symbol
    /// carries (marked variants map to the same role set as their
    /// original), or `None` for blank/auxiliary symbols.
    pub letter_of: Vec<Option<RoleSet>>,
}

/// The compiled schema plus the ids it uses (needed by the driver).
#[derive(Clone, Debug)]
pub struct TmCompiled {
    /// The CSL⁺ transaction schema.
    pub transactions: TransactionSchema,
    /// The S class storing configurations.
    pub s_class: ClassId,
}

fn s_val(s: &str) -> Value {
    Value::str(s)
}

fn state_val(q: u32) -> Value {
    Value::str(&format!("q{q}"))
}

fn sym_val(s: u32) -> Value {
    Value::int(i64::from(s))
}

/// Compile `tm` against a schema containing the target component (for
/// `alphabet`) and a separate class `s_class` with at least four
/// attributes (its first four are used as `A1..A4`).
pub fn compile_tm(
    schema: &Schema,
    alphabet: &RoleAlphabet,
    s_class: ClassId,
    tm: &TuringMachine,
    spec: &TmSpec,
) -> Result<TmCompiled, CoreError> {
    // --- validations -----------------------------------------------------
    if schema.component_of(s_class) == alphabet.component() {
        return Err(CoreError::BadMachine(
            "the S class must live in a separate weakly-connected component".into(),
        ));
    }
    if !schema.is_isa_root(s_class) || schema.attrs_of(s_class).len() < 4 {
        return Err(CoreError::BadMachine(
            "the S class must be an isa-root with at least four attributes".into(),
        ));
    }
    if spec.letter_of.len() != tm.num_symbols() as usize {
        return Err(CoreError::BadMachine("letter_of must cover the tape alphabet".into()));
    }
    if spec.letter_of[tm.blank() as usize].is_some() {
        return Err(CoreError::BadMachine("the blank cannot be a letter".into()));
    }
    if tm.transitions().any(|((from, _), _)| from == tm.accept_state()) {
        return Err(CoreError::BadMachine("no transitions may leave the accepting state".into()));
    }
    for rs in spec.letter_of.iter().flatten() {
        if alphabet.symbol_of(*rs).is_none() || rs.is_empty() {
            return Err(CoreError::BadMachine(
                "letters must denote non-empty role sets of the target component".into(),
            ));
        }
    }

    let sa = schema.attrs_of(s_class);
    let (a1, a2, a3, a4) = (sa[0], sa[1], sa[2], sa[3]);
    let g_root = schema.component_root(alphabet.component());

    // Default values for G-object creation and migrations.
    let mut g_values: BTreeMap<migratory_model::AttrId, migratory_model::Term> = BTreeMap::new();
    for class in schema.component_classes(alphabet.component()).iter() {
        for &attr in schema.attrs_of(class) {
            g_values.insert(attr, con(0));
        }
    }
    let mut g_create = Condition::empty();
    for &attr in schema.attrs_of(g_root) {
        g_create.push(Atom::eq_const(attr, 0));
    }

    // Flag guards test the full tuple, so user-chosen cell ids can never
    // spoof a phase (cells always carry A4 = "-" at creation).
    let flag_cond = |phase: &str| -> Condition {
        Condition::from_atoms([
            Atom::eq_const(a1, s_val(phase)),
            Atom::eq_const(a2, s_val(phase)),
            Atom::eq_const(a3, s_val(phase)),
            Atom::eq_const(a4, s_val(phase)),
        ])
    };
    let g_w = Literal::pos(s_class, flag_cond("aw"));
    let g_c = Literal::pos(s_class, flag_cond("ac"));
    let g_m = Literal::pos(s_class, flag_cond("am"));
    // Marker states of the flag: A2 switched to "go" mid-transaction.
    let marked_flag = |phase: &str| -> Condition {
        Condition::from_atoms([
            Atom::eq_const(a1, s_val(phase)),
            Atom::eq_const(a2, s_val("go")),
            Atom::eq_const(a3, s_val(phase)),
            Atom::eq_const(a4, s_val(phase)),
        ])
    };

    let letters: Vec<(u32, RoleSet)> =
        spec.letter_of.iter().enumerate().filter_map(|(s, r)| r.map(|rs| (s as u32, rs))).collect();
    let non_letters: Vec<Value> = (0..tm.num_symbols())
        .filter(|&s| spec.letter_of[s as usize].is_none())
        .map(sym_val)
        .chain(std::iter::once(s_val("#")))
        .collect();

    let mut ts = TransactionSchema::new();

    // --- T_init(x): reset; flag ← aw; head cell (¢, ¢, x, -). -----------
    {
        let steps = vec![
            GuardedUpdate::plain(AtomicUpdate::Delete { class: g_root, gamma: Condition::empty() }),
            GuardedUpdate::plain(AtomicUpdate::Delete {
                class: s_class,
                gamma: Condition::empty(),
            }),
            GuardedUpdate::plain(AtomicUpdate::Create { class: s_class, gamma: flag_cond("aw") }),
            GuardedUpdate::plain(AtomicUpdate::Create {
                class: s_class,
                gamma: Condition::from_atoms([
                    Atom::eq_const(a1, s_val("¢")),
                    Atom::eq_const(a2, s_val("¢")),
                    Atom { attr: a3, op: migratory_model::CmpOp::Eq, term: var(0) },
                    Atom::eq_const(a4, s_val("-")),
                ]),
            }),
        ];
        ts.add(Transaction { name: "T_init".into(), params: vec!["x".into()], steps })?;
    }

    // Chain extension blocks shared by T_expand (phase w, letter z) and
    // T_pad (phase c, blank).
    let extend = |guard: &Literal, a3_term: migratory_model::Term| -> Vec<GuardedUpdate> {
        vec![
            GuardedUpdate::when(
                vec![guard.clone()],
                AtomicUpdate::Delete {
                    class: s_class,
                    gamma: Condition::from_atoms([Atom::eq_var(a1, migratory_model::VarId(1))]),
                },
            ),
            GuardedUpdate::when(
                vec![guard.clone()],
                AtomicUpdate::Delete {
                    class: s_class,
                    gamma: Condition::from_atoms([Atom::eq_var(a2, migratory_model::VarId(1))]),
                },
            ),
            GuardedUpdate::when(
                vec![guard.clone()],
                AtomicUpdate::Create {
                    class: s_class,
                    gamma: Condition::from_atoms([
                        Atom::eq_var(a1, migratory_model::VarId(1)),
                        Atom::eq_var(a2, migratory_model::VarId(1)),
                        Atom { attr: a3, op: migratory_model::CmpOp::Eq, term: a3_term },
                        Atom::eq_const(a4, s_val("-")),
                    ]),
                },
            ),
            // Link the old (self-linked) end to the new cell; A1 ≠ y
            // forces x ≠ y.
            GuardedUpdate::when(
                vec![guard.clone()],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: Condition::from_atoms([
                        Atom::eq_var(a1, migratory_model::VarId(0)),
                        Atom::eq_var(a2, migratory_model::VarId(0)),
                        Atom::ne_var(a1, migratory_model::VarId(1)),
                    ]),
                    set: Condition::from_atoms([Atom::eq_var(a2, migratory_model::VarId(1))]),
                },
            ),
        ]
    };

    // --- T_expand(x, y, z): append a letter cell at the end. -------------
    ts.add(Transaction {
        name: "T_expand".into(),
        params: vec!["x".into(), "y".into(), "z".into()],
        steps: extend(&g_w, var(2)),
    })?;

    // --- T_pad(x, y): append a blank cell during the computation. --------
    ts.add(Transaction {
        name: "T_pad".into(),
        params: vec!["x".into(), "y".into()],
        steps: extend(&g_c, con(sym_val(tm.blank()))),
    })?;

    // --- T_startc: place the head at ¢ in the start state; flag ← ac. ----
    {
        let steps = vec![
            GuardedUpdate::when(
                vec![g_w.clone()],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: Condition::from_atoms([
                        Atom::eq_const(a1, s_val("¢")),
                        Atom::eq_const(a4, s_val("-")),
                    ]),
                    set: Condition::from_atoms([Atom::eq_const(a4, state_val(tm.start_state()))]),
                },
            ),
            GuardedUpdate::when(
                vec![g_w.clone()],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: flag_cond("aw"),
                    set: flag_cond("ac"),
                },
            ),
        ];
        ts.add(Transaction { name: "T_startc".into(), params: vec![], steps })?;
    }

    // --- One transaction per TM transition. ------------------------------
    for ((p, read), (q, write, dir)) in tm.transitions() {
        let name = format!("T_d{p}_{read}");
        match dir {
            Move::Stay => {
                let steps = vec![GuardedUpdate::when(
                    vec![g_c.clone()],
                    AtomicUpdate::Modify {
                        class: s_class,
                        select: Condition::from_atoms([
                            Atom::eq_const(a3, sym_val(read)),
                            Atom::eq_const(a4, state_val(p)),
                        ]),
                        set: Condition::from_atoms([
                            Atom::eq_const(a3, sym_val(write)),
                            Atom::eq_const(a4, state_val(q)),
                        ]),
                    },
                )];
                ts.add(Transaction { name, params: vec![], steps })?;
            }
            Move::Right | Move::Left => {
                // Param x addresses the head's neighbour: its successor id
                // (A2 = x) for Right, its own id (A1 = x) for Left.
                let head_sel = {
                    let mut c = Condition::from_atoms([
                        Atom::eq_const(a3, sym_val(read)),
                        Atom::eq_const(a4, state_val(p)),
                    ]);
                    c.push(if dir == Move::Right {
                        Atom::eq_var(a2, migratory_model::VarId(0))
                    } else {
                        Atom::eq_var(a1, migratory_model::VarId(0))
                    });
                    c
                };
                let moving =
                    Literal::pos(s_class, Condition::from_atoms([Atom::eq_const(a4, s_val("m1"))]));
                let neighbour_sel = Condition::from_atoms([
                    if dir == Move::Right {
                        Atom::eq_var(a1, migratory_model::VarId(0))
                    } else {
                        Atom::eq_var(a2, migratory_model::VarId(0))
                    },
                    Atom::eq_const(a4, s_val("-")),
                ]);
                let steps = vec![
                    GuardedUpdate::when(
                        vec![g_c.clone()],
                        AtomicUpdate::Modify {
                            class: s_class,
                            select: head_sel,
                            set: Condition::from_atoms([
                                Atom::eq_const(a3, sym_val(write)),
                                Atom::eq_const(a4, s_val("m1")),
                            ]),
                        },
                    ),
                    GuardedUpdate::when(
                        vec![g_c.clone(), moving.clone()],
                        AtomicUpdate::Modify {
                            class: s_class,
                            select: neighbour_sel,
                            set: Condition::from_atoms([Atom::eq_const(a4, state_val(q))]),
                        },
                    ),
                    GuardedUpdate::when(
                        vec![g_c.clone()],
                        AtomicUpdate::Modify {
                            class: s_class,
                            select: Condition::from_atoms([Atom::eq_const(a4, s_val("m1"))]),
                            set: Condition::from_atoms([Atom::eq_const(a4, s_val("-"))]),
                        },
                    ),
                ];
                ts.add(Transaction { name, params: vec!["x".into()], steps })?;
            }
        }
    }

    // --- T_startmig: on halt, create a G object and emit the first letter.
    {
        let halted = Literal::pos(
            s_class,
            Condition::from_atoms([Atom::eq_const(a4, state_val(tm.accept_state()))]),
        );
        let m = Literal::pos(s_class, marked_flag("ac"));
        let mut steps = vec![
            GuardedUpdate::when(
                vec![g_c.clone(), halted],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: flag_cond("ac"),
                    set: Condition::from_atoms([Atom::eq_const(a2, s_val("go"))]),
                },
            ),
            GuardedUpdate::when(
                vec![m.clone()],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: Condition::from_atoms([Atom::eq_const(
                        a4,
                        state_val(tm.accept_state()),
                    )]),
                    set: Condition::from_atoms([Atom::eq_const(a4, s_val("-"))]),
                },
            ),
        ];
        for (sym, role) in &letters {
            let first_is = Literal::pos(
                s_class,
                Condition::from_atoms([
                    Atom::eq_const(a1, s_val("¢")),
                    Atom::eq_const(a3, sym_val(*sym)),
                ]),
            );
            steps.push(GuardedUpdate::when(
                vec![m.clone(), first_is.clone()],
                AtomicUpdate::Create { class: g_root, gamma: g_create.clone() },
            ));
            for op in mig_ops(schema, None, *role, &Condition::empty(), &g_values)? {
                steps.push(GuardedUpdate::when(vec![m.clone(), first_is.clone()], op));
            }
        }
        // Consume the first cell, then flag ← am.
        steps.push(GuardedUpdate::when(
            vec![m.clone()],
            AtomicUpdate::Modify {
                class: s_class,
                select: Condition::from_atoms([
                    Atom::eq_const(a1, s_val("¢")),
                    Atom::eq_const(a4, s_val("-")),
                ]),
                set: Condition::from_atoms([Atom::eq_const(a3, s_val("*"))]),
            },
        ));
        steps.push(GuardedUpdate::when(
            vec![m],
            AtomicUpdate::Modify {
                class: s_class,
                select: Condition::from_atoms([
                    Atom::eq_const(a1, s_val("ac")),
                    Atom::eq_const(a2, s_val("go")),
                ]),
                set: flag_cond("am"),
            },
        ));
        ts.add(Transaction { name: "T_startmig".into(), params: vec![], steps })?;
    }

    // --- T_mig(x): emit the next letter; delete G objects at word end. ---
    {
        let link_ok = Literal::pos(
            s_class,
            Condition::from_atoms([
                Atom::eq_const(a1, s_val("¢")),
                Atom::eq_var(a2, migratory_model::VarId(0)),
            ]),
        );
        let m = Literal::pos(s_class, marked_flag("am"));
        let mut steps = vec![GuardedUpdate::when(
            vec![g_m.clone(), link_ok],
            AtomicUpdate::Modify {
                class: s_class,
                select: flag_cond("am"),
                set: Condition::from_atoms([Atom::eq_const(a2, s_val("go"))]),
            },
        )];
        let cell_is = |v: Value| -> Literal {
            Literal::pos(
                s_class,
                Condition::from_atoms([
                    Atom::eq_var(a1, migratory_model::VarId(0)),
                    Atom {
                        attr: a3,
                        op: migratory_model::CmpOp::Eq,
                        term: migratory_model::Term::Const(v),
                    },
                    Atom::eq_const(a4, s_val("-")),
                ]),
            )
        };
        for (sym, role) in &letters {
            let is_letter = cell_is(sym_val(*sym));
            for op in mig_ops(schema, None, *role, &Condition::empty(), &g_values)? {
                steps.push(GuardedUpdate::when(vec![m.clone(), is_letter.clone()], op));
            }
            steps.push(GuardedUpdate::when(
                vec![m.clone(), is_letter],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: Condition::from_atoms([
                        Atom::eq_var(a1, migratory_model::VarId(0)),
                        Atom::eq_const(a3, sym_val(*sym)),
                    ]),
                    set: Condition::from_atoms([Atom::eq_const(a3, s_val("*"))]),
                },
            ));
        }
        for v in &non_letters {
            let is_nl = cell_is(v.clone());
            steps.push(GuardedUpdate::when(
                vec![m.clone(), is_nl.clone()],
                AtomicUpdate::Delete { class: g_root, gamma: Condition::empty() },
            ));
            steps.push(GuardedUpdate::when(
                vec![m.clone(), is_nl],
                AtomicUpdate::Modify {
                    class: s_class,
                    select: Condition::from_atoms([
                        Atom::eq_var(a1, migratory_model::VarId(0)),
                        Atom {
                            attr: a3,
                            op: migratory_model::CmpOp::Eq,
                            term: migratory_model::Term::Const(v.clone()),
                        },
                    ]),
                    set: Condition::from_atoms([Atom::eq_const(a3, s_val("*"))]),
                },
            ));
        }
        // Advance, only once the target cell was consumed (junk-lettered
        // cells leave the whole transaction a no-op, hence not a step).
        let consumed = Literal::pos(
            s_class,
            Condition::from_atoms([
                Atom::eq_var(a1, migratory_model::VarId(0)),
                Atom::eq_const(a3, s_val("*")),
                Atom::eq_const(a4, s_val("-")),
            ]),
        );
        steps.push(GuardedUpdate::when(
            vec![m.clone(), consumed.clone()],
            AtomicUpdate::Delete {
                class: s_class,
                gamma: Condition::from_atoms([
                    Atom::eq_const(a1, s_val("¢")),
                    Atom::ne_var(a1, migratory_model::VarId(0)),
                ]),
            },
        ));
        steps.push(GuardedUpdate::when(
            vec![m.clone(), consumed],
            AtomicUpdate::Modify {
                class: s_class,
                select: Condition::from_atoms([
                    Atom::eq_var(a1, migratory_model::VarId(0)),
                    Atom::eq_const(a4, s_val("-")),
                ]),
                set: Condition::from_atoms([Atom::eq_const(a1, s_val("¢"))]),
            },
        ));
        steps.push(GuardedUpdate::plain(AtomicUpdate::Modify {
            class: s_class,
            select: Condition::from_atoms([
                Atom::eq_const(a1, s_val("am")),
                Atom::eq_const(a2, s_val("go")),
            ]),
            set: Condition::from_atoms([Atom::eq_const(a2, s_val("am"))]),
        }));
        ts.add(Transaction { name: "T_mig".into(), params: vec!["x".into()], steps })?;
    }

    migratory_lang::validate_schema(schema, &ts)?;
    Ok(TmCompiled { transactions: ts, s_class })
}

/// The standard host schema for TM compilation: a component `R{F} ⊇ L0…`
/// (one subclass per letter) plus `S{A1..A4}`. Returns the schema, the
/// G-component alphabet, the S class, and the role sets `[L0], [L1], …`.
pub fn standard_tm_schema(
    num_letters: usize,
) -> Result<(Schema, RoleAlphabet, ClassId, Vec<RoleSet>), CoreError> {
    let mut b = migratory_model::SchemaBuilder::new();
    let r = b.class("R", &["F"])?;
    let mut classes = Vec::new();
    for i in 0..num_letters {
        classes.push(b.subclass(&format!("L{i}"), &[r], &[])?);
    }
    let s = b.class("S", &["A1", "A2", "A3", "A4"])?;
    let schema = b.build()?;
    let alphabet = RoleAlphabet::new(&schema, schema.component_of(r))?;
    let roles = classes
        .into_iter()
        .map(|c| RoleSet::closure_of(&schema, [c]).map_err(CoreError::from))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((schema, alphabet, s, roles))
}

/// A scripted run for one accepted word: the witnessing
/// `(transaction name, arguments)` sequence showing completeness of the
/// compilation. Returns `None` when the machine does not accept the word
/// within `max_steps`.
#[must_use]
pub fn drive_word(
    tm: &TuringMachine,
    word: &[u32],
    max_steps: usize,
) -> Option<Vec<(String, Vec<Value>)>> {
    // Mirror-simulate to learn the head excursion and the move sequence.
    let mut tape: Vec<u32> = word.to_vec();
    let mut head = 0usize;
    let mut state = tm.start_state();
    let mut moves: Vec<(u32, u32, usize)> = Vec::new(); // (state, read, head)
    let mut max_head = if word.is_empty() { 0 } else { word.len() - 1 };
    for _ in 0..max_steps {
        if state == tm.accept_state() {
            break;
        }
        let read = tape.get(head).copied().unwrap_or(tm.blank());
        let (q, w, dir) = tm.step_of(state, read)?;
        moves.push((state, read, head));
        if head >= tape.len() {
            tape.resize(head + 1, tm.blank());
        }
        tape[head] = w;
        state = q;
        match dir {
            Move::Left => head = head.saturating_sub(1),
            Move::Right => {
                head += 1;
                max_head = max_head.max(head);
            }
            Move::Stay => {}
        }
    }
    if state != tm.accept_state() {
        return None;
    }

    let id = |i: usize| -> Value {
        if i == 0 {
            s_val("¢")
        } else {
            Value::str(&format!("cell{i}"))
        }
    };
    let mut script: Vec<(String, Vec<Value>)> = Vec::new();
    // Phase w: first letter via T_init, the rest via T_expand.
    let first = word.first().copied().map_or(s_val("λ"), sym_val);
    script.push(("T_init".into(), vec![first]));
    for (i, &c) in word.iter().enumerate().skip(1) {
        script.push(("T_expand".into(), vec![id(i - 1), id(i), sym_val(c)]));
    }
    script.push(("T_startc".into(), vec![]));
    // Materialize blanks for the head excursion plus one terminator
    // (T_pad is guarded by the compute phase, so pads follow T_startc).
    let cells = word.len().max(1);
    let pads = (max_head + 2).saturating_sub(cells).max(1);
    let mut last = cells - 1;
    for _ in 0..pads {
        script.push(("T_pad".into(), vec![id(last), id(last + 1)]));
        last += 1;
    }
    // Replay the moves.
    for (p, read, head_pos) in moves {
        let (_, _, dir) = tm.step_of(p, read).expect("mirror simulation");
        let name = format!("T_d{p}_{read}");
        match dir {
            Move::Stay => script.push((name, vec![])),
            Move::Right => script.push((name, vec![id(head_pos + 1)])),
            Move::Left => script.push((name, vec![id(head_pos)])),
        }
    }
    script.push(("T_startmig".into(), vec![]));
    for i in 1..=last {
        script.push(("T_mig".into(), vec![id(i)]));
    }
    Some(script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::patterns_of_run;
    use migratory_chomsky::turing::machines;
    use migratory_lang::Assignment;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    fn anbn_setup() -> (Schema, RoleAlphabet, TmCompiled, Vec<u32>) {
        let (schema, alphabet, s_class, roles) = standard_tm_schema(2).unwrap();
        let tm = machines::anbn();
        // a=0→L0, b=1→L1; marked variants map to the same letters.
        let spec = TmSpec {
            letter_of: vec![Some(roles[0]), Some(roles[1]), Some(roles[0]), Some(roles[1]), None],
        };
        let compiled = compile_tm(&schema, &alphabet, s_class, &tm, &spec).unwrap();
        let letter_syms = roles.iter().map(|r| alphabet.symbol_of(*r).unwrap()).collect();
        (schema, alphabet, compiled, letter_syms)
    }

    #[test]
    fn compiled_schema_is_csl_plus() {
        let (_, _, compiled, _) = anbn_setup();
        assert_eq!(compiled.transactions.language(), migratory_lang::Language::CslPlus);
        assert!(compiled.transactions.len() > 8);
    }

    /// Completeness: for every accepted word, the driver's script makes
    /// the G object migrate exactly through the word's role sets and then
    /// disappear.
    #[test]
    fn driver_reproduces_accepted_words() {
        let (schema, alphabet, compiled, syms) = anbn_setup();
        let tm = machines::anbn();
        for n in 0..4usize {
            let mut word = vec![0u32; n];
            word.extend(vec![1u32; n]);
            let script = drive_word(&tm, &word, 10_000).expect("aⁿbⁿ accepted");
            let steps: Vec<(&Transaction, Assignment)> = script
                .iter()
                .map(|(name, args)| {
                    (
                        compiled.transactions.get(name).expect("known transaction"),
                        Assignment::new(args.clone()),
                    )
                })
                .collect();
            let step_refs: Vec<(&Transaction, &Assignment)> =
                steps.iter().map(|(t, a)| (*t, a)).collect();
            let patterns = patterns_of_run(&schema, &alphabet, step_refs).unwrap();
            // Exactly one G object; its non-∅ history is the word's roles.
            let g_patterns: Vec<_> = patterns
                .iter()
                .filter(|(_, p)| p.iter().any(|&s| s != alphabet.empty_symbol()))
                .collect();
            if n == 0 {
                assert!(g_patterns.is_empty(), "empty word migrates nothing");
                continue;
            }
            assert_eq!(g_patterns.len(), 1, "exactly one migrating object for n={n}");
            let visible: Vec<u32> =
                g_patterns[0].1.iter().copied().filter(|&s| s != alphabet.empty_symbol()).collect();
            let expected: Vec<u32> = word.iter().map(|&c| syms[c as usize]).collect();
            assert_eq!(visible, expected, "pattern must spell a^{n} b^{n}");
            // The object is deleted at the end (∅ suffix).
            assert_eq!(*g_patterns[0].1.last().unwrap(), alphabet.empty_symbol());
        }
    }

    #[test]
    fn rejected_words_never_migrate() {
        let tm = machines::anbn();
        for word in [vec![0u32], vec![1, 0], vec![0, 1, 1], vec![0, 0, 1]] {
            assert!(drive_word(&tm, &word, 10_000).is_none());
        }
    }

    /// Soundness fuzzing: random transaction/argument sequences never make
    /// an object trace a word outside Init(L·∅*) — the letter part of any
    /// pattern is a prefix of some aⁿbⁿ.
    #[test]
    fn fuzzed_runs_stay_inside_the_inventory() {
        let (schema, alphabet, compiled, syms) = anbn_setup();
        let (a_sym, b_sym) = (syms[0], syms[1]);
        let mut rng = StdRng::seed_from_u64(20_260_611);
        // Value pool: schema constants + a few ids + junk.
        let mut pool: Vec<Value> = compiled.transactions.constants().into_iter().collect();
        for i in 0..3 {
            pool.push(Value::str(&format!("cell{i}")));
        }
        pool.push(Value::str("junk"));
        pool.push(Value::int(7));

        for _run in 0..120 {
            let mut db = migratory_model::Instance::empty();
            let mut trace = vec![db.clone()];
            for _ in 0..14 {
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
                let obs = crate::pattern::observe(&schema, &alphabet, &trace, o);
                let pat = crate::pattern::pattern_of(&obs);
                // Only G-component objects matter.
                let in_g = trace.iter().all(|d| {
                    let cs = d.role_set(o);
                    cs.is_empty()
                        || cs.first().map(|c| schema.component_of(c)) == Some(alphabet.component())
                });
                if !in_g {
                    continue;
                }
                let letters: Vec<u32> =
                    pat.iter().copied().filter(|&s| s != alphabet.empty_symbol()).collect();
                // Must be a prefix of aⁿbⁿ roles: a-run then b-run with
                // #b ≤ #a, and the word must be well-formed.
                assert!(
                    crate::pattern::is_well_formed(&pat, alphabet.empty_symbol()),
                    "ill-formed {pat:?}"
                );
                let a_run = letters.iter().take_while(|&&s| s == a_sym).count();
                let rest = &letters[a_run..];
                let b_run = rest.iter().take_while(|&&s| s == b_sym).count();
                assert_eq!(b_run, rest.len(), "letters {letters:?} not of the form aⁱbʲ");
                assert!(b_run <= a_run, "letters {letters:?} not a prefix of any aⁿbⁿ");
            }
        }
    }

    #[test]
    fn bad_machines_rejected() {
        let (schema, alphabet, s_class, roles) = standard_tm_schema(1).unwrap();
        // Transitions from the accepting state are rejected.
        let mut tm = TuringMachine::new(2, 2, 1, 0, 1).unwrap();
        tm.add_transition(1, 0, 0, 0, Move::Stay).unwrap();
        let spec = TmSpec { letter_of: vec![Some(roles[0]), None] };
        assert!(matches!(
            compile_tm(&schema, &alphabet, s_class, &tm, &spec),
            Err(CoreError::BadMachine(_))
        ));
        // Blank as letter rejected.
        let tm = machines::accept_all();
        let spec = TmSpec { letter_of: vec![Some(roles[0]), Some(roles[0])] };
        assert!(matches!(
            compile_tm(&schema, &alphabet, s_class, &tm, &spec),
            Err(CoreError::BadMachine(_))
        ));
    }

    #[test]
    fn even_length_machine_compiles_and_drives() {
        let (schema, alphabet, s_class, roles) = standard_tm_schema(2).unwrap();
        let tm = machines::even_length();
        let spec = TmSpec { letter_of: vec![Some(roles[0]), Some(roles[1]), None] };
        let compiled = compile_tm(&schema, &alphabet, s_class, &tm, &spec).unwrap();
        let word = vec![0u32, 1, 1, 0];
        let script = drive_word(&tm, &word, 1000).unwrap();
        let steps: Vec<(&Transaction, Assignment)> = script
            .iter()
            .map(|(name, args)| {
                (compiled.transactions.get(name).unwrap(), Assignment::new(args.clone()))
            })
            .collect();
        let step_refs: Vec<(&Transaction, &Assignment)> =
            steps.iter().map(|(t, a)| (*t, a)).collect();
        let patterns = patterns_of_run(&schema, &alphabet, step_refs).unwrap();
        let visible: Vec<Vec<u32>> = patterns
            .iter()
            .map(|(_, p)| p.iter().copied().filter(|&s| s != alphabet.empty_symbol()).collect())
            .filter(|v: &Vec<u32>| !v.is_empty())
            .collect();
        assert_eq!(visible.len(), 1);
        let expected: Vec<u32> =
            word.iter().map(|&c| alphabet.symbol_of(roles[c as usize]).unwrap()).collect();
        assert_eq!(visible[0], expected);
        // Odd-length words are rejected.
        assert!(drive_word(&tm, &[0], 1000).is_none());
    }
}
