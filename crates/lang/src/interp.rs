//! Operational semantics of SL / CSL⁺ / CSL (Definitions 2.5 and 4.3/4.4).
//!
//! Each ground atomic update denotes a total mapping `inst(D) → inst(D)`;
//! an update whose condition is unsatisfiable (the paper's `E`) is the
//! identity. Guarded updates first evaluate their literals against the
//! current database and fire only if all hold. Transactions compose
//! left-to-right: `⟦θ₁; …; θₙ⟧ = ⟦θₙ⟧ ∘ … ∘ ⟦θ₁⟧`.
//!
//! All entry points funnel through one recorder-generic core:
//! [`apply_transaction`] (and the [`run`] / [`run_trace`] wrappers) use a
//! zero-cost no-op recorder, while [`apply_transaction_delta`]
//! additionally captures before-images of exactly the touched objects and
//! returns them as a [`Delta`] — the O(touched) change-set that powers
//! incremental enforcement in `migratory-core`.

use crate::ast::{Assignment, AtomicUpdate, GuardedUpdate, Literal, Transaction};
use crate::error::LangError;
use migratory_model::{ClassSet, Instance, Oid, Schema, Tuple};

/// Observer of object mutations during an application. The interpreter
/// reports every object it is *about* to mutate (with its pre-state still
/// readable from `db`) and every object it mints; [`DeltaRecorder`]
/// captures before-images from these callbacks, while the plain entry
/// points use the zero-cost [`NoRecord`].
trait Recorder {
    /// `o` is about to be mutated; `db` still holds its pre-state.
    fn touch(&mut self, db: &Instance, o: Oid);
    /// `o` was just minted by `create` (no pre-state exists).
    fn minted(&mut self, o: Oid);
}

/// The no-op recorder behind [`apply_atomic`] and friends.
struct NoRecord;

impl Recorder for NoRecord {
    #[inline]
    fn touch(&mut self, _db: &Instance, _o: Oid) {}
    #[inline]
    fn minted(&mut self, _o: Oid) {}
}

/// Captures the before-image of each object on its first touch, as the
/// [`ObjectDelta`] the application will return: touches are appended in
/// order (a repeat of the previous touch's object is skipped, without
/// reading its tuple), and [`DeltaRecorder::finish`] sorts them stably
/// by oid, keeps each object's first touch and fills in the
/// after-images — one `Vec` for the whole change-set.
#[derive(Default)]
struct DeltaRecorder {
    objects: Vec<ObjectDelta>,
}

impl DeltaRecorder {
    fn record(&mut self, oid: Oid, before: Option<(ClassSet, Tuple)>) {
        self.objects.push(ObjectDelta { oid, before, after: None, tuple_changed: false });
    }

    /// The change-set against `db`, the post-state.
    fn finish(mut self, db: &Instance) -> Vec<ObjectDelta> {
        self.objects.sort_by_key(|od| od.oid);
        self.objects.dedup_by_key(|od| od.oid);
        for od in &mut self.objects {
            od.after = db.occurs(od.oid).then(|| (db.role_set(od.oid), db.tuple_of(od.oid)));
            od.tuple_changed = match (&od.before, &od.after) {
                (Some((_, t_before)), Some((_, t_after))) => t_after != t_before,
                (None, Some(_)) | (Some(_), None) => true,
                // Minted and deleted within one application: never
                // observable (patterns read post-states only).
                (None, None) => false,
            };
        }
        self.objects
    }
}

impl Recorder for DeltaRecorder {
    fn touch(&mut self, db: &Instance, o: Oid) {
        if self.objects.last().is_none_or(|od| od.oid != o) {
            self.record(o, db.occurs(o).then(|| (db.role_set(o), db.tuple_of(o))));
        }
    }
    fn minted(&mut self, o: Oid) {
        self.record(o, None);
    }
}

/// One object's before/after images across a transaction application.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ObjectDelta {
    /// The touched object.
    pub oid: Oid,
    /// Pre-state (class set and attribute tuple), `None` if the object did
    /// not occur before the application.
    pub before: Option<(ClassSet, Tuple)>,
    /// Post-state (class set and attribute tuple), `None` if the object
    /// does not occur after the application. Carrying the full after-image
    /// (not just the class set) makes the delta **exact in both
    /// directions**: [`Delta::undo`] restores the pre-state from
    /// `before`, [`Delta::redo`] replays the post-state from `after` —
    /// which is what lets the write-ahead log re-apply committed
    /// change-sets without re-running transactions.
    pub after: Option<(ClassSet, Tuple)>,
    /// Whether the attribute tuple differs between pre- and post-state
    /// (creation and deletion count as changes).
    pub tuple_changed: bool,
}

impl ObjectDelta {
    /// Pre-state class set (∅ when the object did not occur).
    #[must_use]
    pub fn before_classes(&self) -> ClassSet {
        self.before.as_ref().map(|(cs, _)| *cs).unwrap_or_default()
    }

    /// Post-state class set, `None` if the object does not occur after
    /// the application.
    #[must_use]
    pub fn after_classes(&self) -> Option<ClassSet> {
        self.after.as_ref().map(|(cs, _)| *cs)
    }

    /// The object was minted by this application (and still occurs).
    #[must_use]
    pub fn created(&self) -> bool {
        self.before.is_none() && self.after.is_some()
    }

    /// The object was removed by this application.
    #[must_use]
    pub fn deleted(&self) -> bool {
        self.before.is_some() && self.after.is_none()
    }

    /// The object's observable state is identical before and after (it was
    /// selected by some update that ended up writing back its own values).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        !self.tuple_changed && self.before.as_ref().map(|(cs, _)| *cs) == self.after_classes()
    }
}

/// The exact change-set of one transaction application: which objects were
/// created / updated / deleted (with before-images), plus enough state to
/// [`undo`](Delta::undo) the application in place.
///
/// Work and memory are **O(touched)** — objects the transaction never
/// selected are not represented. This is what makes incremental consumers
/// (the runtime [`ShardedMonitor`](../../migratory_core/enforce/sharded/struct.ShardedMonitor.html))
/// independent of database size.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Delta {
    pub(crate) old_next: u64,
    pub(crate) new_next: u64,
    pub(crate) objects: Vec<ObjectDelta>,
}

impl Delta {
    /// Per-object changes, ordered by object identifier.
    #[must_use]
    pub fn objects(&self) -> &[ObjectDelta] {
        &self.objects
    }

    /// Whether the application was the identity on the database —
    /// including the next-object counter, so a transaction that mints and
    /// immediately deletes an object is **not** an identity (Definition
    /// 4.6's "null application" test, computed in O(touched)).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.old_next == self.new_next && self.objects.iter().all(ObjectDelta::is_noop)
    }

    /// Roll the application back in place. `db` must be exactly the
    /// post-state this delta was produced on.
    pub fn undo(&self, db: &mut Instance) {
        for od in &self.objects {
            match &od.before {
                Some((cs, t)) => db.put_object(od.oid, *cs, t.clone()),
                None => db.delete_object(od.oid),
            }
        }
        db.set_next(self.old_next);
    }

    /// Re-apply the change-set in place. `db` must be exactly the
    /// pre-state this delta was produced on; afterwards it is
    /// bit-identical to the post-state. The inverse of [`Delta::undo`],
    /// and the recovery primitive behind the enforcement WAL: a logged
    /// delta replays without re-running its transaction.
    pub fn redo(&self, db: &mut Instance) {
        for od in &self.objects {
            match &od.after {
                Some((cs, t)) => db.put_object(od.oid, *cs, t.clone()),
                None => db.delete_object(od.oid),
            }
        }
        db.set_next(self.new_next);
    }
}

/// Apply a **ground** atomic update in place (Definition 2.5).
///
/// The update must have been validated against `schema`
/// (see [`crate::validate::validate_update`]); validation guarantees the
/// class/attribute side conditions this function relies on.
pub fn apply_atomic(schema: &Schema, db: &mut Instance, u: &AtomicUpdate) {
    apply_atomic_rec(schema, db, u, &mut NoRecord);
}

fn apply_atomic_rec<R: Recorder>(
    schema: &Schema,
    db: &mut Instance,
    u: &AtomicUpdate,
    rec: &mut R,
) {
    debug_assert!(u.is_ground(), "semantics is defined on ground updates");
    match u {
        AtomicUpdate::Create { class, gamma } => {
            if !gamma.is_satisfiable() {
                return;
            }
            // o'(P) = o(P) ∪ {oᵢ}; values from Γ's equalities. Creation is
            // unconditional: a fresh identifier is always minted.
            let oid = db.create(migratory_model::ClassSet::singleton(*class), gamma.value_map());
            rec.minted(oid);
        }
        AtomicUpdate::Delete { class, gamma } => {
            if !gamma.is_satisfiable() {
                return;
            }
            // Removing from every Q isa* P removes the object entirely: P
            // is the unique root of its weakly-connected component, so
            // every class of a member object is a descendant of P.
            for o in db.sat(*class, gamma) {
                rec.touch(db, o);
                db.delete_object(o);
            }
        }
        AtomicUpdate::Modify { class, select, set } => {
            if !select.is_satisfiable() || !set.is_satisfiable() {
                return;
            }
            let values = set.value_map();
            for o in db.sat(*class, select) {
                rec.touch(db, o);
                db.set_values(o, values.iter().map(|(a, v)| (a, v.clone())));
            }
        }
        AtomicUpdate::Generalize { class, gamma } => {
            if !gamma.is_satisfiable() {
                return;
            }
            let remove = schema.down_closure_of(*class);
            // Attributes owned by P or a descendant are cleared
            // (a′ = a − {((o,A),·) | ∃Q isa* P, A ∈ A(Q)}).
            let clear: Vec<_> =
                remove.iter().flat_map(|c| schema.attrs_of(c).iter().copied()).collect();
            for o in db.sat(*class, gamma) {
                rec.touch(db, o);
                db.remove_classes(o, remove, clear.iter().copied());
            }
        }
        AtomicUpdate::Specialize { from, to, select, set } => {
            if !select.is_satisfiable() || !set.is_satisfiable() {
                return;
            }
            let add = schema.up_closure_of(*to);
            let values = set.value_map();
            // Objects already in Q are left untouched (Sat(Γ,d,P) − o(Q)).
            let targets: Vec<Oid> = db
                .sat(*from, select)
                .into_iter()
                .filter(|&o| !db.role_set(o).contains(*to))
                .collect();
            for o in targets {
                rec.touch(db, o);
                db.add_classes(o, add, values.iter().map(|(a, v)| (a, v.clone())));
            }
        }
    }
}

/// Whether the database satisfies a **ground** literal (Section 4):
/// `d ⊨ P(Γ)` iff some object of `o(P)` satisfies Γ; `d ⊨ ¬P(Γ)` iff none
/// does. Witness search is planned from Γ by [`Instance::sat_exists`] —
/// an indexed point lookup when Γ has an equality atom, the class index
/// otherwise — never a heap scan.
#[must_use]
pub fn satisfies_literal(db: &Instance, l: &Literal) -> bool {
    db.sat_exists(l.class, &l.gamma) == l.positive
}

/// Apply a **ground** guarded update (Definition 4.3): the update fires
/// only when every literal holds.
pub fn apply_guarded(schema: &Schema, db: &mut Instance, g: &GuardedUpdate) {
    apply_guarded_rec(schema, db, g, &mut NoRecord);
}

fn apply_guarded_rec<R: Recorder>(
    schema: &Schema,
    db: &mut Instance,
    g: &GuardedUpdate,
    rec: &mut R,
) {
    if g.guards.iter().all(|l| satisfies_literal(db, l)) {
        apply_atomic_rec(schema, db, &g.update, rec);
    }
}

/// Apply a **ground** transaction in place.
pub fn apply_ground_transaction(schema: &Schema, db: &mut Instance, t: &Transaction) {
    for step in &t.steps {
        apply_guarded(schema, db, step);
    }
}

fn apply_transaction_rec<R: Recorder>(
    schema: &Schema,
    db: &mut Instance,
    t: &Transaction,
    args: &Assignment,
    rec: &mut R,
) -> Result<(), LangError> {
    if args.len() != t.params.len() {
        return Err(LangError::ArityMismatch { expected: t.params.len(), got: args.len() });
    }
    let assign = |x: migratory_model::VarId| args.get(x).clone();
    for step in &t.steps {
        let ground = step.substitute(&assign);
        apply_guarded_rec(schema, db, &ground, rec);
    }
    Ok(())
}

/// Apply a parameterized transaction under an assignment, in place
/// (`⟦T(x₁,…,xₘ)⟧(α) = ⟦T[α]⟧`).
pub fn apply_transaction(
    schema: &Schema,
    db: &mut Instance,
    t: &Transaction,
    args: &Assignment,
) -> Result<(), LangError> {
    apply_transaction_rec(schema, db, t, args, &mut NoRecord)
}

/// Apply a parameterized transaction in place **and** return the exact
/// change-set: before/after images for every touched object plus the undo
/// needed to roll the application back. Errors (arity) leave `db`
/// untouched.
///
/// This is the incremental entry point behind the runtime monitor: cost
/// and allocation are O(touched objects), never O(|db|), and consumers
/// decide *after* seeing the delta whether to keep or
/// [`undo`](Delta::undo) the application — no defensive whole-database
/// clone.
pub fn apply_transaction_delta(
    schema: &Schema,
    db: &mut Instance,
    t: &Transaction,
    args: &Assignment,
) -> Result<Delta, LangError> {
    let old_next = db.next_oid().0;
    let mut rec = DeltaRecorder::default();
    apply_transaction_rec(schema, db, t, args, &mut rec)?;
    Ok(Delta { old_next, new_next: db.next_oid().0, objects: rec.finish(db) })
}

/// Functional form of [`apply_transaction`].
pub fn run(
    schema: &Schema,
    db: &Instance,
    t: &Transaction,
    args: &Assignment,
) -> Result<Instance, LangError> {
    let mut out = db.clone();
    apply_transaction(schema, &mut out, t, args)?;
    Ok(out)
}

/// Run a sequence of `(transaction, assignment)` applications from a
/// starting database, returning every intermediate database
/// `d₀, d₁, …, dₙ` (useful for extracting migration patterns).
pub fn run_trace<'a>(
    schema: &Schema,
    start: &Instance,
    steps: impl IntoIterator<Item = (&'a Transaction, &'a Assignment)>,
) -> Result<Vec<Instance>, LangError> {
    let mut out = vec![start.clone()];
    for (t, args) in steps {
        let next = run(schema, out.last().expect("non-empty"), t, args)?;
        out.push(next);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::con;
    use migratory_model::schema::university_schema;
    use migratory_model::{Atom, ClassSet, Condition, Instance, Value};

    fn cond(atoms: Vec<Atom>) -> Condition {
        Condition::from_atoms(atoms)
    }

    struct Uni {
        s: Schema,
        person: migratory_model::ClassId,
        employee: migratory_model::ClassId,
        student: migratory_model::ClassId,
        ga: migratory_model::ClassId,
        ssn: migratory_model::AttrId,
        name: migratory_model::AttrId,
        salary: migratory_model::AttrId,
        works_in: migratory_model::AttrId,
        major: migratory_model::AttrId,
        fe: migratory_model::AttrId,
        pc: migratory_model::AttrId,
    }

    use migratory_model::Schema;

    fn uni() -> Uni {
        let s = university_schema();
        Uni {
            person: s.class_id("PERSON").unwrap(),
            employee: s.class_id("EMPLOYEE").unwrap(),
            student: s.class_id("STUDENT").unwrap(),
            ga: s.class_id("GRAD_ASSIST").unwrap(),
            ssn: s.attr_id("SSN").unwrap(),
            name: s.attr_id("Name").unwrap(),
            salary: s.attr_id("Salary").unwrap(),
            works_in: s.attr_id("WorksIn").unwrap(),
            major: s.attr_id("Major").unwrap(),
            fe: s.attr_id("FirstEnroll").unwrap(),
            pc: s.attr_id("PcAppoint").unwrap(),
            s,
        }
    }

    fn create_person(u: &Uni, db: &mut Instance, ssn: &str, name: &str) {
        apply_atomic(
            &u.s,
            db,
            &AtomicUpdate::Create {
                class: u.person,
                gamma: cond(vec![Atom::eq_const(u.ssn, ssn), Atom::eq_const(u.name, name)]),
            },
        );
    }

    #[test]
    fn create_always_mints_fresh_objects() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "1", "Ann");
        create_person(&u, &mut db, "1", "Ann"); // identical tuple — still a new object
        assert_eq!(db.num_objects(), 2);
        db.check_invariants(&u.s).unwrap();
    }

    #[test]
    fn create_with_unsatisfiable_condition_is_identity() {
        let u = uni();
        let mut db = Instance::empty();
        let before = db.clone();
        apply_atomic(
            &u.s,
            &mut db,
            &AtomicUpdate::Create {
                class: u.person,
                gamma: cond(vec![
                    Atom::eq_const(u.ssn, "1"),
                    Atom::ne_const(u.ssn, "1"),
                    Atom::eq_const(u.name, "x"),
                ]),
            },
        );
        assert_eq!(db, before, "Γ = E ⇒ identity (next counter untouched)");
    }

    #[test]
    fn specialize_and_generalize_migrate() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "7", "Kim");
        // PERSON → STUDENT.
        apply_atomic(
            &u.s,
            &mut db,
            &AtomicUpdate::Specialize {
                from: u.person,
                to: u.student,
                select: cond(vec![Atom::eq_const(u.ssn, "7")]),
                set: cond(vec![Atom::eq_const(u.major, "CS"), Atom::eq_const(u.fe, 1990)]),
            },
        );
        let o = migratory_model::Oid(1);
        assert!(db.role_set(o).contains(u.student));
        assert_eq!(db.value(o, u.major), Some(&Value::str("CS")));
        db.check_invariants(&u.s).unwrap();

        // STUDENT → GRAD_ASSIST (acquires EMPLOYEE too, by up-closure).
        apply_atomic(
            &u.s,
            &mut db,
            &AtomicUpdate::Specialize {
                from: u.student,
                to: u.ga,
                select: Condition::empty(),
                set: cond(vec![
                    Atom::eq_const(u.pc, 50),
                    Atom::eq_const(u.salary, 1000),
                    Atom::eq_const(u.works_in, "CS-dept"),
                ]),
            },
        );
        assert!(db.role_set(o).contains(u.ga) && db.role_set(o).contains(u.employee));
        db.check_invariants(&u.s).unwrap();

        // generalize(EMPLOYEE) removes EMPLOYEE and GRAD_ASSIST, keeps STUDENT.
        apply_atomic(
            &u.s,
            &mut db,
            &AtomicUpdate::Generalize { class: u.employee, gamma: Condition::empty() },
        );
        let rs = db.role_set(o);
        assert!(rs.contains(u.student) && rs.contains(u.person));
        assert!(!rs.contains(u.employee) && !rs.contains(u.ga));
        assert!(db.value(o, u.salary).is_none(), "Salary cleared");
        assert!(db.value(o, u.pc).is_none(), "PcAppoint cleared");
        assert_eq!(db.value(o, u.major), Some(&Value::str("CS")), "Major kept");
        db.check_invariants(&u.s).unwrap();
    }

    #[test]
    fn specialize_leaves_existing_members_untouched() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "7", "Kim");
        let spec = |maj: &str| AtomicUpdate::Specialize {
            from: u.person,
            to: u.student,
            select: Condition::empty(),
            set: cond(vec![Atom::eq_const(u.major, maj), Atom::eq_const(u.fe, 1990)]),
        };
        apply_atomic(&u.s, &mut db, &spec("CS"));
        apply_atomic(&u.s, &mut db, &spec("Math"));
        // Second specialize must NOT overwrite Major (object already in Q).
        assert_eq!(db.value(migratory_model::Oid(1), u.major), Some(&Value::str("CS")));
    }

    #[test]
    fn delete_removes_everywhere() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "7", "Kim");
        apply_atomic(
            &u.s,
            &mut db,
            &AtomicUpdate::Specialize {
                from: u.person,
                to: u.student,
                select: Condition::empty(),
                set: cond(vec![Atom::eq_const(u.major, "CS"), Atom::eq_const(u.fe, 1990)]),
            },
        );
        apply_atomic(
            &u.s,
            &mut db,
            &AtomicUpdate::Delete {
                class: u.person,
                gamma: cond(vec![Atom::eq_const(u.ssn, "7")]),
            },
        );
        assert!(db.is_empty());
        assert_eq!(db.next_oid(), migratory_model::Oid(2), "identifiers never reused");
    }

    #[test]
    fn modify_overwrites_selected() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "1", "Ann");
        create_person(&u, &mut db, "2", "Bob");
        apply_atomic(
            &u.s,
            &mut db,
            &AtomicUpdate::Modify {
                class: u.person,
                select: cond(vec![Atom::eq_const(u.ssn, "2")]),
                set: cond(vec![Atom::eq_const(u.name, "Robert")]),
            },
        );
        assert_eq!(db.value(migratory_model::Oid(1), u.name), Some(&Value::str("Ann")));
        assert_eq!(db.value(migratory_model::Oid(2), u.name), Some(&Value::str("Robert")));
    }

    #[test]
    fn guards_gate_updates() {
        let u = uni();
        let mut db = Instance::empty();
        // ¬PERSON(SSN=1) → create(PERSON, {SSN=1, Name=x}): enforces key.
        let t = Transaction::new(
            "key_create",
            &["x"],
            vec![GuardedUpdate::when(
                vec![Literal::neg(u.person, cond(vec![Atom::eq_const(u.ssn, "1")]))],
                AtomicUpdate::Create {
                    class: u.person,
                    gamma: cond(vec![
                        Atom::eq_const(u.ssn, "1"),
                        Atom {
                            attr: u.name,
                            op: migratory_model::CmpOp::Eq,
                            term: crate::ast::var(0),
                        },
                    ]),
                },
            )],
        );
        let args = Assignment::new(vec![Value::str("Ann")]);
        apply_transaction(&u.s, &mut db, &t, &args).unwrap();
        assert_eq!(db.num_objects(), 1);
        // Firing again: guard fails, no duplicate.
        apply_transaction(&u.s, &mut db, &t, &args).unwrap();
        assert_eq!(db.num_objects(), 1, "negative guard enforced the key");
    }

    #[test]
    fn positive_guard_requires_witness() {
        let u = uni();
        let mut db = Instance::empty();
        let step = GuardedUpdate::when(
            vec![Literal::pos(u.person, Condition::empty())],
            AtomicUpdate::Delete { class: u.person, gamma: Condition::empty() },
        );
        // Empty database: guard unsatisfied, no-op.
        apply_guarded(&u.s, &mut db, &step);
        assert!(db.is_empty());
        create_person(&u, &mut db, "1", "A");
        apply_guarded(&u.s, &mut db, &step);
        assert!(db.is_empty(), "guard now holds; delete fired");
    }

    #[test]
    fn empty_transaction_is_identity() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "1", "A");
        let before = db.clone();
        apply_transaction(&u.s, &mut db, &Transaction::empty("id"), &Assignment::empty()).unwrap();
        assert_eq!(db, before);
    }

    #[test]
    fn run_trace_returns_all_intermediates() {
        let u = uni();
        let t = Transaction::sl(
            "mk",
            &[],
            vec![AtomicUpdate::Create {
                class: u.person,
                gamma: cond(vec![Atom::eq_const(u.ssn, "1"), Atom::eq_const(u.name, "A")]),
            }],
        );
        let a = Assignment::empty();
        let trace = run_trace(&u.s, &Instance::empty(), [(&t, &a), (&t, &a)]).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].num_objects(), 0);
        assert_eq!(trace[1].num_objects(), 1);
        assert_eq!(trace[2].num_objects(), 2);
    }

    #[test]
    fn restriction_lemma_3_5_smoke() {
        // ⟦T⟧(d|I) = (⟦T⟧(d))|I for SL transactions.
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "1", "A");
        create_person(&u, &mut db, "2", "B");
        let t = Transaction::sl(
            "spec",
            &[],
            vec![AtomicUpdate::Specialize {
                from: u.person,
                to: u.student,
                select: cond(vec![Atom::eq_const(u.ssn, "1")]),
                set: cond(vec![Atom::eq_const(u.major, "CS"), Atom::eq_const(u.fe, 1990)]),
            }],
        );
        let i = [migratory_model::Oid(1)];
        let lhs = run(&u.s, &db.restrict(&i), &t, &Assignment::empty()).unwrap();
        let rhs = run(&u.s, &db, &t, &Assignment::empty()).unwrap().restrict(&i);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn delta_reports_exact_change_set_and_undoes() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "1", "Ann");
        create_person(&u, &mut db, "2", "Bob");
        let before = db.clone();

        // One transaction: specialize Ann to STUDENT, rename Bob, create Caz.
        let t = Transaction::sl(
            "mixed",
            &[],
            vec![
                AtomicUpdate::Specialize {
                    from: u.person,
                    to: u.student,
                    select: cond(vec![Atom::eq_const(u.ssn, "1")]),
                    set: cond(vec![Atom::eq_const(u.major, "CS"), Atom::eq_const(u.fe, 1990)]),
                },
                AtomicUpdate::Modify {
                    class: u.person,
                    select: cond(vec![Atom::eq_const(u.ssn, "2")]),
                    set: cond(vec![Atom::eq_const(u.name, "Robert")]),
                },
                AtomicUpdate::Create {
                    class: u.person,
                    gamma: cond(vec![Atom::eq_const(u.ssn, "3"), Atom::eq_const(u.name, "Caz")]),
                },
            ],
        );
        let delta = apply_transaction_delta(&u.s, &mut db, &t, &Assignment::empty()).unwrap();
        assert!(!delta.is_identity());
        assert_eq!(delta.objects().len(), 3, "exactly the touched objects");
        let [ann, bob, caz] = delta.objects() else { panic!("three objects") };
        assert_eq!(ann.oid, Oid(1));
        assert!(!ann.created() && !ann.deleted());
        assert_ne!(Some(ann.before_classes()), ann.after_classes(), "role set grew");
        assert!(ann.tuple_changed);
        assert_eq!(bob.oid, Oid(2));
        assert_eq!(Some(bob.before_classes()), bob.after_classes());
        assert!(bob.tuple_changed, "renamed");
        assert_eq!(caz.oid, Oid(3));
        assert!(caz.created() && caz.tuple_changed);

        // Undo restores the pre-state bit for bit (counter included),
        // redo replays the post-state — the delta is exact both ways.
        let after = db.clone();
        delta.undo(&mut db);
        assert_eq!(db, before);
        delta.redo(&mut db);
        assert_eq!(db, after);
        db.check_invariants(&u.s).unwrap();
    }

    #[test]
    fn delta_identity_for_noop_and_unsatisfied_selects() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "1", "Ann");
        let before = db.clone();
        // Write back the value already stored: touched but a no-op.
        let t = Transaction::sl(
            "noop",
            &[],
            vec![AtomicUpdate::Modify {
                class: u.person,
                select: cond(vec![Atom::eq_const(u.ssn, "1")]),
                set: cond(vec![Atom::eq_const(u.name, "Ann")]),
            }],
        );
        let delta = apply_transaction_delta(&u.s, &mut db, &t, &Assignment::empty()).unwrap();
        assert_eq!(delta.objects().len(), 1);
        assert!(delta.objects()[0].is_noop());
        assert!(delta.is_identity());
        assert_eq!(db, before, "no-op application left the database intact");

        // A select matching nothing touches nothing at all.
        let t2 = Transaction::sl(
            "miss",
            &[],
            vec![AtomicUpdate::Delete {
                class: u.person,
                gamma: cond(vec![Atom::eq_const(u.ssn, "zzz")]),
            }],
        );
        let d2 = apply_transaction_delta(&u.s, &mut db, &t2, &Assignment::empty()).unwrap();
        assert!(d2.objects().is_empty() && d2.is_identity());
    }

    #[test]
    fn delta_create_then_delete_is_not_identity() {
        // The minted identifier advances the next-object counter even when
        // the object is gone by the end: matches Instance equality (and
        // Definition 4.6's null-application test).
        let u = uni();
        let mut db = Instance::empty();
        let before = db.clone();
        let t = Transaction::sl(
            "blip",
            &[],
            vec![
                AtomicUpdate::Create {
                    class: u.person,
                    gamma: cond(vec![Atom::eq_const(u.ssn, "1"), Atom::eq_const(u.name, "A")]),
                },
                AtomicUpdate::Delete {
                    class: u.person,
                    gamma: cond(vec![Atom::eq_const(u.ssn, "1")]),
                },
            ],
        );
        let delta = apply_transaction_delta(&u.s, &mut db, &t, &Assignment::empty()).unwrap();
        assert!(!delta.is_identity(), "next-object counter moved");
        assert_eq!(delta.objects().len(), 1);
        let od = &delta.objects()[0];
        assert!(od.is_noop(), "never observable before or after");
        assert!(!od.created() && !od.deleted());
        delta.undo(&mut db);
        assert_eq!(db, before);
    }

    #[test]
    fn delta_deletion_restores_full_tuple() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "7", "Kim");
        apply_atomic(
            &u.s,
            &mut db,
            &AtomicUpdate::Specialize {
                from: u.person,
                to: u.student,
                select: Condition::empty(),
                set: cond(vec![Atom::eq_const(u.major, "CS"), Atom::eq_const(u.fe, 1990)]),
            },
        );
        let before = db.clone();
        let t = Transaction::sl(
            "rm",
            &[],
            vec![AtomicUpdate::Delete { class: u.person, gamma: Condition::empty() }],
        );
        let delta = apply_transaction_delta(&u.s, &mut db, &t, &Assignment::empty()).unwrap();
        assert!(db.is_empty());
        assert!(delta.objects()[0].deleted());
        delta.undo(&mut db);
        assert_eq!(db, before, "role set and attributes restored");
        db.check_invariants(&u.s).unwrap();
    }

    #[test]
    fn delta_agrees_with_run() {
        // apply_transaction_delta(db) == run(db) on the result, for a
        // guarded CSL transaction exercising every operator.
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "1", "Ann");
        create_person(&u, &mut db, "2", "Bob");
        let t = Transaction::new(
            "guarded",
            &[],
            vec![
                GuardedUpdate::when(
                    vec![Literal::pos(u.person, cond(vec![Atom::eq_const(u.ssn, "1")]))],
                    AtomicUpdate::Specialize {
                        from: u.person,
                        to: u.student,
                        select: cond(vec![Atom::eq_const(u.ssn, "1")]),
                        set: cond(vec![Atom::eq_const(u.major, "CS"), Atom::eq_const(u.fe, 1990)]),
                    },
                ),
                GuardedUpdate::when(
                    vec![Literal::neg(u.person, cond(vec![Atom::eq_const(u.ssn, "9")]))],
                    AtomicUpdate::Delete {
                        class: u.person,
                        gamma: cond(vec![Atom::eq_const(u.ssn, "2")]),
                    },
                ),
            ],
        );
        let expected = run(&u.s, &db, &t, &Assignment::empty()).unwrap();
        let delta = apply_transaction_delta(&u.s, &mut db, &t, &Assignment::empty()).unwrap();
        assert_eq!(db, expected);
        assert_eq!(delta.objects().len(), 2);
    }

    #[test]
    fn objects_created_into_root_only() {
        let u = uni();
        let mut db = Instance::empty();
        create_person(&u, &mut db, "1", "A");
        let rs = db.role_set(migratory_model::Oid(1));
        assert_eq!(rs, ClassSet::singleton(u.person));
        let _ = con(1); // silence helper import in this test module
    }
}
