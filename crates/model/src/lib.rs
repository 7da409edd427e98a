//! # migratory-model — the object-based data model substrate
//!
//! This crate implements the "simple semantic data model" of Section 2 of
//! Jianwen Su, *Dynamic Constraints and Object Migration* (VLDB 1991; TCS
//! 184 (1997) 195–236): object identifiers, classes organised in
//! *specialization graphs* (rooted, acyclic inheritance hierarchies with
//! multiple inheritance), attributes ranging over an infinite domain of
//! printable constants, database instances, selection *conditions*, and
//! *role sets* (the isa-closed sets of classes an object may inhabit
//! simultaneously).
//!
//! The model is a proper subset of classical semantic models (IFO, SDM,
//! GSM, TAXIS); Definitions 2.1 and 2.2 of the paper are implemented
//! verbatim by [`Schema`] and [`Instance`], and Definition 3.1 / 4.5 by
//! [`RoleSet`].
//!
//! ## Indexed storage
//!
//! [`Instance`] is an *indexed* store: besides the per-object heap it
//! maintains a class-membership index (`o(P)` materialized as a bitmap
//! over heap slots, behind [`Instance::objects_in`]) and an
//! attribute-value index (per attribute, a hash table of the objects
//! holding each value), both kept exactly consistent by every mutation
//! path and audited by [`Instance::check_invariants`]. Neither copies
//! what the heap holds: a value's table entry keeps its holders and a
//! tag of the value's keyed hash, and reads the value itself from its
//! first holder's heap slot. The selection semantics `Sat(Γ, d, P)`
//! ([`Instance::sat`]) *plans* from the condition — most selective
//! indexed equality atom first, class index as fallback — so point
//! selects and guard-literal evaluation cost expected O(candidates)
//! instead of a heap scan; the scan survives as [`Instance::sat_scan`],
//! the oracle for property tests and the benchmark baseline (`sat_heavy`
//! in `BENCH_enforce.json`).
//!
//! A key costs no allocation of its own: a [`Value`] is 24 bytes and
//! keeps strings of up to [`SmallStr::INLINE`] bytes inline in its heap
//! slot, and its 16-byte table entry keeps the lone holder of an
//! unshared value inline, boxing a set only for values two or more
//! objects share.
//!
//! ## Quick tour
//!
//! ```
//! use migratory_model::{SchemaBuilder, Instance, Tuple, Value};
//!
//! // Fig. 1 of the paper: the university schema.
//! let mut b = SchemaBuilder::new();
//! let person = b.class("PERSON", &["SSN", "Name"]).unwrap();
//! let employee = b.subclass("EMPLOYEE", &[person], &["Salary", "WorksIn"]).unwrap();
//! let student = b.subclass("STUDENT", &[person], &["Major", "FirstEnroll"]).unwrap();
//! let _ga = b.subclass("GRAD_ASSIST", &[employee, student], &["PcAppoint"]).unwrap();
//! let schema = b.build().unwrap();
//!
//! assert!(schema.is_isa_root(person));
//! assert_eq!(schema.attr_star(student).len(), 4); // SSN, Name, Major, FirstEnroll
//!
//! let mut db = Instance::empty();
//! let values: Tuple = schema.attrs_of(person).iter()
//!     .map(|&a| (a, Value::from("x")))
//!     .collect();
//! let oid = db.create(schema.up_closure_of(person), values);
//! assert!(db.occurs(oid));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod codec;
pub mod condition;
pub mod display;
pub mod error;
pub mod ids;
pub mod instance;
pub mod one_or_many;
pub mod roleset;
pub mod schema;
pub mod text;
pub mod tuple;
pub mod value;

pub use bitset::{AttrSet, ClassSet, IdSet};
pub use condition::{Atom, Bound, CmpOp, Condition, Term};
pub use error::ModelError;
pub use ids::{AttrId, ClassId, Oid, VarId};
pub use instance::Instance;
pub use one_or_many::OneOrMany;
pub use roleset::RoleSet;
pub use schema::{Schema, SchemaBuilder};
pub use tuple::Tuple;
pub use value::{SmallStr, Value};
