//! # migratory-lang — the update languages SL, CSL⁺ and CSL
//!
//! This crate implements the three transaction languages of Su, *Dynamic
//! Constraints and Object Migration* (VLDB 1991 / TCS 1997):
//!
//! * **SL** (Section 2): five parameterized operators — `create`,
//!   `delete`, `modify`, `generalize`, `specialize` — adapted from the
//!   relational transaction language of Abiteboul & Vianu to an
//!   object-based model, the last two supporting object migration;
//! * **CSL⁺** (Section 4): SL plus *positive* testing literals `P(Γ)`
//!   guarding each update;
//! * **CSL** (Section 4): positive and negative literals.
//!
//! Provided here: the AST ([`ast`]), well-formedness validation against a
//! database schema ([`validate`], Definition 2.3/4.1), the operational
//! semantics ([`interp`], Definition 2.5/4.3), the `mig` derived operation
//! of Proposition 3.1 ([`mig`]), a text-format parser ([`parser`]) and
//! pretty-printer ([`pretty`]).
//!
//! ```
//! use migratory_lang::{parse_transactions, run, Assignment};
//! use migratory_model::{schema::university_schema, Instance, Value};
//!
//! let schema = university_schema();
//! let ts = parse_transactions(&schema, r#"
//!     transaction Enroll(n, s, t, m) {
//!       create(PERSON, { SSN = s, Name = n });
//!       specialize(PERSON, STUDENT, { SSN = s }, { Major = m, FirstEnroll = t });
//!     }
//! "#).unwrap();
//! let args = Assignment::new(vec![
//!     Value::str("Ann"), Value::str("1234"), Value::int(1990), Value::str("CS"),
//! ]);
//! let db = run(&schema, &Instance::empty(), ts.get("Enroll").unwrap(), &args).unwrap();
//! assert_eq!(db.num_objects(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod codec;
pub mod error;
pub mod interp;
pub mod mig;
pub mod parser;
pub mod pretty;
pub mod validate;

pub use ast::{
    con, var, Assignment, AtomicUpdate, GuardedUpdate, Language, Literal, Transaction,
    TransactionSchema,
};
pub use codec::{decode_delta, delta_from_text, delta_to_text, encode_delta};
pub use error::LangError;
pub use interp::{
    apply_atomic, apply_guarded, apply_transaction, apply_transaction_delta, run, run_trace,
    satisfies_literal, Delta, ObjectDelta,
};
pub use mig::{mig_ops, migto_ops};
pub use parser::parse_transactions;
pub use validate::{validate_schema, validate_transaction, validate_update};

/// Alias used by downstream crates: a CSL transaction is a
/// [`Transaction`] whose steps carry guards.
pub type CslTransaction = Transaction;
