//! Error types for the core migration layer.

use migratory_automata::AutomataError;
use migratory_lang::LangError;
use migratory_model::ModelError;

/// Errors raised by analysis, synthesis and the CSL compilers.
#[derive(Clone, PartialEq, Debug)]
pub enum CoreError {
    /// Data-model error.
    Model(ModelError),
    /// Language error.
    Lang(LangError),
    /// Automata error.
    Automata(AutomataError),
    /// The transaction schema is not SL (analysis of Theorem 3.2 applies
    /// to SL only; CSL families are not regular in general).
    NotSl,
    /// Synthesis needs an isa-root with at least three attributes
    /// (Lemma 3.4's A, B, C).
    RootNeedsThreeAttrs,
    /// A regular expression used a symbol that is not a non-empty role set
    /// of the chosen component.
    NotANonEmptyRoleSet(u32),
    /// The regex for synthesis must not contain λ as an explicit atom in a
    /// position the migration-graph construction cannot express.
    UnsupportedRegex(String),
    /// A compiler requirement on the Turing machine failed (e.g. it has
    /// transitions out of the accepting state).
    BadMachine(String),
    /// A requested component index does not exist.
    BadComponent(u32),
    /// The analyzer exceeded its configured vertex budget.
    VertexBudgetExceeded(usize),
    /// A durable monitor could not persist an enforcement event (e.g.
    /// the certification marker); the event did not take effect.
    Durability(String),
    /// Certification needs a one-shard monitor (the certification marker
    /// and a snapshot's horizon carry one clock); this one has the given
    /// number of shards. Nothing changed and nothing was logged.
    NotOneShard(usize),
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}
impl From<LangError> for CoreError {
    fn from(e: LangError) -> Self {
        CoreError::Lang(e)
    }
}
impl From<AutomataError> for CoreError {
    fn from(e: AutomataError) -> Self {
        CoreError::Automata(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "{e}"),
            CoreError::Lang(e) => write!(f, "{e}"),
            CoreError::Automata(e) => write!(f, "{e}"),
            CoreError::NotSl => write!(f, "transaction schema is not SL"),
            CoreError::RootNeedsThreeAttrs => {
                write!(f, "synthesis requires an isa-root with at least three attributes")
            }
            CoreError::NotANonEmptyRoleSet(s) => {
                write!(f, "symbol {s} is not a non-empty role set of the component")
            }
            CoreError::UnsupportedRegex(msg) => write!(f, "unsupported regex: {msg}"),
            CoreError::BadMachine(msg) => write!(f, "unsupported Turing machine: {msg}"),
            CoreError::BadComponent(c) => write!(f, "no weakly-connected component {c}"),
            CoreError::VertexBudgetExceeded(n) => {
                write!(f, "separator construction exceeded the vertex budget ({n})")
            }
            CoreError::Durability(msg) => write!(f, "durability: {msg}"),
            CoreError::NotOneShard(n) => {
                write!(f, "only a one-shard monitor certifies; this one has {n} shards")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = ModelError::UnknownClass("X".into()).into();
        assert!(e.to_string().contains('X'));
        assert!(CoreError::NotSl.to_string().contains("SL"));
        assert!(CoreError::VertexBudgetExceeded(7).to_string().contains('7'));
    }
}
