//! The role-set alphabet Ω of one weakly-connected component.
//!
//! Migration patterns are words over Ω (Definition 3.2); this module
//! interns every role set of a component as a dense symbol id so the
//! automata toolkit can operate on patterns. Symbol 0 is always the empty
//! role set ∅.

use crate::error::CoreError;
use migratory_model::roleset::all_role_sets;
use migratory_model::{RoleSet, Schema};
use std::collections::HashMap;

/// The interned alphabet Ω of a component: every role set (∅ included)
/// mapped to a dense symbol.
#[derive(Clone, Debug)]
pub struct RoleAlphabet {
    component: u32,
    sets: Vec<RoleSet>,
    index: HashMap<RoleSet, u32>,
    names: Vec<String>,
}

impl RoleAlphabet {
    /// Build the alphabet of `component` (Ω ordered with ∅ first, then
    /// lexicographically).
    pub fn new(schema: &Schema, component: u32) -> Result<RoleAlphabet, CoreError> {
        if component as usize >= schema.num_components() {
            return Err(CoreError::BadComponent(component));
        }
        let mut sets = all_role_sets(schema, component);
        sets.sort_by_key(|r| (r.len(), *r)); // ∅ first, then by size/content
        let index = sets.iter().enumerate().map(|(i, r)| (*r, i as u32)).collect();
        let names = sets.iter().map(|r| r.display(schema)).collect();
        Ok(RoleAlphabet { component, sets, index, names })
    }

    /// The component this alphabet describes.
    #[must_use]
    pub fn component(&self) -> u32 {
        self.component
    }

    /// Number of symbols `|Ω|`.
    #[must_use]
    pub fn num_symbols(&self) -> u32 {
        self.sets.len() as u32
    }

    /// The symbol of the empty role set (always 0).
    #[must_use]
    pub fn empty_symbol(&self) -> u32 {
        0
    }

    /// The symbol of a role set, if it belongs to this component.
    #[must_use]
    pub fn symbol_of(&self, rs: RoleSet) -> Option<u32> {
        self.index.get(&rs).copied()
    }

    /// The role set of a symbol.
    #[must_use]
    pub fn role_set(&self, sym: u32) -> RoleSet {
        self.sets[sym as usize]
    }

    /// The display name of a symbol (paper bracket notation).
    #[must_use]
    pub fn name(&self, sym: u32) -> &str {
        &self.names[sym as usize]
    }

    /// All non-empty symbols (Ω₊).
    pub fn nonempty_symbols(&self) -> impl Iterator<Item = u32> + '_ {
        1..self.num_symbols()
    }

    /// Render a pattern word with role-set names, separated by single
    /// spaces (`λ` for the empty word). Written straight into one
    /// exactly-sized `String`: a violation quotes its whole pattern,
    /// which grows with the letter clock.
    #[must_use]
    pub fn display_word(&self, word: &[u32]) -> String {
        let Some((&first, rest)) = word.split_first() else { return "λ".to_owned() };
        let len = word.iter().map(|&s| self.name(s).len()).sum::<usize>() + rest.len();
        let mut out = String::with_capacity(len);
        out.push_str(self.name(first));
        for &s in rest {
            out.push(' ');
            out.push_str(self.name(s));
        }
        out
    }

    /// A resolver for [`migratory_automata::parse_regex`]: resolves `∅`,
    /// bare class names (meaning the closure `[C]`), and bracketed
    /// `[C1,C2]` names against this alphabet.
    pub fn resolver<'a>(&'a self, schema: &'a Schema) -> impl Fn(&str) -> Option<u32> + 'a {
        move |name: &str| {
            if name == "∅" || name.eq_ignore_ascii_case("empty") {
                return Some(self.empty_symbol());
            }
            let inner = name.strip_prefix('[').and_then(|n| n.strip_suffix(']')).unwrap_or(name);
            let classes: Vec<&str> = inner.split(',').map(str::trim).collect();
            let rs = RoleSet::closure_of_named(schema, &classes).ok()?;
            self.symbol_of(rs)
        }
    }

    /// Parse a paper-notation regular expression over this alphabet.
    pub fn parse_regex(
        &self,
        schema: &Schema,
        src: &str,
    ) -> Result<migratory_automata::Regex, CoreError> {
        Ok(migratory_automata::parse_regex(src, &self.resolver(schema))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use migratory_model::schema::university_schema;

    #[test]
    fn university_alphabet_is_example_3_1() {
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        assert_eq!(a.num_symbols(), 6); // ∅, [P], [E], [S], [SE], [G]
        assert_eq!(a.empty_symbol(), 0);
        assert_eq!(a.name(0), "∅");
        assert_eq!(a.nonempty_symbols().count(), 5);
        // symbol_of ∘ role_set = id.
        for sym in 0..a.num_symbols() {
            assert_eq!(a.symbol_of(a.role_set(sym)), Some(sym));
        }
    }

    #[test]
    fn resolver_handles_paper_names() {
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let r = a.resolver(&s);
        assert_eq!(r("∅"), Some(0));
        assert!(r("PERSON").is_some());
        assert!(r("[GRAD_ASSIST]").is_some());
        assert_eq!(r("[STUDENT,EMPLOYEE]"), r("[EMPLOYEE, STUDENT]"));
        assert_ne!(r("[STUDENT]"), r("[EMPLOYEE]"));
        assert_eq!(r("[NOPE]"), None);
    }

    #[test]
    fn parse_regex_example_3_2() {
        // Init(∅*[P]*[S]*[G]*[E]+[P]*∅*) — the paper's person life cycle.
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        let re = a
            .parse_regex(&s, "∅* [PERSON]* [STUDENT]* [GRAD_ASSIST]* [EMPLOYEE]+ [PERSON]* ∅*")
            .unwrap();
        assert!(re.max_symbol().is_some());
    }

    #[test]
    fn display_word() {
        let s = university_schema();
        let a = RoleAlphabet::new(&s, 0).unwrap();
        assert_eq!(a.display_word(&[]), "λ");
        let w = a.display_word(&[0, 1]);
        assert!(w.starts_with('∅'));
        // A long word over every symbol renders byte for byte as the
        // space-joined names, with no spare capacity.
        let long: Vec<u32> = (0..5000u32).map(|i| (i * 7 + i / 3) % a.num_symbols()).collect();
        let joined = long.iter().map(|&s| a.name(s)).collect::<Vec<_>>().join(" ");
        let w = a.display_word(&long);
        assert_eq!(w.as_bytes(), joined.as_bytes());
        assert_eq!(w.capacity(), w.len());
        assert_eq!(a.display_word(&[3]), a.name(3));
    }

    #[test]
    fn bad_component_rejected() {
        let s = university_schema();
        assert!(matches!(RoleAlphabet::new(&s, 5), Err(CoreError::BadComponent(5))));
    }
}
