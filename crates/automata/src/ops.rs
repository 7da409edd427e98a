//! Language-level operations on automata: rational combinators
//! (concatenation, union, star), prefix closure, and the left quotient
//! used by Theorem 4.4 (`(ω₁*ω₂)⁻¹ · 𝓛ᵢₘₘ`).

use crate::dfa::Dfa;
use crate::error::AutomataError;
use crate::nfa::{Nfa, StateId};

fn check_alphabets(a: &Nfa, b: &Nfa) -> Result<(), AutomataError> {
    if a.num_symbols() == b.num_symbols() {
        Ok(())
    } else {
        Err(AutomataError::AlphabetMismatch { left: a.num_symbols(), right: b.num_symbols() })
    }
}

/// Disjoint union of state sets; returns the state-id offset of `b`'s
/// states inside the result.
fn embed(a: &Nfa, b: &Nfa, out: &mut Nfa) -> (Vec<StateId>, Vec<StateId>) {
    let mut map_a = Vec::with_capacity(a.num_states());
    for q in 0..a.num_states() as StateId {
        map_a.push(out.add_state(a.is_accepting(q)));
    }
    let mut map_b = Vec::with_capacity(b.num_states());
    for q in 0..b.num_states() as StateId {
        map_b.push(out.add_state(b.is_accepting(q)));
    }
    for q in 0..a.num_states() as StateId {
        for (s, t) in a.transitions(q) {
            out.add_transition(map_a[q as usize], s, map_a[t as usize]);
        }
        for t in a.eps_transitions(q) {
            out.add_eps(map_a[q as usize], map_a[t as usize]);
        }
    }
    for q in 0..b.num_states() as StateId {
        for (s, t) in b.transitions(q) {
            out.add_transition(map_b[q as usize], s, map_b[t as usize]);
        }
        for t in b.eps_transitions(q) {
            out.add_eps(map_b[q as usize], map_b[t as usize]);
        }
    }
    (map_a, map_b)
}

/// `L(a) · L(b)`.
pub fn concat(a: &Nfa, b: &Nfa) -> Result<Nfa, AutomataError> {
    check_alphabets(a, b)?;
    let mut out = Nfa::empty(a.num_symbols());
    let (map_a, map_b) = embed(a, b, &mut out);
    // a's accepting states ε-connect to b's starts, and stop accepting.
    for q in 0..a.num_states() as StateId {
        if a.is_accepting(q) {
            out.set_accepting(map_a[q as usize], false);
            for &s in b.starts() {
                out.add_eps(map_a[q as usize], map_b[s as usize]);
            }
        }
    }
    for &s in a.starts() {
        out.add_start(map_a[s as usize]);
    }
    Ok(out)
}

/// `L(a) ∪ L(b)`.
pub fn union(a: &Nfa, b: &Nfa) -> Result<Nfa, AutomataError> {
    check_alphabets(a, b)?;
    let mut out = Nfa::empty(a.num_symbols());
    let (map_a, map_b) = embed(a, b, &mut out);
    for &s in a.starts() {
        out.add_start(map_a[s as usize]);
    }
    for &s in b.starts() {
        out.add_start(map_b[s as usize]);
    }
    Ok(out)
}

/// `L(a)*`.
#[must_use]
pub fn star(a: &Nfa) -> Nfa {
    let mut out = Nfa::empty(a.num_symbols());
    let hub = out.add_state(true);
    let (map_a, _) = embed(a, &Nfa::empty(a.num_symbols()), &mut out);
    for &s in a.starts() {
        out.add_eps(hub, map_a[s as usize]);
    }
    for q in 0..a.num_states() as StateId {
        if a.is_accepting(q) {
            out.set_accepting(map_a[q as usize], false);
            out.add_eps(map_a[q as usize], hub);
        }
    }
    out.add_start(hub);
    out
}

/// The left quotient `X⁻¹Y = {z | ∃x ∈ X, xz ∈ Y}` (Definition 4.8).
///
/// Construction: the new automaton is `y` with its start set replaced by
/// every state of `y` reachable from `y`'s start via some word of `X` —
/// computed by a product reachability between `x` (as a DFA) and `y`.
#[must_use]
pub fn left_quotient(x: &Dfa, y: &Nfa) -> Nfa {
    assert_eq!(x.num_symbols(), y.num_symbols(), "quotient requires identical alphabets");
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<(u32, StateId)> = Vec::new();
    for &q in &y.eps_closure(y.starts()) {
        if seen.insert((x.start(), q)) {
            stack.push((x.start(), q));
        }
    }
    let mut new_starts: Vec<StateId> = Vec::new();
    while let Some((a, q)) = stack.pop() {
        if x.is_accepting(a) {
            new_starts.push(q);
        }
        for (s, t) in y.transitions(q) {
            let a2 = x.step(a, s);
            for &t2 in &y.eps_closure(&[t]) {
                if seen.insert((a2, t2)) {
                    stack.push((a2, t2));
                }
            }
        }
    }
    let mut out = y.clone();
    out.replace_starts(&new_starts);
    out
}

/// On-the-fly inclusion `L(nfa) ⊆ L(dfa)`: explores pairs (ε-closed NFA
/// state set, complement-DFA state) lazily and stops at the first
/// counterexample, returning it. Avoids materializing, determinizing, or
/// minimizing the left language — the ablation partner of
/// [`Dfa::witness_not_subset`] (`experiments micro` times both), which
/// pays those costs up front but answers repeat queries cheaply.
///
/// Returns `None` when the inclusion holds, otherwise a shortest-found
/// witness in `L(nfa) ∖ L(dfa)` (BFS order, so of minimal length).
pub fn nfa_witness_not_subset(nfa: &Nfa, dfa: &Dfa) -> Result<Option<Vec<u32>>, AutomataError> {
    if nfa.num_symbols() != dfa.num_symbols() {
        return Err(AutomataError::AlphabetMismatch {
            left: nfa.num_symbols(),
            right: dfa.num_symbols(),
        });
    }
    let key = |set: &[StateId]| -> Vec<StateId> {
        let mut v = set.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    let start_set = key(&nfa.eps_closure(nfa.starts()));
    let start = (start_set, dfa.start());
    let accepts_nfa = |set: &[StateId]| set.iter().any(|&q| nfa.is_accepting(q));

    let mut seen = std::collections::HashSet::new();
    let mut queue = std::collections::VecDeque::new();
    seen.insert(start.clone());
    queue.push_back((start, Vec::<u32>::new()));
    while let Some(((set, d), word)) = queue.pop_front() {
        if accepts_nfa(&set) && !dfa.is_accepting(d) {
            return Ok(Some(word));
        }
        for s in 0..nfa.num_symbols() {
            let mut next: Vec<StateId> = Vec::new();
            for &q in &set {
                next.extend(nfa.transitions(q).filter(|&(sym, _)| sym == s).map(|(_, t)| t));
            }
            if next.is_empty() {
                continue; // ∅ on the left accepts nothing: inclusion holds here.
            }
            let next = key(&nfa.eps_closure(&next));
            let pair = (next, dfa.step(d, s));
            if seen.insert(pair.clone()) {
                let mut w2 = word.clone();
                w2.push(s);
                queue.push_back((pair, w2));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn nfa(r: Regex) -> Nfa {
        Nfa::from_regex(&r, 3)
    }

    fn dfa(r: Regex) -> Dfa {
        Dfa::from_nfa(&nfa(r))
    }

    #[test]
    fn concat_combinator() {
        let ab = concat(&nfa(Regex::Sym(0)), &nfa(Regex::star(Regex::Sym(1)))).unwrap();
        assert!(ab.accepts(&[0]));
        assert!(ab.accepts(&[0, 1, 1]));
        assert!(!ab.accepts(&[1]));
        assert!(!ab.accepts(&[]));
    }

    #[test]
    fn union_combinator() {
        let u = union(&nfa(Regex::Sym(0)), &nfa(Regex::word([1, 1]))).unwrap();
        assert!(u.accepts(&[0]));
        assert!(u.accepts(&[1, 1]));
        assert!(!u.accepts(&[1]));
    }

    #[test]
    fn star_combinator() {
        let s = star(&nfa(Regex::word([0, 1])));
        assert!(s.accepts(&[]));
        assert!(s.accepts(&[0, 1]));
        assert!(s.accepts(&[0, 1, 0, 1]));
        assert!(!s.accepts(&[0]));
    }

    #[test]
    fn alphabet_mismatch_detected() {
        let a = Nfa::from_regex(&Regex::Sym(0), 1);
        let b = Nfa::from_regex(&Regex::Sym(0), 2);
        assert!(matches!(concat(&a, &b), Err(AutomataError::AlphabetMismatch { .. })));
    }

    #[test]
    fn left_quotient_strips_prefixes() {
        // Y = 0*12, X = 0* ⇒ X⁻¹Y = 0*12 ∪ 12-suffixes… precisely
        // {z | ∃k, 0^k z ∈ 0*12} = 0*12 ∪ {12 suffix forms} = 0*12 | 12 | 2.
        let y = nfa(Regex::concat([Regex::star(Regex::Sym(0)), Regex::word([1, 2])]));
        let x = dfa(Regex::star(Regex::Sym(0)));
        let q = left_quotient(&x, &y);
        for w in [&[1, 2][..], &[0, 1, 2], &[0, 0, 1, 2]] {
            assert!(q.accepts(w), "{w:?}");
        }
        assert!(!q.accepts(&[2]), "0 ∈ X but 0·2 ∉ Y; and 1 missing");
        assert!(!q.accepts(&[]));
    }

    #[test]
    fn left_quotient_by_exact_word() {
        // Y = 012, X = {01} ⇒ X⁻¹Y = {2}.
        let y = nfa(Regex::word([0, 1, 2]));
        let x = dfa(Regex::word([0, 1]));
        let q = left_quotient(&x, &y);
        assert!(q.accepts(&[2]));
        assert!(!q.accepts(&[]));
        assert!(!q.accepts(&[1, 2]));
    }

    #[test]
    fn left_quotient_can_contain_lambda() {
        // Y = 0*, X = 0* ⇒ X⁻¹Y = 0* (λ included).
        let y = nfa(Regex::star(Regex::Sym(0)));
        let x = dfa(Regex::star(Regex::Sym(0)));
        let q = left_quotient(&x, &y);
        assert!(q.accepts(&[]));
        assert!(q.accepts(&[0, 0]));
        assert!(!q.accepts(&[1]));
    }

    #[test]
    fn on_the_fly_inclusion_agrees_with_dfa_route() {
        let cases: Vec<(Regex, Regex)> = vec![
            // L ⊆ R holds.
            (Regex::star(Regex::Sym(0)), Regex::star(Regex::union([Regex::Sym(0), Regex::Sym(1)]))),
            // Fails with witness 11.
            (Regex::star(Regex::Sym(1)), Regex::union([Regex::Epsilon, Regex::Sym(1)])),
            // Equal languages.
            (
                Regex::concat([Regex::Sym(0), Regex::star(Regex::Sym(1))]),
                Regex::concat([Regex::Sym(0), Regex::star(Regex::Sym(1))]),
            ),
            // Empty left language: vacuously included.
            (Regex::Empty, Regex::Sym(0)),
        ];
        for (l, r) in cases {
            let ln = nfa(l.clone());
            let rd = dfa(r.clone());
            let fly = nfa_witness_not_subset(&ln, &rd).unwrap();
            let heavy = Dfa::from_nfa(&ln).minimize().witness_not_subset(&rd);
            assert_eq!(fly.is_none(), heavy.is_none(), "routes disagree on {l} ⊆ {r}");
            if let Some(w) = fly {
                assert!(ln.accepts(&w) && !rd.accepts(&w), "bogus witness {w:?}");
            }
        }
    }

    #[test]
    fn on_the_fly_inclusion_rejects_alphabet_mismatch() {
        let ln = Nfa::from_regex(&Regex::Sym(0), 5);
        let rd = dfa(Regex::Sym(0));
        assert!(matches!(
            nfa_witness_not_subset(&ln, &rd),
            Err(AutomataError::AlphabetMismatch { .. })
        ));
    }
}
