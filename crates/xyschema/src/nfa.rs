//! Glushkov word automata over content models.
//!
//! Each `children` content model compiles into an epsilon-free NFA whose
//! states are the *positions* (name occurrences) of the regular expression
//! plus a start state — the classic Glushkov construction via
//! nullable/first/last/follow. All analyzer questions about one element's
//! child sequence reduce to reachability questions on this automaton:
//! emptiness, shortest accepting word, "can symbol `s` occur `n` times",
//! and the maximum occurrence count of a symbol across accepting words.

use std::collections::{HashMap, HashSet, VecDeque};
use xytree::{Particle, Symbol};

/// An epsilon-free NFA over element labels.
///
/// State `0` is the start state; states `1..=positions` each carry the
/// symbol of their position. A transition `q → p` exists when position `p`
/// is in `next(q)` (`first` for the start state, `follow[q]` otherwise) and
/// consumes `sym[p]`.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// `sym[p-1]` is the symbol consumed entering position `p`.
    sym: Vec<Symbol>,
    /// Positions reachable from the start state.
    first: Vec<usize>,
    /// `follow[p-1]`: positions reachable from position `p`.
    follow: Vec<Vec<usize>>,
    /// Accepting positions.
    last: HashSet<usize>,
    /// Whether the empty word is accepted.
    nullable: bool,
}

/// What a counting query counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountTarget {
    /// Occurrences of one specific symbol.
    Sym(Symbol),
    /// Every symbol (word length).
    Any,
}

impl CountTarget {
    fn hits(self, s: Symbol) -> bool {
        match self {
            CountTarget::Sym(t) => s == t,
            CountTarget::Any => true,
        }
    }
}

/// An occurrence bound: finite or provably unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// At most this many occurrences in any accepting word.
    Finite(usize),
    /// Accepting words with arbitrarily many occurrences exist.
    Unbounded,
}

impl Bound {
}

/// Intermediate fragment of the Glushkov construction.
struct Frag {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

impl Nfa {
    /// Compile a content-model particle.
    pub(crate) fn compile(particle: &Particle) -> Nfa {
        let mut nfa = Nfa {
            sym: Vec::new(),
            first: Vec::new(),
            follow: Vec::new(),
            last: HashSet::new(),
            nullable: false,
        };
        let frag = nfa.build(particle);
        nfa.first = frag.first.clone();
        nfa.last = frag.last.iter().copied().collect();
        nfa.nullable = frag.nullable;
        nfa
    }

    fn add_position(&mut self, s: Symbol) -> usize {
        self.sym.push(s);
        self.follow.push(Vec::new());
        self.sym.len() // positions are 1-based
    }

    fn link(&mut self, from: usize, to: &[usize]) {
        let f = &mut self.follow[from - 1];
        for &t in to {
            if !f.contains(&t) {
                f.push(t);
            }
        }
    }

    fn build(&mut self, particle: &Particle) -> Frag {
        let mut frag = match particle {
            Particle::Name(s, _) => {
                let p = self.add_position(*s);
                Frag { nullable: false, first: vec![p], last: vec![p] }
            }
            Particle::Seq(items, _) => {
                let mut acc: Option<Frag> = None;
                for item in items {
                    let f = self.build(item);
                    acc = Some(match acc {
                        None => f,
                        Some(a) => {
                            for &x in &a.last {
                                let first = f.first.clone();
                                self.link(x, &first);
                            }
                            Frag {
                                nullable: a.nullable && f.nullable,
                                first: if a.nullable {
                                    union(&a.first, &f.first)
                                } else {
                                    a.first
                                },
                                last: if f.nullable { union(&f.last, &a.last) } else { f.last },
                            }
                        }
                    });
                }
                acc.unwrap_or(Frag { nullable: true, first: Vec::new(), last: Vec::new() })
            }
            Particle::Choice(items, _) => {
                let mut frag = Frag { nullable: false, first: Vec::new(), last: Vec::new() };
                for item in items {
                    let f = self.build(item);
                    frag.nullable |= f.nullable;
                    frag.first = union(&frag.first, &f.first);
                    frag.last = union(&frag.last, &f.last);
                }
                frag
            }
        };
        let occur = particle.occur();
        if occur.repeats() {
            for &x in &frag.last.clone() {
                let first = frag.first.clone();
                self.link(x, &first);
            }
        }
        if occur.nullable() {
            frag.nullable = true;
        }
        frag
    }

    /// Number of states (start + positions).
    fn state_count(&self) -> usize {
        self.sym.len() + 1
    }

    /// Successor positions of a state (0 = start).
    fn next(&self, state: usize) -> &[usize] {
        if state == 0 {
            &self.first
        } else {
            &self.follow[state - 1]
        }
    }

    fn accepting(&self, state: usize) -> bool {
        if state == 0 {
            self.nullable
        } else {
            self.last.contains(&state)
        }
    }

    /// Does the automaton accept `word`? (The validator's inner loop.)
    pub(crate) fn accepts(&self, word: &[Symbol]) -> bool {
        let mut states: HashSet<usize> = HashSet::from([0]);
        for &s in word {
            let mut nexts = HashSet::new();
            for &q in &states {
                for &p in self.next(q) {
                    if self.sym[p - 1] == s {
                        nexts.insert(p);
                    }
                }
            }
            if nexts.is_empty() {
                return false;
            }
            states = nexts;
        }
        states.iter().any(|&q| self.accepting(q))
    }

    /// Length of the longest prefix of `word` after which some state is
    /// still live — the error offset the validator reports on mismatch.
    pub(crate) fn longest_viable_prefix(&self, word: &[Symbol]) -> usize {
        let mut states: HashSet<usize> = HashSet::from([0]);
        for (i, &s) in word.iter().enumerate() {
            let mut nexts = HashSet::new();
            for &q in &states {
                for &p in self.next(q) {
                    if self.sym[p - 1] == s {
                        nexts.insert(p);
                    }
                }
            }
            if nexts.is_empty() {
                return i;
            }
            states = nexts;
        }
        word.len()
    }

    /// Is any accepting word composed only of symbols passing `allowed`?
    pub(crate) fn accepts_some_word(&self, allowed: &dyn Fn(Symbol) -> bool) -> bool {
        self.shortest_word(allowed).is_some()
    }

    /// Shortest accepting word over the `allowed` alphabet (BFS; ties broken
    /// by state order, deterministically).
    pub(crate) fn shortest_word(&self, allowed: &dyn Fn(Symbol) -> bool) -> Option<Vec<Symbol>> {
        if self.nullable {
            return Some(Vec::new());
        }
        let mut prev: HashMap<usize, usize> = HashMap::new(); // state → predecessor
        let mut queue = VecDeque::from([0usize]);
        let mut seen: HashSet<usize> = HashSet::from([0]);
        while let Some(q) = queue.pop_front() {
            for &p in self.next(q) {
                if !allowed(self.sym[p - 1]) || !seen.insert(p) {
                    continue;
                }
                prev.insert(p, q);
                if self.accepting(p) {
                    return Some(self.read_back(&prev, p));
                }
                queue.push_back(p);
            }
        }
        None
    }

    fn read_back(&self, prev: &HashMap<usize, usize>, mut at: usize) -> Vec<Symbol> {
        let mut word = Vec::new();
        while at != 0 {
            word.push(self.sym[at - 1]);
            at = prev[&at];
        }
        word.reverse();
        word
    }

    /// Shortest accepting word over `allowed` containing at least `n`
    /// occurrences counted by `target`. BFS over `(state, min(count, n))`.
    pub(crate) fn word_with_count(
        &self,
        target: CountTarget,
        n: usize,
        allowed: &dyn Fn(Symbol) -> bool,
    ) -> Option<Vec<Symbol>> {
        if n == 0 {
            return self.shortest_word(allowed);
        }
        type Key = (usize, usize);
        let mut prev: HashMap<Key, Key> = HashMap::new();
        let start: Key = (0, 0);
        let mut queue = VecDeque::from([start]);
        let mut seen: HashSet<Key> = HashSet::from([start]);
        if self.nullable && n == 0 {
            return Some(Vec::new());
        }
        while let Some(key @ (q, count)) = queue.pop_front() {
            for &p in self.next(q) {
                let s = self.sym[p - 1];
                if !allowed(s) {
                    continue;
                }
                let c = (count + usize::from(target.hits(s))).min(n);
                let nk: Key = (p, c);
                if !seen.insert(nk) {
                    continue;
                }
                prev.insert(nk, key);
                if c >= n && self.accepting(p) {
                    // Read the word back through the (state, count) chain.
                    let mut word = Vec::new();
                    let mut at = nk;
                    while at != start {
                        word.push(self.sym[at.0 - 1]);
                        at = prev[&at];
                    }
                    word.reverse();
                    return Some(word);
                }
                queue.push_back(nk);
            }
        }
        None
    }

    /// Shortest accepting word over `allowed` in which the `n`-th
    /// `target`-counted occurrence carries symbol `nth`. Transitions that
    /// would put a different symbol at the counted position `n` are pruned,
    /// so the `n`-th match is `nth` by construction; occurrences beyond `n`
    /// are unconstrained.
    pub(crate) fn word_with_nth(
        &self,
        target: CountTarget,
        n: usize,
        nth: Symbol,
        allowed: &dyn Fn(Symbol) -> bool,
    ) -> Option<Vec<Symbol>> {
        if n == 0 {
            return None;
        }
        // Key: (state, counted-so-far capped at n). Reaching count n is the
        // "done" condition; the capping makes the space finite.
        type Key = (usize, usize);
        let start: Key = (0, 0);
        let mut prev: HashMap<Key, Key> = HashMap::new();
        let mut queue = VecDeque::from([start]);
        let mut seen: HashSet<Key> = HashSet::from([start]);
        while let Some(key @ (q, count)) = queue.pop_front() {
            for &p in self.next(q) {
                let s = self.sym[p - 1];
                if !allowed(s) {
                    continue;
                }
                let hit = target.hits(s);
                if count == n - 1 && hit && s != nth {
                    // This edge would claim position n with the wrong label.
                    continue;
                }
                let c = (count + usize::from(hit)).min(n);
                let nk: Key = (p, c);
                if !seen.insert(nk) {
                    continue;
                }
                prev.insert(nk, key);
                if c >= n && self.accepting(p) {
                    let mut word = Vec::new();
                    let mut at = nk;
                    while at != start {
                        word.push(self.sym[at.0 - 1]);
                        at = prev[&at];
                    }
                    word.reverse();
                    return Some(word);
                }
                queue.push_back(nk);
            }
        }
        None
    }

    /// Maximum number of `target` occurrences over all accepting words using
    /// only `allowed` symbols. `Finite(0)` when no accepting word exists.
    pub(crate) fn max_count(&self, target: CountTarget, allowed: &dyn Fn(Symbol) -> bool) -> Bound {
        let n = self.state_count();
        // Forward reachability from the start and backward reachability from
        // accepting states, restricted to the allowed alphabet.
        let step_ok = |p: usize| allowed(self.sym[p - 1]);
        let mut reach = vec![false; n];
        reach[0] = true;
        let mut queue = VecDeque::from([0usize]);
        while let Some(q) = queue.pop_front() {
            for &p in self.next(q) {
                if step_ok(p) && !reach[p] {
                    reach[p] = true;
                    queue.push_back(p);
                }
            }
        }
        let mut coreach = vec![false; n];
        // Backward BFS needs reversed edges.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for q in 0..n {
            for &p in self.next(q) {
                if step_ok(p) {
                    rev[p].push(q);
                }
            }
        }
        let mut queue: VecDeque<usize> =
            (0..n).filter(|&q| self.accepting(q)).collect();
        for &q in &queue {
            coreach[q] = true;
        }
        while let Some(q) = queue.pop_front() {
            for &r in &rev[q] {
                if !coreach[r] {
                    coreach[r] = true;
                    queue.push_back(r);
                }
            }
        }
        let live = |q: usize| reach[q] && coreach[q];
        if !live(0) {
            return Bound::Finite(0);
        }
        // A counted edge on a cycle through live states ⇒ unbounded. State
        // counts are tiny (positions of one content model), so a full
        // pairwise reachability matrix is fine.
        let mut mat = vec![vec![false; n]; n];
        for (q, row) in mat.iter_mut().enumerate() {
            let mut bfs = VecDeque::from([q]);
            let mut seen = vec![false; n];
            seen[q] = true;
            while let Some(x) = bfs.pop_front() {
                for &p in self.next(x) {
                    if step_ok(p) && !seen[p] {
                        seen[p] = true;
                        bfs.push_back(p);
                    }
                }
            }
            *row = seen;
        }
        // `mat[p][q]` is transposed relative to the loop (can p get back to
        // q?), so enumerate() has nothing to offer here.
        #[allow(clippy::needless_range_loop)]
        for q in 0..n {
            if !live(q) {
                continue;
            }
            for &p in self.next(q) {
                if step_ok(p) && live(p) && target.hits(self.sym[p - 1]) && mat[p][q] {
                    return Bound::Unbounded;
                }
            }
        }
        // No counted edge on a cycle: longest-path DP on the live subgraph.
        // Zero-weight cycles cannot increase the count, so iterating to a
        // fixpoint bounded by the number of counted edges terminates.
        let counted_edges: usize = (0..n)
            .filter(|&q| live(q))
            .map(|q| {
                self.next(q)
                    .iter()
                    .filter(|&&p| step_ok(p) && live(p) && target.hits(self.sym[p - 1]))
                    .count()
            })
            .sum();
        let mut best = vec![usize::MAX; n]; // MAX = unreached
        best[0] = 0;
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            rounds += 1;
            // INVARIANT: without counted cycles each relaxation round can
            // only raise a state's count via a new counted edge, so the
            // fixpoint arrives within counted_edges+state_count rounds.
            assert!(
                rounds <= counted_edges + n + 1,
                "max_count relaxation failed to converge"
            );
            for q in 0..n {
                if best[q] == usize::MAX || !live(q) {
                    continue;
                }
                for &p in self.next(q) {
                    if !step_ok(p) || !live(p) {
                        continue;
                    }
                    let w = best[q] + usize::from(target.hits(self.sym[p - 1]));
                    if best[p] == usize::MAX || w > best[p] {
                        best[p] = w;
                        changed = true;
                    }
                }
            }
        }
        let max = (0..n)
            .filter(|&q| self.accepting(q) && best[q] != usize::MAX)
            .map(|q| best[q])
            .max()
            .unwrap_or(0);
        Bound::Finite(max)
    }

    /// Symbols that occur in at least one accepting word over `allowed` —
    /// the *realizable* children of the element this model belongs to.
    pub(crate) fn realizable_symbols(&self, allowed: &dyn Fn(Symbol) -> bool) -> HashSet<Symbol> {
        let n = self.state_count();
        let step_ok = |p: usize| allowed(self.sym[p - 1]);
        let mut reach = vec![false; n];
        reach[0] = true;
        let mut queue = VecDeque::from([0usize]);
        while let Some(q) = queue.pop_front() {
            for &p in self.next(q) {
                if step_ok(p) && !reach[p] {
                    reach[p] = true;
                    queue.push_back(p);
                }
            }
        }
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for q in 0..n {
            for &p in self.next(q) {
                if step_ok(p) {
                    rev[p].push(q);
                }
            }
        }
        let mut coreach = vec![false; n];
        let mut queue: VecDeque<usize> = (0..n).filter(|&q| self.accepting(q)).collect();
        for &q in &queue {
            coreach[q] = true;
        }
        while let Some(q) = queue.pop_front() {
            for &r in &rev[q] {
                if !coreach[r] {
                    coreach[r] = true;
                    queue.push_back(r);
                }
            }
        }
        let mut out = HashSet::new();
        for (q, reached) in reach.iter().enumerate() {
            if !reached {
                continue;
            }
            for &p in self.next(q) {
                if step_ok(p) && coreach[p] {
                    out.insert(self.sym[p - 1]);
                }
            }
        }
        out
    }

    /// Every symbol named anywhere in the model, realizable or not.
    pub(crate) fn alphabet(&self) -> HashSet<Symbol> {
        self.sym.iter().copied().collect()
    }
}

fn union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = a.to_vec();
    for &x in b {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::Occur::*;

    fn s(n: &str) -> Symbol {
        Symbol::intern(n)
    }

    fn any(_: Symbol) -> bool {
        true
    }

    /// `(a, b?, c*)`
    fn abc() -> Nfa {
        Nfa::compile(&Particle::Seq(
            vec![
                Particle::Name(s("a"), One),
                Particle::Name(s("b"), Opt),
                Particle::Name(s("c"), Star),
            ],
            One,
        ))
    }

    #[test]
    fn membership() {
        let n = abc();
        assert!(n.accepts(&[s("a")]));
        assert!(n.accepts(&[s("a"), s("b")]));
        assert!(n.accepts(&[s("a"), s("c"), s("c")]));
        assert!(!n.accepts(&[]));
        assert!(!n.accepts(&[s("b")]));
        assert!(!n.accepts(&[s("a"), s("b"), s("b")]));
        assert_eq!(n.longest_viable_prefix(&[s("a"), s("b"), s("b")]), 2);
    }

    #[test]
    fn shortest_words() {
        let n = abc();
        assert_eq!(n.shortest_word(&any), Some(vec![s("a")]));
        // Excluding `a` kills every accepting word.
        assert_eq!(n.shortest_word(&|x| x != s("a")), None);
    }

    #[test]
    fn counting() {
        let n = abc();
        assert_eq!(n.word_with_count(CountTarget::Sym(s("c")), 3, &any).unwrap().len(), 4);
        assert!(n.word_with_count(CountTarget::Sym(s("b")), 2, &any).is_none());
        assert_eq!(n.max_count(CountTarget::Sym(s("b")), &any), Bound::Finite(1));
        assert_eq!(n.max_count(CountTarget::Sym(s("c")), &any), Bound::Unbounded);
        assert_eq!(n.max_count(CountTarget::Sym(s("a")), &any), Bound::Finite(1));
        assert_eq!(n.max_count(CountTarget::Any, &any), Bound::Unbounded);
    }

    #[test]
    fn choice_and_plus() {
        // ((x | y)+)
        let n = Nfa::compile(&Particle::Choice(
            vec![Particle::Name(s("x"), One), Particle::Name(s("y"), One)],
            Plus,
        ));
        assert!(!n.accepts(&[]));
        assert!(n.accepts(&[s("x"), s("y"), s("x")]));
        assert_eq!(n.max_count(CountTarget::Sym(s("x")), &any), Bound::Unbounded);
        let r = n.realizable_symbols(&any);
        assert!(r.contains(&s("x")) && r.contains(&s("y")));
        // With y forbidden, x alone still works.
        assert_eq!(n.shortest_word(&|x| x == s("x")), Some(vec![s("x")]));
    }

    #[test]
    fn realizability_respects_restriction() {
        // (a, b) with b forbidden: nothing is realizable.
        let n = Nfa::compile(&Particle::Seq(
            vec![Particle::Name(s("a"), One), Particle::Name(s("b"), One)],
            One,
        ));
        assert!(n.realizable_symbols(&|x| x != s("b")).is_empty());
        assert!(!n.accepts_some_word(&|x| x != s("b")));
        assert_eq!(n.max_count(CountTarget::Sym(s("a")), &|x| x != s("b")), Bound::Finite(0));
    }
}
