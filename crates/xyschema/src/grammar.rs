//! The regular tree grammar a DTD declares, with the derived facts every
//! analysis needs: which labels are *productive* (derive some finite valid
//! subtree), which are *reachable* from the root, and which children are
//! *realizable* inside a parent (appear in some completable child sequence).
//!
//! Productivity is a least fixpoint: `EMPTY`, `ANY` and mixed models are
//! productive outright; a `children` model is productive once its automaton
//! accepts some word over already-productive labels. The iteration index at
//! which a label becomes productive is its *rank*; minimal-witness
//! construction recurses only into strictly lower ranks, which is what makes
//! it terminate on recursive DTDs.

use crate::nfa::Nfa;
use std::collections::{HashMap, HashSet, VecDeque};
use xytree::{AttDef, ContentModel, Doctype, Symbol};

/// Why a [`Grammar`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// The doctype carries no `<!ELEMENT>` declarations at all — there is
    /// no grammar to analyze against.
    NoElementDecls,
}

impl std::fmt::Display for GrammarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrammarError::NoElementDecls => {
                write!(f, "the DTD declares no element content models")
            }
        }
    }
}

impl std::error::Error for GrammarError {}

/// Everything the analyzer knows about one declared element type.
#[derive(Debug, Clone)]
pub struct ElementInfo {
    /// The declared content model.
    pub model: ContentModel,
    /// Compiled automaton, for `Children` models only.
    pub nfa: Option<Nfa>,
    /// Attribute declarations (merged `<!ATTLIST>` rows).
    pub attrs: Vec<AttDef>,
    /// Can this element derive a finite valid subtree?
    pub productive: bool,
    /// Fixpoint iteration at which the element became productive.
    pub rank: u32,
    /// Children that appear in at least one completable child sequence.
    pub realizable_children: HashSet<Symbol>,
}

/// A compiled DTD: per-element info plus the root and global facts.
#[derive(Debug, Clone)]
pub struct Grammar {
    root: Symbol,
    elements: HashMap<Symbol, ElementInfo>,
    /// Labels reachable from a valid root, root included.
    reachable: HashSet<Symbol>,
    /// Every productive declared label (the `ANY` child universe).
    productive_labels: HashSet<Symbol>,
    /// False when no valid document exists at all (root undeclared or
    /// unproductive); every query is then trivially unsatisfiable.
    viable: bool,
}

impl Grammar {
    /// Compile a parsed doctype. Fails only when the DTD declares no
    /// element content models; a root that is undeclared or cannot derive
    /// any document yields a grammar with `Grammar::is_viable` false, so
    /// impact analysis against a broken schema still runs.
    pub fn from_doctype(dt: &Doctype) -> Result<Grammar, GrammarError> {
        if dt.elements.is_empty() {
            return Err(GrammarError::NoElementDecls);
        }
        let root = Symbol::intern(&dt.name);
        let mut elements: HashMap<Symbol, ElementInfo> = dt
            .elements
            .iter()
            .map(|(&label, model)| {
                let nfa = match model {
                    ContentModel::Children(p) => Some(Nfa::compile(p)),
                    _ => None,
                };
                (
                    label,
                    ElementInfo {
                        model: model.clone(),
                        nfa,
                        attrs: dt.attdefs_of(label).to_vec(),
                        productive: false,
                        rank: 0,
                        realizable_children: HashSet::new(),
                    },
                )
            })
            .collect();

        // Productivity least fixpoint.
        let mut productive: HashSet<Symbol> = HashSet::new();
        let mut rank = 0u32;
        loop {
            rank += 1;
            let mut grew = false;
            let snapshot = productive.clone();
            for (&label, info) in &mut elements {
                if info.productive {
                    continue;
                }
                let ok = match &info.model {
                    ContentModel::Empty | ContentModel::Any | ContentModel::Mixed(_) => true,
                    ContentModel::Children(_) => info
                        .nfa
                        .as_ref()
                        .is_some_and(|n| n.accepts_some_word(&|s| snapshot.contains(&s))),
                };
                if ok {
                    info.productive = true;
                    info.rank = rank;
                    productive.insert(label);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }

        // Realizable children, now that productivity is settled.
        let productive_ref = &productive;
        for info in elements.values_mut() {
            info.realizable_children = match &info.model {
                ContentModel::Empty => HashSet::new(),
                ContentModel::Any => productive.clone(),
                ContentModel::Mixed(names) => names
                    .iter()
                    .copied()
                    .filter(|s| productive_ref.contains(s))
                    .collect(),
                ContentModel::Children(_) => info.nfa.as_ref().map_or_else(HashSet::new, |n| {
                    n.realizable_symbols(&|s| productive_ref.contains(&s))
                }),
            };
        }

        // Reachability from the root over realizable children.
        let viable = productive.contains(&root);
        let mut reachable = HashSet::new();
        if viable {
            reachable.insert(root);
            let mut queue = VecDeque::from([root]);
            while let Some(l) = queue.pop_front() {
                if let Some(info) = elements.get(&l) {
                    for &c in &info.realizable_children {
                        if reachable.insert(c) {
                            queue.push_back(c);
                        }
                    }
                }
            }
        }

        Ok(Grammar { root, elements, reachable, productive_labels: productive, viable })
    }

    /// The declared document-element label.
    pub(crate) fn root(&self) -> Symbol {
        self.root
    }

    /// False when no document at all is valid under this DTD.
    pub(crate) fn is_viable(&self) -> bool {
        self.viable
    }

    /// Info for a declared label.
    pub(crate) fn element(&self, label: Symbol) -> Option<&ElementInfo> {
        self.elements.get(&label)
    }

    /// Is `label` declared at all?
    pub(crate) fn is_declared(&self, label: Symbol) -> bool {
        self.elements.contains_key(&label)
    }

    /// Every label that can appear in some valid document.
    pub(crate) fn live_labels(&self) -> &HashSet<Symbol> {
        &self.reachable
    }

    /// Every productive declared label (what `ANY` content may contain).
    pub(crate) fn productive_labels(&self) -> &HashSet<Symbol> {
        &self.productive_labels
    }

    /// Children of `label` that occur in some completable child sequence.
    pub(crate) fn realizable_children(&self, label: Symbol) -> Option<&HashSet<Symbol>> {
        self.elements.get(&label).map(|i| &i.realizable_children)
    }

    /// Can elements labeled `label` directly contain character data?
    pub(crate) fn allows_text(&self, label: Symbol) -> bool {
        matches!(
            self.elements.get(&label).map(|i| &i.model),
            Some(ContentModel::Mixed(_) | ContentModel::Any)
        )
    }

    /// Can the *deep* text of `label` be non-empty — i.e. does `label` or
    /// some label reachable below it allow character data?
    pub(crate) fn allows_deep_text(&self, label: Symbol) -> bool {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([label]);
        seen.insert(label);
        while let Some(l) = queue.pop_front() {
            if self.allows_text(l) {
                return true;
            }
            if let Some(info) = self.elements.get(&l) {
                for &c in &info.realizable_children {
                    if seen.insert(c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        false
    }

    /// Shortest chain of labels `from → … → to` walking realizable-children
    /// edges, both endpoints included; `None` when `to` is not reachable
    /// below `from`. With `proper` false a trivial `[from]` chain is allowed
    /// when `from == to`.
    pub(crate) fn containment_chain(
        &self,
        from: Symbol,
        to: Symbol,
        proper: bool,
    ) -> Option<Vec<Symbol>> {
        if from == to && !proper {
            return Some(vec![from]);
        }
        let mut prev: HashMap<Symbol, Symbol> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen: HashSet<Symbol> = HashSet::from([from]);
        while let Some(l) = queue.pop_front() {
            let Some(info) = self.elements.get(&l) else { continue };
            for &c in &info.realizable_children {
                if c == to {
                    let mut chain = vec![to, l];
                    let mut at = l;
                    while at != from {
                        at = prev[&at];
                        chain.push(at);
                    }
                    chain.reverse();
                    return Some(chain);
                }
                if seen.insert(c) {
                    prev.insert(c, l);
                    queue.push_back(c);
                }
            }
        }
        None
    }

    /// The declaration of attribute `attr` on `label`, if any.
    pub(crate) fn attdef(&self, label: Symbol, attr: &str) -> Option<&AttDef> {
        self.elements
            .get(&label)?
            .attrs
            .iter()
            .find(|d| d.name.as_str() == attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::parse_dtd;

    fn s(n: &str) -> Symbol {
        Symbol::intern(n)
    }

    fn grammar(dtd: &str) -> Grammar {
        Grammar::from_doctype(&parse_dtd(dtd, None).unwrap()).unwrap()
    }

    #[test]
    fn productivity_and_reachability() {
        // `loop` is unproductive (must contain itself); `orphan` is
        // productive but unreachable.
        let g = grammar(
            "<!ELEMENT root (a, loop?)>\
             <!ELEMENT a (#PCDATA)>\
             <!ELEMENT loop (loop)>\
             <!ELEMENT orphan EMPTY>",
        );
        assert!(g.is_viable());
        assert!(g.element(s("loop")).is_some_and(|i| !i.productive));
        assert!(g.live_labels().contains(&s("a")));
        assert!(!g.live_labels().contains(&s("loop")));
        assert!(!g.live_labels().contains(&s("orphan")));
        // `loop?` is skippable, so root stays productive; `loop` is not a
        // realizable child.
        assert!(!g.realizable_children(s("root")).unwrap().contains(&s("loop")));
    }

    #[test]
    fn unproductive_root_is_not_viable() {
        let g = grammar("<!ELEMENT root (root)>");
        assert!(!g.is_viable());
        assert!(g.live_labels().is_empty());
    }

    #[test]
    fn mandatory_unproductive_child_poisons_parent() {
        let g = grammar("<!ELEMENT root (a)><!ELEMENT a (a)>");
        assert!(!g.is_viable(), "root requires `a`, which requires itself");
    }

    #[test]
    fn ranks_decrease_toward_leaves() {
        let g = grammar(
            "<!ELEMENT root (mid)><!ELEMENT mid (leaf)><!ELEMENT leaf EMPTY>",
        );
        let r = |n: &str| g.element(s(n)).unwrap().rank;
        assert!(r("leaf") < r("mid") && r("mid") < r("root"));
    }

    #[test]
    fn text_reachability() {
        let g = grammar(
            "<!ELEMENT root (hr, p)>\
             <!ELEMENT hr EMPTY>\
             <!ELEMENT p (#PCDATA)>",
        );
        assert!(!g.allows_text(s("root")));
        assert!(g.allows_deep_text(s("root")));
        assert!(!g.allows_deep_text(s("hr")));
        assert!(g.allows_text(s("p")));
    }

    #[test]
    fn containment_chains() {
        let g = grammar(
            "<!ELEMENT root (section*)>\
             <!ELEMENT section (section*, p?)>\
             <!ELEMENT p (#PCDATA)>",
        );
        assert_eq!(
            g.containment_chain(s("root"), s("p"), false),
            Some(vec![s("root"), s("section"), s("p")])
        );
        // A proper chain from section back to itself exists (recursion).
        assert_eq!(
            g.containment_chain(s("section"), s("section"), true),
            Some(vec![s("section"), s("section")])
        );
        // …but not from p.
        assert_eq!(g.containment_chain(s("p"), s("p"), true), None);
    }

    #[test]
    fn any_realizes_every_productive_label() {
        let g = grammar(
            "<!ELEMENT root ANY><!ELEMENT a EMPTY><!ELEMENT bad (bad)>",
        );
        let rc = g.realizable_children(s("root")).unwrap();
        assert!(rc.contains(&s("a")) && rc.contains(&s("root")));
        assert!(!rc.contains(&s("bad")));
    }
}
