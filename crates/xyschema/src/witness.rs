//! Minimal-witness document construction.
//!
//! A satisfiability verdict is only trustworthy if it comes with evidence,
//! so every `Satisfiable` answer carries a complete valid document in which
//! the real evaluator selects the promised node. This module builds those
//! documents: minimal valid subtrees per element (shortest accepting word of
//! the content model, recursing only into strictly lower productive ranks so
//! recursive DTDs terminate), chains that thread a specific child through a
//! parent's content model, and sibling/nesting constructions for positional
//! predicates. Required and `#FIXED` attributes are always filled; ID-typed
//! values come from a document-unique counter.

use crate::grammar::Grammar;
use crate::nfa::CountTarget;
use std::fmt::Write as _;
use xytree::{AttDefault, AttType, ContentModel, Symbol};

/// How a predicate constrains an attribute in the witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AttrNeed {
    /// `[@a='v']` — the exact value.
    Exact(String),
    /// `[@a]` — any admissible value.
    Any,
}

/// How text predicates constrain the witness node's deep text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TextNeed {
    /// `[text()='v']` — deep text must equal `v` exactly.
    Exact(String),
    /// `[contains(text(),'v')]` — deep text must contain `v`.
    Contains(String),
}

/// Accumulated witness obligations for one matched step.
#[derive(Debug, Clone, Default)]
pub(crate) struct Needs {
    /// Attribute obligations, in predicate order.
    pub attrs: Vec<(String, AttrNeed)>,
    /// Text obligation, already merged across text predicates.
    pub text: Option<TextNeed>,
}

/// One child of a witness node.
#[derive(Debug, Clone)]
pub(crate) enum WChild {
    /// An element child.
    Elem(WNode),
    /// A character-data child.
    Text(String),
}

/// A node of the witness document under construction.
#[derive(Debug, Clone)]
pub(crate) struct WNode {
    /// Element label.
    pub label: Symbol,
    /// Attributes, in emission order.
    pub attrs: Vec<(String, String)>,
    /// Children, in document order.
    pub children: Vec<WChild>,
}

impl WNode {
    fn leaf(label: Symbol) -> WNode {
        WNode { label, attrs: Vec::new(), children: Vec::new() }
    }

    /// Serialize to compact XML with escaping.
    pub(crate) fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        let _ = write!(out, "<{}", self.label.as_str());
        for (name, value) in &self.attrs {
            let _ = write!(out, " {name}=\"{}\"", escape_attr(value));
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for c in &self.children {
            match c {
                WChild::Elem(n) => n.write(out),
                WChild::Text(t) => out.push_str(&escape_text(t)),
            }
        }
        let _ = write!(out, "</{}>", self.label.as_str());
    }
}

fn escape_text(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

fn escape_attr(s: &str) -> String {
    escape_text(s).replace('"', "&quot;")
}

/// Witness construction context: the grammar plus a document-unique ID
/// counter shared across every node built for one witness.
pub(crate) struct Builder<'g> {
    g: &'g Grammar,
    next_id: usize,
}

impl<'g> Builder<'g> {
    /// A fresh builder over `g`.
    pub(crate) fn new(g: &'g Grammar) -> Builder<'g> {
        Builder { g, next_id: 0 }
    }

    /// A document-unique ID-attribute value.
    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!("w{}", self.next_id)
    }

    /// An admissible value for a declared attribute.
    fn value_for(&mut self, label: Symbol, attr: &str) -> String {
        match self.g.attdef(label, attr).map(|d| (&d.ty, &d.default)) {
            Some((_, AttDefault::Fixed(v))) => v.clone(),
            Some((AttType::Enumerated(toks) | AttType::Notation(toks), _)) => {
                toks.first().cloned().unwrap_or_else(|| "x".to_string())
            }
            Some((AttType::Id, _)) => self.fresh_id(),
            _ => "x".to_string(),
        }
    }

    /// Fill `#REQUIRED` and `#FIXED` attributes on a node.
    fn fill_required_attrs(&mut self, node: &mut WNode) {
        let defs: Vec<(String, AttDefault)> = self
            .g
            .element(node.label)
            .map(|i| {
                i.attrs
                    .iter()
                    .map(|d| (d.name.as_str().to_string(), d.default.clone()))
                    .collect()
            })
            .unwrap_or_default();
        for (name, default) in defs {
            if node.attrs.iter().any(|(n, _)| *n == name) {
                continue;
            }
            match default {
                AttDefault::Required => {
                    let v = self.value_for(node.label, &name);
                    node.attrs.push((name, v));
                }
                AttDefault::Fixed(v) => node.attrs.push((name, v)),
                AttDefault::Implied | AttDefault::Value(_) => {}
            }
        }
    }

    /// The minimal valid subtree for `label`: shortest accepting word of
    /// its content model, recursing only into labels of strictly lower
    /// productive rank (which is what guarantees termination).
    pub(crate) fn build_min(&mut self, label: Symbol) -> Option<WNode> {
        let info = self.g.element(label)?;
        if !info.productive {
            return None;
        }
        let mut node = WNode::leaf(label);
        if let (ContentModel::Children(_), Some(nfa)) = (&info.model, &info.nfa) {
            let my_rank = info.rank;
            let g = self.g;
            let word = nfa.shortest_word(&|s| {
                g.element(s).is_some_and(|i| i.productive && i.rank < my_rank)
            })?;
            for s in word {
                node.children.push(WChild::Elem(self.build_min(s)?));
            }
        }
        self.fill_required_attrs(&mut node);
        Some(node)
    }

    /// Build `parent` so that the supplied `slots` nodes appear among its
    /// children, in order, as the first occurrences of their labels in an
    /// accepting child word. All `slots` must share one label; remaining
    /// word positions are filled minimally. Returns `None` when the content
    /// model cannot host that many occurrences.
    pub(crate) fn build_containing(&mut self, parent: Symbol, slots: Vec<WNode>) -> Option<WNode> {
        let target = slots.first()?.label;
        let n = slots.len();
        let info = self.g.element(parent)?;
        let mut node = WNode::leaf(parent);
        match &info.model {
            ContentModel::Mixed(names) => {
                if !names.contains(&target) {
                    return None;
                }
                node.children = slots.into_iter().map(WChild::Elem).collect();
            }
            ContentModel::Any => {
                if !self.g.productive_labels().contains(&target) {
                    return None;
                }
                node.children = slots.into_iter().map(WChild::Elem).collect();
            }
            ContentModel::Children(_) => {
                let g = self.g;
                let word = info.nfa.as_ref()?.word_with_count(
                    CountTarget::Sym(target),
                    n,
                    &|s| g.element(s).is_some_and(|i| i.productive),
                )?;
                let mut pending = slots.into_iter();
                for s in word {
                    let child = if s == target {
                        match pending.next() {
                            Some(ready) => ready,
                            None => self.build_min(s)?,
                        }
                    } else {
                        self.build_min(s)?
                    };
                    node.children.push(WChild::Elem(child));
                }
            }
            ContentModel::Empty => return None,
        }
        self.fill_required_attrs(&mut node);
        Some(node)
    }

    /// Build `parent` whose `n`-th element child (counting *all* element
    /// children, the wildcard-position case) is the supplied node, inside
    /// an accepting child word.
    pub(crate) fn build_with_nth_child(
        &mut self,
        parent: Symbol,
        n: usize,
        nth: WNode,
    ) -> Option<WNode> {
        let info = self.g.element(parent)?;
        let mut node = WNode::leaf(parent);
        match &info.model {
            ContentModel::Mixed(names) => {
                // Pad positions 1..n with any productive mixed name.
                let filler = self.pick_sorted(names.iter().copied())?;
                for _ in 1..n {
                    node.children.push(WChild::Elem(self.build_min(filler)?));
                }
                node.children.push(WChild::Elem(nth));
            }
            ContentModel::Any => {
                let filler =
                    self.pick_sorted(self.g.productive_labels().iter().copied())?;
                for _ in 1..n {
                    node.children.push(WChild::Elem(self.build_min(filler)?));
                }
                node.children.push(WChild::Elem(nth));
            }
            ContentModel::Children(_) => {
                let g = self.g;
                let word = info.nfa.as_ref()?.word_with_nth(
                    CountTarget::Any,
                    n,
                    nth.label,
                    &|s| g.element(s).is_some_and(|i| i.productive),
                )?;
                let mut placed = Some(nth);
                for (i, s) in word.into_iter().enumerate() {
                    #[allow(clippy::expect_used)]
                    let child = if i + 1 == n {
                        // INVARIANT: word_with_nth puts `nth.label` at
                        // element position n, so `placed` is still present.
                        placed.take().expect("nth slot filled once")
                    } else {
                        self.build_min(s)?
                    };
                    node.children.push(WChild::Elem(child));
                }
            }
            ContentModel::Empty => return None,
        }
        self.fill_required_attrs(&mut node);
        Some(node)
    }

    /// Build `parent` with at least `n` text-node children (interleaved
    /// with minimal elements, since adjacent text merges), the last one
    /// holding `content`.
    pub(crate) fn build_with_nth_text(
        &mut self,
        parent: Symbol,
        n: usize,
        content: &str,
    ) -> Option<WNode> {
        let info = self.g.element(parent)?;
        let mut node = WNode::leaf(parent);
        let separator = match &info.model {
            ContentModel::Mixed(names) if n > 1 => {
                Some(self.pick_sorted(names.iter().copied())?)
            }
            ContentModel::Any if n > 1 => {
                Some(self.pick_sorted(self.g.productive_labels().iter().copied())?)
            }
            ContentModel::Mixed(_) | ContentModel::Any => None,
            ContentModel::Children(_) | ContentModel::Empty => return None,
        };
        for i in 1..=n {
            if i > 1 {
                // INVARIANT: n > 1 implies a separator was found above.
                #[allow(clippy::expect_used)]
                let sep = separator.expect("separator exists for n > 1");
                node.children.push(WChild::Elem(self.build_min(sep)?));
            }
            let t = if i == n { content.to_string() } else { format!("t{i}") };
            node.children.push(WChild::Text(t));
        }
        self.fill_required_attrs(&mut node);
        Some(node)
    }

    /// Wrap `inner` under a containment chain `chain[0] → … → chain[k]`,
    /// where `inner.label == chain[k]`; returns the `chain[0]` node.
    pub(crate) fn wrap_chain(&mut self, chain: &[Symbol], inner: WNode) -> Option<WNode> {
        let mut node = inner;
        for &label in chain.iter().rev().skip(1) {
            node = self.build_containing(label, vec![node])?;
        }
        Some(node)
    }

    /// Apply attribute obligations to a node.
    pub(crate) fn apply_attr_needs(&mut self, node: &mut WNode, needs: &Needs) {
        for (name, need) in &needs.attrs {
            let value = match need {
                AttrNeed::Exact(v) => v.clone(),
                AttrNeed::Any => self.value_for(node.label, name),
            };
            if let Some(slot) = node.attrs.iter_mut().find(|(n, _)| n == name) {
                slot.1 = value;
            } else {
                node.attrs.push((name.clone(), value));
            }
        }
    }

    /// Satisfy a text obligation on `node`: place the text directly when
    /// the model allows character data, otherwise thread it through the
    /// shortest text-capable descendant chain. An `Exact("")` need is
    /// already satisfied by a text-free minimal node.
    pub(crate) fn apply_text_need(&mut self, node: &mut WNode, need: &TextNeed) -> bool {
        let content = match need {
            TextNeed::Exact(v) | TextNeed::Contains(v) => v.clone(),
        };
        if content.is_empty() {
            return true;
        }
        self.place_text(node, &content)
    }

    fn place_text(&mut self, node: &mut WNode, content: &str) -> bool {
        if self.g.allows_text(node.label) {
            node.children.push(WChild::Text(content.to_string()));
            return true;
        }
        // Reuse an existing child subtree when one can carry text.
        for c in &mut node.children {
            if let WChild::Elem(child) = c {
                if self.g.allows_deep_text(child.label) {
                    return self.place_text(child, content);
                }
            }
        }
        // Otherwise rebuild this node's child word around a text-capable
        // child chain.
        let candidates: Vec<Symbol> = {
            let mut cs: Vec<Symbol> = self
                .g
                .realizable_children(node.label)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            cs.sort();
            cs
        };
        for c in candidates {
            if !self.g.allows_deep_text(c) {
                continue;
            }
            let Some(mut child) = self.build_min(c) else { continue };
            if !self.place_text(&mut child, content) {
                continue;
            }
            if let Some(rebuilt) = self.build_containing(node.label, vec![child]) {
                node.children = rebuilt.children;
                return true;
            }
        }
        false
    }

    /// Deterministically pick the smallest productive label from an
    /// iterator (Symbol order is text order).
    fn pick_sorted(&self, labels: impl Iterator<Item = Symbol>) -> Option<Symbol> {
        labels
            .filter(|&s| self.g.element(s).is_some_and(|i| i.productive))
            .min()
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
    fn minimal_build_recursive_dtd() {
        let g = grammar(
            "<!ELEMENT root (section+)>\
             <!ELEMENT section (section*, p)>\
             <!ELEMENT p (#PCDATA)>",
        );
        let mut b = Builder::new(&g);
        let n = b.build_min(s("root")).unwrap();
        // Recursion bottoms out: one section with one p.
        assert_eq!(n.to_xml(), "<root><section><p/></section></root>");
    }

    #[test]
    fn required_and_fixed_attrs_filled() {
        let g = grammar(
            "<!ELEMENT root (item)>\
             <!ELEMENT item EMPTY>\
             <!ATTLIST item id ID #REQUIRED kind (a|b) #REQUIRED v CDATA #FIXED \"1\">",
        );
        let mut b = Builder::new(&g);
        let xml = b.build_min(s("root")).unwrap().to_xml();
        assert_eq!(xml, "<root><item id=\"w1\" kind=\"a\" v=\"1\"/></root>");
    }

    #[test]
    fn containing_threads_target_through_word() {
        let g = grammar(
            "<!ELEMENT root (a, b*, c)>\
             <!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
        );
        let mut b = Builder::new(&g);
        let slots = vec![WNode::leaf(s("b")), WNode::leaf(s("b"))];
        let n = b.build_containing(s("root"), slots).unwrap();
        assert_eq!(n.to_xml(), "<root><a/><b/><b/><c/></root>");
    }

    #[test]
    fn text_threaded_through_chain() {
        let g = grammar(
            "<!ELEMENT root (wrap)>\
             <!ELEMENT wrap (p)>\
             <!ELEMENT p (#PCDATA)>",
        );
        let mut b = Builder::new(&g);
        let mut n = b.build_min(s("root")).unwrap();
        assert!(b.apply_text_need(&mut n, &TextNeed::Exact("hi".into())));
        assert_eq!(n.to_xml(), "<root><wrap><p>hi</p></wrap></root>");
    }

    #[test]
    fn nth_text_alternates() {
        let g = grammar("<!ELEMENT p (#PCDATA | em)*><!ELEMENT em EMPTY>");
        let mut b = Builder::new(&g);
        let n = b.build_with_nth_text(s("p"), 3, "end").unwrap();
        assert_eq!(n.to_xml(), "<p>t1<em/>t2<em/>end</p>");
    }

    #[test]
    fn escaping() {
        let n = WNode {
            label: s("p"),
            attrs: vec![("a".into(), "x\"<y".into())],
            children: vec![WChild::Text("1 < 2 & 3".into())],
        };
        assert_eq!(
            n.to_xml(),
            "<p a=\"x&quot;&lt;y\">1 &lt; 2 &amp; 3</p>"
        );
    }
}
