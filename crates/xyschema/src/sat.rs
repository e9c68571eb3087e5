//! Query satisfiability against a DTD grammar.
//!
//! `analyze` walks the query's steps over an abstraction of every valid
//! document at once: the frontier after step *i* is the set of element
//! labels a node matching steps `1..=i` can carry, reached via
//! realizable-children edges of the grammar. Predicates are checked per
//! label (attribute declarations, value admissibility, text reachability);
//! positional predicates turn into counting questions on the parent's
//! content-model automaton (child axis counts per parent — exactly the
//! evaluator's semantics) or into document-global occurrence bounds
//! (descendant axis counts in document order).
//!
//! Verdicts are sound in both directions by construction: `Unsatisfiable`
//! is only returned for proofs (the differential oracle in CI checks that
//! the evaluator finds zero matches), and `Satisfiable` always carries a
//! witness document that the real evaluator has been run on. The rare
//! counting corner the engine cannot decide returns [`AnalysisError`]
//! instead of guessing.

use crate::grammar::{Grammar, GrammarError};
use crate::nfa::{Bound, CountTarget};
use crate::validate;
use crate::witness::{AttrNeed, Builder, Needs, TextNeed, WNode};
use std::collections::{BTreeSet, HashMap, VecDeque};
use xytree::{AttDefault, AttType, ContentModel, Document, Symbol};
use xyquery::{Axis, NodeTest, Output, Path, Predicate};

/// The analyzer's answer for one query against one grammar.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Some valid document contains a node the query selects; here is one.
    Satisfiable(Witness),
    /// No valid document contains a selected node, with the proof sketch.
    Unsatisfiable(Unsat),
}

impl Verdict {
    /// True for the satisfiable case.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, Verdict::Satisfiable(_))
    }
}

/// Evidence for a satisfiable verdict.
#[derive(Debug, Clone)]
pub struct Witness {
    /// A complete valid document, as XML, in which the query matches.
    pub document: String,
    /// Labels on the chain from the document root to the matched node.
    pub matched_path: Vec<String>,
    /// How many nodes the real evaluator selected in `document` (≥ 1).
    pub match_count: usize,
    /// Set when the query's trailing `@attr` output names an attribute
    /// never declared on any matchable label: nodes are selected, but the
    /// string output will always be empty.
    pub output_note: Option<String>,
}

/// Explanation of an unsatisfiable verdict.
#[derive(Debug, Clone)]
pub struct Unsat {
    /// 1-based step at which the frontier emptied (0: the grammar itself
    /// admits no valid document).
    pub step: usize,
    /// Why each remaining candidate died at that step.
    pub reasons: Vec<UnsatReason>,
}

impl Unsat {
    /// One-line human-readable summary: the failing step plus every reason
    /// the remaining candidates died there.
    pub fn describe(&self) -> String {
        let reasons: Vec<String> = self.reasons.iter().map(ToString::to_string).collect();
        if self.step == 0 {
            reasons.join("; ")
        } else {
            format!("step {}: {}", self.step, reasons.join("; "))
        }
    }
}

/// One reason a candidate label was eliminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsatReason {
    /// The grammar admits no valid document at all (root undeclared or
    /// unable to derive a finite tree).
    NoValidDocument,
    /// The step names an element the DTD never declares.
    UndeclaredElement {
        /// The undeclared label.
        label: String,
    },
    /// The element is declared but cannot occur at this point of the path.
    UnreachableElement {
        /// The declared-but-unreachable label.
        label: String,
    },
    /// A text node (or non-empty text content) is required where the
    /// grammar admits none.
    NoTextContent {
        /// The label whose content admits no text, when specific.
        label: Option<String>,
    },
    /// A predicate tests an attribute the DTD never declares on this label.
    UndeclaredAttribute {
        /// The element label.
        label: String,
        /// The undeclared attribute.
        attr: String,
    },
    /// The tested attribute value is outside the declared type (enumeration
    /// mismatch, `#FIXED` conflict, or malformed token).
    AttributeValueExcluded {
        /// The element label.
        label: String,
        /// The attribute.
        attr: String,
        /// The excluded value.
        value: String,
    },
    /// A positional predicate wants more occurrences than any valid
    /// document can hold.
    PositionExceedsMax {
        /// The requested 1-based position.
        wanted: usize,
        /// The proven maximum occurrence count.
        max: usize,
    },
    /// A second positional predicate on an already position-filtered
    /// (single-node) set.
    PositionAfterPosition,
    /// `[n]` with n > 1 combined with an equality test on an ID-typed
    /// attribute: ID values are document-unique.
    IdUniquenessViolated {
        /// The element label.
        label: String,
        /// The ID attribute.
        attr: String,
    },
    /// An attribute predicate applied to text nodes, which carry none.
    AttrOnTextNode,
    /// Predicates on one step contradict each other.
    ConflictingPredicates {
        /// Human-readable contradiction.
        detail: String,
    },
}

impl std::fmt::Display for UnsatReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnsatReason::NoValidDocument => {
                write!(f, "the DTD admits no valid document at all")
            }
            UnsatReason::UndeclaredElement { label } => {
                write!(f, "element <{label}> is not declared in the DTD")
            }
            UnsatReason::UnreachableElement { label } => {
                write!(f, "element <{label}> cannot occur at this point of the path")
            }
            UnsatReason::NoTextContent { label: Some(l) } => {
                write!(f, "<{l}> admits no text content")
            }
            UnsatReason::NoTextContent { label: None } => {
                write!(f, "no text content is possible here")
            }
            UnsatReason::UndeclaredAttribute { label, attr } => {
                write!(f, "attribute \"{attr}\" is not declared on <{label}>")
            }
            UnsatReason::AttributeValueExcluded { label, attr, value } => {
                write!(f, "value {value:?} is outside the declared type of {attr} on <{label}>")
            }
            UnsatReason::PositionExceedsMax { wanted, max } => {
                write!(f, "position [{wanted}] exceeds the maximum of {max} occurrence(s)")
            }
            UnsatReason::PositionAfterPosition => {
                write!(f, "a second position predicate on a single-node set")
            }
            UnsatReason::IdUniquenessViolated { label, attr } => {
                write!(f, "{attr} on <{label}> is ID-typed: values are unique, [n>1] cannot match")
            }
            UnsatReason::AttrOnTextNode => {
                write!(f, "text nodes have no attributes")
            }
            UnsatReason::ConflictingPredicates { detail } => {
                write!(f, "contradictory predicates: {detail}")
            }
        }
    }
}

/// The analyzer could not produce a trustworthy verdict.
#[derive(Debug, Clone)]
pub enum AnalysisError {
    /// The grammar could not be built.
    Grammar(GrammarError),
    /// A construct the counting engine cannot decide soundly.
    Unsupported {
        /// 1-based step.
        step: usize,
        /// What was undecidable.
        what: String,
    },
    /// Witness construction or its evaluator self-check failed; the query
    /// may be satisfiable, but no evidence could be produced.
    WitnessFailed {
        /// Failure detail.
        detail: String,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Grammar(e) => write!(f, "grammar error: {e}"),
            AnalysisError::Unsupported { step, what } => {
                write!(f, "step {step}: analysis undecided: {what}")
            }
            AnalysisError::WitnessFailed { detail } => {
                write!(f, "witness construction failed: {detail}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<GrammarError> for AnalysisError {
    fn from(e: GrammarError) -> Self {
        AnalysisError::Grammar(e)
    }
}

/// Where a frontier entry sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ctx {
    /// The document pseudo-root (before the first step).
    Root,
    /// An element with this label.
    El(Symbol),
}

/// How a step's witness fragment attaches to the previous step's node.
#[derive(Debug, Clone)]
enum Plan {
    /// A single node, placed as an ordinary child occurrence.
    One,
    /// `n` sibling copies; `parent` is the anchoring label when it is not
    /// the previous step's node itself.
    Siblings {
        /// Copy count.
        n: usize,
        /// Descendant-axis anchor parent (None: attach to previous node).
        parent: Option<Symbol>,
    },
    /// The node must sit at element-child position `n` (wildcard count).
    NthChild {
        /// 1-based element position.
        n: usize,
        /// Descendant-axis anchor parent.
        parent: Option<Symbol>,
    },
    /// `n` nested copies along a containment cycle (first == last label).
    Nested {
        /// Copy count.
        n: usize,
        /// The cycle target → … → target.
        cycle: Vec<Symbol>,
    },
    /// `n` sibling copies of a repeating ancestor, each containing one
    /// match (e.g. `//title[2]` when `title` occurs once per repeating
    /// `category`).
    Grove {
        /// Copy count.
        n: usize,
        /// The repeated ancestor label.
        copy: Symbol,
        /// Host holding the copies (None: the previous step's node).
        parent: Option<Symbol>,
        /// Chain from the ancestor (exclusive) down to the match
        /// (inclusive).
        inner_chain: Vec<Symbol>,
    },
    /// A text node: the parent holds `n` text children, the last being the
    /// match. `parent_is_prev` when the text sits directly under the
    /// previous step's node.
    Text {
        /// 1-based text position (1 for no position predicate).
        n: usize,
        /// Attach directly to the previous node?
        parent_is_prev: bool,
    },
    /// `n` sibling single-text parents (all `(#PCDATA)`-shaped), the text
    /// of the last one being the match.
    TextSiblings {
        /// Copy count.
        n: usize,
        /// Descendant-axis anchor parent (None: previous node).
        parent: Option<Symbol>,
    },
}

/// Witness-relevant record of one resolved step.
#[derive(Debug, Clone)]
struct StepMeta {
    /// Matched element label — or, for `Text`/`TextSiblings` plans, the
    /// label of the text's parent.
    label: Symbol,
    /// Labels strictly between the previous context and this step's anchor.
    via: Vec<Symbol>,
    /// Attribute/text obligations from predicates.
    needs: Needs,
    /// Structural attachment.
    plan: Plan,
}

/// Analyze one query against a grammar. See the module docs for the
/// soundness contract.
pub fn analyze(path: &Path, g: &Grammar) -> Result<Verdict, AnalysisError> {
    if !g.is_viable() {
        return Ok(Verdict::Unsatisfiable(Unsat {
            step: 0,
            reasons: vec![UnsatReason::NoValidDocument],
        }));
    }
    let steps = path.steps();
    let mut frontier: Vec<(Ctx, Vec<StepMeta>)> = vec![(Ctx::Root, Vec::new())];
    for (i, step) in steps.iter().enumerate() {
        let stepno = i + 1;
        let mut next: Vec<(Ctx, Vec<StepMeta>)> = Vec::new();
        let mut reasons: Vec<UnsatReason> = Vec::new();
        let mut gaps: Vec<String> = Vec::new();
        match &step.test {
            NodeTest::Text => {
                if stepno != steps.len() {
                    return Err(AnalysisError::Unsupported {
                        step: stepno,
                        what: "text() before the final step".to_string(),
                    });
                }
                for (ctx, metas) in &frontier {
                    if let Some(meta) = text_step(g, *ctx, step, &mut reasons, &mut gaps) {
                        let mut chain = metas.clone();
                        chain.push(meta);
                        next.push((Ctx::El(Symbol::intern("#text")), chain));
                        break; // one text witness suffices
                    }
                }
            }
            NodeTest::Name(_) | NodeTest::AnyElement => {
                for (ctx, metas) in &frontier {
                    let cands = candidates(g, *ctx, step.axis);
                    let wanted: Vec<Symbol> = match &step.test {
                        NodeTest::Name(n) => match Symbol::lookup(n) {
                            Some(s) if g.is_declared(s) => {
                                if cands.contains(&s) {
                                    vec![s]
                                } else {
                                    push_unique(
                                        &mut reasons,
                                        UnsatReason::UnreachableElement { label: n.clone() },
                                    );
                                    continue;
                                }
                            }
                            _ => {
                                push_unique(
                                    &mut reasons,
                                    UnsatReason::UndeclaredElement { label: n.clone() },
                                );
                                continue;
                            }
                        },
                        NodeTest::AnyElement => cands.iter().copied().collect(),
                        // INVARIANT: text steps take the dedicated branch
                        // before this match; only element tests reach here.
                        NodeTest::Text => unreachable!("handled above"),
                    };
                    for t in wanted {
                        if next.iter().any(|(c, _)| *c == Ctx::El(t)) {
                            continue;
                        }
                        let (needs, count) =
                            match preds_at_label(g, t, &step.predicates) {
                                Ok(v) => v,
                                Err(r) => {
                                    push_unique(&mut reasons, r);
                                    continue;
                                }
                            };
                        match plan_for(g, *ctx, t, step, count, &needs) {
                            PlanResult::Ok { via, plan } => {
                                let mut chain = metas.clone();
                                chain.push(StepMeta { label: t, via, needs, plan });
                                next.push((Ctx::El(t), chain));
                            }
                            PlanResult::Unsat(r) => push_unique(&mut reasons, r),
                            PlanResult::Gap(w) => gaps.push(w),
                        }
                    }
                }
            }
        }
        if next.is_empty() {
            if let Some(what) = gaps.into_iter().next() {
                return Err(AnalysisError::Unsupported { step: stepno, what });
            }
            if reasons.is_empty() {
                reasons.push(UnsatReason::UnreachableElement {
                    label: "*".to_string(),
                });
            }
            return Ok(Verdict::Unsatisfiable(Unsat { step: stepno, reasons }));
        }
        frontier = next;
    }

    // Trailing `@attr` output: selection is unaffected, but warn when the
    // attribute is never declared on any matchable label.
    let output_note = match path.output() {
        Output::Attr(a) => {
            let declared = frontier.iter().any(|(ctx, _)| match ctx {
                Ctx::El(l) => g.attdef(*l, a).is_some(),
                Ctx::Root => false,
            });
            (!declared).then(|| {
                format!("output attribute @{a} is never declared on any matched element")
            })
        }
        _ => None,
    };

    // Build and self-check a witness; try frontier entries in order.
    let mut last_fail = String::new();
    for (ctx, metas) in &frontier {
        let with_attr = match (path.output(), ctx) {
            (Output::Attr(a), Ctx::El(l)) if g.attdef(*l, a).is_some() => Some(a.clone()),
            _ => None,
        };
        match build_and_check(path, g, metas, with_attr) {
            Ok(w) => {
                return Ok(Verdict::Satisfiable(Witness { output_note, ..w }));
            }
            Err(e) => last_fail = e,
        }
    }
    Err(AnalysisError::WitnessFailed { detail: last_fail })
}

fn push_unique(reasons: &mut Vec<UnsatReason>, r: UnsatReason) {
    if !reasons.contains(&r) {
        reasons.push(r);
    }
}

/// Labels an element matching this step may carry, given the context.
fn candidates(g: &Grammar, ctx: Ctx, axis: Axis) -> BTreeSet<Symbol> {
    match (ctx, axis) {
        (Ctx::Root, Axis::Child) => BTreeSet::from([g.root()]),
        (Ctx::Root, Axis::Descendant) => g.live_labels().iter().copied().collect(),
        (Ctx::El(l), Axis::Child) => g
            .realizable_children(l)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default(),
        (Ctx::El(l), Axis::Descendant) => proper_closure(g, l),
    }
}

/// Labels reachable strictly below `l` via realizable-children edges.
fn proper_closure(g: &Grammar, l: Symbol) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    let mut queue: VecDeque<Symbol> = g
        .realizable_children(l)
        .map(|s| s.iter().copied().collect())
        .unwrap_or_default();
    for &c in &queue {
        out.insert(c);
    }
    while let Some(c) = queue.pop_front() {
        if let Some(kids) = g.realizable_children(c) {
            for &k in kids {
                if out.insert(k) {
                    queue.push_back(k);
                }
            }
        }
    }
    out
}

/// Check every non-positional predicate against a label, accumulating
/// witness obligations; returns the position requirement separately.
pub(crate) fn preds_at_label(
    g: &Grammar,
    label: Symbol,
    preds: &[Predicate],
) -> Result<(Needs, Option<usize>), UnsatReason> {
    let mut needs = Needs::default();
    let mut position: Option<usize> = None;
    let lname = || label.as_str().to_string();
    for p in preds {
        match p {
            Predicate::Position(n) => {
                if position.is_some() {
                    if *n > 1 {
                        return Err(UnsatReason::PositionAfterPosition);
                    }
                } else {
                    position = Some(*n);
                }
            }
            Predicate::AttrEquals(a, v) => {
                let Some(def) = g.attdef(label, a) else {
                    return Err(UnsatReason::UndeclaredAttribute {
                        label: lname(),
                        attr: a.clone(),
                    });
                };
                if !value_admissible(&def.ty, &def.default, v) {
                    return Err(UnsatReason::AttributeValueExcluded {
                        label: lname(),
                        attr: a.clone(),
                        value: v.clone(),
                    });
                }
                match needs.attrs.iter_mut().find(|(n, _)| n == a) {
                    Some((_, slot @ AttrNeed::Any)) => *slot = AttrNeed::Exact(v.clone()),
                    Some((_, AttrNeed::Exact(prev))) if prev != v => {
                        return Err(UnsatReason::ConflictingPredicates {
                            detail: format!("@{a} must equal both {prev:?} and {v:?}"),
                        });
                    }
                    Some(_) => {}
                    None => needs.attrs.push((a.clone(), AttrNeed::Exact(v.clone()))),
                }
            }
            Predicate::AttrExists(a) => {
                if g.attdef(label, a).is_none() {
                    return Err(UnsatReason::UndeclaredAttribute {
                        label: lname(),
                        attr: a.clone(),
                    });
                }
                if !needs.attrs.iter().any(|(n, _)| n == a) {
                    needs.attrs.push((a.clone(), AttrNeed::Any));
                }
            }
            Predicate::TextEquals(v) => {
                if !v.is_empty() && !g.allows_deep_text(label) {
                    return Err(UnsatReason::NoTextContent { label: Some(lname()) });
                }
                needs.text = Some(match needs.text.take() {
                    None => TextNeed::Exact(v.clone()),
                    Some(TextNeed::Exact(prev)) => {
                        if prev != *v {
                            return Err(UnsatReason::ConflictingPredicates {
                                detail: format!("text must equal both {prev:?} and {v:?}"),
                            });
                        }
                        TextNeed::Exact(prev)
                    }
                    Some(TextNeed::Contains(c)) => {
                        if !v.contains(&c) {
                            return Err(UnsatReason::ConflictingPredicates {
                                detail: format!("text equal to {v:?} cannot contain {c:?}"),
                            });
                        }
                        TextNeed::Exact(v.clone())
                    }
                });
            }
            Predicate::TextContains(v) => {
                if !v.is_empty() && !g.allows_deep_text(label) {
                    return Err(UnsatReason::NoTextContent { label: Some(lname()) });
                }
                needs.text = Some(match needs.text.take() {
                    None => TextNeed::Contains(v.clone()),
                    Some(TextNeed::Exact(e)) => {
                        if !e.contains(v.as_str()) {
                            return Err(UnsatReason::ConflictingPredicates {
                                detail: format!("text equal to {e:?} cannot contain {v:?}"),
                            });
                        }
                        TextNeed::Exact(e)
                    }
                    // Concatenation contains both needles.
                    Some(TextNeed::Contains(c)) => TextNeed::Contains(format!("{c}{v}")),
                });
            }
        }
    }
    if let Some(n) = position {
        if n > 1 {
            for (a, need) in &needs.attrs {
                let id_typed = g
                    .attdef(label, a)
                    .is_some_and(|d| d.ty == AttType::Id);
                if id_typed && matches!(need, AttrNeed::Exact(_)) {
                    return Err(UnsatReason::IdUniquenessViolated {
                        label: lname(),
                        attr: a.clone(),
                    });
                }
            }
        }
    }
    Ok((needs, position))
}

/// Is `v` a possible value of an attribute with this declared type/default?
pub(crate) fn value_admissible(ty: &AttType, default: &AttDefault, v: &str) -> bool {
    if let AttDefault::Fixed(f) = default {
        if v != f {
            return false;
        }
    }
    match ty {
        AttType::Cdata => true,
        AttType::Id | AttType::IdRef | AttType::Entity => is_name(v),
        AttType::NmToken => is_nmtoken(v),
        AttType::IdRefs | AttType::Entities => {
            let mut any = false;
            for t in v.split_whitespace() {
                if !is_name(t) {
                    return false;
                }
                any = true;
            }
            any
        }
        AttType::NmTokens => {
            let mut any = false;
            for t in v.split_whitespace() {
                if !is_nmtoken(t) {
                    return false;
                }
                any = true;
            }
            any
        }
        AttType::Enumerated(toks) | AttType::Notation(toks) => {
            toks.iter().any(|t| t == v)
        }
    }
}

fn is_name(v: &str) -> bool {
    let mut chars = v.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(is_name_char)
}

fn is_nmtoken(v: &str) -> bool {
    !v.is_empty() && v.chars().all(is_name_char)
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

/// Outcome of positional planning for one candidate.
enum PlanResult {
    /// Feasible, with the witness recipe.
    Ok {
        /// Labels between the previous context and the anchor.
        via: Vec<Symbol>,
        /// The recipe.
        plan: Plan,
    },
    /// Provably impossible.
    Unsat(UnsatReason),
    /// Undecidable by this engine.
    Gap(String),
}

/// Resolve the structural plan for matching label `t` at this step.
fn plan_for(
    g: &Grammar,
    ctx: Ctx,
    t: Symbol,
    step: &xyquery::Step,
    count: Option<usize>,
    needs: &Needs,
) -> PlanResult {
    let n = count.unwrap_or(1);
    if n <= 1 {
        let Some(via) = via_chain(g, ctx, t, step.axis) else {
            return PlanResult::Unsat(UnsatReason::UnreachableElement {
                label: t.as_str().to_string(),
            });
        };
        return PlanResult::Ok { via, plan: Plan::One };
    }
    let wildcard = matches!(step.test, NodeTest::AnyElement);
    match step.axis {
        Axis::Child => match ctx {
            Ctx::Root => PlanResult::Unsat(UnsatReason::PositionExceedsMax {
                wanted: n,
                max: 1,
            }),
            Ctx::El(p) => {
                if wildcard && needs.attrs.is_empty() && needs.text.is_none() {
                    // Count every element child; `t` must land at slot n.
                    if nth_child_feasible(g, p, n, t) {
                        PlanResult::Ok {
                            via: Vec::new(),
                            plan: Plan::NthChild { n, parent: None },
                        }
                    } else {
                        PlanResult::Unsat(UnsatReason::PositionExceedsMax {
                            wanted: n,
                            max: per_parent_bound(g, p, CountTarget::Any).as_max(),
                        })
                    }
                } else if sibling_count_feasible(g, p, t, n) {
                    PlanResult::Ok {
                        via: Vec::new(),
                        plan: Plan::Siblings { n, parent: None },
                    }
                } else if wildcard {
                    // Mixed-label solutions may exist; undecidable here.
                    PlanResult::Gap(format!(
                        "wildcard position [{n}] with predicates under <{}>",
                        p.as_str()
                    ))
                } else {
                    PlanResult::Unsat(UnsatReason::PositionExceedsMax {
                        wanted: n,
                        max: per_parent_bound(g, p, CountTarget::Sym(t)).as_max(),
                    })
                }
            }
        },
        Axis::Descendant => {
            // Global document-order counting. First the sound unsat check.
            let bound = if wildcard {
                doc_max_count(g, &|_| true)
            } else {
                doc_max_count(g, &|l| l == t)
            };
            if let Bound::Finite(max) = bound {
                if max < n {
                    return PlanResult::Unsat(UnsatReason::PositionExceedsMax {
                        wanted: n,
                        max,
                    });
                }
            }
            if wildcard && !(needs.attrs.is_empty() && needs.text.is_none()) {
                return PlanResult::Gap(format!(
                    "wildcard descendant position [{n}] with predicates"
                ));
            }
            // Witness strategy (a): one parent with n sibling copies of t.
            let hosts: Vec<Symbol> = match ctx {
                Ctx::Root => g.live_labels().iter().copied().collect(),
                Ctx::El(l) => {
                    let mut v: Vec<Symbol> = proper_closure(g, l).into_iter().collect();
                    v.push(l);
                    v
                }
            };
            let mut hosts = hosts;
            hosts.sort();
            if wildcard {
                // All element children count; any parent with n realizable
                // element children positions t via NthChild.
                for p in &hosts {
                    if nth_child_feasible(g, *p, n, t) {
                        let Some(via) = host_via(g, ctx, *p) else { continue };
                        let parent = (!host_is_ctx(ctx, *p) || via_nonempty(&via))
                            .then_some(*p);
                        return PlanResult::Ok {
                            via,
                            plan: Plan::NthChild { n, parent },
                        };
                    }
                }
                return PlanResult::Gap(format!("wildcard descendant position [{n}]"));
            }
            for p in &hosts {
                if sibling_count_feasible(g, *p, t, n) {
                    let Some(via) = host_via(g, ctx, *p) else { continue };
                    let parent =
                        (!host_is_ctx(ctx, *p) || via_nonempty(&via)).then_some(*p);
                    return PlanResult::Ok { via, plan: Plan::Siblings { n, parent } };
                }
            }
            // Witness strategy (b): n nested copies along a containment
            // cycle t ⇒+ t.
            if let Some(cycle) = g.containment_chain(t, t, true) {
                if let Some(via) = via_chain(g, ctx, t, Axis::Descendant) {
                    return PlanResult::Ok { via, plan: Plan::Nested { n, cycle } };
                }
            }
            // Witness strategy (c): n sibling copies of a repeating
            // ancestor r, each containing one t.
            for r in &hosts {
                if *r == t {
                    continue; // strategy (a) already covered this
                }
                let Some(chain) = g.containment_chain(*r, t, true) else {
                    continue;
                };
                for h in &hosts {
                    if !sibling_count_feasible(g, *h, *r, n) {
                        continue;
                    }
                    let Some(via) = host_via(g, ctx, *h) else { continue };
                    let parent =
                        (!host_is_ctx(ctx, *h) || via_nonempty(&via)).then_some(*h);
                    return PlanResult::Ok {
                        via,
                        plan: Plan::Grove {
                            n,
                            copy: *r,
                            parent,
                            inner_chain: chain[1..].to_vec(),
                        },
                    };
                }
            }
            PlanResult::Gap(format!(
                "descendant position [{n}] on <{}> needs a multi-parent layout",
                t.as_str()
            ))
        }
    }
}

fn via_nonempty(via: &[Symbol]) -> bool {
    !via.is_empty()
}

fn host_is_ctx(ctx: Ctx, host: Symbol) -> bool {
    ctx == Ctx::El(host)
}

/// Chain from the context to a descendant-axis host parent, exclusive of
/// both (empty when the host is the context itself).
fn host_via(g: &Grammar, ctx: Ctx, host: Symbol) -> Option<Vec<Symbol>> {
    match ctx {
        Ctx::Root => {
            let chain = g.containment_chain(g.root(), host, false)?;
            // Root pseudo-node is "prev": the chain root→host keeps the
            // document element, drops the host itself.
            Some(chain[..chain.len() - 1].to_vec())
        }
        Ctx::El(l) if l == host => Some(Vec::new()),
        Ctx::El(l) => {
            let chain = g.containment_chain(l, host, true)?;
            Some(chain[1..chain.len() - 1].to_vec())
        }
    }
}

/// Chain from the context to the matched label, per axis; exclusive of the
/// context and of the match.
fn via_chain(g: &Grammar, ctx: Ctx, t: Symbol, axis: Axis) -> Option<Vec<Symbol>> {
    match (ctx, axis) {
        (_, Axis::Child) => Some(Vec::new()),
        (Ctx::Root, Axis::Descendant) => {
            let chain = g.containment_chain(g.root(), t, false)?;
            Some(chain[..chain.len() - 1].to_vec())
        }
        (Ctx::El(l), Axis::Descendant) => {
            let chain = g.containment_chain(l, t, true)?;
            Some(chain[1..chain.len() - 1].to_vec())
        }
    }
}

/// Can `parent` hold ≥ n children labeled `t` in one valid child sequence?
fn sibling_count_feasible(g: &Grammar, parent: Symbol, t: Symbol, n: usize) -> bool {
    let Some(info) = g.element(parent) else { return false };
    match &info.model {
        ContentModel::Mixed(names) => names.contains(&t),
        ContentModel::Any => g.productive_labels().contains(&t),
        ContentModel::Children(_) => info.nfa.as_ref().is_some_and(|nfa| {
            nfa.word_with_count(CountTarget::Sym(t), n, &|s| {
                g.element(s).is_some_and(|i| i.productive)
            })
            .is_some()
        }),
        ContentModel::Empty => false,
    }
}

/// Can `parent` hold a child sequence whose n-th element child is `t`?
fn nth_child_feasible(g: &Grammar, parent: Symbol, n: usize, t: Symbol) -> bool {
    let Some(info) = g.element(parent) else { return false };
    match &info.model {
        ContentModel::Mixed(names) => {
            names.contains(&t)
                && (n == 1
                    || names.iter().any(|s| g.element(*s).is_some_and(|i| i.productive)))
        }
        ContentModel::Any => g.productive_labels().contains(&t),
        ContentModel::Children(_) => info.nfa.as_ref().is_some_and(|nfa| {
            nfa.word_with_nth(CountTarget::Any, n, t, &|s| {
                g.element(s).is_some_and(|i| i.productive)
            })
            .is_some()
        }),
        ContentModel::Empty => false,
    }
}

/// Per-parent occurrence bound of a target among `parent`'s children.
fn per_parent_bound(g: &Grammar, parent: Symbol, target: CountTarget) -> Bound {
    let Some(info) = g.element(parent) else { return Bound::Finite(0) };
    match &info.model {
        ContentModel::Empty => Bound::Finite(0),
        ContentModel::Any => match target {
            CountTarget::Sym(s) if !g.productive_labels().contains(&s) => Bound::Finite(0),
            _ if g.productive_labels().is_empty() => Bound::Finite(0),
            _ => Bound::Unbounded,
        },
        ContentModel::Mixed(names) => match target {
            CountTarget::Sym(s) => {
                if names.contains(&s) && g.element(s).is_some_and(|i| i.productive) {
                    Bound::Unbounded
                } else {
                    Bound::Finite(0)
                }
            }
            CountTarget::Any => {
                if names.iter().any(|s| g.element(*s).is_some_and(|i| i.productive)) {
                    Bound::Unbounded
                } else {
                    Bound::Finite(0)
                }
            }
        },
        ContentModel::Children(_) => info.nfa.as_ref().map_or(Bound::Finite(0), |nfa| {
            nfa.max_count(target, &|s| g.element(s).is_some_and(|i| i.productive))
        }),
    }
}

impl Bound {
    fn as_max(self) -> usize {
        match self {
            Bound::Finite(k) => k,
            Bound::Unbounded => usize::MAX,
        }
    }
}

/// Upper bound on the number of elements matching `matches` in any single
/// valid document. Cycles are conservatively unbounded (sound: the bound is
/// only used for unsatisfiability proofs when finite).
fn doc_max_count(g: &Grammar, matches: &dyn Fn(Symbol) -> bool) -> Bound {
    fn go(
        g: &Grammar,
        l: Symbol,
        matches: &dyn Fn(Symbol) -> bool,
        memo: &mut HashMap<Symbol, Option<Bound>>,
    ) -> Bound {
        match memo.get(&l) {
            Some(None) => return Bound::Unbounded, // cycle: over-approximate
            Some(Some(b)) => return *b,
            None => {}
        }
        memo.insert(l, None);
        let mut total = usize::from(matches(l));
        let mut unbounded = false;
        let mut kids: Vec<Symbol> = g
            .realizable_children(l)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        kids.sort();
        for c in kids {
            let sub = go(g, c, matches, memo);
            if sub == Bound::Finite(0) {
                continue;
            }
            match (per_parent_bound(g, l, CountTarget::Sym(c)), sub) {
                (Bound::Finite(p), Bound::Finite(s)) => {
                    total = total.saturating_add(p.saturating_mul(s));
                }
                _ => {
                    unbounded = true;
                    break;
                }
            }
        }
        let r = if unbounded { Bound::Unbounded } else { Bound::Finite(total) };
        memo.insert(l, Some(r));
        r
    }
    let mut memo = HashMap::new();
    go(g, g.root(), matches, &mut memo)
}

/// Resolve a final `text()` step for one context.
fn text_step(
    g: &Grammar,
    ctx: Ctx,
    step: &xyquery::Step,
    reasons: &mut Vec<UnsatReason>,
    gaps: &mut Vec<String>,
) -> Option<StepMeta> {
    // Predicate handling on text nodes.
    let mut content: Option<TextNeed> = None;
    let mut position: Option<usize> = None;
    for p in &step.predicates {
        match p {
            Predicate::AttrEquals(..) | Predicate::AttrExists(_) => {
                push_unique(reasons, UnsatReason::AttrOnTextNode);
                return None;
            }
            Predicate::Position(n) => {
                if position.is_some() {
                    if *n > 1 {
                        push_unique(reasons, UnsatReason::PositionAfterPosition);
                        return None;
                    }
                } else {
                    position = Some(*n);
                }
            }
            Predicate::TextEquals(v) => {
                if v.is_empty() {
                    // A text node's content is never the empty string.
                    push_unique(
                        reasons,
                        UnsatReason::ConflictingPredicates {
                            detail: "text nodes are never empty".to_string(),
                        },
                    );
                    return None;
                }
                match &content {
                    None => content = Some(TextNeed::Exact(v.clone())),
                    Some(TextNeed::Exact(e)) if e != v => {
                        push_unique(
                            reasons,
                            UnsatReason::ConflictingPredicates {
                                detail: format!("text must equal both {e:?} and {v:?}"),
                            },
                        );
                        return None;
                    }
                    Some(TextNeed::Contains(c)) => {
                        if v.contains(c.as_str()) {
                            content = Some(TextNeed::Exact(v.clone()));
                        } else {
                            push_unique(
                                reasons,
                                UnsatReason::ConflictingPredicates {
                                    detail: format!(
                                        "text equal to {v:?} cannot contain {c:?}"
                                    ),
                                },
                            );
                            return None;
                        }
                    }
                    Some(TextNeed::Exact(_)) => {}
                }
            }
            Predicate::TextContains(v) => match content.take() {
                None => content = Some(TextNeed::Contains(v.clone())),
                Some(TextNeed::Exact(e)) => {
                    if e.contains(v.as_str()) {
                        content = Some(TextNeed::Exact(e));
                    } else {
                        push_unique(
                            reasons,
                            UnsatReason::ConflictingPredicates {
                                detail: format!("text equal to {e:?} cannot contain {v:?}"),
                            },
                        );
                        return None;
                    }
                }
                Some(TextNeed::Contains(c)) => {
                    content = Some(TextNeed::Contains(format!("{c}{v}")));
                }
            },
        }
    }
    let n = position.unwrap_or(1);

    // Candidate text parents.
    let parents: Vec<Symbol> = match (ctx, step.axis) {
        (Ctx::Root, Axis::Child) => {
            push_unique(reasons, UnsatReason::NoTextContent { label: None });
            return None;
        }
        (Ctx::El(l), Axis::Child) => vec![l],
        (Ctx::Root, Axis::Descendant) => {
            let mut v: Vec<Symbol> = g.live_labels().iter().copied().collect();
            v.sort();
            v
        }
        (Ctx::El(l), Axis::Descendant) => {
            let mut v: Vec<Symbol> = proper_closure(g, l).into_iter().collect();
            v.push(l);
            v.sort();
            v
        }
    };
    let text_parents: Vec<Symbol> =
        parents.iter().copied().filter(|&p| g.allows_text(p)).collect();
    if text_parents.is_empty() {
        let label = match ctx {
            Ctx::El(l) if step.axis == Axis::Child => Some(l.as_str().to_string()),
            _ => None,
        };
        push_unique(reasons, UnsatReason::NoTextContent { label });
        return None;
    }
    // A parent that can interleave n text runs with elements.
    let multi_ok = |p: Symbol| {
        n == 1
            || match g.element(p).map(|i| &i.model) {
                Some(ContentModel::Mixed(names)) => {
                    names.iter().any(|s| g.element(*s).is_some_and(|i| i.productive))
                }
                Some(ContentModel::Any) => !g
                    .realizable_children(p)
                    .map_or(true, |s| s.is_empty()),
                _ => false,
            }
    };
    for p in &text_parents {
        if !multi_ok(*p) {
            continue;
        }
        let (via, parent_is_prev) = match (ctx, step.axis) {
            (Ctx::El(l), Axis::Child) => {
                debug_assert_eq!(l, *p);
                (Vec::new(), true)
            }
            _ => match host_via(g, ctx, *p) {
                Some(v) => {
                    let is_prev = host_is_ctx(ctx, *p) && v.is_empty();
                    (v, is_prev)
                }
                None => continue,
            },
        };
        let needs = Needs { text: content.clone(), ..Needs::default() };
        return Some(StepMeta {
            label: *p,
            via,
            needs,
            plan: Plan::Text { n, parent_is_prev },
        });
    }
    if n > 1 {
        // All text parents are single-text (`(#PCDATA)`): try n sibling
        // copies of one such parent, or prove the global bound too small.
        if step.axis == Axis::Descendant {
            let hosts: Vec<Symbol> = parents.clone();
            for m in &text_parents {
                for h in &hosts {
                    if sibling_count_feasible(g, *h, *m, n) {
                        let via = match host_via(g, ctx, *h) {
                            Some(mut v) => {
                                if !host_is_ctx(ctx, *h) || !v.is_empty() {
                                    v.push(*h);
                                }
                                v
                            }
                            None => continue,
                        };
                        let needs = Needs { text: content.clone(), ..Needs::default() };
                        return Some(StepMeta {
                            label: *m,
                            via,
                            needs,
                            plan: Plan::TextSiblings { n, parent: None },
                        });
                    }
                }
            }
        }
        let bound = doc_max_count(g, &|l| g.allows_text(l));
        if let Bound::Finite(max) = bound {
            if max < n {
                push_unique(reasons, UnsatReason::PositionExceedsMax { wanted: n, max });
                return None;
            }
        }
        gaps.push(format!("text position [{n}] needs a multi-parent layout"));
        return None;
    }
    // n == 1 with a single-text parent.
    let p = text_parents[0];
    let (via, parent_is_prev) = match (ctx, step.axis) {
        (Ctx::El(l), Axis::Child) => {
            debug_assert_eq!(l, p);
            (Vec::new(), true)
        }
        _ => match host_via(g, ctx, p) {
            Some(v) => {
                let is_prev = host_is_ctx(ctx, p) && v.is_empty();
                (v, is_prev)
            }
            None => {
                push_unique(reasons, UnsatReason::NoTextContent { label: None });
                return None;
            }
        },
    };
    let needs = Needs { text: content, ..Needs::default() };
    Some(StepMeta { label: p, via, needs, plan: Plan::Text { n, parent_is_prev } })
}

/// How a finished fragment hands itself to the enclosing step.
enum Attach {
    /// Ordinary child occurrences (shared label).
    Nodes(Vec<WNode>),
    /// Must land at element-child position n of the enclosing node.
    Nth(usize, WNode),
    /// The enclosing node must carry n text children, the last being this
    /// content.
    Text(usize, String),
}

/// Build the witness document for one resolved chain and self-check it with
/// the real evaluator. Returns the witness on success, a failure detail
/// otherwise.
fn build_and_check(
    path: &Path,
    g: &Grammar,
    metas: &[StepMeta],
    output_attr: Option<String>,
) -> Result<Witness, String> {
    let mut b = Builder::new(g);
    let mut attach = Attach::Nodes(Vec::new());
    for (i, meta) in metas.iter().enumerate().rev() {
        let is_final = i + 1 == metas.len();
        attach = step_fragment(&mut b, meta, attach, is_final, output_attr.as_deref())
            .ok_or_else(|| format!("could not realize step {} (<{}>)", i + 1, meta.label.as_str()))?;
    }
    let root = match attach {
        Attach::Nodes(mut v) if v.len() == 1 => v.pop().ok_or("empty witness")?,
        _ => return Err("witness did not reduce to a single root".to_string()),
    };
    if root.label != g.root() {
        return Err(format!(
            "witness root <{}> is not the document element <{}>",
            root.label.as_str(),
            g.root().as_str()
        ));
    }
    let xml = root.to_xml();
    let doc = Document::parse(&xml).map_err(|e| format!("witness does not parse: {e}"))?;
    let violations = validate::validate(&doc, g);
    if let Some(v) = violations.first() {
        return Err(format!("witness is not valid: {v}"));
    }
    let matches = path.select_doc(&doc);
    if matches.is_empty() {
        return Err("evaluator found no match in the witness".to_string());
    }
    // The real match, not the planner's sketch: label chain root → node
    // (text nodes render as "#text").
    let t = &doc.tree;
    let mut matched_path =
        vec![t.name(matches[0]).unwrap_or("#text").to_string()];
    for anc in t.ancestors(matches[0]) {
        if let Some(n) = t.name(anc) {
            matched_path.push(n.to_string());
        }
    }
    matched_path.reverse();
    Ok(Witness {
        document: xml,
        matched_path,
        match_count: matches.len(),
        output_note: None,
    })
}

/// Build one step's fragment, embedding the deeper fragment, and return the
/// attachment for the step above.
fn step_fragment(
    b: &mut Builder<'_>,
    meta: &StepMeta,
    inner: Attach,
    is_final: bool,
    output_attr: Option<&str>,
) -> Option<Attach> {
    // Assemble this step's node around an attachment.
    let assemble = |b: &mut Builder<'_>, label: Symbol, inner: Attach| -> Option<WNode> {
        match inner {
            Attach::Nodes(v) if v.is_empty() => b.build_min(label),
            Attach::Nodes(v) => b.build_containing(label, v),
            Attach::Nth(n, w) => b.build_with_nth_child(label, n, w),
            Attach::Text(n, c) => b.build_with_nth_text(label, n, &c),
        }
    };
    let dress = |b: &mut Builder<'_>, node: &mut WNode, with_text: bool| -> Option<()> {
        b.apply_attr_needs(node, &meta.needs);
        if is_final {
            if let Some(a) = output_attr {
                let needs = Needs {
                    attrs: vec![(a.to_string(), AttrNeed::Any)],
                    text: None,
                };
                b.apply_attr_needs(node, &needs);
            }
        }
        if with_text {
            if let Some(t) = &meta.needs.text {
                if !b.apply_text_need(node, t) {
                    return None;
                }
            }
        }
        Some(())
    };

    match &meta.plan {
        Plan::One => {
            let mut node = assemble(b, meta.label, inner)?;
            dress(b, &mut node, true)?;
            let node = wrap_via(b, &meta.via, node)?;
            Some(Attach::Nodes(vec![node]))
        }
        Plan::Siblings { n, parent } => {
            let mut copies = Vec::with_capacity(*n);
            for _ in 1..*n {
                let mut node = b.build_min(meta.label)?;
                dress(b, &mut node, true)?;
                copies.push(node);
            }
            let mut carrier = assemble(b, meta.label, inner)?;
            dress(b, &mut carrier, true)?;
            copies.push(carrier);
            match parent {
                Some(p) => {
                    let host = b.build_containing(*p, copies)?;
                    let host = wrap_via(b, &meta.via, host)?;
                    Some(Attach::Nodes(vec![host]))
                }
                None => Some(Attach::Nodes(copies)),
            }
        }
        Plan::NthChild { n, parent } => {
            let mut node = assemble(b, meta.label, inner)?;
            dress(b, &mut node, true)?;
            match parent {
                Some(p) => {
                    let host = b.build_with_nth_child(*p, *n, node)?;
                    let host = wrap_via(b, &meta.via, host)?;
                    Some(Attach::Nodes(vec![host]))
                }
                None => Some(Attach::Nth(*n, node)),
            }
        }
        Plan::Nested { n, cycle } => {
            let mut node = assemble(b, meta.label, inner)?;
            // Text obligations propagate through nesting (deep text), so
            // the innermost copy alone carries them; attributes go on all.
            dress(b, &mut node, true)?;
            for _ in 1..*n {
                node = b.wrap_chain(cycle, node)?;
                dress(b, &mut node, false)?;
            }
            let node = wrap_via(b, &meta.via, node)?;
            Some(Attach::Nodes(vec![node]))
        }
        Plan::Grove { n, copy, parent, inner_chain } => {
            // n - 1 minimal matches, then the carrier with the attachment;
            // each wrapped down from one copy of the repeating ancestor.
            let mut copies = Vec::with_capacity(*n);
            for _ in 1..*n {
                let mut t_node = b.build_min(meta.label)?;
                dress(b, &mut t_node, true)?;
                copies.push(t_node);
            }
            let mut carrier = assemble(b, meta.label, inner)?;
            dress(b, &mut carrier, true)?;
            copies.push(carrier);
            let mut hosts = Vec::with_capacity(*n);
            for t_node in copies {
                let wrapped = b.wrap_chain(inner_chain, t_node)?;
                hosts.push(b.build_containing(*copy, vec![wrapped])?);
            }
            match parent {
                Some(p) => {
                    let host = b.build_containing(*p, hosts)?;
                    let host = wrap_via(b, &meta.via, host)?;
                    Some(Attach::Nodes(vec![host]))
                }
                None => Some(Attach::Nodes(hosts)),
            }
        }
        Plan::Text { n, parent_is_prev } => {
            let content = text_content(&meta.needs);
            if *parent_is_prev {
                Some(Attach::Text(*n, content))
            } else {
                let host = b.build_with_nth_text(meta.label, *n, &content)?;
                let host = wrap_via(b, &meta.via, host)?;
                Some(Attach::Nodes(vec![host]))
            }
        }
        Plan::TextSiblings { n, parent } => {
            let content = text_content(&meta.needs);
            let mut copies = Vec::with_capacity(*n);
            for _ in 0..*n {
                let mut node = b.build_min(meta.label)?;
                if !b.apply_text_need(&mut node, &TextNeed::Exact(content.clone())) {
                    return None;
                }
                copies.push(node);
            }
            // The via chain ends at the anchoring host label (pushed by the
            // planner); build upward from there.
            let _ = parent;
            if let Some((&host_label, rest)) = meta.via.split_last() {
                let host = b.build_containing(host_label, copies)?;
                let host = wrap_via(b, rest, host)?;
                Some(Attach::Nodes(vec![host]))
            } else {
                Some(Attach::Nodes(copies))
            }
        }
    }
}

fn text_content(needs: &Needs) -> String {
    match &needs.text {
        Some(TextNeed::Exact(v) | TextNeed::Contains(v)) if !v.is_empty() => v.clone(),
        _ => "x".to_string(),
    }
}

/// Wrap a node under its via chain (outermost label first).
fn wrap_via(b: &mut Builder<'_>, via: &[Symbol], node: WNode) -> Option<WNode> {
    let mut chain: Vec<Symbol> = via.to_vec();
    chain.push(node.label);
    b.wrap_chain(&chain, node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::parse_dtd;

    fn g(dtd: &str) -> Grammar {
        Grammar::from_doctype(&parse_dtd(dtd, None).unwrap()).unwrap()
    }

    fn run(q: &str, dtd: &str) -> Verdict {
        analyze(&Path::parse(q).unwrap(), &g(dtd)).unwrap()
    }

    fn sat(q: &str, dtd: &str) -> Witness {
        match run(q, dtd) {
            Verdict::Satisfiable(w) => w,
            Verdict::Unsatisfiable(u) => panic!("{q} judged unsat: {u:?}"),
        }
    }

    fn unsat(q: &str, dtd: &str) -> Unsat {
        match run(q, dtd) {
            Verdict::Unsatisfiable(u) => u,
            Verdict::Satisfiable(w) => panic!("{q} judged sat: {}", w.document),
        }
    }

    const CATALOG: &str = "<!ELEMENT catalog (category*)>\
         <!ELEMENT category (title, product*)>\
         <!ELEMENT title (#PCDATA)>\
         <!ELEMENT product (name, price?)>\
         <!ELEMENT name (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>\
         <!ATTLIST product id ID #REQUIRED kind (new|used) \"new\">";

    #[test]
    fn simple_paths_are_satisfiable() {
        for q in [
            "/catalog",
            "/catalog/category/product/name",
            "//product",
            "//price/text()",
            "/catalog/*/product",
            "//product/@id",
        ] {
            let w = sat(q, CATALOG);
            assert!(w.match_count >= 1, "{q}");
        }
    }

    #[test]
    fn dead_paths_are_unsatisfiable() {
        // Wrong nesting: product is never a direct child of catalog.
        let u = unsat("/catalog/product", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::UnreachableElement { .. }));
        // Undeclared element.
        let u = unsat("//widget", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::UndeclaredElement { .. }));
        // Undeclared attribute.
        let u = unsat("//product[@color='red']", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::UndeclaredAttribute { .. }));
        // Excluded enumeration token.
        let u = unsat("//product[@kind='refurb']", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::AttributeValueExcluded { .. }));
        // Text under a text-free element.
        let u = unsat("/catalog/text()", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::NoTextContent { .. }));
    }

    #[test]
    fn predicate_witnesses_carry_obligations() {
        let w = sat("//product[@kind='used'][@id]/name", CATALOG);
        assert!(w.document.contains("kind=\"used\""), "{}", w.document);
        let w = sat("//title[text()='cams']", CATALOG);
        assert!(w.document.contains("cams"), "{}", w.document);
        let w = sat("//name[contains(text(),'zoom')]", CATALOG);
        assert!(w.document.contains("zoom"), "{}", w.document);
    }

    #[test]
    fn conflicting_predicates_unsat() {
        let u = unsat("//title[text()='a'][text()='b']", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::ConflictingPredicates { .. }));
        let u = unsat("//product[@id='a'][@id='b']/name", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::ConflictingPredicates { .. }));
    }

    #[test]
    fn child_axis_positions() {
        // Third product inside one category: model allows product*.
        let w = sat("/catalog/category/product[3]", CATALOG);
        assert!(w.match_count >= 1);
        // Second title inside a category: model allows exactly one.
        let u = unsat("/catalog/category/title[2]", CATALOG);
        assert!(matches!(
            u.reasons[0],
            UnsatReason::PositionExceedsMax { wanted: 2, max: 1 }
        ));
        // Second root element can never exist.
        let u = unsat("/catalog[2]", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::PositionExceedsMax { .. }));
    }

    #[test]
    fn wildcard_nth_child() {
        // The 2nd element child of category is a product (title first).
        let w = sat("/catalog/category/*[2]", CATALOG);
        assert!(w.match_count >= 1);
        let doc = Document::parse(&w.document).unwrap();
        let p = Path::parse("/catalog/category/*[2]").unwrap();
        assert_eq!(doc.tree.name(p.select_doc(&doc)[0]), Some("product"));
    }

    #[test]
    fn descendant_positions() {
        // Fourth product in document order (siblings layout).
        let w = sat("//product[4]", CATALOG);
        assert_eq!(w.match_count, 1);
        // Bounded occurrence: title appears once per category, but
        // categories repeat, so //title[2] is satisfiable…
        assert!(run("//title[2]", CATALOG).is_satisfiable());
        // …while a strictly bounded DTD caps it.
        let bounded = "<!ELEMENT root (a, b)>\
             <!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>";
        let u = unsat("//a[2]", bounded);
        assert!(matches!(
            u.reasons[0],
            UnsatReason::PositionExceedsMax { wanted: 2, max: 1 }
        ));
    }

    #[test]
    fn descendant_position_via_nesting() {
        // section can only repeat by nesting, never as siblings.
        let dtd = "<!ELEMENT doc (section)>\
             <!ELEMENT section (section?, p)>\
             <!ELEMENT p (#PCDATA)>";
        let w = sat("//section[3]", dtd);
        assert_eq!(w.match_count, 1);
    }

    #[test]
    fn id_uniqueness_blocks_counted_equality() {
        let u = unsat("//product[@id='p1'][2]", CATALOG);
        assert!(matches!(u.reasons[0], UnsatReason::IdUniquenessViolated { .. }));
        // Without the position it is fine.
        assert!(run("//product[@id='p1']", CATALOG).is_satisfiable());
    }

    #[test]
    fn text_steps() {
        let mixed = "<!ELEMENT doc (#PCDATA|em)*><!ELEMENT em (#PCDATA)>";
        assert!(run("/doc/text()", mixed).is_satisfiable());
        // Reached through a descendant step from a text-free root.
        let deep = "<!ELEMENT doc (sec+)><!ELEMENT sec (p)><!ELEMENT p (#PCDATA)>";
        let w = sat("//text()", deep);
        assert!(w.match_count >= 1);
        // Text-free grammar.
        let bare = "<!ELEMENT doc (hr)><!ELEMENT hr EMPTY>";
        let u = unsat("//text()", bare);
        assert!(matches!(u.reasons[0], UnsatReason::NoTextContent { .. }));
        // Child-axis text under element-only content.
        let u = unsat("/doc/text()", deep);
        assert!(matches!(u.reasons[0], UnsatReason::NoTextContent { .. }));
    }

    #[test]
    fn unviable_grammar_is_always_unsat() {
        let u = unsat("//anything", "<!ELEMENT root (root)>");
        assert_eq!(u.step, 0);
        assert!(matches!(u.reasons[0], UnsatReason::NoValidDocument));
    }

    #[test]
    fn output_attr_note() {
        let w = sat("//title/@missing", CATALOG);
        assert!(w.output_note.is_some());
        let w = sat("//product/@id", CATALOG);
        assert!(w.output_note.is_none());
        assert!(w.document.contains("id="), "{}", w.document);
    }

    #[test]
    fn fixed_attribute_values() {
        let dtd = "<!ELEMENT root (item*)><!ELEMENT item EMPTY>\
             <!ATTLIST item ver CDATA #FIXED \"1\">";
        assert!(run("//item[@ver='1']", dtd).is_satisfiable());
        let u = unsat("//item[@ver='2']", dtd);
        assert!(matches!(u.reasons[0], UnsatReason::AttributeValueExcluded { .. }));
    }

    #[test]
    fn witnesses_are_valid_documents() {
        for q in [
            "//product[2]/name",
            "//category[2]/product/price",
            "/catalog/category/product[@kind='used']/price/text()",
            "//*[2]",
        ] {
            let w = sat(q, CATALOG);
            let doc = Document::parse(&w.document).unwrap();
            let viol = crate::validate::validate(&doc, &g(CATALOG));
            assert!(viol.is_empty(), "{q}: {viol:?}\n{}", w.document);
        }
    }
}
