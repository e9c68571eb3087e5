//! Static DTD/query compatibility analysis.
//!
//! The paper's warehouse stores versioned XML documents, diffs them with
//! XyDiff, and matches subscription queries against the resulting deltas.
//! All three legs share one schema: the DTD the documents are declared
//! under. This crate analyzes that schema *statically* — without touching
//! any stored document — and answers three questions:
//!
//! 1. **Satisfiability** ([`analyze`]): can a given query ever select a
//!    node in *some* valid document? A `Satisfiable` verdict carries a
//!    complete witness document that the real evaluator has been run on; an
//!    `Unsatisfiable` verdict is a proof sketch (undeclared element, broken
//!    containment, excluded attribute value, position beyond the provable
//!    occurrence bound, …). Dead subscriptions are flagged at registration
//!    time instead of silently never firing.
//! 2. **Schema-change impact** ([`impact()`]): given two DTD versions, which
//!    queries died, which came alive, and which had their match language
//!    narrowed or widened (decided by containment on the label-path
//!    languages of grammar and query).
//! 3. **Delta typechecking** ([`typecheck()`]): could a completed XyDelta
//!    possibly transform one valid document into another, checked without
//!    materializing either version.
//!
//! Everything is built from two small pieces: Glushkov automata compiled
//! from `<!ELEMENT>` content models (the private `nfa` module) and a
//! regular tree grammar with productivity/reachability fixpoints
//! ([`Grammar`]).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod grammar;
mod impact;
mod nfa;
mod sat;
mod typecheck;
mod validate;

mod witness;

pub use grammar::{ElementInfo, Grammar, GrammarError};
pub use impact::{impact, ImpactClass, QueryImpact};
pub use nfa::{Bound, CountTarget, Nfa};
pub use sat::{analyze, AnalysisError, Unsat, UnsatReason, Verdict, Witness};
pub use typecheck::{typecheck, typecheck_with, Finding, FindingKind, XidResolver};
pub use validate::{validate, validate_tree, Violation, ViolationKind};
