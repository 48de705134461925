//! # threatraptor-tbql
//!
//! The **Threat Behavior Query Language** (paper §II-D): a declarative
//! DSL that "treats system entities and events as first-class citizens
//! and provides primitives to easily specify multi-step system
//! activities".
//!
//! Language features implemented (all from the paper):
//!
//! * event patterns `⟨subject, operation, object⟩` with entity types
//!   (`proc` / `file` / `ip`), identifiers, and attribute filters;
//! * default-attribute syntactic sugar: `proc p1["%/bin/tar%"]` ≡
//!   `proc p1[exename = "%/bin/tar%"]`, `return p1` ≡ `return p1.exename`;
//! * entity-ID reuse across patterns ⇒ implicit attribute relationships
//!   (`evt1.srcid = evt2.srcid`);
//! * operation expressions (`read || write`) and comparison / logical
//!   operators in filters;
//! * temporal relationships in the `with` clause (`evt1 before evt2`);
//! * optional per-pattern time windows (`window [lo, hi]`);
//! * variable-length event path patterns `proc p ~>(2~4)[read] file f`;
//! * `return distinct` projections.
//!
//! The original implementation used ANTLR 4; this is a hand-written lexer
//! + recursive-descent parser with spanned diagnostics.
//!
//! On top of parsing and semantic analysis sits a static-analysis layer:
//! a difference-bound matrix over pattern timestamps ([`dbm`]) answers
//! temporal feasibility and yields tightened per-pattern time bounds, and
//! a lint pass ([`lint`](mod@lint)) turns that plus filter/usage analysis into
//! structured diagnostics with stable codes.

pub mod analyze;
pub mod ast;
pub mod builder;
pub mod dbm;
pub mod error;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod printer;

pub use analyze::{analyze, AnalyzedQuery, EntityInfo};
pub use ast::*;
pub use dbm::{analyze_temporal, Dbm, PatternBounds, TemporalAnalysis};
pub use error::{Span, TbqlError};
pub use lint::{lint, Diagnostic, LintReport, Severity};
pub use parser::parse_query;
pub use printer::{print_query, strip_spans};
