//! Embedded relational backend (the PostgreSQL stand-in).
//!
//! Entities and events are stored in typed tables; B-tree and hash indexes
//! accelerate equality and range lookups; [`SqlSelect`] is the logical
//! select-project-join plan the query engine compiles TBQL event patterns
//! into, and it renders to SQL text for the paper's conciseness
//! comparison.

mod index;
mod predicate;
mod select;
mod table;
mod value;

pub use index::{BTreeIndex, HashIndex, Index};
pub use predicate::{BoundPredicate, CmpOp, Predicate};
pub use select::{JoinCond, SqlSelect, TableRef};
pub use table::{Column, Database, Row, RowId, Table};
pub use value::{like_match, Value};
