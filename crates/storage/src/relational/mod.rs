//! Typed entity tables (the PostgreSQL stand-in for entities).
//!
//! The entity catalog's generations each hold three [`Table`]s, with
//! B-tree and hash indexes on key attributes; a TBQL entity filter
//! compiles to a [`Predicate`] with SQL `LIKE` semantics, which the
//! executor evaluates over them to resolve an entity variable to ids.

mod index;
mod predicate;
mod table;
mod value;

pub use index::{BTreeIndex, HashIndex, Index};
pub use predicate::{BoundPredicate, CmpOp, Predicate};
pub use table::{Column, Row, RowId, Table};
pub use value::{like_match, Value};
