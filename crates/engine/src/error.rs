//! Engine errors.

use std::fmt;
use threatraptor_tbql::error::TbqlError;
use threatraptor_tbql::lint::Diagnostic;

/// Errors surfaced while compiling or executing a TBQL query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query failed TBQL semantic analysis.
    Semantic(TbqlError),
    /// The lint pass proved the query can never match (error-level
    /// diagnostics: temporal infeasibility, contradictory filters).
    Infeasible(Vec<Diagnostic>),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Semantic(e) => write!(f, "semantic error: {e}"),
            EngineError::Infeasible(diags) => {
                write!(f, "infeasible query: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TbqlError> for EngineError {
    fn from(e: TbqlError) -> Self {
        EngineError::Semantic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor_tbql::error::Span;

    #[test]
    fn display_variants() {
        let e = EngineError::from(TbqlError::new(Span::new(0, 1), "bad"));
        assert!(e.to_string().contains("semantic"));
        let e = EngineError::Infeasible(vec![Diagnostic {
            code: "E001",
            severity: threatraptor_tbql::lint::Severity::Error,
            span: Span::new(0, 1),
            message: "never matches".into(),
        }]);
        let text = e.to_string();
        assert!(text.contains("infeasible query"), "{text}");
        assert!(text.contains("E001"), "{text}");
    }
}
