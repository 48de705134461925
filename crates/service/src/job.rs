//! Hunt jobs and their outcomes.

use std::fmt;
use std::time::Duration;
use threatraptor_engine::{EngineError, HuntResult};
use threatraptor_synth::SynthesisError;
use threatraptor_tbql::lint::Diagnostic;

/// One unit of work for the server's job queue: hunt either a ready-made
/// TBQL query or a raw OSCTI report (which is first run through
/// extraction and query synthesis, exactly like
/// [`ThreatRaptor::hunt_report`]).
///
/// [`ThreatRaptor::hunt_report`]: https://docs.rs/threatraptor
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuntJob {
    /// A TBQL query, executed as-is.
    Tbql(String),
    /// Raw OSCTI text, extracted and synthesized into TBQL first.
    Report(String),
}

impl HuntJob {
    /// A TBQL job.
    pub fn tbql(src: impl Into<String>) -> HuntJob {
        HuntJob::Tbql(src.into())
    }

    /// An OSCTI-report job.
    pub fn report(text: impl Into<String>) -> HuntJob {
        HuntJob::Report(text.into())
    }

    /// The job's source text (TBQL or report, whichever it carries).
    pub fn source(&self) -> &str {
        match self {
            HuntJob::Tbql(s) | HuntJob::Report(s) => s,
        }
    }

    /// Short kind label for logs and tables.
    pub fn kind(&self) -> &'static str {
        match self {
            HuntJob::Tbql(_) => "tbql",
            HuntJob::Report(_) => "report",
        }
    }
}

/// Errors a job can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The report yielded no synthesizable behavior.
    Synthesis(SynthesisError),
    /// The static analyzer proved the query can never match (error-level
    /// lint diagnostics: temporal infeasibility, contradictory filters).
    /// Rejected at compile time, before any rows are scanned.
    Infeasible(Vec<Diagnostic>),
    /// Parsing or semantic analysis failed ([`EngineError::Semantic`]):
    /// compile fails only as [`ServiceError::Infeasible`], and execution
    /// does not fail.
    Engine(EngineError),
    /// The worker executing the job panicked; carries the panic payload
    /// rendered as text. The worker itself survives (panic isolation in
    /// the pool) — only this job is lost.
    Worker(String),
    /// The job was rejected or abandoned because the server is shutting
    /// down.
    Shutdown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Synthesis(e) => write!(f, "query synthesis: {e}"),
            ServiceError::Infeasible(diags) => {
                write!(f, "query rejected by static analysis: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            ServiceError::Engine(e) => write!(f, "query execution: {e}"),
            ServiceError::Worker(msg) => write!(f, "hunt worker panicked: {msg}"),
            ServiceError::Shutdown => f.write_str("hunt server is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SynthesisError> for ServiceError {
    fn from(e: SynthesisError) -> Self {
        ServiceError::Synthesis(e)
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Infeasible(diags) => ServiceError::Infeasible(diags),
            other => ServiceError::Engine(other),
        }
    }
}

/// The outcome of one submitted job, identified by its
/// [`crate::server::JobHandle::id`]. The handle's first retrieval takes
/// it; later ones re-run the plan on the snapshot the job ran on.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job as submitted.
    pub job: HuntJob,
    /// The TBQL the job resolved to (for report jobs, the synthesized
    /// query; `None` when synthesis failed).
    pub tbql: Option<String>,
    /// Matched records, or the error that stopped the job.
    pub outcome: Result<HuntResult, ServiceError>,
    /// Whether the compiled plan was served from the cache.
    pub cache_hit: bool,
    /// Wall-clock time this job spent executing (including any extraction
    /// and compilation).
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_accessors() {
        let j = HuntJob::tbql("proc p read file f return p");
        assert_eq!(j.kind(), "tbql");
        assert!(j.source().starts_with("proc"));
        let j = HuntJob::report("Attackers stole /etc/passwd.");
        assert_eq!(j.kind(), "report");
    }

    #[test]
    fn error_display() {
        let e = ServiceError::from(SynthesisError::EmptyGraph);
        assert!(e.to_string().contains("synthesis"));
    }

    #[test]
    fn infeasible_engine_errors_map_to_infeasible() {
        use threatraptor_tbql::error::{Span, TbqlError};
        use threatraptor_tbql::lint::Severity;
        let diag = Diagnostic {
            code: "E001",
            severity: Severity::Error,
            span: Span::new(0, 4),
            message: "window is empty".into(),
        };
        let e = ServiceError::from(EngineError::Infeasible(vec![diag]));
        assert!(matches!(e, ServiceError::Infeasible(_)));
        let text = e.to_string();
        assert!(text.contains("static analysis"), "{text}");
        assert!(text.contains("E001"), "{text}");
        // Non-infeasible engine errors keep the Engine wrapper.
        let e = ServiceError::from(EngineError::Semantic(TbqlError::new(
            Span::new(0, 4),
            "boom",
        )));
        assert!(matches!(e, ServiceError::Engine(_)));
    }
}
