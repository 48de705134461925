//! # threatraptor-audit
//!
//! System auditing substrate for the ThreatRaptor reproduction.
//!
//! The original system (Gao et al., ICDE 2021) collects system audit logs
//! from a live host with Sysdig. This crate replaces that hardware/OS
//! dependency with a deterministic substitute that exercises the identical
//! downstream code paths:
//!
//! * a **data model** for system entities (files, processes, network
//!   connections) and system events `⟨subject, operation, object⟩`
//!   ([`entity`], [`event`]);
//! * a **Sysdig-like raw log format** and its parser ([`rawlog`],
//!   [`parser`]), so the storage layer consumes *parsed text logs* exactly
//!   as the paper's log-parsing component does — plus a chunked replay
//!   [`feed`] that turns a raw log into a stream of [`parser::LogChunk`]s
//!   for the streaming ingest layer;
//! * a **host simulator** ([`sim`]) with kernel-style pid/fd bookkeeping, a
//!   virtual clock, benign background workloads, and scripted multi-step
//!   attacks (including the paper's two demonstration attacks), each event
//!   carrying a ground-truth label used only by evaluation harnesses.
//!
//! The simulator is fully seeded: the same seed reproduces the same raw log
//! byte-for-byte, which the paper's live-host deployment cannot offer.

pub mod entity;
pub mod event;
pub mod feed;
pub mod parser;
pub mod rawlog;
pub mod sim;
pub mod stats;

pub use entity::{Entity, EntityId, EntityKind, FileEntity, NetworkEntity, ProcessEntity};
pub use event::{AttackTag, Event, EventId, EventType, Operation};
pub use feed::LogFeed;
pub use parser::{LogChunk, ParseError, ParsedLog, Parser};
pub use sim::scenario::{AttackKind, BenignMix, Scenario, ScenarioBuilder, ScenarioSpec};
