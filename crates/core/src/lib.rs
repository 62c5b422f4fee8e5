//! # tbon-core — the TBON computational model
//!
//! An MRNet-style tree-based overlay network runtime, reproducing the model
//! of *"Tree-based Overlay Networks for Scalable Applications"* (Arnold,
//! Pack & Miller, IPPS 2006):
//!
//! * a **front-end** application process at the root of a tree of
//!   **communication processes**, with **back-end** application processes at
//!   the leaves, connected by FIFO channels ([`tbon_transport`]);
//! * **streams** — virtual channels between the front-end and a subset of
//!   back-ends, carrying tagged, typed packets;
//! * **transformation filters** reducing in-flight data at every process,
//!   and **synchronization filters** (`wait_for_all`, `time_out`, `null`)
//!   aligning packet waves, both instantiated by name from a
//!   [`FilterRegistry`] that supports on-demand loading into a running
//!   network;
//! * counted packet references (zero-copy multicast), dynamic back-end
//!   attach, failure detection, and orderly tree-wide shutdown.
//!
//! The crate is transport- and topology-agnostic: shapes come from
//! [`tbon_topology`], channels from [`tbon_transport`], and aggregate
//! filters (sum/min/max/equivalence classes/...) from `tbon-filters`.

pub mod backend;
pub mod codec;
pub mod config;
pub mod consumer;
pub mod error;
mod executor;
pub mod filter;
pub mod fmt;
pub mod health;
pub mod network;
pub mod packet;
pub mod plane;
mod process;
pub mod proto;
pub mod stream;
mod supervisor;
pub mod telemetry;
pub mod trace;
pub mod value;

pub use backend::{BackendContext, BackendEvent, BackendStream};
pub use config::{
    FilterPoolConfig, FlowConfig, HealthConfig, NetworkConfig, RetryPolicy, TraceConfig,
};
pub use consumer::{Deadline, StreamConsumer};
pub use error::{Result, TbonError};
pub use filter::{
    FilterContext, FilterRegistry, Identity, NullSync, SyncContext, Synchronization, TimeOut,
    Transformation, WaitForAll, Wave,
};
pub use health::{
    Diagnosis, FaultClass, FlowSummary, HealthMonitor, HealthScore, HealthSignal, Incident,
    IncidentBatch, IncidentBundle, IncidentGather, IncidentReason, Verdict, INCIDENT_FILTER,
};
pub use network::{
    EventSnapshot, IncidentHandle, MetricsHandle, Network, NetworkBuilder, PerfSnapshot,
    PlaneHandle, StreamHandle, TraceHandle,
};
pub use packet::{Packet, Rank};
pub use plane::{Batch, BatchItem, CappedConcat, PlanePayload};
pub use proto::{FilterKind, Message, NetEvent, PerfCounters};
pub use stream::{Members, StreamId, StreamMode, StreamSpec, SyncPolicy, Tag};
pub use telemetry::{
    now_us, EventRing, LogHistogram, LoggedEvent, MetricsMerge, MetricsSample, ProcessEvents,
    SpanRing, TraceBatch, TraceGather, TraceSpan, TraceStage, METRICS_FILTER, TRACE_FILTER,
};
pub use trace::{TraceAssembler, WaveTrace};
pub use value::DataValue;
