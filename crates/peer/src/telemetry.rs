//! The peer's telemetry attachment: metric handles resolved once.

use fabric_telemetry::{Counter, Gauge, Histogram, Telemetry, DURATION_SECONDS_BUCKETS};
use fabric_types::TxValidationCode;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A shared [`Telemetry`] pipeline plus the peer's hot-path metric
/// handles, resolved once when the pipeline is attached. The commit and
/// endorse paths then pay lock-free atomic updates per block instead of
/// name/label registry lookups.
///
/// All handles live behind one `Arc`, so the per-block clone the commit
/// path makes (to keep telemetry alive across mutable borrows of the
/// peer) is a single reference-count bump, not one per handle.
///
/// Derefs to [`PeerHandles`] (and through it to [`Telemetry`]) for
/// spans, audit events, and the metric handles.
#[derive(Debug, Clone)]
pub(crate) struct PeerTelemetry {
    inner: Arc<PeerHandles>,
}

/// The resolved handle set behind [`PeerTelemetry`]'s `Arc`.
#[derive(Debug)]
pub(crate) struct PeerHandles {
    pub telemetry: Telemetry,
    /// `fabric_commit_block_seconds`.
    pub commit_block: Histogram,
    pub blocks_committed: Counter,
    pub txs_processed: Counter,
    pub missing_private: Counter,
    pub block_height: Gauge,
    /// `fabric_validation_results_total{code=…}`, indexed by
    /// `TxValidationCode as usize`. `VALID` is resolved on attach; the
    /// others when they first occur, so their series appear only then.
    validation_results: [OnceLock<Counter>; TxValidationCode::ALL.len()],
    pub endorse_ok: Counter,
    pub endorse_err: Counter,
    pub endorse_seconds: Histogram,
}

impl PeerTelemetry {
    pub fn new(telemetry: Telemetry) -> Self {
        let m = telemetry.metrics();
        let endorse = |r: &str| {
            m.counter(
                "fabric_endorsements_total",
                "Endorsement requests by outcome",
                &[("result", r)],
            )
        };
        let t = PeerTelemetry {
            inner: Arc::new(PeerHandles {
                commit_block: m.histogram(
                    "fabric_commit_block_seconds",
                    "Block validation and commit latency",
                    &[],
                    DURATION_SECONDS_BUCKETS,
                ),
                blocks_committed: m.counter(
                    "fabric_blocks_committed_total",
                    "Blocks appended to the local chain",
                    &[],
                ),
                txs_processed: m.counter(
                    "fabric_txs_processed_total",
                    "Transactions carried by committed blocks",
                    &[],
                ),
                missing_private: m.counter(
                    "fabric_missing_private_data_total",
                    "Valid PDC transactions committed with hashes only",
                    &[],
                ),
                block_height: m.gauge(
                    "fabric_committed_block_height",
                    "Local chain height after the last commit",
                    &[],
                ),
                validation_results: Default::default(),
                endorse_ok: endorse("ok"),
                endorse_err: endorse("err"),
                endorse_seconds: m.histogram(
                    "fabric_endorse_seconds",
                    "Proposal simulation and endorsement latency",
                    &[],
                    DURATION_SECONDS_BUCKETS,
                ),
                telemetry,
            }),
        };
        t.validation_result(TxValidationCode::Valid);
        t
    }
}

impl PeerHandles {
    /// The `fabric_validation_results_total` series of `code`.
    pub fn validation_result(&self, code: TxValidationCode) -> &Counter {
        self.validation_results[code as usize].get_or_init(|| {
            self.telemetry.metrics().counter(
                "fabric_validation_results_total",
                "Transaction validation codes across committed blocks",
                &[("code", code.as_str())],
            )
        })
    }
}

impl Deref for PeerTelemetry {
    type Target = PeerHandles;

    fn deref(&self) -> &PeerHandles {
        &self.inner
    }
}

impl Deref for PeerHandles {
    type Target = Telemetry;

    fn deref(&self) -> &Telemetry {
        &self.telemetry
    }
}
