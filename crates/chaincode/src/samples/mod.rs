//! Sample chaincodes.
//!
//! * [`AssetTransfer`] — a public-data asset registry (quickstart).
//! * [`SaccPrivate`] — the Go chaincode of the paper's Listing 2: its
//!   `set` function returns the private value through the response
//!   `payload`, leaking it to every peer (PDC-write leakage, §V-B2).
//! * [`PerfTest`] — the Node.js chaincode of Listing 1:
//!   `readPrivatePerfTest` returns the private asset in the payload
//!   (PDC-read leakage, §V-B1).
//! * [`GuardedPdc`] — the experiment chaincode of §V-A: each organization
//!   deploys its own variant with its own business-rule guards
//!   (customizable chaincode), e.g. org1 requires `k1.value < 15`, org2
//!   requires `k1.value > 10`.
//! * [`LeakyEscrow`] — a deliberately leaky chaincode exercising every
//!   `fabric_lint::flow` sink (PDC009, PDC012–PDC017); the analyzer's
//!   positive fixture.

mod asset_transfer;
mod guarded;
mod leaky_escrow;
mod perf_test;
mod sacc;
mod sbe_demo;
mod secured_trade;

pub use asset_transfer::{Asset, AssetTransfer};
pub use guarded::{Guard, GuardedPdc};
pub use leaky_escrow::LeakyEscrow;
pub use perf_test::PerfTest;
pub use sacc::{SaccPrivate, SaccPrivateFixed};
pub use sbe_demo::SbeDemo;
pub use secured_trade::SecuredTrade;

use crate::error::ChaincodeError;

/// Parses an ASCII base-10 integer argument value.
pub(crate) fn parse_int(bytes: &[u8]) -> Result<i64, ChaincodeError> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| ChaincodeError::InvalidArguments("expected an integer value".into()))
}
