//! Chaincode shim API, transaction simulator and sample chaincodes.
//!
//! Chaincode ("smart contract") is the business logic peers execute during
//! the endorsement phase. This crate provides:
//!
//! * [`Chaincode`] — the trait chaincode implementations write against,
//!   equivalent to Fabric's shim interface;
//! * [`ChaincodeStub`] — the simulator handed to chaincode: it resolves
//!   reads against the peer's world-state snapshot and accumulates the
//!   read/write sets, with exactly the PDC semantics the paper analyzes
//!   (`GetPrivateData` fails at non-member peers, **`GetPrivateDataHash`
//!   works everywhere** and records the correct version — §IV-A1);
//! * [`ChaincodeDefinition`] — the channel-agreed chaincode configuration:
//!   chaincode-level endorsement policy plus collection configs, each
//!   policy parsed once, and a [`DefinitionError`] for a part that cannot
//!   be installed;
//! * [`samples`] — runnable chaincodes, including the paper's two
//!   vulnerable GitHub listings and the guarded-update chaincode used in
//!   its attack experiments (§V-A/§V-B).
//!
//! Because Fabric chaincode is *customizable per organization* (it only
//! has to produce equal results to endorse honestly), peers host their own
//! [`Chaincode`] instances — malicious orgs exploit this by installing
//! colluding variants, which the attack crate does.

mod definition;
mod error;
mod stub;

pub mod samples;

pub use definition::{ChaincodeDefinition, DefinitionError};
pub use error::ChaincodeError;
pub use stub::{ChaincodeStub, SimulationResult, StubOp};

use std::sync::Arc;

/// The chaincode interface: one entry point dispatched by function name
/// via [`ChaincodeStub::function`].
///
/// Returns the response payload on success (what lands in the `payload`
/// field of the proposal response — in plaintext, per Use Case 3).
pub trait Chaincode: Send + Sync {
    /// Executes one invocation against the stub.
    ///
    /// # Errors
    ///
    /// Implementations return [`ChaincodeError`] for unknown functions, bad
    /// arguments, unavailable private data, or violated business rules; the
    /// endorsing peer converts errors into a 500 proposal response.
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError>;
}

impl<F> Chaincode for F
where
    F: Fn(&mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> + Send + Sync,
{
    fn invoke(&self, stub: &mut ChaincodeStub<'_>) -> Result<Vec<u8>, ChaincodeError> {
        self(stub)
    }
}

/// Shared handle to an installed chaincode instance.
pub type ChaincodeHandle = Arc<dyn Chaincode>;
