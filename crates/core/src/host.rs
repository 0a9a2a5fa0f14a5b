//! Host-side version-number reconstruction rules.
//!
//! The host sits outside the trust boundary and merely schedules
//! instructions; the one scheduler in this crate is
//! [`crate::server::DeviceServer`], which serves one user or many. What
//! the host must still *know* is how the device numbers its feature
//! writes, because GuardNN offloads the `CTR_F,R` bookkeeping to it
//! ("the host CPU can easily reconstruct the VN", §II-D). This module
//! holds exactly those public rules: the [`HostCounterMirror`] that
//! replays the device's `CTR_IN`/`CTR_F,W` bumps from the instruction
//! stream, and the [`region_extent`] / [`edge_extent`] padding rules a
//! `SetReadCTR` range must follow. None of it is secret: a host that
//! gets it wrong only garbles (or, with integrity, faults) its own
//! session.
//!
//! # Example: the mirror predicts the VNs of an honest inference
//!
//! ```
//! use guardnn::device::GuardNnDevice;
//! use guardnn::host::HostCounterMirror;
//! use guardnn::server::DeviceServer;
//! use guardnn::session::RemoteUser;
//! use guardnn::testnet;
//!
//! # fn main() -> Result<(), guardnn::GuardNnError> {
//! let (device, manufacturer_pk) = GuardNnDevice::provision(3, 11);
//! let mut user = RemoteUser::new(manufacturer_pk, 5);
//! let net = testnet::tiny_mlp();
//! let weights = testnet::tiny_mlp_weights(2);
//! let input = vec![2, -1, 0, 4, 3, -2, 1, 5];
//!
//! let mut server = DeviceServer::new(device);
//! let sid = server.connect(&mut user)?;
//! server.establish(sid, &mut user, true)?;
//! server.load_model(sid, &mut user, &net, &weights)?;
//! let output = server.infer(sid, &mut user, &input)?;
//! // The host saw only ciphertext, yet the result is the plaintext math.
//! assert_eq!(output, testnet::tiny_mlp_reference(&weights, &input));
//!
//! // The VNs the server declared are the ones a fresh mirror predicts
//! // from the public instruction stream: SetInput, then one Forward per
//! // layer.
//! let mut mirror = HostCounterMirror::default();
//! mirror.on_set_input()?;
//! let mut expected = vec![mirror.current_write_vn()];
//! for _ in net.layers() {
//!     mirror.on_forward()?;
//!     expected.push(mirror.current_write_vn());
//! }
//! assert_eq!(server.last_edge_vns(sid), Some(&expected[..]));
//! # Ok(())
//! # }
//! ```

use crate::error::GuardNnError;
use crate::memory::ELEM_BYTES;
use guardnn_models::Network;

/// Mirror of the device's feature counters, maintained by the host from the
/// public instruction stream ("the host CPU can easily reconstruct the VN",
/// §II-D).
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCounterMirror {
    ctr_in: u32,
    ctr_fw: u32,
}

impl HostCounterMirror {
    /// Mirrors `SetInput`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::CounterExhausted`] when the mirrored `CTR_IN` would
    /// wrap — the device refuses the same bump, so a wrapping mirror would
    /// silently drift from the on-chip state and reuse a VN.
    pub fn on_set_input(&mut self) -> Result<(), GuardNnError> {
        self.ctr_in = self
            .ctr_in
            .checked_add(1)
            .ok_or(GuardNnError::CounterExhausted { counter: "CTR_IN" })?;
        self.ctr_fw = 0;
        Ok(())
    }

    /// Mirrors a `Forward` that wrote features.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::CounterExhausted`] when the mirrored `CTR_F,W`
    /// would wrap (see [`HostCounterMirror::on_set_input`]).
    pub fn on_forward(&mut self) -> Result<(), GuardNnError> {
        self.ctr_fw = self
            .ctr_fw
            .checked_add(1)
            .ok_or(GuardNnError::CounterExhausted { counter: "CTR_F,W" })?;
        Ok(())
    }

    /// The VN the device used for its most recent feature write.
    pub fn current_write_vn(&self) -> u64 {
        ((self.ctr_in as u64) << 32) | self.ctr_fw as u64
    }
}

/// Byte extent of a tensor region holding `elems` device elements, exactly
/// as the device pads it: at least one 16-byte AES block even for empty
/// tensors. Host-issued `SetReadCTR` ranges must use this same rule or the
/// declared range drifts from the region the device actually reads.
pub fn region_extent(elems: u64) -> u64 {
    (elems * ELEM_BYTES).max(16)
}

/// Byte extent of feature (or gradient) edge `edge` of `network`: edge 0
/// is the network input, edge `i + 1` is layer `i`'s output.
pub fn edge_extent(network: &Network, edge: usize) -> u64 {
    let elems = if edge == 0 {
        network.layers().first().map_or(0, |l| l.input_elems())
    } else {
        network.layers()[edge - 1].output_elems()
    };
    region_extent(elems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_mirror_tracks_device() {
        let mut m = HostCounterMirror::default();
        m.on_set_input().expect("bump");
        assert_eq!(m.current_write_vn(), 1 << 32);
        m.on_forward().expect("bump");
        assert_eq!(m.current_write_vn(), (1 << 32) | 1);
        m.on_set_input().expect("bump");
        assert_eq!(m.current_write_vn(), 2 << 32);
    }

    #[test]
    fn counter_mirror_refuses_to_wrap() {
        let mut m = HostCounterMirror {
            ctr_in: u32::MAX,
            ctr_fw: u32::MAX,
        };
        assert_eq!(
            m.on_set_input().unwrap_err(),
            GuardNnError::CounterExhausted { counter: "CTR_IN" }
        );
        assert_eq!(
            m.on_forward().unwrap_err(),
            GuardNnError::CounterExhausted { counter: "CTR_F,W" }
        );
        // Failed bumps must not move the mirror.
        assert_eq!(m.current_write_vn(), u64::MAX);
    }
}
