//! # mavsim — a MAVLink-style telemetry protocol and the CVE it invites
//!
//! The paper motivates compartmentalization with concrete network-stack
//! CVEs (§I): *"CVE-2024-38951 leverages unchecked buffer limits to mount a
//! Denial-of-Service attack on the MAVLink protocol of PX4"*, and *"a buffer
//! overflow in the network stack could allow an attacker to take full
//! control of a drone."* This crate makes that motivation executable:
//!
//! * [`frame`] — MAVLink-v1-style framing (STX, length, sequence, system /
//!   component ids, message id, CRC-16/MCRF4XX with per-message CRC extra);
//! * [`msg`] — the handful of messages a small UAV telemetry link uses
//!   (heartbeat, attitude, GPS, command, parameter write, status text);
//! * [`parser`] — two receive-path implementations of the same ground
//!   station deserializer:
//!   [`parser::VulnerableParser`] copies payloads using the
//!   *attacker-controlled* length field into a fixed buffer — the CVE's
//!   unchecked-buffer-limit pattern — while
//!   [`parser::CheriParser`] holds the same buffer through a
//!   bounds-restricted [`cheri::Capability`], so the same attack raises a
//!   capability fault instead of corrupting adjacent state.
//!
//! The workspace-level example `mavlink_attack` and the `mavlink_attack`
//! integration tests run the full exploit over the simulated UDP stack:
//! baseline memory silently corrupts the autopilot's actuator commands;
//! the CHERI compartment dies with the paper's Fig. 3 out-of-bounds
//! exception while the rest of the system keeps operating.
//!
//! ## Example
//!
//! ```
//! use mavsim::frame::MavFrame;
//! use mavsim::msg::{Heartbeat, Message, MavMode};
//!
//! # fn main() -> Result<(), mavsim::MavError> {
//! let hb = Heartbeat { mode: MavMode::Hover, battery_pct: 87, armed: true };
//! let wire = MavFrame::encode(7, 1, 1, &Message::Heartbeat(hb));
//! let frame = MavFrame::decode(&wire)?;
//! assert_eq!(frame.seq, 7);
//! assert!(matches!(frame.message()?, Message::Heartbeat(h) if h.battery_pct == 87));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod frame;
pub mod gcs;
pub mod msg;
pub mod parser;

pub use frame::{MavFrame, FRAME_OVERHEAD, MAX_PAYLOAD, STX};
pub use gcs::{GroundControl, VehicleState};
pub use msg::{Message, MsgId};
pub use parser::{CheriParser, GroundStation, ParserOutcome, VulnerableParser};

/// Errors of the mavsim protocol layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MavError {
    /// The buffer does not start with [`STX`].
    BadMagic,
    /// Fewer bytes than the header + declared payload + CRC require.
    Truncated,
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized,
    /// CRC-16 mismatch (includes the per-message CRC extra).
    BadCrc,
    /// Unknown message id.
    UnknownMsg(u8),
    /// Payload length does not match the message's wire size.
    BadLength,
}

impl std::fmt::Display for MavError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MavError::BadMagic => write!(f, "frame does not start with STX"),
            MavError::Truncated => write!(f, "frame shorter than its declared length"),
            MavError::Oversized => write!(f, "declared payload exceeds the maximum"),
            MavError::BadCrc => write!(f, "checksum mismatch"),
            MavError::UnknownMsg(id) => write!(f, "unknown message id {id}"),
            MavError::BadLength => write!(f, "payload length wrong for message type"),
        }
    }
}

impl std::error::Error for MavError {}
