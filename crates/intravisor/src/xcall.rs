//! Cross-compartment calls through sealed capability pairs.
//!
//! Scenario 2 separates the application from F-Stack+DPDK; every `ff_*`
//! call from the app cVM must "do the cross-compartment jump between the
//! running application and the cVM1" (paper §III.B). The mechanism is the
//! classic CHERI object-capability pattern: the Intravisor seals the
//! provider's (code, data) context with a fresh object type and hands the
//! *sealed pair* to callers. A caller can `CInvoke` the pair — atomically
//! entering the provider — but can neither inspect nor modify it.

use crate::cvm::CvmId;
use cheri::regfile::RegFile;
use cheri::{CapFault, Capability, CompartmentCtx, FaultKind};
use simkern::cost::CostModel;
use simkern::time::{SimDuration, SimTime};

/// Handle to a registered cross-compartment service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceId(u32);

impl ServiceId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A granted domain transition: who we entered, when, and what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XcallGrant {
    /// The provider compartment now executing.
    pub provider: CvmId,
    /// The provider context installed by `CInvoke`.
    pub ctx: CompartmentCtx,
    /// Instant the callee begins executing.
    pub entered_at: SimTime,
    /// One-way crossing cost charged (return is charged by the caller at
    /// exit; both directions together are `2 * xcall_ns / 2 = xcall_ns`).
    pub crossing: SimDuration,
}

#[derive(Debug, Clone)]
struct Service {
    name: String,
    provider: CvmId,
    code: Capability,
    data: Capability,
}

/// Registry of sealed-pair services.
#[derive(Debug, Clone, Default)]
pub struct ServiceTable {
    services: Vec<Service>,
}

impl ServiceTable {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn register(
        &mut self,
        name: impl Into<String>,
        provider: CvmId,
        code: Capability,
        data: Capability,
    ) -> ServiceId {
        self.services.push(Service {
            name: name.into(),
            provider,
            code,
            data,
        });
        ServiceId(self.services.len() as u32 - 1)
    }

    /// Invokes `service` on behalf of `caller` at `now`, with full
    /// `CInvoke` validation of the sealed pair.
    ///
    /// # Errors
    ///
    /// [`FaultKind::PermitInvoke`] for self-calls (a compartment gains
    /// nothing by invoking itself and the paper's wiring never does), plus
    /// any fault `CInvoke` raises on the pair.
    pub fn invoke(
        &self,
        caller: CvmId,
        service: ServiceId,
        now: SimTime,
        costs: &CostModel,
    ) -> Result<XcallGrant, CapFault> {
        let svc = &self.services[service.index()];
        if svc.provider == caller {
            return Err(CapFault::new(
                FaultKind::PermitInvoke,
                svc.code.addr(),
                0,
                svc.code,
            ));
        }
        // Validate the sealed pair with the architectural CInvoke rules.
        let caller_ctx = CompartmentCtx::new(Capability::null(), Capability::null());
        let mut rf = RegFile::new(caller_ctx);
        rf.invoke(&svc.code, &svc.data)?;
        // One-way crossing: half the round-trip cost.
        let crossing = SimDuration::from_nanos(costs.xcall_ns / 2);
        Ok(XcallGrant {
            provider: svc.provider,
            ctx: *rf.ctx(),
            entered_at: now + crossing,
            crossing,
        })
    }

    /// The name of a service.
    pub fn name(&self, id: ServiceId) -> &str {
        &self.services[id.index()].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CvmConfig;
    use crate::Intravisor;

    fn boot() -> (Intravisor, CvmId, CvmId) {
        let mut iv = Intravisor::new(1 << 20, CostModel::morello());
        let svc = iv
            .create_cvm(CvmConfig::new("fstack-svc").mem_size(128 * 1024))
            .unwrap();
        let app = iv
            .create_cvm(CvmConfig::new("iperf-app").mem_size(64 * 1024))
            .unwrap();
        (iv, svc, app)
    }

    #[test]
    fn xcall_enters_the_provider_domain() {
        let (mut iv, svc, app) = boot();
        let sid = iv.register_service(svc, "ff-api").unwrap();
        let grant = iv.xcall(app, sid, SimTime::from_micros(1)).unwrap();
        assert_eq!(grant.provider, svc);
        // The installed DDC is the provider's data region.
        assert_eq!(grant.ctx.ddc().base(), iv.cvm(svc).ctx().ddc().base());
        assert!(grant.entered_at > SimTime::from_micros(1));
        assert_eq!(iv.cvm(app).xcall_count(), 1);
    }

    #[test]
    fn self_invocation_is_rejected() {
        let (mut iv, svc, _app) = boot();
        let sid = iv.register_service(svc, "ff-api").unwrap();
        let e = iv.xcall(svc, sid, SimTime::ZERO).unwrap_err();
        assert_eq!(e.kind(), FaultKind::PermitInvoke);
        assert_eq!(iv.fault_log().len(), 1);
    }

    #[test]
    fn invocation_counting() {
        let (mut iv, svc, app) = boot();
        let sid = iv.register_service(svc, "ff-api").unwrap();
        for i in 0..5 {
            iv.xcall(app, sid, SimTime::from_micros(i)).unwrap();
        }
        // Access counts through the public surface of Intravisor: the cVM's
        // own counter mirrors the table's.
        assert_eq!(iv.cvm(app).xcall_count(), 5);
    }

    #[test]
    fn crossing_cost_is_half_round_trip() {
        let (mut iv, svc, app) = boot();
        let sid = iv.register_service(svc, "ff-api").unwrap();
        let g = iv.xcall(app, sid, SimTime::ZERO).unwrap();
        assert_eq!(g.crossing.as_nanos(), CostModel::morello().xcall_ns / 2);
    }
}
