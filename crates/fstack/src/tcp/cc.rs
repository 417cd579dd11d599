//! Pluggable congestion control: a [`CongestionControl`] trait with
//! [`Reno`] (slow start + congestion avoidance, fast retransmit/recovery)
//! and [`Cubic`] (RFC 8312 window growth) implementations, selected per
//! connection via [`CcAlgo`] and held inline in the TCB as a
//! [`Congestion`] — no allocation per connection.
//!
//! All arithmetic is deterministic across platforms: CUBIC's cube root is
//! computed with a fixed-iteration Newton refinement over IEEE-754 basic
//! operations only (`+ − × ÷`), never `libm`, so two hosts stepping the
//! same simulated clock compute bit-identical windows.

/// Initial window: 10 segments (RFC 6928).
pub const INIT_SEGMENTS: u32 = 10;

/// One congestion-control algorithm driving one connection's cwnd.
///
/// Time is passed in as simulated microseconds so implementations that
/// grow as a function of elapsed real time (CUBIC) stay pure functions of
/// the simulation clock. Event hooks mirror the sender state machine:
/// cumulative ACK of new data, third duplicate ACK, and RTO expiry.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// The current congestion window in bytes.
    fn cwnd(&self) -> u32;

    /// The slow-start threshold in bytes.
    fn ssthresh(&self) -> u32;

    /// `true` while recovering from a fast retransmit.
    fn in_recovery(&self) -> bool;

    /// `true` in the exponential-growth phase.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }

    /// New data was cumulatively acknowledged at simulated time `now_us`.
    fn on_ack(&mut self, now_us: u64, acked_bytes: u32);

    /// Triple duplicate ACK: fast retransmit, enter recovery.
    fn on_fast_retransmit(&mut self, now_us: u64);

    /// Retransmission timeout: collapse to one segment.
    fn on_timeout(&mut self, now_us: u64);

    /// Short algorithm name for stats and reports.
    fn name(&self) -> &'static str;
}

/// Which congestion-control algorithm a connection (or scenario) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcAlgo {
    /// Classic Reno (RFC 5681): AIMD, halve on loss.
    #[default]
    Reno,
    /// CUBIC (RFC 8312): concave/convex cubic growth around `W_max`.
    Cubic,
}

impl CcAlgo {
    /// Instantiates the algorithm for a connection with the given MSS.
    pub fn build(self, mss: u32) -> Congestion {
        match self {
            CcAlgo::Reno => Congestion::Reno(Reno::new(mss)),
            CcAlgo::Cubic => Congestion::Cubic(Cubic::new(mss)),
        }
    }

    /// Short name, matching [`CongestionControl::name`].
    pub fn name(self) -> &'static str {
        match self {
            CcAlgo::Reno => "reno",
            CcAlgo::Cubic => "cubic",
        }
    }
}

/// One connection's congestion state: whichever [`CcAlgo`] built it,
/// stored inline.
#[derive(Debug, Clone)]
pub enum Congestion {
    /// [`CcAlgo::Reno`].
    Reno(Reno),
    /// [`CcAlgo::Cubic`].
    Cubic(Cubic),
}

impl Congestion {
    /// The algorithm this state runs.
    pub fn algo(&self) -> CcAlgo {
        match self {
            Congestion::Reno(_) => CcAlgo::Reno,
            Congestion::Cubic(_) => CcAlgo::Cubic,
        }
    }

    fn get(&self) -> &dyn CongestionControl {
        match self {
            Congestion::Reno(cc) => cc,
            Congestion::Cubic(cc) => cc,
        }
    }

    fn get_mut(&mut self) -> &mut dyn CongestionControl {
        match self {
            Congestion::Reno(cc) => cc,
            Congestion::Cubic(cc) => cc,
        }
    }
}

impl CongestionControl for Congestion {
    fn cwnd(&self) -> u32 {
        self.get().cwnd()
    }

    fn ssthresh(&self) -> u32 {
        self.get().ssthresh()
    }

    fn in_recovery(&self) -> bool {
        self.get().in_recovery()
    }

    fn on_ack(&mut self, now_us: u64, acked_bytes: u32) {
        self.get_mut().on_ack(now_us, acked_bytes);
    }

    fn on_fast_retransmit(&mut self, now_us: u64) {
        self.get_mut().on_fast_retransmit(now_us);
    }

    fn on_timeout(&mut self, now_us: u64) {
        self.get_mut().on_timeout(now_us);
    }

    fn name(&self) -> &'static str {
        self.get().name()
    }
}

/// Reno congestion state for one connection.
///
/// # Example
///
/// ```
/// use fstack::tcp::cc::{CongestionControl, Reno};
/// let mut cc = Reno::new(1448);
/// let w0 = cc.cwnd();
/// cc.on_ack(0, 1448); // slow start: +MSS per ACK
/// assert_eq!(cc.cwnd(), w0 + 1448);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reno {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    in_recovery: bool,
}

impl Reno {
    /// Creates Reno state for a connection with the given MSS.
    pub fn new(mss: u32) -> Self {
        Reno {
            mss,
            cwnd: INIT_SEGMENTS * mss,
            ssthresh: u32::MAX,
            in_recovery: false,
        }
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    fn on_ack(&mut self, _now_us: u64, acked_bytes: u32) {
        if self.in_recovery {
            // Leaving recovery on the first new cumulative ACK.
            self.in_recovery = false;
        }
        if self.in_slow_start() {
            // cwnd += min(acked, MSS) per ACK.
            self.cwnd = self.cwnd.saturating_add(acked_bytes.min(self.mss));
        } else {
            // Congestion avoidance: +MSS per RTT ≈ MSS*MSS/cwnd per ACK.
            let inc =
                (u64::from(self.mss) * u64::from(self.mss) / u64::from(self.cwnd.max(1))) as u32;
            self.cwnd = self.cwnd.saturating_add(inc.max(1));
        }
    }

    fn on_fast_retransmit(&mut self, _now_us: u64) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.in_recovery = true;
    }

    fn on_timeout(&mut self, _now_us: u64) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.in_recovery = false;
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

/// CUBIC scaling constant C (RFC 8312 §5): 0.4.
const CUBIC_C: f64 = 0.4;
/// CUBIC multiplicative decrease β (RFC 8312 §4.5): 0.7.
const CUBIC_BETA: f64 = 0.7;

/// Deterministic cube root: one coarse bit-trick seed plus fixed Newton
/// iterations, using only IEEE basic operations so every platform agrees.
fn cbrt_det(x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    // Seed via exponent thirds: interpret the bits, divide the biased
    // exponent by 3 (classic Kahan/Halley seed, accurate to ~5%).
    let mut y = f64::from_bits(x.to_bits() / 3 + 0x2A9F_7893_E10D_9BC2);
    // Four Newton steps: y ← (2y + x/y²)/3; quartic-ish convergence gives
    // full double precision from the 5% seed.
    for _ in 0..4 {
        y = (2.0 * y + x / (y * y)) / 3.0;
    }
    y
}

/// CUBIC congestion state for one connection (RFC 8312).
///
/// The window follows `W(t) = C·(t − K)³ + W_max` where `t` is time since
/// the last congestion event and `K = ∛(W_max·(1−β)/C)`; below the Reno
/// estimate it runs in TCP-friendly mode. All sizes are kept in segments
/// (as in the RFC) and converted to bytes at the boundary.
#[derive(Debug, Clone)]
pub struct Cubic {
    mss: u32,
    cwnd: u32,
    ssthresh: u32,
    in_recovery: bool,
    /// Window before the last reduction, in segments.
    w_max: f64,
    /// Time of the last congestion event (µs of simulated time).
    epoch_us: Option<u64>,
    /// Time offset K at which W(t) regains `w_max`, in seconds.
    k: f64,
    /// Reno-friendly window estimate, in segments.
    w_est: f64,
    /// EWMA of ACK spacing standing in for RTT in the w_est update.
    last_ack_us: Option<u64>,
    ack_interval_us: f64,
}

impl Cubic {
    /// Creates CUBIC state for a connection with the given MSS.
    pub fn new(mss: u32) -> Self {
        Cubic {
            mss,
            cwnd: INIT_SEGMENTS * mss,
            ssthresh: u32::MAX,
            in_recovery: false,
            w_max: 0.0,
            epoch_us: None,
            k: 0.0,
            w_est: 0.0,
            last_ack_us: None,
            ack_interval_us: 0.0,
        }
    }

    fn segs(&self, bytes: u32) -> f64 {
        f64::from(bytes) / f64::from(self.mss.max(1))
    }

    fn enter_epoch(&mut self, now_us: u64) {
        let cwnd_segs = self.segs(self.cwnd);
        // Fast convergence (RFC 8312 §4.6): release bandwidth faster when
        // the window stopped short of the previous maximum.
        self.w_max = if cwnd_segs < self.w_max {
            cwnd_segs * (1.0 + CUBIC_BETA) / 2.0
        } else {
            cwnd_segs
        };
        self.epoch_us = Some(now_us);
        self.k = cbrt_det(self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C);
        self.w_est = cwnd_segs * CUBIC_BETA;
    }

    /// `W(t)` of RFC 8312 §4.1, in segments.
    fn w_cubic(&self, t_sec: f64) -> f64 {
        let d = t_sec - self.k;
        CUBIC_C * d * d * d + self.w_max
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    fn on_ack(&mut self, now_us: u64, acked_bytes: u32) {
        if self.in_recovery {
            self.in_recovery = false;
        }
        // Track ACK spacing as a crude RTT proxy for the friendly region.
        if let Some(last) = self.last_ack_us {
            let dt = (now_us.saturating_sub(last)) as f64;
            self.ack_interval_us = if self.ack_interval_us == 0.0 {
                dt
            } else {
                self.ack_interval_us * 0.875 + dt * 0.125
            };
        }
        self.last_ack_us = Some(now_us);

        if self.in_slow_start() {
            self.cwnd = self.cwnd.saturating_add(acked_bytes.min(self.mss));
            return;
        }
        let Some(epoch) = self.epoch_us else {
            // First avoidance ACK without a prior loss event: behave like
            // Reno until an epoch exists.
            let inc =
                (u64::from(self.mss) * u64::from(self.mss) / u64::from(self.cwnd.max(1))) as u32;
            self.cwnd = self.cwnd.saturating_add(inc.max(1));
            return;
        };
        let t_sec = (now_us.saturating_sub(epoch)) as f64 / 1e6;
        // TCP-friendly region (RFC 8312 §4.2): grow w_est like Reno, one
        // MSS per window of ACKs.
        self.w_est +=
            CUBIC_BETA * self.segs(acked_bytes.min(self.mss)) / self.segs(self.cwnd).max(1.0);
        let target = self.w_cubic(t_sec).max(self.w_est);
        let cwnd_segs = self.segs(self.cwnd);
        if target > cwnd_segs {
            // Approach the target over roughly one RTT's worth of ACKs.
            let step = (target - cwnd_segs) / cwnd_segs.max(1.0);
            let inc_bytes = (step * f64::from(self.mss)).max(1.0);
            let inc = if inc_bytes >= f64::from(u32::MAX) {
                u32::MAX
            } else {
                inc_bytes as u32
            };
            self.cwnd = self.cwnd.saturating_add(inc.max(1));
        } else {
            // At/above target: minimal growth to keep probing.
            self.cwnd = self.cwnd.saturating_add(1);
        }
    }

    fn on_fast_retransmit(&mut self, now_us: u64) {
        self.enter_epoch(now_us);
        let reduced = (self.segs(self.cwnd) * CUBIC_BETA * f64::from(self.mss)) as u32;
        self.ssthresh = reduced.max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.in_recovery = true;
    }

    fn on_timeout(&mut self, now_us: u64) {
        self.enter_epoch(now_us);
        let reduced = (self.segs(self.cwnd) * CUBIC_BETA * f64::from(self.mss)) as u32;
        self.ssthresh = reduced.max(2 * self.mss);
        self.cwnd = self.mss;
        self.in_recovery = false;
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1448;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = Reno::new(MSS);
        assert!(cc.in_slow_start());
        let w0 = cc.cwnd();
        // One full window of ACKs ≈ doubles cwnd.
        let acks = w0 / MSS;
        for _ in 0..acks {
            cc.on_ack(0, MSS);
        }
        assert_eq!(cc.cwnd(), w0 + acks * MSS);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut cc = Reno::new(MSS);
        cc.on_timeout(0); // ssthresh now finite
                          // Grow past ssthresh.
        while cc.in_slow_start() {
            cc.on_ack(0, MSS);
        }
        let w = cc.cwnd();
        let acks = w / MSS;
        for _ in 0..acks {
            cc.on_ack(0, MSS);
        }
        let growth = cc.cwnd() - w;
        // ≈ +1 MSS per RTT (allow rounding slack).
        assert!((MSS / 2..=2 * MSS).contains(&growth), "growth {growth}");
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut cc = Reno::new(MSS);
        for _ in 0..100 {
            cc.on_ack(0, MSS);
        }
        let w = cc.cwnd();
        cc.on_fast_retransmit(0);
        assert!(cc.in_recovery());
        assert_eq!(cc.cwnd(), (w / 2).max(2 * MSS));
        cc.on_ack(0, MSS);
        assert!(!cc.in_recovery());
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut cc = Reno::new(MSS);
        for _ in 0..100 {
            cc.on_ack(0, MSS);
        }
        cc.on_timeout(0);
        assert_eq!(cc.cwnd(), MSS);
        assert!(cc.in_slow_start());
        assert!(cc.ssthresh() >= 2 * MSS);
    }

    #[test]
    fn cbrt_is_accurate_and_deterministic() {
        for &x in &[8.0, 27.0, 1.0, 1e-9, 729.0, 123456.789, 0.3, 4e12] {
            let got = cbrt_det(x);
            let rel = ((got * got * got - x) / x).abs();
            assert!(rel < 1e-12, "cbrt({x}) = {got} (rel err {rel})");
            // Bit-stable across calls (pure function of x).
            assert_eq!(got.to_bits(), cbrt_det(x).to_bits());
        }
        assert_eq!(cbrt_det(0.0), 0.0);
        assert_eq!(cbrt_det(-5.0), 0.0);
    }

    #[test]
    fn cubic_reduces_by_beta_and_regrows() {
        let mut cc = Cubic::new(MSS);
        for _ in 0..200 {
            cc.on_ack(0, MSS);
        }
        let w = cc.cwnd();
        cc.on_fast_retransmit(1_000_000);
        assert!(cc.in_recovery());
        let expect = ((f64::from(w) / f64::from(MSS)) * CUBIC_BETA * f64::from(MSS)) as u32;
        assert_eq!(cc.cwnd(), expect.max(2 * MSS), "β=0.7 reduction");
        // Window regrows toward (and past) W_max as simulated time passes
        // (K is seconds here: W_max/MSS ≈ 210 segments ⇒ K ≈ 5.4 s).
        let mut now = 1_000_000u64;
        let mut grew_past = false;
        for _ in 0..20_000 {
            now += 2_000;
            cc.on_ack(now, MSS);
            if cc.cwnd() > w {
                grew_past = true;
                break;
            }
        }
        assert!(grew_past, "cubic regrew past W_max: {} vs {w}", cc.cwnd());
    }

    #[test]
    fn cubic_timeout_collapses_to_one_mss() {
        let mut cc = Cubic::new(MSS);
        for _ in 0..100 {
            cc.on_ack(0, MSS);
        }
        cc.on_timeout(50_000);
        assert_eq!(cc.cwnd(), MSS);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn algo_builder_and_names() {
        let r = CcAlgo::Reno.build(MSS);
        let c = CcAlgo::Cubic.build(MSS);
        assert_eq!(r.name(), "reno");
        assert_eq!(c.name(), "cubic");
        assert_eq!(r.cwnd(), c.cwnd());
        assert_eq!(CcAlgo::default(), CcAlgo::Reno);
        // Clones preserve state.
        let mut r2 = r.clone();
        r2.on_ack(0, MSS);
        assert_eq!(r2.cwnd(), r.cwnd() + MSS);
    }
}
