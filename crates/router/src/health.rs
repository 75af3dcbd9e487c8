//! Per-cluster health: a circuit breaker fed by request outcomes.
//!
//! The router counts consecutive **transport** failures per cluster
//! (typed refusals are answers, not failures). Past the threshold the
//! breaker opens and requests fail fast with a typed
//! [`RouterError::CircuitOpen`](crate::RouterError::CircuitOpen)
//! instead of burning a connect timeout per call against a dead
//! cluster. After the cooldown one probe request is let through
//! (half-open); its outcome closes or re-opens the circuit.

use std::time::{Duration, Instant};

use ctxpref_faults::clock;

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive transport failures before the circuit opens.
    pub threshold: u32,
    /// How long an open circuit rejects before letting one probe
    /// through.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// The observable state of one cluster's circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe is in flight; its outcome decides.
    HalfOpen,
}

/// One cluster's circuit breaker.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    state: BreakerState,
    failures: u32,
    opened_at: Option<Instant>,
}

impl Breaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            failures: 0,
            opened_at: None,
        }
    }

    /// The current state (transitions Open → HalfOpen lazily, on
    /// inspection).
    pub fn state(&mut self) -> BreakerState {
        if self.state == BreakerState::Open {
            let elapsed = self.opened_at.map(clock::elapsed).unwrap_or(Duration::ZERO);
            if elapsed >= self.cfg.cooldown {
                self.state = BreakerState::HalfOpen;
            }
        }
        self.state
    }

    /// Whether a request may proceed right now. An open circuit whose
    /// cooldown has elapsed flips to half-open and admits the probe.
    pub fn allow(&mut self) -> bool {
        self.state() != BreakerState::Open
    }

    /// A request reached the cluster and got an answer (any typed
    /// answer counts — the transport works).
    pub fn on_success(&mut self) {
        self.failures = 0;
        self.state = BreakerState::Closed;
        self.opened_at = None;
    }

    /// A request failed at the transport layer on every endpoint.
    pub fn on_failure(&mut self) {
        match self.state() {
            // The half-open probe failed: straight back to open, fresh
            // cooldown.
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = Some(clock::now());
            }
            BreakerState::Open => {}
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.cfg.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(clock::now());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_and_half_opens_after_cooldown() {
        let mut b = Breaker::new(BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(20),
        });
        assert!(b.allow());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());

        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow(), "cooldown elapsed: the probe must be admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);

        // Probe fails: straight back to open.
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);

        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow());
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = Breaker::new(BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(10),
        });
        b.on_failure();
        b.on_failure();
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "the streak must reset on success"
        );
    }
}
