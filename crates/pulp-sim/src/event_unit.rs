//! Cluster event unit: barriers, parallel-region forks, critical lock.
//!
//! On PULP the event unit implements hardware-accelerated barriers and
//! drives the clock gating of cores sleeping on them. This model keeps the
//! same observable behaviour: cores arriving at a barrier are clock-gated
//! until the last participant arrives; workers waiting for a fork sleep
//! until the master signals the region; a single cluster-wide lock backs
//! `#pragma omp critical`.

/// State of the cluster event unit.
#[derive(Debug, Clone)]
pub struct EventUnit {
    arrived: Vec<bool>,
    arrived_count: usize,
    team: usize,
    /// Monotonic count of forks signalled by the master.
    forks_signalled: u64,
    /// Core currently holding the critical lock.
    lock_holder: Option<usize>,
    /// `Some(n)`: the last core arrived; the release broadcast fires after
    /// `n` more end-of-cycle ticks.
    release_countdown: Option<u32>,
}

impl EventUnit {
    /// Creates an event unit for a team of `team` cores.
    ///
    /// # Panics
    ///
    /// Panics if `team` is zero.
    pub fn new(team: usize) -> Self {
        assert!(team > 0, "team must be non-empty");
        Self {
            arrived: vec![false; team],
            arrived_count: 0,
            team,
            forks_signalled: 0,
            lock_holder: None,
            release_countdown: None,
        }
    }

    /// Arms the release broadcast: it fires after `latency` more
    /// end-of-cycle [`EventUnit::tick_release`] calls.
    pub fn schedule_release(&mut self, latency: u32) {
        self.release_countdown = Some(latency);
    }

    /// End-of-cycle tick of the pending release countdown.
    ///
    /// Returns `true` exactly once per armed release, on the cycle the
    /// broadcast fires (the caller must then wake sleepers and call
    /// [`EventUnit::release_barrier`]).
    pub fn tick_release(&mut self) -> bool {
        match self.release_countdown {
            Some(0) => {
                self.release_countdown = None;
                true
            }
            Some(n) => {
                self.release_countdown = Some(n - 1);
                false
            }
            None => false,
        }
    }

    /// Ticks remaining until the pending release fires (`None` when no
    /// release is armed). This bounds the fast-forward event horizon: the
    /// firing cycle itself must run single-step because it wakes sleepers.
    pub fn release_in(&self) -> Option<u32> {
        self.release_countdown
    }

    /// Bulk-applies `n` end-of-cycle ticks to the pending release countdown
    /// (fast-forward path). `n` must not reach the firing cycle.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n` exceeds the remaining countdown.
    pub fn skip_release_wait(&mut self, n: u64) {
        if let Some(k) = self.release_countdown {
            debug_assert!(
                n <= u64::from(k),
                "bulk advance of {n} ticks overruns release countdown {k}"
            );
            self.release_countdown = Some(k - n as u32);
        }
    }

    /// The unit's state as numbers: arrivals, forks signalled, the lock
    /// holder and the pending release (`u64::MAX` for none). A stretch
    /// that leaves them unchanged had no arrival, fork or release.
    pub(crate) fn period_key(&self) -> [u64; 4] {
        [
            self.arrived_count as u64,
            self.forks_signalled,
            self.lock_holder.map_or(u64::MAX, |c| c as u64),
            self.release_countdown.map_or(u64::MAX, u64::from),
        ]
    }

    /// Registers `core`'s arrival at the barrier.
    ///
    /// Returns `true` when this arrival completes the barrier (caller must
    /// then [`EventUnit::release_barrier`]).
    ///
    /// # Panics
    ///
    /// Panics if the core already arrived (a core cannot arrive twice at the
    /// same barrier episode).
    pub fn arrive(&mut self, core: usize) -> bool {
        assert!(!self.arrived[core], "core {core} arrived twice");
        self.arrived[core] = true;
        self.arrived_count += 1;
        self.arrived_count == self.team
    }

    /// Resets the barrier for the next episode.
    pub fn release_barrier(&mut self) {
        self.arrived.iter_mut().for_each(|a| *a = false);
        self.arrived_count = 0;
    }

    /// Signals one fork (master side).
    pub fn signal_fork(&mut self) {
        self.forks_signalled += 1;
    }

    /// Returns `true` if fork number `seq` (0-based) has been signalled.
    pub fn fork_ready(&self, seq: u64) -> bool {
        self.forks_signalled > seq
    }

    /// Attempts to take the critical lock for `core`.
    ///
    /// Returns `true` on acquisition; re-entrant acquisition is a bug and
    /// panics.
    ///
    /// # Panics
    ///
    /// Panics if `core` already holds the lock.
    pub fn try_lock(&mut self, core: usize) -> bool {
        match self.lock_holder {
            None => {
                self.lock_holder = Some(core);
                true
            }
            Some(h) => {
                assert!(h != core, "core {core} re-acquired the critical lock");
                false
            }
        }
    }

    /// Releases the critical lock held by `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` does not hold the lock.
    pub fn unlock(&mut self, core: usize) {
        assert_eq!(
            self.lock_holder,
            Some(core),
            "core {core} released a lock it does not hold"
        );
        self.lock_holder = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_completes_on_last_arrival() {
        let mut eu = EventUnit::new(3);
        assert!(!eu.arrive(0));
        assert!(!eu.arrive(2));
        assert!(eu.arrive(1));
        eu.release_barrier();
        // Reusable for the next episode.
        assert!(!eu.arrive(1));
        assert!(!eu.arrive(0));
        assert!(eu.arrive(2));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut eu = EventUnit::new(2);
        eu.arrive(0);
        eu.arrive(0);
    }

    #[test]
    fn fork_sequencing() {
        let mut eu = EventUnit::new(2);
        assert!(!eu.fork_ready(0));
        eu.signal_fork();
        assert!(eu.fork_ready(0));
        assert!(!eu.fork_ready(1));
        eu.signal_fork();
        assert!(eu.fork_ready(1));
    }

    #[test]
    fn release_countdown_fires_after_latency_ticks() {
        let mut eu = EventUnit::new(2);
        assert!(!eu.tick_release(), "nothing armed");
        eu.schedule_release(2);
        assert_eq!(eu.release_in(), Some(2));
        assert!(!eu.tick_release());
        assert!(!eu.tick_release());
        assert_eq!(eu.release_in(), Some(0));
        assert!(eu.tick_release(), "fires on the zero tick");
        assert_eq!(eu.release_in(), None);
        assert!(!eu.tick_release(), "fires exactly once");
    }

    #[test]
    fn zero_latency_release_fires_on_next_tick() {
        let mut eu = EventUnit::new(2);
        eu.schedule_release(0);
        assert!(eu.tick_release());
    }

    #[test]
    fn skip_release_wait_matches_repeated_ticks() {
        let mut bulk = EventUnit::new(2);
        let mut single = EventUnit::new(2);
        bulk.schedule_release(48);
        single.schedule_release(48);
        bulk.skip_release_wait(40);
        for _ in 0..40 {
            assert!(!single.tick_release());
        }
        assert_eq!(bulk.release_in(), single.release_in());
        // No-op without an armed release.
        let mut idle = EventUnit::new(2);
        idle.skip_release_wait(1_000);
        assert_eq!(idle.release_in(), None);
    }

    #[test]
    fn critical_lock_is_exclusive() {
        let mut eu = EventUnit::new(2);
        assert!(eu.try_lock(0));
        assert!(!eu.try_lock(1));
        eu.unlock(0);
        assert!(eu.try_lock(1));
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlock_requires_ownership() {
        let mut eu = EventUnit::new(2);
        assert!(eu.try_lock(0));
        eu.unlock(1);
    }
}
