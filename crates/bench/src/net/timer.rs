//! A hashed timer wheel for connection deadlines.
//!
//! Non-blocking sockets cannot carry `SO_RCVTIMEO`-style deadlines, so the
//! event loop arms entries here instead: read deadlines at accept / first
//! byte, write deadlines when a response starts flushing. Entries hash into
//! `deadline / granularity % slots`; [`TimerWheel::advance`] walks the
//! cursor over elapsed ticks and fires everything whose tick has been
//! reached, re-homing entries that wrapped a full rotation.
//!
//! Cancellation is lazy — the owner keeps the authoritative deadline per
//! connection and ignores fired entries that no longer match, so disarming
//! is free and stale entries cost one tuple until their tick drains.

/// Timer precision and capacity are fixed per wheel at construction.
pub struct TimerWheel {
    granularity_ms: u64,
    slots: Vec<Vec<Entry>>,
    /// Next tick to drain; everything before it has already fired.
    cursor_tick: u64,
    /// Live entries (including lazily-cancelled ones not yet drained) — an
    /// upper bound the event loop uses to pick its wait timeout.
    armed: usize,
}

#[derive(Clone, Copy)]
struct Entry {
    deadline_ms: u64,
    token: u64,
}

impl TimerWheel {
    pub fn new(granularity_ms: u64, n_slots: usize) -> Self {
        TimerWheel {
            granularity_ms: granularity_ms.max(1),
            slots: vec![Vec::new(); n_slots.max(2)],
            cursor_tick: 0,
            armed: 0,
        }
    }

    /// `true` when nothing is armed — the event loop may block forever.
    pub fn is_idle(&self) -> bool {
        self.armed == 0
    }

    /// Arms `token` to fire once `deadline_ms` is reached. Deadlines in the
    /// past (relative to the cursor) fire on the next [`advance`].
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn schedule(&mut self, deadline_ms: u64, token: u64) {
        let tick = (deadline_ms / self.granularity_ms).max(self.cursor_tick);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry { deadline_ms, token });
        self.armed += 1;
    }

    /// Drains every tick up to `now_ms`, appending fired `(token,
    /// deadline_ms)` pairs to `expired`. Entries whose tick lies beyond the
    /// drained range (a wheel wrap) stay put for a later rotation.
    pub fn advance(&mut self, now_ms: u64, expired: &mut Vec<(u64, u64)>) {
        let target = now_ms / self.granularity_ms;
        let n = self.slots.len() as u64;
        // A long sleep can skip many rotations; every slot only needs one
        // visit, so cap the walk at one full turn of the wheel. When the
        // cursor is already ahead of `now` (it advances a full tick at a
        // time), sweep just the cursor slot — that is where `schedule`
        // clamps already-expired deadlines.
        let (first, last) = if target < self.cursor_tick {
            (self.cursor_tick, self.cursor_tick)
        } else if target - self.cursor_tick >= n {
            (target + 1 - n, target)
        } else {
            (self.cursor_tick, target)
        };
        let granularity = self.granularity_ms;
        let mut fired = 0usize;
        for tick in first..=last {
            let slot = (tick % n) as usize;
            self.slots[slot].retain(|e| {
                if e.deadline_ms / granularity <= target {
                    expired.push((e.token, e.deadline_ms));
                    fired += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.armed -= fired;
        self.cursor_tick = self.cursor_tick.max(target + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(wheel: &mut TimerWheel, now_ms: u64) -> Vec<u64> {
        let mut out = Vec::new();
        wheel.advance(now_ms, &mut out);
        out.into_iter().map(|(token, _)| token).collect()
    }

    #[test]
    fn fires_at_the_deadline_not_before() {
        let mut w = TimerWheel::new(10, 32);
        w.schedule(95, 1);
        assert!(fired(&mut w, 80).is_empty());
        assert_eq!(fired(&mut w, 100), vec![1]);
        assert!(w.is_idle());
        // Firing is one-shot.
        assert!(fired(&mut w, 200).is_empty());
    }

    #[test]
    fn wrapped_entries_wait_a_full_rotation() {
        let mut w = TimerWheel::new(10, 8); // one rotation = 80ms
        w.schedule(25, 1);
        w.schedule(105, 2); // same slot as token 1, next rotation
        assert_eq!(fired(&mut w, 30), vec![1]);
        assert!(fired(&mut w, 90).is_empty(), "wrapped entry fired early");
        assert_eq!(fired(&mut w, 110), vec![2]);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let mut w = TimerWheel::new(10, 8);
        assert!(fired(&mut w, 500).is_empty());
        w.schedule(100, 7); // already in the past
        assert_eq!(fired(&mut w, 501), vec![7]);
    }

    #[test]
    fn long_sleeps_drain_every_slot_once() {
        let mut w = TimerWheel::new(10, 8);
        for t in 0..16 {
            w.schedule(t * 7 + 1, t);
        }
        let mut out = Vec::new();
        // Jump far past everything (many whole rotations).
        w.advance(10_000, &mut out);
        assert_eq!(out.len(), 16);
        assert!(w.is_idle());
    }

    #[test]
    fn advance_reports_the_original_deadline_for_lazy_cancellation() {
        let mut w = TimerWheel::new(10, 8);
        w.schedule(40, 3);
        w.schedule(60, 3); // re-armed: the owner only honours the newest
        let mut out = Vec::new();
        w.advance(100, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(3, 40), (3, 60)]);
    }
}
