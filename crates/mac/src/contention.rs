//! The CSMA/CA contention phase (steps 1–3 of the paper's CSMA/CA
//! listing): wait for the medium to be idle for DIFS, then count down a
//! random backoff drawn from the contention window, freezing whenever the
//! medium goes busy.

use rand::rngs::SmallRng;
use rand::Rng;

/// A single contention phase. Create (or [`Contention::begin`]) one per
/// medium-access attempt; poll it once per slot with the local carrier
/// sense; it reports `true` exactly once, on the slot the station may
/// transmit.
#[derive(Debug, Clone)]
pub struct Contention {
    backoff: u32,
    idle_run: u32,
    active: bool,
}

impl Contention {
    /// An inactive contention (never grants access until `begin`).
    pub fn idle() -> Self {
        Contention {
            backoff: 0,
            idle_run: 0,
            active: false,
        }
    }

    /// Starts a contention phase with backoff drawn uniformly from
    /// `0..=cw`.
    pub fn begin(&mut self, cw: u32, rng: &mut SmallRng) {
        self.backoff = rng.random_range(0..=cw);
        self.idle_run = 0;
        self.active = true;
    }

    /// Whether a contention phase is in progress.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Remaining backoff slots (for inspection/tests).
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Consecutive idle slots accumulated toward the DIFS requirement.
    pub fn idle_run(&self) -> u32 {
        self.idle_run
    }

    /// Applies the effect of one (or more) busy slots without polling:
    /// the DIFS idle run restarts, the backoff counter survives. Used by
    /// the event-horizon fast path to replay a NAV-busy gap in O(1).
    pub fn freeze(&mut self) {
        if self.active {
            self.idle_run = 0;
        }
    }

    /// Replays `slots` consecutive idle polls in one call — the engine
    /// fast-forwarded over them, having proven the medium idle. The gap
    /// must end strictly before the access grant: the engine never
    /// skips past a station's wakeup hint, and the grant slot is hinted.
    /// Closed form: each poll extends the idle run, and each one past
    /// DIFS takes one slot off the backoff.
    pub fn advance_idle(&mut self, slots: u64, difs: u32) {
        if !self.active {
            return;
        }
        debug_assert!(
            self.slots_to_grant(difs).is_none_or(|g| slots < g),
            "idle replay of {slots} slots crosses the access grant"
        );
        let slots = u32::try_from(slots).expect("an idle replay stops short of the grant");
        let past_difs = slots.saturating_sub(difs.saturating_sub(self.idle_run));
        self.idle_run += slots;
        self.backoff -= past_difs;
    }

    /// Number of consecutive idle polls from here until this contention
    /// grants access (`None` when inactive): the remaining DIFS run,
    /// the backoff countdown, and the granting poll itself.
    pub fn slots_to_grant(&self, difs: u32) -> Option<u64> {
        if !self.active {
            return None;
        }
        Some(u64::from(difs.saturating_sub(self.idle_run)) + u64::from(self.backoff) + 1)
    }

    /// Advances the contention by one slot. `busy` is the carrier-sense
    /// state (medium busy during the previous slot, or virtual carrier
    /// sense via NAV). Returns `true` when the station wins access and
    /// may transmit *this* slot; the contention then deactivates.
    pub fn poll(&mut self, busy: bool, difs: u32) -> bool {
        if !self.active {
            return false;
        }
        if busy {
            // Freeze: the backoff counter survives, but a fresh DIFS of
            // idle is required before it resumes (802.11 DCF rule 3b).
            self.idle_run = 0;
            return false;
        }
        self.idle_run += 1;
        if self.idle_run <= difs {
            return false;
        }
        if self.backoff == 0 {
            self.active = false;
            return true;
        }
        self.backoff -= 1;
        false
    }
}

/// Binary exponential backoff: the next contention window after a failed
/// attempt with window `cw`, capped at `cw_max`.
pub fn next_cw(cw: u32, cw_max: u32) -> u32 {
    ((cw + 1) * 2 - 1).min(cw_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    /// Polls with an all-idle medium until access, returning the number of
    /// slots taken.
    fn slots_to_access(c: &mut Contention, difs: u32) -> u32 {
        for i in 1..10_000 {
            if c.poll(false, difs) {
                return i;
            }
        }
        panic!("contention never granted access");
    }

    #[test]
    fn zero_backoff_takes_difs_plus_one() {
        let mut c = Contention::idle();
        let mut r = rng();
        // Force backoff 0 by using cw = 0.
        c.begin(0, &mut r);
        assert_eq!(slots_to_access(&mut c, 4), 5);
    }

    #[test]
    fn backoff_adds_slots() {
        let mut r = rng();
        // With cw = 0 the backoff is always 0; larger draws take
        // difs + 1 + backoff slots.
        for _ in 0..50 {
            let mut c = Contention::idle();
            c.begin(7, &mut r);
            let b = c.backoff();
            assert_eq!(slots_to_access(&mut c, 4), 5 + b);
        }
    }

    #[test]
    fn busy_slot_resets_difs_but_keeps_backoff() {
        let mut c = Contention::idle();
        let mut r = rng();
        loop {
            c.begin(7, &mut r);
            if c.backoff() >= 2 {
                break;
            }
        }
        let b0 = c.backoff();
        // Let the backoff advance by exactly one slot past DIFS.
        for _ in 0..4 {
            assert!(!c.poll(false, 4));
        }
        assert!(!c.poll(false, 4)); // first decrement
        assert_eq!(c.backoff(), b0 - 1);
        // Medium busy: counter freezes.
        assert!(!c.poll(true, 4));
        assert_eq!(c.backoff(), b0 - 1);
        // Must re-earn DIFS before further decrements.
        for _ in 0..4 {
            assert!(!c.poll(false, 4));
            assert_eq!(c.backoff(), b0 - 1);
        }
        assert!(!c.poll(false, 4));
        assert_eq!(c.backoff(), b0 - 2);
    }

    #[test]
    fn inactive_contention_never_grants() {
        let mut c = Contention::idle();
        for _ in 0..100 {
            assert!(!c.poll(false, 4));
        }
    }

    #[test]
    fn grants_exactly_once() {
        let mut c = Contention::idle();
        let mut r = rng();
        c.begin(3, &mut r);
        let mut grants = 0;
        for _ in 0..100 {
            if c.poll(false, 4) {
                grants += 1;
            }
        }
        assert_eq!(grants, 1);
        assert!(!c.is_active());
    }

    #[test]
    fn slots_to_grant_predicts_poll_count() {
        let mut r = rng();
        for _ in 0..50 {
            let mut c = Contention::idle();
            c.begin(15, &mut r);
            // Wind forward a random number of idle slots, freezing once
            // along the way, and check the prediction at every point.
            assert!(!c.poll(false, 4));
            assert!(!c.poll(true, 4));
            loop {
                let predicted = c.slots_to_grant(4).expect("active");
                let mut probe = c.clone();
                let mut polls = 0u64;
                while !probe.poll(false, 4) {
                    polls += 1;
                }
                assert_eq!(polls + 1, predicted);
                if predicted == 1 {
                    assert!(c.poll(false, 4));
                    break;
                }
                assert!(!c.poll(false, 4));
            }
            assert_eq!(c.slots_to_grant(4), None, "inactive after grant");
        }
    }

    #[test]
    fn advance_idle_matches_slotwise_polling() {
        let mut r = rng();
        for cw in [0, 15, 255, 1023] {
            for _ in 0..20 {
                let mut start = Contention::idle();
                start.begin(cw, &mut r);
                // Some starts sit part-way into DIFS, some after a busy
                // slot reset it.
                let warm = r.random_range(0..=6u32);
                for i in 0..warm {
                    assert!(!start.poll(i == 3, 4));
                }
                let limit = start.slots_to_grant(4).expect("active");
                for gap in (0..limit).filter(|g| *g < 12 || g % 37 == 0 || *g + 1 == limit) {
                    let mut a = start.clone();
                    let mut b = start.clone();
                    a.advance_idle(gap, 4);
                    for _ in 0..gap {
                        assert!(!b.poll(false, 4));
                    }
                    assert_eq!(a.backoff(), b.backoff(), "cw {cw}, gap {gap}");
                    assert_eq!(a.idle_run(), b.idle_run(), "cw {cw}, gap {gap}");
                    assert_eq!(a.is_active(), b.is_active());
                    assert_eq!(a.slots_to_grant(4), b.slots_to_grant(4));
                }
            }
        }
    }

    #[test]
    fn freeze_matches_busy_poll() {
        let mut r = rng();
        let mut a = Contention::idle();
        a.begin(7, &mut r);
        for _ in 0..3 {
            a.poll(false, 4);
        }
        let mut b = a.clone();
        a.freeze();
        assert!(!b.poll(true, 4));
        assert_eq!(a.backoff(), b.backoff());
        assert_eq!(a.idle_run(), b.idle_run());
        assert_eq!(a.idle_run(), 0);
    }

    #[test]
    fn next_cw_doubles_and_caps() {
        assert_eq!(next_cw(7, 255), 15);
        assert_eq!(next_cw(15, 255), 31);
        assert_eq!(next_cw(255, 255), 255);
        assert_eq!(next_cw(200, 255), 255);
    }

    #[test]
    fn backoff_is_within_window() {
        let mut r = rng();
        let mut c = Contention::idle();
        for _ in 0..200 {
            c.begin(7, &mut r);
            assert!(c.backoff() <= 7);
        }
    }

    #[test]
    fn backoff_draws_are_roughly_uniform() {
        let mut r = rng();
        let mut c = Contention::idle();
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            c.begin(7, &mut r);
            counts[c.backoff() as usize] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&count),
                "draw {i} occurred {count} times, expected ≈ 1000"
            );
        }
    }
}
