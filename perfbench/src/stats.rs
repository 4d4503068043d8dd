//! Pure measurement helpers: the percentile rule, open-loop lateness
//! accounting, the stepped SLO search, and a seeded random stream.
//! Everything here is deterministic and unit-tested.

/// Nearest-rank index of percentile `p` (0–100] in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // The tolerance keeps decimal percentiles exact (99.9% of 10 000 is
    // rank 9 990, not 9 991 after rounding error).
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How many samples lie beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(p, n)
}

/// The percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The rule for reporting a tail: the highest percentile on the ladder
/// that has at least ten samples beyond it. `None` below 20 samples.
pub fn reportable_tail(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| samples_beyond(p, n) >= 10)
}

/// Nearest-rank percentile of unsorted `values` (`None` when empty).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len())])
}

/// The median, by the same nearest-rank rule.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// A `_p99` metric: the 99th percentile, or an error naming the metric
/// when fewer than ten samples lie beyond it (fewer than 1 000 samples).
pub fn p99_checked(name: &str, values: &[f64]) -> Result<f64, String> {
    if samples_beyond(99.0, values.len()) < 10 {
        return Err(format!(
            "{name}: {} samples leave fewer than 10 beyond the 99th percentile (need 1000)",
            values.len()
        ));
    }
    Ok(percentile(values, 99.0).expect("non-empty"))
}

/// One open-loop request as the generator saw it, in seconds since the
/// start of the load: when it was due, when it went out, and when its
/// terminal response arrived (`None` if it never did).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: f64,
    pub sent: f64,
    pub done: Option<f64>,
}

impl Timing {
    /// Latency from the *due* time, so a generator stall is charged to
    /// every request it delayed.
    pub fn latency(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }

    /// How late the generator put the request on the wire.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Whether one load step met the latency limit: at most 1% of its
/// requests (counting unanswered ones) took longer than `limit`
/// seconds, and the backlog did not grow: the least-squares trend of
/// latency over the step's due times adds less than half the limit
/// across the step.
pub fn step_meets_slo(timings: &[Timing], limit: f64) -> bool {
    if timings.is_empty() {
        return false;
    }
    let over = timings
        .iter()
        .filter(|t| t.latency().is_none_or(|l| l > limit))
        .count();
    if over * 100 > timings.len() {
        return false;
    }
    let points: Vec<(f64, f64)> = timings
        .iter()
        .filter_map(|t| t.latency().map(|l| (t.due, l)))
        .collect();
    let n = points.len() as f64;
    let mean_t = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_l = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_t).powi(2)).sum();
    if sxx == 0.0 {
        return true;
    }
    let slope = points
        .iter()
        .map(|p| (p.0 - mean_t) * (p.1 - mean_l))
        .sum::<f64>()
        / sxx;
    let span = points.iter().map(|p| p.0).fold(f64::MIN, f64::max)
        - points.iter().map(|p| p.0).fold(f64::MAX, f64::min);
    slope * span < 0.5 * limit
}

/// The stepped search for the highest offered rate that meets the SLO.
/// Rates grow by `growth` from `start` until a step fails (or `max` is
/// passed), then `refine` bisections between the last passing and the
/// first failing rate narrow the answer. A rate fails only when two
/// probes in a row fail, so one stall of the host does not end the
/// search. Returns the highest rate that passed (0 if even `start`
/// failed) and every `(rate, passed)` probe.
pub fn slo_search(
    start: f64,
    growth: f64,
    max: f64,
    refine: usize,
    mut passes: impl FnMut(f64) -> bool,
) -> (f64, Vec<(f64, bool)>) {
    let mut steps = Vec::new();
    let mut probe = |rate: f64| {
        for _ in 0..2 {
            let ok = passes(rate);
            steps.push((rate, ok));
            if ok {
                return true;
            }
        }
        false
    };
    let mut good = 0.0;
    let mut bad = None;
    let mut rate = start;
    while rate <= max {
        if probe(rate) {
            good = rate;
            rate *= growth;
        } else {
            bad = Some(rate);
            break;
        }
    }
    if let Some(mut bad) = bad {
        if good > 0.0 {
            for _ in 0..refine {
                let mid = 0.5 * (good + bad);
                if probe(mid) {
                    good = mid;
                } else {
                    bad = mid;
                }
            }
        }
    }
    (good, steps)
}

/// SplitMix64: a tiny seeded stream for workload inputs, so the inputs
/// depend only on the seed and never on the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Poisson arrival times in `[0, duration)` seconds at `rate` per second.
pub fn poisson_schedule(rng: &mut SplitMix, rate: f64, duration: f64) -> Vec<f64> {
    let mut t = rng.exp_gap(rate);
    let mut out = Vec::new();
    while t < duration {
        out.push(t);
        t += rng.exp_gap(rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(reportable_tail(19), None);
        assert_eq!(reportable_tail(20), Some(50.0));
        assert_eq!(reportable_tail(40), Some(75.0));
        assert_eq!(reportable_tail(100), Some(90.0));
        assert_eq!(reportable_tail(999), Some(95.0));
        assert_eq!(reportable_tail(1000), Some(99.0));
        assert_eq!(reportable_tail(10_000), Some(99.9));
        for n in [20, 57, 240, 1000, 4321, 10_000] {
            let p = reportable_tail(n).expect("enough samples");
            assert!(samples_beyond(p, n) >= 10, "n = {n}, p = {p}");
        }
    }

    #[test]
    fn p99_metric_fails_with_too_few_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        let err = p99_checked("hit_ms_p99", &few).unwrap_err();
        assert!(err.contains("hit_ms_p99"), "{err}");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        // Nearest rank: the 990th smallest, with 10 samples above it.
        assert_eq!(p99_checked("hit_ms_p99", &enough), Ok(989.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn lateness_is_charged_from_the_due_time() {
        // The generator stalls 50 ms before the second request: it goes
        // out late, and its latency includes the stall even though the
        // server answered it 2 ms after it arrived.
        let on_time = Timing {
            due: 1.0,
            sent: 1.0,
            done: Some(1.002),
        };
        let stalled = Timing {
            due: 1.010,
            sent: 1.060,
            done: Some(1.062),
        };
        assert!((on_time.latency().unwrap() - 0.002).abs() < 1e-12);
        assert!((stalled.lag() - 0.050).abs() < 1e-12);
        assert!((stalled.latency().unwrap() - 0.052).abs() < 1e-12);
        // Sent early (clock jitter) never counts as negative lag.
        let early = Timing {
            due: 2.0,
            sent: 1.999,
            done: Some(2.001),
        };
        assert_eq!(early.lag(), 0.0);
        let lost = Timing {
            due: 3.0,
            sent: 3.0,
            done: None,
        };
        assert_eq!(lost.latency(), None);
    }

    fn steady(n: usize, latency: f64) -> Vec<Timing> {
        (0..n)
            .map(|i| {
                let due = i as f64 * 0.01;
                Timing {
                    due,
                    sent: due,
                    done: Some(due + latency),
                }
            })
            .collect()
    }

    #[test]
    fn step_verdicts() {
        assert!(step_meets_slo(&steady(300, 0.010), 0.050));
        assert!(!step_meets_slo(&steady(300, 0.060), 0.050));
        // Two slow answers in 300 stay within the 1% allowance, four do not.
        let mut some_slow = steady(300, 0.010);
        for t in some_slow.iter_mut().take(2) {
            t.done = Some(t.due + 0.5);
        }
        assert!(step_meets_slo(&some_slow, 0.050));
        for t in some_slow.iter_mut().take(4) {
            t.done = None;
        }
        assert!(!step_meets_slo(&some_slow, 0.050));
        // A backlog growing linearly, still under the limit at the end.
        let growing: Vec<Timing> = (0..300)
            .map(|i| {
                let due = i as f64 * 0.01;
                Timing {
                    due,
                    sent: due,
                    done: Some(due + 0.001 + 0.0001 * i as f64),
                }
            })
            .collect();
        assert!(!step_meets_slo(&growing, 0.050));
        assert!(!step_meets_slo(&[], 0.050));
    }

    #[test]
    fn slo_search_finds_the_knee_of_a_synthetic_curve() {
        // Queueing-like p99 curve: 10 ms / (1 - rate / 500). The limit of
        // 40 ms is met up to 375 req/s.
        let p99_ms = |rate: f64| {
            if rate >= 500.0 {
                f64::INFINITY
            } else {
                10.0 / (1.0 - rate / 500.0)
            }
        };
        let (best, steps) = slo_search(50.0, 2.0, 10_000.0, 6, |r| p99_ms(r) <= 40.0);
        // Six bisections of [200, 400] leave a 3.125 req/s bracket.
        assert!(best <= 375.0 && best > 371.0, "best = {best}");
        // 50, 100, 200 pass; 400 fails twice; the bisections 300, 350
        // and 375 pass and 387.5, 381.25 and 378.125 fail twice each.
        assert_eq!(steps.len(), 3 + 2 + 3 + 3 * 2);
        assert!(steps.iter().all(|&(r, ok)| ok == (p99_ms(r) <= 40.0)));
        assert_eq!(
            steps
                .iter()
                .filter(|(_, ok)| *ok)
                .map(|(r, _)| *r)
                .fold(0.0, f64::max),
            best
        );
    }

    #[test]
    fn slo_search_edges() {
        let (best, steps) = slo_search(50.0, 2.0, 10_000.0, 4, |_| false);
        assert_eq!(best, 0.0);
        assert_eq!(steps.len(), 2, "no bisection below a failed start");
        // One stalled probe is retried, not taken as the answer.
        let mut first = true;
        let (best, _) = slo_search(50.0, 2.0, 200.0, 0, |_| !std::mem::take(&mut first));
        assert_eq!(best, 200.0);
        let (best, _) = slo_search(50.0, 2.0, 1_000.0, 4, |_| true);
        assert_eq!(best, 800.0, "never exceeds the cap");
    }

    #[test]
    fn splitmix_is_seeded_and_poisson_rate_is_right() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let sched = poisson_schedule(&mut SplitMix::new(3), 200.0, 50.0);
        let rate = sched.len() as f64 / 50.0;
        assert!((rate - 200.0).abs() < 10.0, "rate = {rate}");
        assert!(sched.windows(2).all(|w| w[0] < w[1]));
    }
}
