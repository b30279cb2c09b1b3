//! Delivery-timestamp synthesis: Figure 2's monthly series as actual
//! instants.

use crate::spec::CorpusSpec;
use cb_sim::rng::Rng;
use cb_sim::rng::StdRng;
use cb_sim::{SimDuration, SimTime};

/// `(year, month)` for each index of the 2024 window (Jan–Oct).
pub fn months_2024() -> [(i64, u32); 10] {
    [
        (2024, 1),
        (2024, 2),
        (2024, 3),
        (2024, 4),
        (2024, 5),
        (2024, 6),
        (2024, 7),
        (2024, 8),
        (2024, 9),
        (2024, 10),
    ]
}

/// Days in the given month (delegating to the sim calendar).
fn days_in_month(year: i64, month: u32) -> u32 {
    let start = SimTime::from_ymd(year, month, 1);
    let next = if month == 12 {
        SimTime::from_ymd(year + 1, 1, 1)
    } else {
        SimTime::from_ymd(year, month + 1, 1)
    };
    (next - start).as_days() as u32
}

/// Draw one delivery instant inside `(year, month)`: business days and
/// hours preferred (phishing rides the workday — the reported messages are
/// corporate mail).
pub fn delivery_instant(rng: &mut StdRng, year: i64, month: u32) -> SimTime {
    let dim = days_in_month(year, month);
    // retry a few times to prefer weekdays
    for _ in 0..4 {
        let day = rng.gen_range(1..=dim);
        let t = SimTime::from_ymd_hms(
            year,
            month,
            day,
            rng.gen_range(7..19),
            rng.gen_range(0..60),
            rng.gen_range(0..60),
        );
        // weekday check: 1970-01-01 was a Thursday (weekday 4 if Mon=0)
        let weekday = (t.as_unix().div_euclid(86_400) + 3).rem_euclid(7);
        if weekday < 5 {
            return t;
        }
    }
    SimTime::from_ymd_hms(year, month, 1.max(dim / 2), 10, 30, 0)
}

/// The scaled per-month message counts for the 2024 window.
pub fn scaled_monthly(spec: &CorpusSpec) -> [usize; 10] {
    let mut out = [0usize; 10];
    for (i, &n) in spec.monthly_2024.iter().enumerate() {
        out[i] = spec.scaled(n);
    }
    out
}

/// All delivery instants for the corpus, month by month (chronological
/// within the window, randomized within each month).
pub fn delivery_schedule(spec: &CorpusSpec, rng: &mut StdRng) -> Vec<SimTime> {
    let mut out = Vec::new();
    for ((year, month), &count) in months_2024().iter().zip(scaled_monthly(spec).iter()) {
        for _ in 0..count {
            out.push(delivery_instant(rng, *year, *month));
        }
    }
    out
}

/// End of the study window (used as the "now" for retrospective analysis).
pub fn study_end() -> SimTime {
    SimTime::from_ymd(2024, 11, 1)
}

/// Start of the study window.
pub fn study_start() -> SimTime {
    SimTime::from_ymd(2024, 1, 1)
}

/// A safety margin before the window for backdated registrations
/// (compromised domains can be years old).
pub fn world_epoch() -> SimTime {
    SimTime::from_ymd(2018, 1, 1) - SimDuration::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_sim::SeedFork;

    #[test]
    fn instants_fall_inside_their_month() {
        let mut rng = SeedFork::new(1).rng("t");
        for (y, m) in months_2024() {
            for _ in 0..50 {
                let t = delivery_instant(&mut rng, y, m);
                let (ty, tm, _) = t.ymd();
                assert_eq!((ty, tm), (y, m));
            }
        }
    }

    #[test]
    fn instants_prefer_weekdays_and_work_hours() {
        let mut rng = SeedFork::new(2).rng("t");
        let mut weekend = 0;
        let mut total = 0;
        for _ in 0..400 {
            let t = delivery_instant(&mut rng, 2024, 5);
            let weekday = (t.as_unix().div_euclid(86_400) + 3).rem_euclid(7);
            if weekday >= 5 {
                weekend += 1;
            }
            let (h, _, _) = t.hms();
            assert!((7..19).contains(&h));
            total += 1;
        }
        assert!(
            weekend * 10 < total,
            "weekend fraction too high: {weekend}/{total}"
        );
    }

    #[test]
    fn schedule_matches_scaled_counts() {
        let spec = CorpusSpec::paper().with_scale(0.1);
        let mut rng = SeedFork::new(3).rng("t");
        let schedule = delivery_schedule(&spec, &mut rng);
        let expected: usize = scaled_monthly(&spec).iter().sum();
        assert_eq!(schedule.len(), expected);
        // roughly 10% of 5181
        assert!((500..560).contains(&schedule.len()), "{}", schedule.len());
    }

    #[test]
    fn full_scale_schedule_is_5181() {
        let spec = CorpusSpec::paper();
        assert_eq!(scaled_monthly(&spec).iter().sum::<usize>(), 5181);
    }

    #[test]
    fn window_bounds() {
        assert!(study_start() < study_end());
        assert!(world_epoch() < study_start());
    }
}
