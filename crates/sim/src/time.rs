//! Simulated wall-clock time.
//!
//! Time is counted in whole **seconds since the simulation epoch**
//! (1970-01-01 00:00:00, mirroring Unix time so that WHOIS records, TLS
//! certificate validity windows and message delivery timestamps read
//! naturally). A proleptic Gregorian calendar conversion is implemented from
//! scratch — the reproduction must not depend on host time, which would break
//! determinism.

use cb_json::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};

/// Seconds in one minute.
const MINUTE: i64 = 60;
/// Seconds in one hour.
const HOUR: i64 = 3_600;
/// Seconds in one day.
const DAY: i64 = 86_400;

/// A span of simulated time, in seconds. May be negative (e.g. the paper's
/// `timedeltaA` for a domain registered *after* delivery never occurs, but
/// arithmetic must still be total).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(i64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `n` seconds.
    pub const fn seconds(n: i64) -> Self {
        SimDuration(n)
    }

    /// A duration of `n` minutes.
    pub const fn minutes(n: i64) -> Self {
        SimDuration(n * MINUTE)
    }

    /// A duration of `n` hours.
    pub const fn hours(n: i64) -> Self {
        SimDuration(n * HOUR)
    }

    /// A duration of `n` days.
    pub const fn days(n: i64) -> Self {
        SimDuration(n * DAY)
    }

    /// Total seconds in this duration.
    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// Whole hours in this duration (truncating toward zero).
    pub const fn as_hours(self) -> i64 {
        self.0 / HOUR
    }

    /// Whole days in this duration (truncating toward zero).
    pub const fn as_days(self) -> i64 {
        self.0 / DAY
    }

    /// Fractional days, for statistics over timedelta distributions.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / DAY as f64
    }

    /// Fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / HOUR as f64
    }

    /// `true` if this duration is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value of the duration.
    pub const fn abs(self) -> Self {
        SimDuration(self.0.abs())
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl std::ops::Mul<i64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        if s >= DAY {
            write!(f, "{sign}{}d{}h", s / DAY, (s % DAY) / HOUR)
        } else if s >= HOUR {
            write!(f, "{sign}{}h{}m", s / HOUR, (s % HOUR) / MINUTE)
        } else {
            write!(f, "{sign}{}s", s)
        }
    }
}

/// An instant of simulated time: seconds since 1970-01-01 00:00:00.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(i64);

/// Month of the year, 1-based like every calendar humans use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Month(pub u32);

impl Month {
    /// English three-letter abbreviation ("Jan" ... "Dec").
    ///
    /// # Panics
    ///
    /// Panics if the month is outside `1..=12`.
    pub fn abbrev(self) -> &'static str {
        const NAMES: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        NAMES[(self.0 - 1) as usize]
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// `true` if `year` is a Gregorian leap year.
const fn is_leap(year: i64) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days in `month` of `year` (month is 1-based).
const fn days_in_month(year: i64, month: u32) -> i64 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("month out of range"),
    }
}

/// Days from the epoch (1970-01-01) to the first day of `year`.
fn days_to_year(year: i64) -> i64 {
    // Count leap days between 1970 and `year` exclusive using the closed-form
    // count of leap years before a given year.
    fn leaps_before(y: i64) -> i64 {
        let y = y - 1;
        y / 4 - y / 100 + y / 400
    }
    (year - 1970) * 365 + (leaps_before(year) - leaps_before(1970))
}

impl SimTime {
    /// The simulation epoch: 1970-01-01 00:00:00.
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from raw seconds since the epoch.
    pub const fn from_unix(secs: i64) -> Self {
        SimTime(secs)
    }

    /// Seconds since the epoch.
    pub const fn as_unix(self) -> i64 {
        self.0
    }

    /// Midnight at the start of the given calendar date.
    ///
    /// # Panics
    ///
    /// Panics if `month` is outside `1..=12` or `day` is invalid for the
    /// month.
    pub fn from_ymd(year: i64, month: u32, day: u32) -> Self {
        Self::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// A full calendar timestamp.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range calendar components.
    pub fn from_ymd_hms(year: i64, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && (day as i64) <= days_in_month(year, month),
            "day {day} out of range for {year}-{month:02}"
        );
        assert!(hour < 24 && min < 60 && sec < 60, "time component range");
        let mut days = days_to_year(year);
        for m in 1..month {
            days += days_in_month(year, m);
        }
        days += day as i64 - 1;
        SimTime(days * DAY + hour as i64 * HOUR + min as i64 * MINUTE + sec as i64)
    }

    /// Decompose into `(year, month, day)`.
    pub fn ymd(self) -> (i64, u32, u32) {
        let mut days = self.0.div_euclid(DAY);
        let mut year = 1970;
        loop {
            let len = if is_leap(year) { 366 } else { 365 };
            if days >= len {
                days -= len;
                year += 1;
            } else if days < 0 {
                year -= 1;
                days += if is_leap(year) { 366 } else { 365 };
            } else {
                break;
            }
        }
        let mut month = 1u32;
        while days >= days_in_month(year, month) {
            days -= days_in_month(year, month);
            month += 1;
        }
        (year, month, days as u32 + 1)
    }

    /// The `(hour, minute, second)` of day.
    pub fn hms(self) -> (u32, u32, u32) {
        let secs = self.0.rem_euclid(DAY);
        (
            (secs / HOUR) as u32,
            ((secs % HOUR) / MINUTE) as u32,
            (secs % MINUTE) as u32,
        )
    }

    /// Calendar month of this instant.
    pub fn month(self) -> Month {
        Month(self.ymd().1)
    }

    /// Calendar year of this instant.
    pub fn year(self) -> i64 {
        self.ymd().0
    }

    /// `(year, month)` pair, the bucketing key of the paper's Figure 2.
    pub fn year_month(self) -> (i64, u32) {
        let (y, m, _) = self.ymd();
        (y, m)
    }

    /// Time elapsed from `earlier` to `self` (negative if `self` precedes it).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_seconds())
    }
}

impl std::ops::Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.as_seconds())
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d) = self.ymd();
        let (h, mi, s) = self.hms();
        write!(f, "{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }
}

/// A shared, monotonically advancing simulation clock.
///
/// The clock is thread-safe: crawls run on worker threads while the pipeline
/// advances time between batches.
#[derive(Debug)]
pub struct Clock {
    now: AtomicI64,
}

impl Clock {
    /// A clock starting at `t0`.
    pub fn starting_at(t0: SimTime) -> Self {
        Clock {
            now: AtomicI64::new(t0.as_unix()),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_unix(self.now.load(Ordering::SeqCst))
    }

    /// Advance the clock by `d` and return the new instant.
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative: simulated time never rewinds.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        assert!(!d.is_negative(), "clock cannot move backwards");
        SimTime::from_unix(self.now.fetch_add(d.as_seconds(), Ordering::SeqCst) + d.as_seconds())
    }

    /// Jump the clock forward to `t` if `t` is later than now; otherwise keep
    /// the current time. Returns the resulting instant.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let target = t.as_unix();
        let mut cur = self.now.load(Ordering::SeqCst);
        while cur < target {
            match self
                .now
                .compare_exchange(cur, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        SimTime::from_unix(cur)
    }
}

impl Default for Clock {
    fn default() -> Self {
        // The study window opens in January 2024.
        Clock::starting_at(SimTime::from_ymd(2024, 1, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(SimTime::from_ymd(1970, 1, 1), SimTime::EPOCH);
    }

    #[test]
    fn known_unix_timestamps_round_trip() {
        // 2024-01-01 00:00:00 UTC == 1704067200
        assert_eq!(SimTime::from_ymd(2024, 1, 1).as_unix(), 1_704_067_200);
        // 2024-10-31 23:59:59 UTC == 1730419199
        assert_eq!(
            SimTime::from_ymd_hms(2024, 10, 31, 23, 59, 59).as_unix(),
            1_730_419_199
        );
    }

    #[test]
    fn ymd_round_trips_across_leap_years() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1999, 12, 31),
            (2000, 2, 29),
            (2023, 3, 1),
            (2024, 2, 29),
            (2024, 10, 31),
            (2100, 3, 1),
        ] {
            let t = SimTime::from_ymd(y, m, d);
            assert_eq!(t.ymd(), (y, m, d), "date {y}-{m}-{d}");
        }
    }

    #[test]
    fn pre_epoch_dates_work() {
        let t = SimTime::from_ymd(1969, 12, 31);
        assert_eq!(t.as_unix(), -DAY);
        assert_eq!(t.ymd(), (1969, 12, 31));
    }

    #[test]
    fn hms_extraction() {
        let t = SimTime::from_ymd_hms(2024, 6, 15, 13, 45, 9);
        assert_eq!(t.hms(), (13, 45, 9));
        assert_eq!(t.ymd(), (2024, 6, 15));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::days(2) + SimDuration::hours(3);
        assert_eq!(a.as_hours(), 51);
        assert!((a - SimDuration::days(3)).is_negative());
        assert_eq!(SimDuration::hours(-5).abs(), SimDuration::hours(5));
    }

    #[test]
    fn time_minus_time_gives_duration() {
        let a = SimTime::from_ymd(2024, 1, 1);
        let b = SimTime::from_ymd(2024, 1, 25);
        assert_eq!((b - a).as_days(), 24);
        assert_eq!((a - b).as_days(), -24);
    }

    #[test]
    fn clock_advances_monotonically() {
        let c = Clock::starting_at(SimTime::from_ymd(2024, 1, 1));
        c.advance(SimDuration::hours(5));
        assert_eq!(c.now().hms().0, 5);
        // advance_to earlier time is a no-op
        c.advance_to(SimTime::from_ymd(2023, 1, 1));
        assert_eq!(c.now().ymd(), (2024, 1, 1));
        c.advance_to(SimTime::from_ymd(2024, 3, 1));
        assert_eq!(c.now().ymd(), (2024, 3, 1));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_rejects_negative_advance() {
        Clock::default().advance(SimDuration::seconds(-1));
    }

    #[test]
    fn month_abbreviations() {
        assert_eq!(Month(1).abbrev(), "Jan");
        assert_eq!(Month(10).abbrev(), "Oct");
        assert_eq!(SimTime::from_ymd(2024, 7, 9).month().abbrev(), "Jul");
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_ymd_hms(2024, 2, 29, 8, 5, 0);
        assert_eq!(t.to_string(), "2024-02-29 08:05:00");
        assert_eq!(SimDuration::hours(26).to_string(), "1d2h");
        assert_eq!(SimDuration::minutes(-90).to_string(), "-1h30m");
        assert_eq!(SimDuration::seconds(42).to_string(), "42s");
    }
}
