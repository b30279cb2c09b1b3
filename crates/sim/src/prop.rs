//! A seeded property-test harness.
//!
//! [`check`] draws `cases` inputs from a [`Strategy`] with a [`StdRng`]
//! seeded from the property's name, so every run of a property sees the
//! same inputs. A case fails when the property returns `Err` (see
//! [`prop_assert!`](crate::prop_assert) and
//! [`prop_assert_eq!`](crate::prop_assert_eq)) or panics. The failing input
//! is then shrunk, each step halving one part of it, and the smallest input
//! that still fails is reported. [`check_from`] runs fixed inputs first:
//! the place for once-found failures.
//!
//! ```
//! use cb_sim::prop::{bytes, check};
//! use cb_sim::prop_assert_eq;
//!
//! check("reverse_twice", 32, bytes(0..64), |data| {
//!     let mut twice = data.clone();
//!     twice.reverse();
//!     twice.reverse();
//!     prop_assert_eq!(twice, data);
//!     Ok(())
//! });
//! ```

use crate::rng::{Rng, SampleInclusive, SampleUniform, StdRng};
use crate::SeedFork;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The seed every property's input stream forks from, by property name.
const MASTER_SEED: u64 = 0x5EED_5EED;

/// What a property returns for one input: `Err` carries the failure.
pub type CaseResult = Result<(), String>;

/// A generator of test inputs.
pub trait Strategy {
    /// The generated input.
    type Value: Clone + Debug;
    /// One input.
    fn draw(&self, rng: &mut StdRng) -> Self::Value;
    /// Smaller inputs to try after `v` failed, simplest first.
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value>;
}

/// Run `prop` on `cases` inputs drawn from `strategy`; panic with the
/// smallest failing input if any fails.
pub fn check<S: Strategy>(
    name: &str,
    cases: u32,
    strategy: S,
    prop: impl Fn(S::Value) -> CaseResult,
) {
    check_from(name, cases, &[], strategy, prop)
}

/// [`check`], running the inputs in `first` before the drawn ones.
pub fn check_from<S: Strategy>(
    name: &str,
    cases: u32,
    first: &[S::Value],
    strategy: S,
    prop: impl Fn(S::Value) -> CaseResult,
) {
    let run = |v: &S::Value| match catch_unwind(AssertUnwindSafe(|| prop(v.clone()))) {
        Ok(r) => r,
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panicked".into())),
    };
    let mut rng = SeedFork::new(MASTER_SEED).rng(name);
    let drawn = (0..cases).map(|_| strategy.draw(&mut rng));
    for (case, v) in first.iter().cloned().chain(drawn).enumerate() {
        let Err(mut why) = run(&v) else { continue };
        let (mut v, mut steps, mut tries) = (v, 0, 0);
        'shrink: while tries < 1024 {
            for smaller in strategy.shrink(&v) {
                tries += 1;
                if let Err(e) = run(&smaller) {
                    (v, why, steps) = (smaller, e, steps + 1);
                    continue 'shrink;
                }
            }
            break;
        }
        panic!("property `{name}` failed at case {case}; after {steps} shrink steps:\ninput: {v:?}\n{why}");
    }
}

/// Fail the case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)));
        }
    };
}

/// Fail the case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return Err(format!(
                        "assertion `left == right` failed {}\n  left: {:?}\n right: {:?}",
                        format!($($fmt)+), l, r
                    ));
                }
            }
        }
    };
}

/// Numbers a range strategy draws and shrinks.
pub trait Halve: SampleUniform + Debug {
    /// The midpoint of `lo` and `v`, rounded towards `lo`.
    fn halfway(lo: Self, v: Self) -> Self;
}

macro_rules! halve_int {
    ($($t:ty),*) => {$(
        impl Halve for $t {
            fn halfway(lo: $t, v: $t) -> $t {
                (lo as i128 + (v as i128 - lo as i128) / 2) as $t
            }
        }
    )*};
}
halve_int!(u8, u16, u32, u64, usize, i32, i64);

impl Halve for f64 {
    fn halfway(lo: f64, v: f64) -> f64 {
        lo + (v - lo) / 2.0
    }
}

/// The low end itself, then the midpoint between it and `v`.
fn toward<T: Halve>(lo: T, v: T) -> Vec<T> {
    let mid = T::halfway(lo, v);
    match (v == lo, mid == lo) {
        (true, _) => Vec::new(),
        (false, true) => vec![lo],
        (false, false) => vec![lo, mid],
    }
}

/// Uniform over the range; shrinks halfway towards its low end.
impl<T: Halve> Strategy for Range<T> {
    type Value = T;
    fn draw(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        toward(self.start, *v)
    }
}

/// Uniform over the range; shrinks halfway towards its low end.
impl<T: Halve + SampleInclusive> Strategy for RangeInclusive<T> {
    type Value = T;
    fn draw(&self, rng: &mut StdRng) -> T {
        rng.gen_range(*self.start()..=*self.end())
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        toward(*self.start(), *v)
    }
}

/// A vector of `len` items drawn from `item`; see [`vec`].
#[derive(Clone, Debug)]
pub struct VecOf<S> {
    item: S,
    len: Range<usize>,
}

/// Vectors of `item`s, their length uniform in `len`. Shrinking cuts out
/// a half, then a quarter, and so on.
pub fn vec<S: Strategy>(item: S, len: Range<usize>) -> VecOf<S> {
    VecOf { item, len }
}

/// Byte vectors, their length uniform in `len`.
pub fn bytes(len: Range<usize>) -> VecOf<RangeInclusive<u8>> {
    vec(0..=u8::MAX, len)
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn draw(&self, rng: &mut StdRng) -> Self::Value {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.item.draw(rng)).collect()
    }
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        halves(v, self.len.start)
    }
}

/// `v` with one chunk cut out, keeping at least `min` items: first each
/// half, then each quarter, and so on down to single items (at most 64
/// candidates).
fn halves<T: Clone>(v: &[T], min: usize) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut chunk = (v.len() / 2).max(1);
    loop {
        for start in (0..v.len()).step_by(chunk) {
            let end = (start + chunk).min(v.len());
            if v.len() - (end - start) >= min && out.len() < 64 {
                out.push([&v[..start], &v[end..]].concat());
            }
        }
        if chunk == 1 {
            return out;
        }
        chunk /= 2;
    }
}

/// One of a fixed list of values; see [`one_of`].
#[derive(Clone, Debug)]
pub struct OneOf<T>(Vec<T>);

/// A uniform pick from `items`. Shrinking moves halfway to the first item.
pub fn one_of<T: Clone + Debug + PartialEq>(items: &[T]) -> OneOf<T> {
    assert!(!items.is_empty(), "one_of needs items");
    OneOf(items.to_vec())
}

impl<T: Clone + Debug + PartialEq> Strategy for OneOf<T> {
    type Value = T;
    fn draw(&self, rng: &mut StdRng) -> T {
        self.0[rng.gen_range(0..self.0.len())].clone()
    }
    fn shrink(&self, v: &T) -> Vec<T> {
        let at = self.0.iter().position(|x| x == v).unwrap_or(0);
        toward(0, at)
            .into_iter()
            .map(|i| self.0[i].clone())
            .collect()
    }
}

/// Strings over a character class; see [`string`].
#[derive(Clone, Debug)]
pub struct StringOf {
    /// Inclusive char ranges; empty means any printable character.
    class: Vec<(char, char)>,
    len: RangeInclusive<usize>,
}

/// Strings of `len` characters (uniform count) drawn from `class`, written
/// like a regex class body: `"a-z0-9_."` (a `-` first or last is literal).
/// The class `"\\PC"` is any character that is not a control character,
/// half of them printable ASCII so that quotes, escapes and markup come up
/// often. Shrinking cuts out a half, then a quarter, and so on.
pub fn string(class: &str, len: RangeInclusive<usize>) -> StringOf {
    let mut ranges = Vec::new();
    if class != "\\PC" {
        let cs: Vec<char> = class.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                ranges.push((cs[i], cs[i + 2]));
                i += 3;
            } else {
                ranges.push((cs[i], cs[i]));
                i += 1;
            }
        }
    }
    StringOf { class: ranges, len }
}

impl StringOf {
    fn draw_char(&self, rng: &mut StdRng) -> char {
        if self.class.is_empty() {
            loop {
                let c = if rng.gen_bool(0.5) {
                    char::from(rng.gen_range(b' '..=b'~'))
                } else {
                    match char::from_u32(rng.gen_range(0xA0..=0x10_FFFF)) {
                        Some(c) => c,
                        None => continue,
                    }
                };
                if !c.is_control() {
                    return c;
                }
            }
        }
        let total: u32 = self
            .class
            .iter()
            .map(|&(a, b)| b as u32 - a as u32 + 1)
            .sum();
        let mut k = rng.gen_range(0..total);
        for &(a, b) in &self.class {
            let n = b as u32 - a as u32 + 1;
            if k < n {
                return char::from_u32(a as u32 + k).expect("class ranges hold chars");
            }
            k -= n;
        }
        unreachable!("k < total")
    }
}

impl Strategy for StringOf {
    type Value = String;
    fn draw(&self, rng: &mut StdRng) -> String {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.draw_char(rng)).collect()
    }
    fn shrink(&self, v: &String) -> Vec<String> {
        let cs: Vec<char> = v.chars().collect();
        halves(&cs, *self.len.start())
            .into_iter()
            .map(|h| h.into_iter().collect())
            .collect()
    }
}

macro_rules! tuple_strategies {
    ($(($($n:tt $s:ident),+))*) => {$(
        /// Each part drawn in turn; shrinking shrinks one part at a time.
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn draw(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$n.draw(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for part in self.$n.shrink(&v.$n) {
                        let mut w = v.clone();
                        w.$n = part;
                        out.push(w);
                    }
                )+
                out
            }
        }
    )*};
}
tuple_strategies! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_shrink_to_a_small_input() {
        let caught = catch_unwind(|| {
            check("shrinks", 64, bytes(0..256), |data| {
                prop_assert!(!data.contains(&7));
                Ok(())
            })
        });
        let msg = *caught
            .expect_err("some draw holds a 7")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("input: [7]"), "{msg}");
    }

    #[test]
    fn fixed_inputs_run_first_and_draws_stay_in_bounds() {
        let seen = std::cell::RefCell::new(Vec::new());
        let strategy = (string("a-c_", 1..=3), 10u32..20);
        check_from("first", 50, &[("zz".to_string(), 0)], strategy, |(s, n)| {
            seen.borrow_mut().push((s, n));
            Ok(())
        });
        let seen = seen.into_inner();
        assert_eq!(seen[0], ("zz".to_string(), 0));
        assert_eq!(seen.len(), 51);
        for (s, n) in &seen[1..] {
            assert!((1..=3).contains(&s.chars().count()) && (10..20).contains(n));
            assert!(s.chars().all(|c| matches!(c, 'a'..='c' | '_')), "{s}");
        }
    }

    #[test]
    fn printable_class_has_no_controls() {
        let mut rng = SeedFork::new(1).rng("pc");
        let s = string("\\PC", 200..=200).draw(&mut rng);
        assert_eq!(s.chars().count(), 200);
        assert!(!s.chars().any(char::is_control));
        assert!(!s.is_ascii() && s.chars().any(|c| c.is_ascii()));
    }

    #[test]
    fn numbers_shrink_toward_the_low_end() {
        assert_eq!((5u64..100).shrink(&45), vec![5, 25]);
        assert_eq!((-1e3..1e3).shrink(&1e3), vec![-1e3, 0.0]);
        assert!((0u8..=255).shrink(&0).is_empty());
    }
}
