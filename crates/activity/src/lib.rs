//! Temporal substrate for the `darklight` alias-linking pipeline.
//!
//! The paper fingerprints a forum user by *when* they post: a 24-bin
//! histogram of posting hours (the *daily activity profile*, eq. 1 of the
//! paper), computed over UTC-aligned timestamps with weekends and holidays
//! excluded. This crate provides everything needed to build such profiles
//! from raw unix timestamps, without any external time library:
//!
//! * [`civil`] — proleptic-Gregorian civil-time arithmetic (unix seconds to
//!   year/month/day/hour and back, weekday computation, leap years);
//! * [`calendar`] — configurable holiday calendars (US federal holidays by
//!   rule, plus custom fixed dates) and the weekend/holiday exclusion policy;
//! * [`profile`] — the [`profile::DailyActivityProfile`]
//!   itself: construction, normalization, cosine similarity, entropy;
//! * [`timezone`] — circular cross-correlation between profiles to infer the
//!   most likely timezone shift separating two aliases (an extension in the
//!   spirit of La Morgia et al., "Time-zone geolocation of crowds in the
//!   Dark Web", ICDCS 2018, which the paper builds on).
//!
//! # Example
//!
//! ```
//! use darklight_activity::profile::{ProfileBuilder, ProfilePolicy};
//!
//! // A user who posts every weekday at 9:00 and 21:00 UTC during Feb 2017.
//! let mut timestamps = Vec::new();
//! for day in 0..28 {
//!     let midnight = 1_485_907_200 + day * 86_400; // 2017-02-01T00:00:00Z
//!     timestamps.push(midnight + 9 * 3600);
//!     timestamps.push(midnight + 21 * 3600);
//! }
//! let builder = ProfileBuilder::new(ProfilePolicy::default());
//! let profile = builder.build(&timestamps).expect("enough weekday posts");
//! assert!(profile.share(9) > 0.3 && profile.share(21) > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod civil;
pub mod profile;
pub mod timezone;

pub use calendar::{HolidayCalendar, UsFederalHolidays};
pub use civil::{CivilDate, CivilDateTime, Weekday};
pub use profile::{DailyActivityProfile, ProfileBuilder, ProfileError, ProfilePolicy};
pub use timezone::infer_shift;
