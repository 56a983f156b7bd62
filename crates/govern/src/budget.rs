//! Memory budgets and the byte-estimation cost model behind them.

use crate::GovernError;

/// A rough, deterministic estimate of a value's resident size in bytes.
///
/// The point is not allocator-accurate accounting — it is a *stable*
/// cost model shared by [`crate::MemoryBudget`] derivation and the
/// in-run pressure ladder, so that "derive the batch size from the
/// budget" and "measure what this round will cost" can never disagree
/// about units. Implementations must be pure functions of the value's
/// logical content (no pointers, no capacity), so estimates are
/// identical across runs and platforms.
pub trait EstimateBytes {
    /// Estimated resident bytes of `self`.
    fn estimate_bytes(&self) -> u64;
}

impl EstimateBytes for String {
    fn estimate_bytes(&self) -> u64 {
        // Heap payload plus the ptr/len/cap header.
        self.len() as u64 + 24
    }
}

impl EstimateBytes for str {
    fn estimate_bytes(&self) -> u64 {
        self.len() as u64 + 16
    }
}

impl<T: EstimateBytes> EstimateBytes for Vec<T> {
    fn estimate_bytes(&self) -> u64 {
        24 + self.iter().map(EstimateBytes::estimate_bytes).sum::<u64>()
    }
}

impl<T: EstimateBytes> EstimateBytes for Option<T> {
    fn estimate_bytes(&self) -> u64 {
        self.as_ref().map_or(0, EstimateBytes::estimate_bytes)
    }
}

/// A byte budget for one attribution run, parsed from `512MiB`-style
/// strings (CLI `--mem-budget`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    bytes: u64,
}

impl MemoryBudget {
    /// A budget of exactly `bytes` bytes.
    ///
    /// # Errors
    ///
    /// Zero is rejected — a zero budget can never admit a round and is
    /// always a configuration mistake.
    pub fn from_bytes(bytes: u64) -> Result<MemoryBudget, GovernError> {
        if bytes == 0 {
            return Err(GovernError::ParseSize(
                "budget must be positive (got 0)".to_string(),
            ));
        }
        Ok(MemoryBudget { bytes })
    }

    /// The budget in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Parses a human-readable size: a non-negative integer followed by
    /// an optional binary unit (`B`, `KiB`, `MiB`, `GiB`, `TiB`; bare
    /// numbers are bytes).
    ///
    /// # Errors
    ///
    /// Rejects decimal units (`512MB` — suggests `512MiB`), negative or
    /// fractional values, unknown suffixes, zero, and sizes that
    /// overflow `u64`, each with a message saying how to fix it.
    pub fn parse(input: &str) -> Result<MemoryBudget, GovernError> {
        let s = input.trim();
        if s.is_empty() {
            return Err(GovernError::ParseSize(
                "empty size; expected e.g. \"512MiB\" or a byte count".to_string(),
            ));
        }
        if s.starts_with('-') {
            return Err(GovernError::ParseSize(format!(
                "{s:?} is negative; a memory budget must be a positive size like \"512MiB\""
            )));
        }
        let digits_end = s
            .char_indices()
            .find(|(_, c)| !c.is_ascii_digit())
            .map_or(s.len(), |(i, _)| i);
        let (digits, unit) = s.split_at(digits_end);
        if digits.is_empty() {
            return Err(GovernError::ParseSize(format!(
                "{s:?} has no leading number; expected e.g. \"512MiB\""
            )));
        }
        if unit.starts_with('.') {
            return Err(GovernError::ParseSize(format!(
                "{s:?} is fractional; use a whole number of a smaller unit (e.g. \"1536MiB\" \
                 instead of \"1.5GiB\")"
            )));
        }
        let value: u64 = digits.parse().map_err(|_| {
            GovernError::ParseSize(format!("{digits:?} overflows a 64-bit byte count"))
        })?;
        let multiplier: u64 = match unit.trim() {
            "" | "B" => 1,
            "KiB" => 1 << 10,
            "MiB" => 1 << 20,
            "GiB" => 1 << 30,
            "TiB" => 1 << 40,
            "KB" | "kB" | "MB" | "GB" | "TB" | "K" | "k" | "M" | "G" | "T" => {
                let fixed = match unit.trim() {
                    "KB" | "kB" | "K" | "k" => "KiB",
                    "MB" | "M" => "MiB",
                    "GB" | "G" => "GiB",
                    _ => "TiB",
                };
                return Err(GovernError::ParseSize(format!(
                    "{s:?} uses a decimal unit; this tool only accepts binary units — \
                     write \"{digits}{fixed}\""
                )));
            }
            other => {
                return Err(GovernError::ParseSize(format!(
                    "unknown unit {other:?} in {s:?}; accepted units: B, KiB, MiB, GiB, TiB"
                )));
            }
        };
        let bytes = value.checked_mul(multiplier).ok_or_else(|| {
            GovernError::ParseSize(format!("{s:?} overflows a 64-bit byte count"))
        })?;
        MemoryBudget::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_binary_units_and_bare_bytes() {
        assert_eq!(MemoryBudget::parse("1024").unwrap().bytes(), 1024);
        assert_eq!(MemoryBudget::parse("4KiB").unwrap().bytes(), 4096);
        assert_eq!(MemoryBudget::parse("512MiB").unwrap().bytes(), 512 << 20);
        assert_eq!(MemoryBudget::parse("2GiB").unwrap().bytes(), 2 << 30);
        assert_eq!(MemoryBudget::parse(" 8B ").unwrap().bytes(), 8);
    }

    #[test]
    fn decimal_units_are_rejected_with_the_binary_fix() {
        let err = MemoryBudget::parse("512MB").unwrap_err();
        assert!(err.to_string().contains("512MiB"), "{err}");
        let err = MemoryBudget::parse("1GB").unwrap_err();
        assert!(err.to_string().contains("1GiB"), "{err}");
    }

    #[test]
    fn negative_zero_fractional_and_overflow_are_rejected() {
        assert!(MemoryBudget::parse("-5MiB").is_err());
        assert!(MemoryBudget::parse("0").is_err());
        assert!(MemoryBudget::parse("0MiB").is_err());
        assert!(MemoryBudget::parse("1.5GiB").is_err());
        assert!(MemoryBudget::parse("99999999999999999999").is_err());
        let err = MemoryBudget::parse("999999999999TiB").unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        assert!(MemoryBudget::parse("12XiB").is_err());
        assert!(MemoryBudget::parse("MiB").is_err());
        assert!(MemoryBudget::parse("").is_err());
    }

    #[test]
    fn estimate_bytes_is_content_deterministic() {
        let a = vec!["alpha".to_string(), "beta".to_string()];
        let b = vec!["alpha".to_string(), "beta".to_string()];
        assert_eq!(a.estimate_bytes(), b.estimate_bytes());
        let mut c = Vec::with_capacity(1000);
        c.push("alpha".to_string());
        c.push("beta".to_string());
        // Capacity must not leak into the estimate.
        assert_eq!(a.estimate_bytes(), c.estimate_bytes());
    }
}
