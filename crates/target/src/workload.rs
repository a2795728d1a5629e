//! Workload parameters: the knobs a scenario turns on a target.
//!
//! A [`Workload`] is a flat, ordered map of scalar parameters (`masses = 3`,
//! `cases = 4`, ...). Each [`Target`](crate::target::Target) publishes its
//! accepted keys through
//! [`Target::default_workload`](crate::target::Target::default_workload);
//! the scenario layer overlays the `[workload]` section on those defaults
//! and rejects unknown keys, so a typo fails loudly instead of silently
//! running the default.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One scalar workload parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadValue {
    /// An integer parameter.
    Int(i64),
    /// A float parameter.
    Float(f64),
    /// A boolean parameter.
    Bool(bool),
    /// A string parameter.
    Str(String),
}

impl fmt::Display for WorkloadValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadValue::Int(v) => write!(f, "{v}"),
            WorkloadValue::Float(v) => write!(f, "{v:?}"),
            WorkloadValue::Bool(v) => write!(f, "{v}"),
            WorkloadValue::Str(v) => write!(f, "{v:?}"),
        }
    }
}

/// A workload parameter error: which key, and what is wrong with it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadError {
    /// The offending key.
    pub key: String,
    /// What is wrong.
    pub reason: String,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload key `{}`: {}", self.key, self.reason)
    }
}

impl std::error::Error for WorkloadError {}

impl WorkloadError {
    /// Creates an error for `key`.
    pub fn new(key: impl Into<String>, reason: impl Into<String>) -> Self {
        WorkloadError {
            key: key.into(),
            reason: reason.into(),
        }
    }
}

/// A flat map of scalar workload parameters (sorted by key, so the wire
/// and TOML forms are canonical).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Workload(BTreeMap<String, WorkloadValue>);

impl Workload {
    /// An empty workload.
    pub fn new() -> Self {
        Workload::default()
    }

    /// Sets a parameter (builder style).
    pub fn with(mut self, key: impl Into<String>, value: WorkloadValue) -> Self {
        self.0.insert(key.into(), value);
        self
    }

    /// Sets an integer parameter (builder style).
    pub fn with_int(self, key: impl Into<String>, value: i64) -> Self {
        self.with(key, WorkloadValue::Int(value))
    }

    /// Inserts a parameter.
    pub fn set(&mut self, key: impl Into<String>, value: WorkloadValue) {
        self.0.insert(key.into(), value);
    }

    /// Looks a parameter up.
    pub fn get(&self, key: &str) -> Option<&WorkloadValue> {
        self.0.get(key)
    }

    /// Iterates parameters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &WorkloadValue)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether the workload has no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Overlays `other` on `self`: every key in `other` must already exist
    /// in `self` (the target's published defaults), or the overlay is
    /// rejected — this is what turns a typoed scenario key into an error.
    ///
    /// # Errors
    ///
    /// Returns the first unknown key with the accepted key list.
    pub fn overlaid(&self, other: &Workload) -> Result<Workload, WorkloadError> {
        let mut merged = self.clone();
        for (key, value) in other.iter() {
            if !self.0.contains_key(key) {
                let known: Vec<&str> = self.0.keys().map(String::as_str).collect();
                return Err(WorkloadError::new(
                    key,
                    format!("unknown workload key (accepted: {})", known.join(", ")),
                ));
            }
            merged.0.insert(key.to_string(), value.clone());
        }
        Ok(merged)
    }

    /// Reads a required integer parameter within `[min, max]`.
    ///
    /// # Errors
    ///
    /// Missing key, wrong type, or out-of-range value.
    pub fn int_in(&self, key: &str, min: i64, max: i64) -> Result<i64, WorkloadError> {
        match self.get(key) {
            None => Err(WorkloadError::new(key, "missing required parameter")),
            Some(WorkloadValue::Int(v)) if (min..=max).contains(v) => Ok(*v),
            Some(WorkloadValue::Int(v)) => Err(WorkloadError::new(
                key,
                format!("{v} is out of range {min}..={max}"),
            )),
            Some(other) => Err(WorkloadError::new(
                key,
                format!("expected an integer, got {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_accepts_known_keys_and_rejects_unknown_ones() {
        let defaults = Workload::new()
            .with_int("masses", 5)
            .with_int("velocities", 5);
        let merged = defaults
            .overlaid(&Workload::new().with_int("masses", 3))
            .unwrap();
        assert_eq!(merged.get("masses"), Some(&WorkloadValue::Int(3)));
        assert_eq!(merged.get("velocities"), Some(&WorkloadValue::Int(5)));

        let e = defaults
            .overlaid(&Workload::new().with_int("massess", 3))
            .unwrap_err();
        assert_eq!(e.key, "massess");
        assert!(e.reason.contains("masses, velocities"), "{e}");
    }

    #[test]
    fn int_in_enforces_type_and_range() {
        let w = Workload::new()
            .with_int("cases", 4)
            .with("label", WorkloadValue::Str("x".into()));
        assert_eq!(w.int_in("cases", 1, 64).unwrap(), 4);
        assert!(w
            .int_in("cases", 5, 64)
            .unwrap_err()
            .reason
            .contains("out of range"));
        assert!(w
            .int_in("label", 0, 9)
            .unwrap_err()
            .reason
            .contains("expected an integer"));
        assert!(w
            .int_in("absent", 0, 9)
            .unwrap_err()
            .reason
            .contains("missing"));
    }

    #[test]
    fn workload_json_roundtrips() {
        let w = Workload::new()
            .with_int("cases", 2)
            .with("scale", WorkloadValue::Float(1.5))
            .with("fast", WorkloadValue::Bool(true))
            .with("tag", WorkloadValue::Str("demo".into()));
        let json = serde_json::to_string(&w).unwrap();
        let back: Workload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, w);
    }
}
