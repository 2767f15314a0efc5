//! Error type for compression operations.

use gcs_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Errors produced while encoding, aggregating or decoding gradients.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A payload of the wrong variant was supplied to a compressor.
    PayloadKind {
        /// What the compressor expected, e.g. `"Sparse"`.
        expected: &'static str,
        /// What it received.
        actual: &'static str,
    },
    /// The protocol was driven out of order (e.g. `finish` before `absorb`,
    /// or an unknown round index).
    Protocol(String),
    /// `aggregate` was called with zero payloads.
    EmptyAggregate,
    /// Payload (de)serialization failed.
    Wire(String),
    /// A configuration parameter was invalid (e.g. rank 0, ratio > 1).
    InvalidConfig(String),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Tensor(e) => write!(f, "tensor error: {e}"),
            CompressError::PayloadKind { expected, actual } => {
                write!(
                    f,
                    "payload kind mismatch: expected {expected}, got {actual}"
                )
            }
            CompressError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            CompressError::EmptyAggregate => write!(f, "aggregate called with no payloads"),
            CompressError::Wire(msg) => write!(f, "wire format error: {msg}"),
            CompressError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for CompressError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompressError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CompressError {
    fn from(e: TensorError) -> Self {
        CompressError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_for_all_variants() {
        let variants = [
            CompressError::Tensor(TensorError::ShapeMismatch {
                expected: "1 element".into(),
                actual: "0 elements".into(),
            }),
            CompressError::PayloadKind {
                expected: "Dense",
                actual: "Sparse",
            },
            CompressError::Protocol("x".into()),
            CompressError::EmptyAggregate,
            CompressError::Wire("y".into()),
            CompressError::InvalidConfig("z".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn tensor_error_is_source() {
        let e = CompressError::Tensor(TensorError::ShapeMismatch {
            expected: "1 element".into(),
            actual: "0 elements".into(),
        });
        assert!(e.source().is_some());
        assert!(CompressError::EmptyAggregate.source().is_none());
    }
}
