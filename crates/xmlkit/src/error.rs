//! Error type shared by the tokenizer, DOM builder, and schema parser.

use std::fmt;

/// Error raised while parsing or processing XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub kind: ErrorKind,
    /// Byte offset in the input where the error was detected, when known.
    pub offset: Option<usize>,
    /// Free-form context (the offending tag name, entity, etc.).
    pub detail: String,
}

/// Classification of XML processing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// A syntactic construct was malformed (bad tag, attribute, etc.).
    Malformed,
    /// An end tag did not match the open element.
    MismatchedTag,
    /// An entity reference could not be resolved.
    UnknownEntity,
    /// The document has no root element or multiple roots.
    BadStructure,
    /// A schema description was invalid.
    BadSchema,
}

impl XmlError {
    /// Create an error with a byte offset into the source text.
    pub fn at(kind: ErrorKind, offset: usize, detail: impl Into<String>) -> Self {
        XmlError { kind, offset: Some(offset), detail: detail.into() }
    }

    /// Create an error with no particular source location.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        XmlError { kind, offset: None, detail: detail.into() }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.kind {
            ErrorKind::UnexpectedEof => "unexpected end of input",
            ErrorKind::Malformed => "malformed XML",
            ErrorKind::MismatchedTag => "mismatched end tag",
            ErrorKind::UnknownEntity => "unknown entity",
            ErrorKind::BadStructure => "bad document structure",
            ErrorKind::BadSchema => "invalid schema",
        };
        match self.offset {
            Some(off) => write!(f, "{name} at byte {off}: {}", self.detail),
            None => write!(f, "{name}: {}", self.detail),
        }
    }
}

impl std::error::Error for XmlError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, XmlError>;
