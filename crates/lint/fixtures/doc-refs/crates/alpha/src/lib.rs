//! Fixture crate: cites ARCHITECTURE.md (at the workspace root) and
//! NOTES.md (in the crate directory); both resolve.
#![deny(missing_docs)]

/// Does nothing; see DESIGN.md §4, which does not exist.
pub fn noop() {}

// A string naming a file is data, not a citation.
const _DATA: &str = "MISSING.md";
