//! No protection (NP) — the unprotected baseline accelerator.

use crate::{MetaAccess, ProtectionEngine, StreamClass};

/// The no-protection reference point: every Figure-3 bar is normalized to
/// this scheme's execution time.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProtection;

impl NoProtection {
    /// Creates the engine.
    pub fn new() -> Self {
        Self
    }
}

impl ProtectionEngine for NoProtection {
    fn name(&self) -> &'static str {
        "NP"
    }

    fn protects_integrity(&self) -> bool {
        false
    }

    fn on_span(
        &mut self,
        _block_addr: u64,
        blocks: u64,
        _write: bool,
        _stream: StreamClass,
        _out: &mut Vec<MetaAccess>,
    ) -> u64 {
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_nothing() {
        let mut np = NoProtection::new();
        let mut out = Vec::new();
        np.on_access(0, true, StreamClass::FeatureWrite, &mut out);
        assert!(out.is_empty());
        assert!(np.flush().is_empty());
        assert_eq!(np.name(), "NP");
        assert!(!np.protects_integrity());
    }
}
