//! Compartment configuration.
//!
//! Mirrors the paper's deployment: each cVM runs in *hybrid* mode (legacy
//! pointers bounded by the DDC, the only mode the paper evaluates) in a
//! fixed region split into a code window (PCC material) and a data window
//! (DDC material).

/// Builder-style configuration for one cVM.
///
/// # Example
///
/// ```
/// use intravisor::CvmConfig;
/// let cfg = CvmConfig::new("fstack-svc")
///     .mem_size(256 * 1024)
///     .code_size(8 * 1024);
/// assert_eq!(cfg.name(), "fstack-svc");
/// assert_eq!(cfg.mem_size_bytes(), 256 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CvmConfig {
    name: String,
    mem_size: u64,
    code_size: u64,
}

impl CvmConfig {
    /// Default region size: enough for app + stack + mbuf staging.
    pub const DEFAULT_MEM: u64 = 128 * 1024;
    /// Default code window.
    pub const DEFAULT_CODE: u64 = 4 * 1024;

    /// Starts a config for a compartment called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CvmConfig {
            name: name.into(),
            mem_size: Self::DEFAULT_MEM,
            code_size: Self::DEFAULT_CODE,
        }
    }

    /// Sets the total region size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if smaller than the code window or not 16-byte aligned.
    pub fn mem_size(mut self, bytes: u64) -> Self {
        assert!(
            bytes.is_multiple_of(16),
            "region must be capability-aligned"
        );
        assert!(bytes > self.code_size, "region must exceed the code window");
        self.mem_size = bytes;
        self
    }

    /// Sets the code-window size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if zero, not 16-byte aligned, or ≥ the region size.
    pub fn code_size(mut self, bytes: u64) -> Self {
        assert!(bytes > 0 && bytes.is_multiple_of(16), "bad code window");
        assert!(bytes < self.mem_size, "code window must fit in the region");
        self.code_size = bytes;
        self
    }

    /// The compartment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The total region size (getter; same name as the setter is avoided by
    /// builder-consuming-self convention — this borrows).
    pub fn mem_size_bytes(&self) -> u64 {
        self.mem_size
    }

    /// The code window size.
    pub fn code_size_bytes(&self) -> u64 {
        self.code_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CvmConfig::new("x");
        assert_eq!(c.mem_size_bytes(), CvmConfig::DEFAULT_MEM);
        assert_eq!(c.code_size_bytes(), CvmConfig::DEFAULT_CODE);
    }

    #[test]
    fn builder_chains() {
        let c = CvmConfig::new("x").mem_size(1 << 16).code_size(1 << 12);
        assert_eq!(c.mem_size_bytes(), 1 << 16);
        assert_eq!(c.code_size_bytes(), 1 << 12);
    }

    #[test]
    #[should_panic(expected = "capability-aligned")]
    fn unaligned_region_panics() {
        let _ = CvmConfig::new("x").mem_size(1000 + 1);
    }

    #[test]
    #[should_panic(expected = "code window")]
    fn code_window_must_fit() {
        let _ = CvmConfig::new("x").mem_size(8192).code_size(8192);
    }
}
