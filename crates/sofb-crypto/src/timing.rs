//! Calibrated virtual-time costs for cryptographic operations.
//!
//! The paper ran on 2.80 GHz Pentium IV machines under JDK 1.5. The
//! simulator charges each protocol step virtual CPU time according to this
//! model instead of executing 1024-bit modular exponentiations for every
//! simulated message. The *ratios* are what the paper's argument depends
//! on (§5, "Order Latency"):
//!
//! * signing time is similar between RSA and DSA of equal key size;
//! * RSA verification (e = 65537) is far cheaper than DSA verification
//!   (two full-width exponentiations);
//! * RSA-1536 signing is roughly `(1536/1024)^3 ≈ 3.4×` RSA-1024 signing;
//! * in an n-to-n exchange each process signs once but verifies `n−f`
//!   messages, so slow verification hurts BFT (3 such phases) more than SC.
//!
//! Magnitudes are taken from contemporaneous JCE measurements on P4-class
//! hardware; see `EXPERIMENTS.md` for the calibration notes.

use crate::scheme::SchemeId;

/// Virtual-time cost table for one scheme. All values in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemeTiming {
    /// Cost of producing one signature.
    pub sign_ns: u64,
    /// Cost of verifying one signature.
    pub verify_ns: u64,
    /// Fixed cost of one digest computation.
    pub digest_base_ns: u64,
    /// Additional digest cost per input byte.
    pub digest_per_byte_ns: u64,
}

impl SchemeTiming {
    /// The calibrated table for `scheme` (2006-era P4 + JDK 1.5
    /// magnitudes: `java.math.BigInteger` modular exponentiation).
    ///
    /// These values make a 2.8 GHz P4 sign roughly 35 RSA-1024 messages
    /// per second. The simulated fig4 shows no saturation knee from
    /// them: `sofb run specs/fig4.scn` reads an SC p50 of 108 ms at a
    /// 40 ms interval against 98 ms at 100 ms (BFT, two signings per
    /// batch per replica: 195 against 135).
    pub fn calibrated(scheme: SchemeId) -> Self {
        match scheme {
            SchemeId::Md5Rsa1024 => SchemeTiming {
                sign_ns: 28_000_000,  // 28 ms
                verify_ns: 1_300_000, // e = 65537 is cheap
                digest_base_ns: 15_000,
                digest_per_byte_ns: 5,
            },
            SchemeId::Md5Rsa1536 => SchemeTiming {
                sign_ns: 82_000_000, // ~(1536/1024)^3 ≈ 3x RSA-1024
                verify_ns: 2_600_000,
                digest_base_ns: 15_000,
                digest_per_byte_ns: 5,
            },
            SchemeId::Sha1Dsa1024 => SchemeTiming {
                sign_ns: 26_000_000,  // "time taken to sign ... is similar"
                verify_ns: 5_500_000, // two exponentiations; ≫ RSA verify
                digest_base_ns: 18_000,
                digest_per_byte_ns: 7,
            },
            SchemeId::Sha256Rsa2048 => SchemeTiming {
                sign_ns: 180_000_000,
                verify_ns: 4_500_000,
                digest_base_ns: 20_000,
                digest_per_byte_ns: 8,
            },
            SchemeId::NoCrypto => SchemeTiming {
                sign_ns: 0,
                verify_ns: 0,
                digest_base_ns: 0,
                digest_per_byte_ns: 0,
            },
        }
    }

    /// Cost of digesting `len` bytes.
    pub fn digest_cost(&self, len: usize) -> u64 {
        if self.digest_base_ns == 0 && self.digest_per_byte_ns == 0 {
            return 0;
        }
        self.digest_base_ns + self.digest_per_byte_ns * len as u64
    }

    /// Cost of signing a message of `len` bytes (digest + private-key op).
    pub fn sign_cost(&self, len: usize) -> u64 {
        self.sign_ns + self.digest_cost(len)
    }

    /// Cost of verifying a signature over `len` bytes.
    pub fn verify_cost(&self, len: usize) -> u64 {
        self.verify_ns + self.digest_cost(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ratios_hold() {
        let rsa1024 = SchemeTiming::calibrated(SchemeId::Md5Rsa1024);
        let rsa1536 = SchemeTiming::calibrated(SchemeId::Md5Rsa1536);
        let dsa = SchemeTiming::calibrated(SchemeId::Sha1Dsa1024);

        // Sign times similar between RSA-1024 and DSA-1024 (§5).
        let ratio = rsa1024.sign_ns as f64 / dsa.sign_ns as f64;
        assert!((0.5..2.0).contains(&ratio), "sign ratio {ratio}");

        // RSA verify much faster than DSA verify (§5).
        assert!(dsa.verify_ns > 4 * rsa1024.verify_ns);

        // Bigger RSA keys cost more.
        assert!(rsa1536.sign_ns > 2 * rsa1024.sign_ns);
        assert!(rsa1536.verify_ns > rsa1024.verify_ns);
    }

    #[test]
    fn nocrypto_is_free() {
        let t = SchemeTiming::calibrated(SchemeId::NoCrypto);
        assert_eq!(t.sign_cost(10_000), 0);
        assert_eq!(t.verify_cost(10_000), 0);
        assert_eq!(t.digest_cost(10_000), 0);
    }

    #[test]
    fn costs_scale_with_length() {
        let t = SchemeTiming::calibrated(SchemeId::Md5Rsa1024);
        assert!(t.digest_cost(10_000) > t.digest_cost(100));
        assert!(t.sign_cost(1_000) > t.sign_ns);
        assert!(t.verify_cost(1_000) > t.verify_ns);
    }
}
