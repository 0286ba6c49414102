//! The four attack actors.

use crate::fs::FileTable;
use rssd_crypto::ChaCha20;
use rssd_ssd::{BlockDevice, DeviceError};
use rssd_trace::{synthesize_page, PayloadKind};

/// What an attack did (ground truth for the evaluation).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Pages overwritten with ciphertext.
    pub pages_encrypted: u64,
    /// Pages trimmed.
    pub pages_trimmed: u64,
    /// Fresh flood pages written (GC attack).
    pub flood_pages: u64,
    /// Simulated start of the first malicious operation.
    pub start_ns: u64,
    /// Simulated end of the last malicious operation.
    pub end_ns: u64,
    /// LPAs whose original content the attack destroyed.
    pub victim_lpas: Vec<u64>,
}

fn encrypt_page(key: &[u8; 32], lpa: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&lpa.to_le_bytes());
    ChaCha20::encrypt(key, &nonce, plaintext)
}

/// Classic encryption ransomware: read each victim page, overwrite it with
/// ciphertext, as fast as the device allows.
#[derive(Clone, Debug)]
pub struct ClassicRansomware {
    key: [u8; 32],
}

impl ClassicRansomware {
    /// Creates an actor with an attacker key derived from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8] = 0xA7;
        ClassicRansomware { key }
    }

    /// Runs the attack against every file in `victims`.
    ///
    /// # Errors
    ///
    /// Propagates device errors (a stalled device interrupts the attack —
    /// which is itself a defense outcome).
    pub fn execute<D: BlockDevice + ?Sized>(
        &self,
        device: &mut D,
        victims: &FileTable,
    ) -> Result<AttackOutcome, DeviceError> {
        let mut outcome = AttackOutcome {
            start_ns: device.clock().now_ns(),
            ..AttackOutcome::default()
        };
        for file in victims.files() {
            for lpa in file.lpas() {
                let plaintext = device.read_page(lpa)?;
                let ciphertext = encrypt_page(&self.key, lpa, &plaintext);
                device.write_page(lpa, ciphertext)?;
                outcome.pages_encrypted += 1;
                outcome.victim_lpas.push(lpa);
            }
        }
        outcome.end_ns = device.clock().now_ns();
        Ok(outcome)
    }
}

/// The GC attack: encrypt, then flood the device's free space with fresh
/// data for several rounds, forcing garbage collection to erase whatever
/// stale originals a capacity-bounded defense retained.
#[derive(Clone, Debug)]
pub struct GcAttack {
    inner: ClassicRansomware,
    /// How many times to overwrite the flood region.
    pub flood_rounds: u32,
}

impl GcAttack {
    /// Creates the actor.
    pub fn new(seed: u64, flood_rounds: u32) -> Self {
        GcAttack {
            inner: ClassicRansomware::new(seed),
            flood_rounds: flood_rounds.max(1),
        }
    }

    /// Encrypts `victims`, then floods all remaining logical space.
    ///
    /// # Errors
    ///
    /// Propagates device errors other than stalls (stalled flood writes are
    /// simply counted — a wedged device has *defended* by refusing).
    pub fn execute<D: BlockDevice + ?Sized>(
        &self,
        device: &mut D,
        victims: &FileTable,
    ) -> Result<AttackOutcome, DeviceError> {
        let mut outcome = self.inner.execute(device, victims)?;
        let flood_start = victims.next_lpa();
        let logical = device.logical_pages();
        let page_size = device.page_size();
        for round in 0..self.flood_rounds {
            for lpa in flood_start..logical {
                let junk =
                    synthesize_page(PayloadKind::Binary, u64::from(round) << 32 | lpa, page_size);
                match device.write_page(lpa, junk) {
                    Ok(()) => outcome.flood_pages += 1,
                    Err(DeviceError::Stalled) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        outcome.end_ns = device.clock().now_ns();
        Ok(outcome)
    }
}

/// The timing attack: encrypt a small batch, then go quiet for a long
/// interval (during which optional benign cover traffic runs), repeating
/// until every victim page is encrypted. Evades rate/window detectors and
/// read-overwrite correlators.
#[derive(Clone, Debug)]
pub struct TimingAttack {
    inner: ClassicRansomware,
    /// Pages encrypted per burst.
    pub pages_per_burst: u64,
    /// Quiet interval between bursts (simulated ns).
    pub interval_ns: u64,
}

impl TimingAttack {
    /// One-hour default interval.
    pub fn new(seed: u64, pages_per_burst: u64, interval_ns: u64) -> Self {
        TimingAttack {
            inner: ClassicRansomware::new(seed),
            pages_per_burst: pages_per_burst.max(1),
            interval_ns,
        }
    }

    /// Runs the attack. `cover_io` is called once per quiet interval with
    /// the device, to generate benign cover traffic.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn execute<D, F>(
        &self,
        device: &mut D,
        victims: &FileTable,
        mut cover_io: F,
    ) -> Result<AttackOutcome, DeviceError>
    where
        D: BlockDevice + ?Sized,
        F: FnMut(&mut D) -> Result<(), DeviceError>,
    {
        let mut outcome = AttackOutcome {
            start_ns: device.clock().now_ns(),
            ..AttackOutcome::default()
        };
        let lpas = victims.all_lpas();
        for batch in lpas.chunks(self.pages_per_burst as usize) {
            // Read the plaintext well before the overwrite: by the time the
            // ciphertext lands, read-overwrite correlation has gone cold.
            let plaintexts: Vec<(u64, Vec<u8>)> = batch
                .iter()
                .map(|&lpa| Ok((lpa, device.read_page(lpa)?)))
                .collect::<Result<_, DeviceError>>()?;
            device.clock().advance(self.interval_ns);
            cover_io(device)?;
            for (lpa, plaintext) in plaintexts {
                let ciphertext = encrypt_page(&self.inner.key, lpa, &plaintext);
                device.write_page(lpa, ciphertext)?;
                outcome.pages_encrypted += 1;
                outcome.victim_lpas.push(lpa);
            }
        }
        outcome.end_ns = device.clock().now_ns();
        Ok(outcome)
    }
}

/// The trimming attack: write a ransom-encrypted copy elsewhere (so the
/// attacker can still sell the key), then `trim` the original extents so
/// the SSD physically erases the plaintext.
#[derive(Clone, Debug)]
pub struct TrimAttack {
    inner: ClassicRansomware,
    /// Also write encrypted copies to fresh locations before trimming.
    pub keep_ciphertext_copy: bool,
}

impl TrimAttack {
    /// Creates the actor.
    pub fn new(seed: u64, keep_ciphertext_copy: bool) -> Self {
        TrimAttack {
            inner: ClassicRansomware::new(seed),
            keep_ciphertext_copy,
        }
    }

    /// Runs the attack.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn execute<D: BlockDevice + ?Sized>(
        &self,
        device: &mut D,
        victims: &FileTable,
    ) -> Result<AttackOutcome, DeviceError> {
        let mut outcome = AttackOutcome {
            start_ns: device.clock().now_ns(),
            ..AttackOutcome::default()
        };
        let mut copy_lpa = victims.next_lpa();
        let logical = device.logical_pages();
        for file in victims.files() {
            for lpa in file.lpas() {
                if self.keep_ciphertext_copy && copy_lpa < logical {
                    let plaintext = device.read_page(lpa)?;
                    let ciphertext = encrypt_page(&self.inner.key, lpa, &plaintext);
                    device.write_page(copy_lpa, ciphertext)?;
                    copy_lpa += 1;
                }
                device.trim_page(lpa)?;
                outcome.pages_trimmed += 1;
                outcome.victim_lpas.push(lpa);
            }
        }
        outcome.end_ns = device.clock().now_ns();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::PlainSsd;

    fn setup() -> (PlainSsd, FileTable) {
        let mut d = PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        );
        let table = FileTable::populate(&mut d, 4, 4, 7).unwrap();
        (d, table)
    }

    #[test]
    fn classic_destroys_files_on_plain_ssd() {
        let (mut d, table) = setup();
        let outcome = ClassicRansomware::new(1).execute(&mut d, &table).unwrap();
        assert_eq!(outcome.pages_encrypted, 16);
        assert_eq!(outcome.victim_lpas.len(), 16);
        let (intact, total) = table.verify_intact(&mut d);
        assert_eq!((intact, total), (0, 16), "all files encrypted");
    }

    #[test]
    fn ciphertext_is_high_entropy() {
        let (mut d, table) = setup();
        ClassicRansomware::new(1).execute(&mut d, &table).unwrap();
        let page = d.read_page(0).unwrap();
        let mut counts = [0u64; 256];
        for &b in &page {
            counts[b as usize] += 1;
        }
        let n = page.len() as f64;
        let entropy: f64 = counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum();
        assert!(entropy > 7.5, "entropy {entropy}");
    }

    #[test]
    fn encryption_is_invertible_with_key() {
        // Sanity: the attacker *can* decrypt (it is ransomware, not a wiper).
        let key = ClassicRansomware::new(1).key;
        let plain = synthesize_page(PayloadKind::Text, 3, 4096);
        let cipher = encrypt_page(&key, 9, &plain);
        assert_eq!(encrypt_page(&key, 9, &cipher), plain);
    }

    #[test]
    fn gc_attack_floods() {
        let (mut d, table) = setup();
        let outcome = GcAttack::new(1, 2).execute(&mut d, &table).unwrap();
        assert_eq!(outcome.pages_encrypted, 16);
        assert!(outcome.flood_pages > 100, "flood {}", outcome.flood_pages);
    }

    #[test]
    fn timing_attack_spreads_over_time() {
        let (mut d, table) = setup();
        let hour = 3_600_000_000_000u64;
        let attack = TimingAttack::new(1, 2, hour);
        let outcome = attack.execute(&mut d, &table, |_| Ok(())).unwrap();
        assert_eq!(outcome.pages_encrypted, 16);
        let span = outcome.end_ns - outcome.start_ns;
        assert!(span >= 8 * hour, "span {span}");
    }

    #[test]
    fn trim_attack_erases_on_plain_ssd() {
        let (mut d, table) = setup();
        let outcome = TrimAttack::new(1, false).execute(&mut d, &table).unwrap();
        assert_eq!(outcome.pages_trimmed, 16);
        assert_eq!(d.read_page(0).unwrap(), vec![0; 4096], "trimmed to zero");
        let (intact, _) = table.verify_intact(&mut d);
        assert_eq!(intact, 0);
    }

    #[test]
    fn trim_attack_with_copy_writes_ciphertext_elsewhere() {
        let (mut d, table) = setup();
        let copy_start = table.next_lpa();
        TrimAttack::new(1, true).execute(&mut d, &table).unwrap();
        let copy = d.read_page(copy_start).unwrap();
        assert_ne!(copy, vec![0; 4096], "ciphertext copy exists");
    }
}
