//! A minimal file-extent layer over a block device.
//!
//! Ransomware attacks files, not LBAs; this layer gives the actors a victim
//! corpus. Each file is a contiguous LPA extent with deterministic content,
//! so post-recovery verification can re-derive the expected bytes without
//! storing them.

use rssd_ssd::{BlockDevice, DeviceError};
use rssd_trace::{synthesize_page, PayloadKind};

/// One file: a named, contiguous page extent with known content seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// File name.
    pub name: String,
    /// First LPA of the extent.
    pub start_lpa: u64,
    /// Extent length in pages.
    pub pages: u64,
    /// Payload class the file was written with.
    pub payload: PayloadKind,
    /// Base content seed (page `i` uses `seed + i`).
    pub seed: u64,
}

impl FileMeta {
    /// LPAs covered by this file.
    pub fn lpas(&self) -> std::ops::Range<u64> {
        self.start_lpa..self.start_lpa + self.pages
    }

    /// Expected content of page `i` of this file.
    pub fn expected_page(&self, i: u64, page_size: usize) -> Vec<u8> {
        synthesize_page(self.payload, self.seed + i, page_size)
    }
}

/// The victim "filesystem": a bump-allocated table of file extents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FileTable {
    files: Vec<FileMeta>,
    next_lpa: u64,
}

impl FileTable {
    /// Creates an empty table allocating from LPA 0.
    pub fn new() -> Self {
        FileTable::default()
    }

    /// Creates a table that starts allocating at `first_lpa` (leaving room
    /// for other data).
    pub fn starting_at(first_lpa: u64) -> Self {
        FileTable {
            files: Vec::new(),
            next_lpa: first_lpa,
        }
    }

    /// The files, in creation order.
    pub fn files(&self) -> &[FileMeta] {
        &self.files
    }

    /// Total pages across all files.
    pub fn total_pages(&self) -> u64 {
        self.files.iter().map(|f| f.pages).sum()
    }

    /// Every LPA belonging to any file.
    pub fn all_lpas(&self) -> Vec<u64> {
        self.files.iter().flat_map(|f| f.lpas()).collect()
    }

    /// Known-good content of `lpa`, when a file of this table covers it —
    /// what recovery of a hostage page is graded against.
    pub fn expected(&self, lpa: u64, page_size: usize) -> Option<Vec<u8>> {
        let file = self.files.iter().find(|f| f.lpas().contains(&lpa))?;
        Some(file.expected_page(lpa - file.start_lpa, page_size))
    }

    /// Next free LPA after the allocated extents.
    pub fn next_lpa(&self) -> u64 {
        self.next_lpa
    }

    /// Creates a file and writes its content through `device`.
    ///
    /// # Errors
    ///
    /// Propagates device errors (e.g. out of logical space).
    pub fn create_file<D: BlockDevice + ?Sized>(
        &mut self,
        device: &mut D,
        name: &str,
        pages: u64,
        payload: PayloadKind,
        seed: u64,
    ) -> Result<&FileMeta, DeviceError> {
        let meta = FileMeta {
            name: name.to_string(),
            start_lpa: self.next_lpa,
            pages,
            payload,
            seed,
        };
        let page_size = device.page_size();
        for i in 0..pages {
            device.write_page(meta.start_lpa + i, meta.expected_page(i, page_size))?;
        }
        self.next_lpa += pages;
        self.files.push(meta);
        Ok(self.files.last().expect("just pushed"))
    }

    /// Populates a corpus of `n_files` files of `pages_per_file` pages each,
    /// cycling through realistic payload classes.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn populate<D: BlockDevice + ?Sized>(
        device: &mut D,
        n_files: usize,
        pages_per_file: u64,
        base_seed: u64,
    ) -> Result<FileTable, DeviceError> {
        let mut table = FileTable::new();
        let kinds = [PayloadKind::Text, PayloadKind::Binary, PayloadKind::Text];
        for i in 0..n_files {
            table.create_file(
                device,
                &format!("user/doc_{i:04}.dat"),
                pages_per_file,
                kinds[i % kinds.len()],
                base_seed + (i as u64) * 1_000,
            )?;
        }
        Ok(table)
    }

    /// Verifies how many pages of every file still hold their original
    /// content on `device`. Returns `(intact_pages, total_pages)`.
    pub fn verify_intact<D: BlockDevice + ?Sized>(&self, device: &mut D) -> (u64, u64) {
        let page_size = device.page_size();
        let mut intact = 0u64;
        let mut total = 0u64;
        for file in &self.files {
            for i in 0..file.pages {
                total += 1;
                if let Ok(data) = device.read_page(file.start_lpa + i) {
                    if data == file.expected_page(i, page_size) {
                        intact += 1;
                    }
                }
            }
        }
        (intact, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rssd_flash::{FlashGeometry, NandTiming, SimClock};
    use rssd_ssd::PlainSsd;

    fn device() -> PlainSsd {
        PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        )
    }

    #[test]
    fn populate_and_verify() {
        let mut d = device();
        let table = FileTable::populate(&mut d, 5, 4, 42).unwrap();
        assert_eq!(table.files().len(), 5);
        assert_eq!(table.total_pages(), 20);
        let (intact, total) = table.verify_intact(&mut d);
        assert_eq!((intact, total), (20, 20));
    }

    #[test]
    fn extents_are_disjoint_and_contiguous() {
        let mut d = device();
        let table = FileTable::populate(&mut d, 3, 4, 1).unwrap();
        let lpas = table.all_lpas();
        assert_eq!(lpas.len(), 12);
        let mut sorted = lpas.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12, "no overlap");
        assert_eq!(table.next_lpa(), 12);
    }

    #[test]
    fn corruption_detected() {
        let mut d = device();
        let table = FileTable::populate(&mut d, 2, 4, 7).unwrap();
        assert_eq!(table.expected(5, 4096), d.read_page(5).ok());
        assert_eq!(table.expected(8, 4096), None, "past the last extent");
        d.write_page(0, vec![0xFF; 4096]).unwrap();
        let (intact, total) = table.verify_intact(&mut d);
        assert_eq!((intact, total), (7, 8));
    }

    #[test]
    fn expected_page_is_deterministic() {
        let meta = FileMeta {
            name: "x".into(),
            start_lpa: 0,
            pages: 2,
            payload: PayloadKind::Text,
            seed: 5,
        };
        assert_eq!(meta.expected_page(1, 512), meta.expected_page(1, 512));
        assert_ne!(meta.expected_page(0, 512), meta.expected_page(1, 512));
    }

    #[test]
    fn starting_at_offsets_allocation() {
        let mut d = device();
        let mut table = FileTable::starting_at(50);
        table
            .create_file(&mut d, "a", 2, PayloadKind::Binary, 1)
            .unwrap();
        assert_eq!(table.files()[0].start_lpa, 50);
    }
}
