//! The host-facing block interface.

use crate::nvme::{CommandOutcome, CommandResult, IoCommand};
use rssd_flash::SimClock;
use rssd_ftl::FtlError;

/// Errors surfaced across the block interface.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// Logical page address beyond the exported capacity.
    OutOfRange {
        /// The offending logical page address.
        lpa: u64,
        /// Number of logical pages exported.
        logical_pages: u64,
    },
    /// The FTL refused the operation.
    Ftl(FtlError),
    /// The addressed page lives on a failed array member whose local flash
    /// is gone. Reads may still be served in degraded mode from the remote
    /// retention store; writes and trims are refused until the shard has
    /// been rebuilt (see `rssd-array`).
    ShardFailed {
        /// Index of the failed member within its array.
        shard: usize,
    },
    /// The device could not make forward progress (no reclaimable space and
    /// the retention policy refuses to release anything).
    Stalled,
    /// Power was lost before the command executed. The command was never
    /// acknowledged, so it is *detectably* lost — the host must treat it as
    /// never having happened and reissue after the device recovers (see
    /// `RssdDevice::crash`/`recover` in `rssd-core` and the `rssd-faults`
    /// injector).
    PowerLoss,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfRange { lpa, logical_pages } => {
                write!(f, "lpa {lpa} out of range ({logical_pages} logical pages)")
            }
            DeviceError::Ftl(e) => write!(f, "ftl: {e}"),
            DeviceError::ShardFailed { shard } => {
                write!(
                    f,
                    "array shard {shard} failed: local flash lost, awaiting rebuild"
                )
            }
            DeviceError::Stalled => write!(f, "device stalled: retention policy holds all space"),
            DeviceError::PowerLoss => {
                write!(f, "power lost before the command executed")
            }
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::Ftl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FtlError> for DeviceError {
    fn from(e: FtlError) -> Self {
        match e {
            // Addressing is a block-layer concept; don't leak FTL internals
            // for the one error every host has to understand.
            FtlError::LpaOutOfRange { lpa, logical_pages } => {
                DeviceError::OutOfRange { lpa, logical_pages }
            }
            other => DeviceError::Ftl(other),
        }
    }
}

/// The generic block I/O interface the host (and therefore any malware,
/// however privileged) sees. Everything underneath — mapping, retention,
/// logging, network offload — is hardware-isolated device state.
///
/// There is one way to submit I/O:
/// [`submit_batch_timed`](Self::submit_batch_timed), which the NVMe-style
/// queue layer ([`NvmeController`](crate::NvmeController)) drives once per
/// arbitration round. Every other submission method is provided on top of
/// it, and a scalar call is a batch of one — same code, same clock rule,
/// same log stamps as one command on a depth-1 queue.
pub trait BlockDevice {
    /// Human-readable model name (used in experiment tables).
    fn model_name(&self) -> &str;

    /// Page size in bytes; all I/O is in whole pages.
    fn page_size(&self) -> usize;

    /// Number of logical pages exported.
    fn logical_pages(&self) -> u64;

    /// Handle to the simulation clock driving this device.
    fn clock(&self) -> &SimClock;

    /// Executes a batch of queued commands in order, returning `(result,
    /// completion_time_ns)` per command, in submission order.
    ///
    /// The batch is *dispatched* onto the device's unit pipelines: commands
    /// on independent channels/chips/planes overlap, completion times come
    /// back out of order relative to submission, and the device clock
    /// advances once — to the batch's latest completion — when the batch
    /// returns (the "caller blocks on a completion" rule of the timing
    /// model). FTL-backed models implement this with
    /// [`execute_batch`](crate::execute_batch).
    ///
    /// Implementations must return exactly `commands.len()` results.
    /// Completion times must be on the device's [`SimClock`] timeline and
    /// at or after the clock value at the corresponding command's dispatch.
    /// How a command list is cut into batches may change only time: page
    /// contents, retained versions and the order of the evidence chain must
    /// not depend on it.
    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)>;

    /// [`submit_batch_timed`](Self::submit_batch_timed) without the
    /// completion times.
    fn submit_batch(&mut self, commands: Vec<IoCommand>) -> Vec<CommandResult> {
        self.submit_batch_timed(commands)
            .into_iter()
            .map(|(result, _)| result)
            .collect()
    }

    /// Executes one command as a batch of one.
    fn execute(&mut self, command: IoCommand) -> CommandResult {
        let (result, _) = self
            .submit_batch_timed(vec![command])
            .pop()
            .expect("one result per command");
        result
    }

    /// Writes one logical page.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] on invalid addresses, size mismatches, or
    /// unreclaimable capacity exhaustion.
    fn write_page(&mut self, lpa: u64, data: Vec<u8>) -> Result<(), DeviceError> {
        self.execute(IoCommand::Write { lpa, data }).map(|_| ())
    }

    /// Reads one logical page; unmapped pages read as zeroes (the behaviour
    /// of a real SSD after trim/deallocate).
    ///
    /// # Errors
    ///
    /// [`DeviceError`] on invalid addresses.
    fn read_page(&mut self, lpa: u64) -> Result<Vec<u8>, DeviceError> {
        match self.execute(IoCommand::Read { lpa })? {
            CommandOutcome::Read(data) => Ok(data),
            other => unreachable!("read completed as {other:?}"),
        }
    }

    /// Trims (deallocates) one logical page.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] on invalid addresses.
    fn trim_page(&mut self, lpa: u64) -> Result<(), DeviceError> {
        self.execute(IoCommand::Trim { lpa }).map(|_| ())
    }

    /// Flushes any buffered state (a barrier).
    ///
    /// # Errors
    ///
    /// Implementations may surface deferred write-back failures here.
    fn flush(&mut self) -> Result<(), DeviceError> {
        self.execute(IoCommand::Flush).map(|_| ())
    }

    /// Best-effort recovery of the newest *retained* pre-attack version of
    /// `lpa`, if this device model retains anything. `None` means
    /// unrecoverable on this model — the paper's Table 1 "Recovery" column.
    fn recover_page(&mut self, lpa: u64) -> Option<Vec<u8>> {
        let _ = lpa;
        None
    }
}

/// Forwarding impl so controllers and replay harnesses can borrow a device
/// (`NvmeController<&mut D>`) instead of taking ownership.
impl<T: BlockDevice + ?Sized> BlockDevice for &mut T {
    fn model_name(&self) -> &str {
        (**self).model_name()
    }

    fn page_size(&self) -> usize {
        (**self).page_size()
    }

    fn logical_pages(&self) -> u64 {
        (**self).logical_pages()
    }

    fn clock(&self) -> &SimClock {
        (**self).clock()
    }

    fn write_page(&mut self, lpa: u64, data: Vec<u8>) -> Result<(), DeviceError> {
        (**self).write_page(lpa, data)
    }

    fn read_page(&mut self, lpa: u64) -> Result<Vec<u8>, DeviceError> {
        (**self).read_page(lpa)
    }

    fn trim_page(&mut self, lpa: u64) -> Result<(), DeviceError> {
        (**self).trim_page(lpa)
    }

    fn flush(&mut self) -> Result<(), DeviceError> {
        (**self).flush()
    }

    fn execute(&mut self, command: IoCommand) -> CommandResult {
        (**self).execute(command)
    }

    fn submit_batch(&mut self, commands: Vec<IoCommand>) -> Vec<CommandResult> {
        (**self).submit_batch(commands)
    }

    fn submit_batch_timed(&mut self, commands: Vec<IoCommand>) -> Vec<(CommandResult, u64)> {
        (**self).submit_batch_timed(commands)
    }

    fn recover_page(&mut self, lpa: u64) -> Option<Vec<u8>> {
        (**self).recover_page(lpa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::PlainSsd;
    use rssd_flash::{FlashGeometry, NandTiming};

    #[test]
    fn device_error_display_and_source() {
        let e = DeviceError::Ftl(FtlError::DeviceFull);
        assert!(e.to_string().contains("ftl"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&DeviceError::Stalled).is_none());
    }

    #[test]
    fn shard_failed_names_the_shard() {
        let e = DeviceError::ShardFailed { shard: 2 };
        assert!(e.to_string().contains("shard 2"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn lpa_out_of_range_surfaces_as_block_layer_error() {
        let e: DeviceError = FtlError::LpaOutOfRange {
            lpa: 99,
            logical_pages: 10,
        }
        .into();
        assert_eq!(
            e,
            DeviceError::OutOfRange {
                lpa: 99,
                logical_pages: 10
            }
        );
        assert!(e.to_string().contains("out of range"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn scalar_methods_report_out_of_range() {
        let mut d = PlainSsd::new(
            FlashGeometry::small_test(),
            NandTiming::instant(),
            SimClock::new(),
        );
        let bad = d.logical_pages() + 1;
        for result in [
            d.write_page(bad, vec![0; 4096]).err(),
            d.read_page(bad).err(),
            d.trim_page(bad).err(),
        ] {
            assert!(matches!(
                result,
                Some(DeviceError::OutOfRange { lpa, .. }) if lpa == bad
            ));
        }
    }
}
