//! The sharded, spill-as-you-go segment writer.
//!
//! Writes what [`crate::segment`] lays out — header, chunk frames, footer —
//! and decides nothing about the bytes itself. Chunks are `Raw` or `Col`
//! ([`crate::codec`]), never the decode-only `Lz`, which [`TraceWriter::new`]
//! refuses.

use crate::record::{ConnectionRecord, TraceEntry};
use crate::segment::{
    encode_chunk, encode_footer, write_header, ChunkInfo, Footer, SegmentConfig, SegmentError,
    SegmentSummary, HEADER_LEN,
};
use ipfs_mon_obs as obs;
use std::io::Write;

/// Writes a segment incrementally: entries are buffered per monitor (one
/// shard each) and spilled to the sink as framed columnar **v2** chunks —
/// length varint, then a payload opening with the codec byte of
/// [`SegmentConfig::codec`], then the payload CRC — whenever a shard reaches
/// the configured capacity. Memory use is bounded by
/// `monitors × chunk_capacity` entries regardless of trace length.
///
/// Connection records are rare relative to entries and are kept for the
/// footer. Call [`TraceWriter::finish`] to flush the remaining shard buffers
/// and write the footer index; a segment without its footer is unreadable.
pub struct TraceWriter<W: Write> {
    sink: W,
    /// Bytes written so far (chunk offsets are tracked manually so the sink
    /// only needs `Write`, not `Seek`).
    offset: u64,
    shards: Vec<Vec<TraceEntry>>,
    /// Highest timestamp appended so far, per monitor (for lateness
    /// tracking).
    high_water: Vec<Option<ipfs_mon_simnet::time::SimTime>>,
    footer: Footer,
    config: SegmentConfig,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer for monitors with the given labels and writes the
    /// segment header.
    pub fn new(
        mut sink: W,
        monitor_labels: Vec<String>,
        config: SegmentConfig,
    ) -> Result<Self, SegmentError> {
        config.validate()?;
        write_header(&mut sink)?;
        let monitors = monitor_labels.len();
        Ok(Self {
            sink,
            offset: HEADER_LEN as u64,
            shards: vec![Vec::new(); monitors],
            high_water: vec![None; monitors],
            footer: Footer {
                monitor_labels,
                max_lateness_ms: vec![0; monitors],
                ..Footer::default()
            },
            config,
        })
    }

    /// Number of monitors (shards).
    pub fn monitor_count(&self) -> usize {
        self.shards.len()
    }

    /// Entries accepted so far (buffered or spilled).
    pub fn total_entries(&self) -> u64 {
        self.footer.total_entries + self.shards.iter().map(|s| s.len() as u64).sum::<u64>()
    }

    /// Appends one entry to its monitor's shard, spilling a chunk when the
    /// shard is full. The entry's `monitor` field selects the shard.
    pub fn append(&mut self, entry: &TraceEntry) -> Result<(), SegmentError> {
        self.append_owned(entry.clone())
    }

    /// Like [`TraceWriter::append`], but takes ownership — callers that
    /// already hold (or had to re-index) an owned entry skip a clone.
    pub fn append_owned(&mut self, entry: TraceEntry) -> Result<(), SegmentError> {
        let monitor = entry.monitor;
        assert!(
            monitor < self.shards.len(),
            "entry for monitor {monitor} but the segment has {} monitors",
            self.shards.len()
        );
        // Monitors log in arrival order but entries carry send-side
        // timestamps, so streams can be locally out of order; record the
        // worst backward jump so readers can size exact reorder buffers.
        match self.high_water[monitor] {
            Some(high) if entry.timestamp < high => {
                let lateness = high.since(entry.timestamp).as_millis();
                let slot = &mut self.footer.max_lateness_ms[monitor];
                *slot = (*slot).max(lateness);
            }
            Some(high) if entry.timestamp <= high => {}
            _ => self.high_water[monitor] = Some(entry.timestamp),
        }
        self.shards[monitor].push(entry);
        if self.shards[monitor].len() >= self.config.chunk_capacity {
            self.flush_shard(monitor)?;
        }
        Ok(())
    }

    /// Stores a connection record in the footer.
    pub fn record_connection(&mut self, record: ConnectionRecord) {
        self.footer.connections.push(record);
    }

    /// Bytes handed to the sink so far (header + spilled chunk frames). After
    /// [`TraceWriter::flush_buffered`] plus a sink flush/fsync, exactly this
    /// prefix of the file is durable and chunk-recoverable.
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Entries already spilled to the sink as complete chunk frames —
    /// the durable entry count once the sink is synced (buffered shard
    /// entries are *not* included; compare [`TraceWriter::total_entries`]).
    pub fn spilled_entries(&self) -> u64 {
        self.footer.total_entries
    }

    /// Connection records collected for the footer so far. Checkpoints
    /// persist these separately: until [`TraceWriter::finish`] writes the
    /// footer they exist only in memory.
    pub fn connections(&self) -> &[ConnectionRecord] {
        &self.footer.connections
    }

    /// Mutable access to the sink, for owners that need to flush or sync the
    /// underlying file (e.g. the checkpoint path of
    /// [`crate::manifest::DatasetWriter`]).
    pub(crate) fn sink_mut(&mut self) -> &mut W {
        &mut self.sink
    }

    /// Spills every non-empty shard buffer as a (possibly small) chunk, so
    /// all accepted entries are represented in the byte stream handed to the
    /// sink. Used by checkpointing to make the open segment's entries
    /// durable; frequent calls trade chunk size (and thus compression ratio)
    /// for a tighter durability horizon.
    pub fn flush_buffered(&mut self) -> Result<(), SegmentError> {
        for monitor in 0..self.shards.len() {
            self.flush_shard(monitor)?;
        }
        Ok(())
    }

    /// Encodes and spills the shard's buffered entries as one chunk.
    fn flush_shard(&mut self, monitor: usize) -> Result<(), SegmentError> {
        if self.shards[monitor].is_empty() {
            return Ok(());
        }
        let entries = std::mem::take(&mut self.shards[monitor]);
        let mut frame = Vec::new();
        let mut info: ChunkInfo = encode_chunk(monitor, &entries, self.config.codec, &mut frame);
        info.offset = self.offset;
        self.sink.write_all(&frame)?;
        self.offset += frame.len() as u64;
        obs::counter!("store.chunks_written").incr();
        obs::counter!("store.entries_written").add(info.entries);
        obs::counter!("store.bytes_written").add(frame.len() as u64);
        self.footer.total_entries += info.entries;
        self.footer.chunks.push(info);
        Ok(())
    }

    /// Flushes all shards, writes the footer, and returns segment statistics.
    pub fn finish(self) -> Result<SegmentSummary, SegmentError> {
        self.finish_into().map(|(summary, _)| summary)
    }

    /// Like [`TraceWriter::finish`], but hands the sink back so the owner
    /// can sync the underlying file to stable storage before declaring the
    /// segment sealed (see `MonitorWriter::rotate` in
    /// [`crate::manifest`]).
    pub fn finish_into(mut self) -> Result<(SegmentSummary, W), SegmentError> {
        self.flush_buffered()?;
        let mut footer_bytes = Vec::new();
        encode_footer(&self.footer, &mut footer_bytes);
        self.sink.write_all(&footer_bytes)?;
        self.offset += footer_bytes.len() as u64;
        self.sink.flush()?;
        Ok((
            SegmentSummary {
                bytes_written: self.offset,
                total_entries: self.footer.total_entries,
                chunks: self.footer.chunks.len(),
                connections: self.footer.connections.len(),
            },
            self.sink,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{SliceSource, TraceReader};
    use crate::record::EntryFlags;
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};

    fn entry(ms: u64, peer: u64, monitor: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(9, peer),
            address: Multiaddr::new(7, 4001, Transport::Quic, Country::Us),
            request_type: RequestType::WantBlock,
            cid: Cid::new_v1(Multicodec::Raw, &peer.to_be_bytes()),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    #[test]
    fn spills_chunks_at_capacity() {
        let mut bytes = Vec::new();
        let config = SegmentConfig {
            chunk_capacity: 10,
            ..SegmentConfig::default()
        };
        let mut writer =
            TraceWriter::new(&mut bytes, vec!["us".into(), "de".into()], config).unwrap();
        for i in 0..25 {
            writer.append(&entry(i * 100, i, 0)).unwrap();
        }
        for i in 0..5 {
            writer.append(&entry(i * 100, i, 1)).unwrap();
        }
        assert_eq!(writer.total_entries(), 30);
        let summary = writer.finish().unwrap();
        // Monitor 0: two full chunks + remainder; monitor 1: one chunk.
        assert_eq!(summary.chunks, 4);
        assert_eq!(summary.total_entries, 30);
        assert_eq!(summary.bytes_written, bytes.len() as u64);

        let reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
        assert_eq!(reader.total_entries(), 30);
        assert_eq!(reader.stream_monitor(0).count(), 25);
        assert_eq!(reader.stream_monitor(1).count(), 5);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let mut bytes = Vec::new();
        let writer =
            TraceWriter::new(&mut bytes, vec!["only".into()], SegmentConfig::default()).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_entries, 0);
        assert_eq!(summary.chunks, 0);
        let reader = TraceReader::new(SliceSource::new(&bytes)).unwrap();
        assert_eq!(reader.monitor_labels(), ["only".to_string()]);
        assert_eq!(reader.stream_monitor(0).count(), 0);
    }

    #[test]
    fn zero_chunk_capacity_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        let result = TraceWriter::new(
            &mut bytes,
            vec!["only".into()],
            SegmentConfig {
                chunk_capacity: 0,
                ..SegmentConfig::default()
            },
        );
        assert!(matches!(result, Err(SegmentError::InvalidConfig(_))));
        assert!(bytes.is_empty(), "nothing must be written on bad config");
    }

    #[test]
    #[should_panic(expected = "monitor 3")]
    fn append_rejects_unknown_monitor() {
        let mut bytes = Vec::new();
        let mut writer =
            TraceWriter::new(&mut bytes, vec!["a".into()], SegmentConfig::default()).unwrap();
        let _ = writer.append(&entry(0, 0, 3));
    }
}
