//! The spill-as-you-go segment writer: one monitor's entries into one segment.
//!
//! Writes what [`crate::segment`] lays out — header, chunk frames in the one
//! layout of [`crate::col`], footer — and decides nothing about the bytes
//! itself. A segment holds one monitor's entries: the writer is given that
//! monitor's label and never reads `TraceEntry::monitor` (the dataset maps
//! the file to its monitor — see [`crate::manifest`]).

use crate::record::{ConnectionRecord, TraceEntry};
use crate::segment::{
    encode_chunk, encode_footer, write_header, ChunkInfo, Footer, SegmentConfig, SegmentError,
    SegmentSummary, HEADER_LEN,
};
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::SimTime;
use std::io::Write;

/// Writes a segment incrementally: entries are buffered and spilled to the
/// sink as framed columnar chunks — length varint, then a payload opening
/// with the codec byte, then the payload CRC — whenever the buffer reaches
/// the configured capacity. Memory use is bounded by `chunk_capacity`
/// entries regardless of trace length.
///
/// Connection records are rare relative to entries and are kept for the
/// footer. Call [`TraceWriter::finish`] to flush the remaining buffer and
/// write the footer index; a segment without its footer is unreadable.
///
/// A sink error leaves part of a frame behind and drops the chunk's
/// entries from the buffer: the writer must not be used after one
/// ([`crate::manifest::DatasetWriter`] ends itself on its first).
pub struct TraceWriter<W: Write> {
    sink: W,
    /// Bytes written so far (chunk offsets are tracked manually so the sink
    /// only needs `Write`, not `Seek`).
    offset: u64,
    buffer: Vec<TraceEntry>,
    /// Highest timestamp appended so far (for lateness tracking).
    high_water: Option<SimTime>,
    footer: Footer,
    config: SegmentConfig,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer for the monitor with the given label and writes the
    /// segment header.
    pub fn new(mut sink: W, label: String, config: SegmentConfig) -> Result<Self, SegmentError> {
        config.validate()?;
        write_header(&mut sink)?;
        Ok(Self {
            sink,
            offset: HEADER_LEN as u64,
            buffer: Vec::new(),
            high_water: None,
            footer: Footer {
                label,
                ..Footer::default()
            },
            config,
        })
    }

    /// Entries accepted so far (buffered or spilled).
    pub fn total_entries(&self) -> u64 {
        self.footer.total_entries + self.buffer.len() as u64
    }

    /// Appends one entry, spilling a chunk when the buffer is full.
    ///
    /// An entry timestamped after `i64::MAX` ms is refused as
    /// [`SegmentError::InvalidConfig`] before anything is buffered: the
    /// format stores each step between timestamps as an `i64`, so no reader
    /// could take it back, and the chunk would take its neighbours along.
    pub fn append(&mut self, entry: &TraceEntry) -> Result<(), SegmentError> {
        if entry.timestamp.as_millis() > i64::MAX as u64 {
            return Err(SegmentError::InvalidConfig(format!(
                "timestamp {} ms is past the largest a segment holds ({} ms)",
                entry.timestamp.as_millis(),
                i64::MAX
            )));
        }
        // Monitors log in arrival order but entries carry send-side
        // timestamps, so streams can be locally out of order; record the
        // worst backward jump so readers can size exact reorder buffers.
        match self.high_water {
            Some(high) if entry.timestamp < high => {
                let lateness = high.since(entry.timestamp).as_millis();
                self.footer.max_lateness_ms = self.footer.max_lateness_ms.max(lateness);
            }
            Some(high) if entry.timestamp <= high => {}
            _ => self.high_water = Some(entry.timestamp),
        }
        self.buffer.push(entry.clone());
        if self.buffer.len() >= self.config.chunk_capacity {
            self.flush_buffered()?;
        }
        Ok(())
    }

    /// Stores a connection record in the footer (as the segment's own
    /// monitor, whatever `record.monitor` says).
    pub fn record_connection(&mut self, record: ConnectionRecord) {
        self.footer.connections.push(ConnectionRecord {
            monitor: 0,
            ..record
        });
    }

    /// Bytes handed to the sink so far (header + spilled chunk frames). After
    /// [`TraceWriter::flush_buffered`] plus a sink flush/fsync, exactly this
    /// prefix of the file is durable and chunk-recoverable.
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Entries already spilled to the sink as complete chunk frames —
    /// the durable entry count once the sink is synced (buffered entries
    /// are *not* included; compare [`TraceWriter::total_entries`]).
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

    /// Spills the buffered entries as one (possibly small) chunk, so all
    /// accepted entries are represented in the byte stream handed to the
    /// sink. Used by checkpointing to make the open segment's entries
    /// durable; frequent calls trade chunk size (and thus compression ratio)
    /// for a tighter durability horizon.
    pub fn flush_buffered(&mut self) -> Result<(), SegmentError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let mut frame = Vec::new();
        let mut info: ChunkInfo = encode_chunk(&self.buffer, &mut frame);
        self.buffer.clear();
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

    /// Flushes the buffer, writes the footer, and returns segment statistics.
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
    use crate::record::EntryFlags;
    use crate::test_segment::reader_of;
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};

    fn entry(ms: u64, peer: u64) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(9, peer),
            address: Multiaddr::new(7, 4001, Transport::Quic, Country::Us),
            request_type: RequestType::WantBlock,
            cid: Cid::new_v1(Multicodec::Raw, &peer.to_be_bytes()),
            monitor: 0,
            flags: EntryFlags::default(),
        }
    }

    #[test]
    fn spills_chunks_at_capacity() {
        let mut bytes = Vec::new();
        let config = SegmentConfig { chunk_capacity: 10 };
        let mut writer = TraceWriter::new(&mut bytes, "us".into(), config).unwrap();
        for i in 0..25 {
            writer.append(&entry(i * 100, i)).unwrap();
        }
        assert_eq!(writer.spilled_entries(), 20);
        assert_eq!(writer.total_entries(), 25);
        let summary = writer.finish().unwrap();
        // Two full chunks + the remainder.
        assert_eq!(summary.chunks, 3);
        assert_eq!(summary.total_entries, 25);
        assert_eq!(summary.bytes_written, bytes.len() as u64);

        let reader = reader_of(&bytes).unwrap();
        assert_eq!(reader.total_entries(), 25);
        assert_eq!(reader.stream().count(), 25);
    }

    #[test]
    fn the_monitor_field_of_what_is_appended_is_not_stored() {
        // The writer is one monitor's: whichever dataset-wide index entries
        // and connection records carry, the segment's bytes are the same and
        // read back as the segment's own monitor 0.
        let segment_of = |monitor: usize| {
            let mut bytes = Vec::new();
            let mut writer =
                TraceWriter::new(&mut bytes, "de".into(), SegmentConfig::default()).unwrap();
            for i in 0..5 {
                let entry = TraceEntry {
                    monitor,
                    ..entry(i * 100, i)
                };
                writer.append(&entry).unwrap();
            }
            writer.record_connection(ConnectionRecord {
                monitor,
                peer: PeerId::derived(9, 1),
                address: Multiaddr::new(7, 4001, Transport::Quic, Country::Us),
                connected_at: SimTime::from_millis(3),
                disconnected_at: None,
            });
            writer.finish().unwrap();
            bytes
        };
        let bytes = segment_of(0);
        assert_eq!(segment_of(3), bytes);
        let reader = reader_of(&bytes).unwrap();
        assert!(reader.stream().all(|entry| entry.monitor == 0));
        assert_eq!(reader.connections()[0].monitor, 0);
    }

    #[test]
    fn timestamps_past_i64_max_are_refused_and_the_segment_still_reads() {
        // Each step between timestamps is stored as an `i64`: a chunk holding
        // one of these would overflow the step, and no reader would take back
        // its other entries either. The largest storable value is accepted.
        let last = i64::MAX as u64;
        for (accepted, refused) in [([5, 7, last], 1u64 << 63), ([0, last, last], u64::MAX)] {
            let mut bytes = Vec::new();
            let mut writer =
                TraceWriter::new(&mut bytes, "us".into(), SegmentConfig::default()).unwrap();
            writer.append(&entry(accepted[0], 0)).unwrap();
            match writer.append(&entry(refused, 1)) {
                Err(SegmentError::InvalidConfig(what)) => assert!(what.contains("timestamp")),
                other => panic!("{refused} ms must be refused: {other:?}"),
            }
            for &ms in &accepted[1..] {
                writer.append(&entry(ms, 2)).unwrap();
            }
            assert_eq!(writer.total_entries(), 3);
            writer.finish().unwrap();

            let reader = reader_of(&bytes).unwrap();
            let mut stream = reader.stream();
            let read: Vec<u64> = (&mut stream)
                .map(|entry| entry.timestamp.as_millis())
                .collect();
            assert!(stream.take_error().is_none());
            assert_eq!(read, accepted);
        }
    }

    #[test]
    fn empty_segment_roundtrips() {
        let mut bytes = Vec::new();
        let writer = TraceWriter::new(&mut bytes, "only".into(), SegmentConfig::default()).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_entries, 0);
        assert_eq!(summary.chunks, 0);
        let reader = reader_of(&bytes).unwrap();
        assert_eq!(reader.label(), "only");
        assert_eq!(reader.stream().count(), 0);
    }

    #[test]
    fn zero_chunk_capacity_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        let result = TraceWriter::new(
            &mut bytes,
            "only".into(),
            SegmentConfig { chunk_capacity: 0 },
        );
        assert!(matches!(result, Err(SegmentError::InvalidConfig(_))));
        assert!(bytes.is_empty(), "nothing must be written on bad config");
    }
}
