package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"literace/internal/obs"
)

// ThreadLoss records what salvage lost for one thread.
type ThreadLoss struct {
	// DroppedChunks counts chunks attributed to the thread that were
	// skipped wholesale (CRC or header failure after the tag decoded).
	DroppedChunks int `json:"dropped_chunks"`
	// SeqGaps counts missing sequence numbers: chunks the writer emitted
	// (or would have) that never made it into the decoded stream.
	SeqGaps uint64 `json:"seq_gaps"`
	// DroppedBytes counts payload bytes lost in dropped or partially
	// decoded chunks attributed to the thread.
	DroppedBytes int64 `json:"dropped_bytes"`
	// EventsSalvaged counts events recovered for the thread.
	EventsSalvaged int `json:"events_salvaged"`
}

// SalvageReport describes what Salvage recovered and what it gave up on.
// The byte accounting is exact: MagicBytes + BytesOK + BytesDropped ==
// TotalBytes.
type SalvageReport struct {
	Format     string `json:"format"`      // always "LTRC2"
	TotalBytes int64  `json:"total_bytes"` // input size
	MagicBytes int64  `json:"magic_bytes"` // leading magic consumed
	BytesOK    int64  `json:"bytes_ok"`    // bytes inside accepted chunks
	// BytesDropped counts every byte not inside an accepted chunk:
	// corrupt chunks, resync scans, duplicate chunks, and the truncated
	// tail.
	BytesDropped int64 `json:"bytes_dropped"`

	ChunksOK        int `json:"chunks_ok"`
	ChunksDropped   int `json:"chunks_dropped"`
	CRCFailures     int `json:"crc_failures"`
	DuplicateChunks int `json:"duplicate_chunks"`
	// SeqGaps totals the per-thread sequence gaps: chunks the writer
	// emitted that are absent from the input (lost writes; the bytes were
	// never seen, so BytesDropped cannot account for them).
	SeqGaps uint64 `json:"seq_gaps"`

	EventsSalvaged int `json:"events_salvaged"`

	// Truncated is set when the input ends mid-chunk (the signature of a
	// killed process); TruncatedAt is the offset where clean decoding
	// stopped.
	Truncated   bool  `json:"truncated"`
	TruncatedAt int64 `json:"truncated_at,omitempty"`

	// MetaSource says where Log.Meta came from: "trailer" (complete log),
	// "checkpoint" (crash recovery from the last periodic snapshot), or
	// "none".
	MetaSource   string `json:"meta_source"`
	CheckpointAt int64  `json:"checkpoint_at,omitempty"` // offset of the checkpoint used

	// Threads carries per-thread loss detail, keyed by tid.
	Threads map[int32]*ThreadLoss `json:"threads,omitempty"`
}

// Lossy reports whether the log lost anything: a lossless salvage decodes
// exactly what strict ReadAll would accept.
func (r *SalvageReport) Lossy() bool {
	return r.BytesDropped > 0 || r.ChunksDropped > 0 || r.CRCFailures > 0 ||
		r.SeqGaps > 0 || r.Truncated || r.MetaSource != "trailer"
}

// Summary renders the report as one diagnostic line.
func (r *SalvageReport) Summary() string {
	state := "clean"
	if r.Lossy() {
		state = "lossy"
	}
	s := fmt.Sprintf("%s %s: %d/%d chunks ok, %d events salvaged, %d bytes dropped, %d crc failures, meta from %s",
		r.Format, state, r.ChunksOK, r.ChunksOK+r.ChunksDropped, r.EventsSalvaged,
		r.BytesDropped, r.CRCFailures, r.MetaSource)
	if r.SeqGaps > 0 {
		s += fmt.Sprintf(", %d lost chunks (seq gaps)", r.SeqGaps)
	}
	if r.Truncated {
		s += fmt.Sprintf(", truncated at byte %d", r.TruncatedAt)
	}
	return s
}

func (r *SalvageReport) thread(tid int32) *ThreadLoss {
	if r.Threads == nil {
		r.Threads = make(map[int32]*ThreadLoss)
	}
	tl := r.Threads[tid]
	if tl == nil {
		tl = &ThreadLoss{}
		r.Threads[tid] = tl
	}
	return tl
}

// Salvage decodes as much of a damaged log as possible. Unlike ReadAll it
// never fails on truncation or corruption: bad chunks are dropped, the
// decoder resynchronizes on the next chunk marker, duplicate chunks are
// discarded, and a missing trailer falls back to the last valid
// checkpoint. The returned Log has Degraded set for every thread whose
// stream lost a chunk, so degraded-mode replay can tell which orderings
// are suspect. The error is non-nil only when the input cannot be read
// or does not begin with the LTRC2 magic (an LTRC1 log included).
func Salvage(r io.Reader) (*Log, *SalvageReport, error) {
	return SalvageObs(r, nil)
}

// SalvageObs is Salvage with telemetry: when reg is non-nil it counts
// trace.crc_failures and trace.salvaged_chunks.
func SalvageObs(r io.Reader, reg *obs.Registry) (*Log, *SalvageReport, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: salvage: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, nil, fmt.Errorf("trace: salvage: %w", errBadMagic(data))
	}
	log, rep := salvageV2(data)
	if reg != nil {
		reg.Counter("trace.crc_failures").Add(uint64(rep.CRCFailures))
		reg.Counter("trace.salvaged_chunks").Add(uint64(rep.ChunksOK))
	}
	return log, rep, nil
}

// errTruncatedChunk distinguishes running off the end of the input from
// in-place corruption.
var errTruncatedChunk = errors.New("trace: chunk extends past end of input")

// parseChunkV2 parses the LTRC2 chunk whose marker starts at data[off],
// returning the tag, payload, and the offset just past the CRC. crcOK
// distinguishes a well-framed chunk with a bad checksum from framing
// damage.
func parseChunkV2(data []byte, off int) (tag uint64, payload []byte, end int, crcOK bool, err error) {
	p := off + 4 // past the marker
	if p > len(data) {
		return 0, nil, 0, false, errTruncatedChunk
	}
	tag, n := binary.Uvarint(data[p:])
	if n <= 0 {
		if isTruncatedVarint(data[p:]) {
			return 0, nil, 0, false, errTruncatedChunk
		}
		return 0, nil, 0, false, errors.New("trace: bad chunk tag varint")
	}
	p += n
	size, n := binary.Uvarint(data[p:])
	if n <= 0 {
		if isTruncatedVarint(data[p:]) {
			return 0, nil, 0, false, errTruncatedChunk
		}
		return 0, nil, 0, false, errors.New("trace: bad chunk size varint")
	}
	p += n
	if size > maxChunkLen {
		return 0, nil, 0, false, fmt.Errorf("trace: chunk length %d exceeds limit %d", size, maxChunkLen)
	}
	if uint64(len(data)-p) < size+4 {
		return tag, nil, 0, false, errTruncatedChunk
	}
	payload = data[p : p+int(size)]
	p += int(size)
	got := binary.LittleEndian.Uint32(data[p : p+4])
	end = p + 4
	if got != chunkCRC(tag, payload) {
		return tag, payload, end, false, errors.New("trace: chunk crc mismatch")
	}
	return tag, payload, end, true, nil
}

// isTruncatedVarint reports whether b is a varint prefix cut short by the
// end of input (every byte has the continuation bit and fewer than the
// maximum length are present), as opposed to an overlong encoding.
func isTruncatedVarint(b []byte) bool {
	if len(b) >= binary.MaxVarintLen64 {
		return false
	}
	for _, c := range b {
		if c < 0x80 {
			return false
		}
	}
	return true
}

// salvageV2 runs the decode stage over a damaged log: a resynchronizing
// scan lists the accepted thread chunks, the decode pass decodes them
// per thread in parallel, and a finishing pass in byte order settles
// what the decoded chunks add to the report and to Log.Degraded.
func salvageV2(data []byte) (*Log, *SalvageReport) {
	rep := &SalvageReport{
		Format:     "LTRC2",
		TotalBytes: int64(len(data)),
		MagicBytes: int64(len(magic)),
		MetaSource: "none",
	}
	log := &Log{}
	var chunks []threadChunk
	lastSeq := make(map[int32]uint64)
	sawMeta := false
	var ckpt *Meta
	ckptAt := int64(-1)

	// accepted counts each thread's accepted chunks so far; marks holds
	// each damaged thread's first degrade mark, as "before its accepted
	// chunk k", which the finishing pass turns into an event index.
	accepted := make(map[int32]int)
	marks := make(map[int32]int)
	markDegraded := func(tid int32) {
		if _, ok := marks[tid]; !ok {
			marks[tid] = accepted[tid]
		}
	}
	// dropTo accounts for the skipped region [from, to) and remembers the
	// earliest damage point.
	dropTo := func(from, to int) {
		if to > from {
			rep.BytesDropped += int64(to - from)
		}
	}

	off := len(magic)
	for off < len(data) {
		// Resynchronize: find the next marker at or after off.
		idx := bytes.Index(data[off:], chunkMarker[:])
		if idx < 0 {
			// No further chunk can start; the tail is unreadable.
			rep.Truncated = true
			if rep.TruncatedAt == 0 {
				rep.TruncatedAt = int64(off)
			}
			dropTo(off, len(data))
			break
		}
		if idx > 0 {
			dropTo(off, off+idx)
			off += idx
		}
		tag, payload, end, crcOK, err := parseChunkV2(data, off)
		if err != nil {
			if errors.Is(err, errTruncatedChunk) {
				// The chunk runs off the end of the input — but a bit flip
				// in a length field can fake that, so keep scanning for a
				// later marker before concluding the log just ends here.
				if next := bytes.Index(data[off+1:], chunkMarker[:]); next >= 0 {
					rep.ChunksDropped++
					if tag >= tagThreadBase {
						tl := rep.thread(int32(uint32(tag - tagThreadBase)))
						tl.DroppedChunks++
						markDegraded(int32(uint32(tag - tagThreadBase)))
					}
					dropTo(off, off+1+next)
					off += 1 + next
					continue
				}
				rep.Truncated = true
				if rep.TruncatedAt == 0 {
					rep.TruncatedAt = int64(off)
				}
				dropTo(off, len(data))
				break
			}
			// In-place corruption: drop the chunk (or the bytes that
			// pretended to be one) and resync on the next marker. Never
			// trust the corrupt frame's own length — a flipped bit there
			// could leap over good chunks.
			rep.ChunksDropped++
			if !crcOK && end > off {
				rep.CRCFailures++
			}
			if tag >= tagThreadBase {
				tid := int32(uint32(tag - tagThreadBase))
				tl := rep.thread(tid)
				tl.DroppedChunks++
				tl.DroppedBytes += int64(len(payload))
				markDegraded(tid)
			}
			skipTo := len(data)
			if next := bytes.Index(data[off+1:], chunkMarker[:]); next >= 0 {
				skipTo = off + 1 + next
			}
			dropTo(off, skipTo)
			off = skipTo
			continue
		}

		// A well-formed chunk.
		switch {
		case tag == tagMeta:
			if jerr := json.Unmarshal(payload, &log.Meta); jerr != nil {
				rep.ChunksDropped++
				dropTo(off, end)
			} else {
				sawMeta = true
				rep.ChunksOK++
				rep.BytesOK += int64(end - off)
			}
		case tag == tagCheckpoint:
			var m Meta
			if jerr := json.Unmarshal(payload, &m); jerr != nil {
				rep.ChunksDropped++
				dropTo(off, end)
			} else {
				ckpt, ckptAt = &m, int64(off)
				rep.ChunksOK++
				rep.BytesOK += int64(end - off)
			}
		default:
			tid := int32(uint32(tag - tagThreadBase))
			tl := rep.thread(tid)
			seq, rest, serr := takeUvarint(payload)
			if serr != nil {
				rep.ChunksDropped++
				tl.DroppedChunks++
				tl.DroppedBytes += int64(len(payload))
				markDegraded(tid)
				dropTo(off, end)
				off = end
				continue
			}
			if seq <= lastSeq[tid] {
				// Duplicate (or replayed) chunk: its content is already in
				// the stream; keeping it would corrupt program order.
				rep.DuplicateChunks++
				dropTo(off, end)
				off = end
				continue
			}
			if gap := seq - lastSeq[tid] - 1; gap > 0 {
				tl.SeqGaps += gap
				rep.SeqGaps += gap
				markDegraded(tid)
			}
			lastSeq[tid] = seq
			chunks = append(chunks, threadChunk{tid: tid, payload: rest})
			accepted[tid]++
			rep.BytesOK += int64(end - off)
			rep.ChunksOK++
		}
		off = end
	}

	decodeThreads(log, chunks)
	events := make(map[int32]int, len(log.Threads)) // decoded so far, per thread
	degrade := func(tid int32) {
		if log.Degraded == nil {
			log.Degraded = make(map[int32]int)
		}
		if _, ok := log.Degraded[tid]; !ok {
			log.Degraded[tid] = events[tid]
		}
	}
	clear(accepted) // now counts the chunks the finishing pass has seen
	for _, c := range chunks {
		if k, ok := marks[c.tid]; ok && k == accepted[c.tid] {
			degrade(c.tid)
		}
		accepted[c.tid]++
		events[c.tid] += c.n
		tl := rep.Threads[c.tid]
		tl.EventsSalvaged += c.n
		rep.EventsSalvaged += c.n
		if c.err != nil {
			// CRC-valid but undecodable tail (writer bug or a CRC
			// collision): keep the prefix, mark the thread suspect.
			lost := int64(len(c.payload) - c.consumed)
			tl.DroppedBytes += lost
			rep.BytesDropped += lost
			rep.BytesOK -= lost
			degrade(c.tid)
		}
	}
	// Marks past a thread's last accepted chunk, or on a thread with none.
	for tid := range marks {
		degrade(tid)
	}

	switch {
	case sawMeta:
		rep.MetaSource = "trailer"
	case ckpt != nil:
		log.Meta = *ckpt
		rep.MetaSource = "checkpoint"
		rep.CheckpointAt = ckptAt
	}
	return log, rep
}

// ChunkSpan locates one chunk inside an encoded log.
type ChunkSpan struct {
	Start, End int    // byte offsets: [Start, End)
	Tag        uint64 // raw chunk tag
}

// IsCheckpoint reports whether a span is a periodic metadata checkpoint
// chunk.
func (c ChunkSpan) IsCheckpoint() bool { return c.Tag == tagCheckpoint }

// IsMeta reports whether a span is the metadata trailer.
func (c ChunkSpan) IsMeta() bool { return c.Tag == tagMeta }

// ChunkSpans enumerates the chunks of a structurally valid encoded log.
// It is the fault-injection harness's map of where it may cut, drop, or
// duplicate.
func ChunkSpans(data []byte) ([]ChunkSpan, error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, fmt.Errorf("trace: %w", errBadMagic(data))
	}
	var spans []ChunkSpan
	off := len(magic)
	for off < len(data) {
		if !bytes.HasPrefix(data[off:], chunkMarker[:]) {
			return nil, fmt.Errorf("trace: no chunk marker at offset %d", off)
		}
		tag, _, end, _, err := parseChunkV2(data, off)
		if err != nil {
			return nil, fmt.Errorf("trace: chunk at offset %d: %w", off, err)
		}
		spans = append(spans, ChunkSpan{Start: off, End: end, Tag: tag})
		off = end
	}
	return spans, nil
}
